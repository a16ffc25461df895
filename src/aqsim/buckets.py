"""Leaky-bucket token credit and antitoken debt, per edge.

Every edge owns a bucket level K: each round K gains the injection rate
and clamps at the burst capacity; injecting i packets whose paths cross
the edge requires i <= K and removes i; annihilating an antitoken removes
one rate unit. Levels may go negative through annihilations.

Levels are integers scaled by the rate denominator, so every comparison
is exact. Each edge stores its level relative to the round clock, the
rate accrued since round 0: the level is min(capacity, rel[e] + clock).
That is exact because ticks are the only increments and the clamp
commutes with them below capacity. So a tick adds the rate to the one
clock and touches no edge; an edge is written only when its level drops,
and the drop starts from the clamped level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ScenarioError

VOLUNTARY = "voluntary"
FORCED = "forced"


def annihilation(stall_round: int, delay: int, max_delay: int) -> tuple[int, str]:
    """The round and manner in which the group of a stall in ``stall_round``
    annihilates, given its annihilation delay in [0, max_delay]: round
    stall_round + delay, forced exactly when the delay is the maximum (the
    group expires), voluntary otherwise."""
    return stall_round + delay, FORCED if delay == max_delay else VOLUNTARY


@dataclass(frozen=True)
class AdversaryType:
    """Injection rate, burstiness and maximum feedback delay."""

    rate: Fraction
    burst: int
    delay: int

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise ScenarioError(f"rate must be in (0, 1], got {self.rate}")
        if self.burst < 1:
            raise ScenarioError("burstiness must be a positive integer")
        if self.delay < 1:
            raise ScenarioError("feedback delay must be a positive integer")


class AntitokenGroup:
    """The related antitokens created by one stall, annihilated together.

    One member per edge the stalled packet still had to traverse
    (including the edge it stalled on). All members share the creation
    round and vanish atomically; the group's annihilation round is when the
    feedback about the stall arrives. That round and the manner (forced or
    voluntary) are fixed when the group is created, by ``annihilation``.
    """

    __slots__ = ("gid", "edges", "due_round", "manner")

    def __init__(self, gid, edges, due_round, manner):
        self.gid = gid
        self.edges = tuple(edges)
        self.due_round = due_round
        self.manner = manner


@dataclass(frozen=True)
class InjectionResult:
    ok: bool
    insufficient_edge: str | None = None

    def __bool__(self):
        return self.ok


_AFFORDED = InjectionResult(True)  # frozen, so one instance serves every success


class BucketSystem:
    """All per-edge buckets plus the antitoken groups of one run that have
    yet to annihilate."""

    def __init__(self, adversary: AdversaryType, edge_ids):
        self.adversary = adversary
        self._num = adversary.rate.numerator
        self._den = adversary.rate.denominator
        self._cap = adversary.burst * self._den
        self.round = 0
        self._clock = 0  # the rate accrued since round 0: num * round
        self._rel = {e: 0 for e in edge_ids}  # level - clock, before the clamp
        self._due: dict[int, list[AntitokenGroup]] = {}  # round -> groups, gid order
        self._next_gid = 0

    # -- level bookkeeping -------------------------------------------------

    def level(self, edge) -> Fraction:
        """Current exact bucket level (after this round's tick)."""
        return Fraction(min(self._rel[edge] + self._clock, self._cap), self._den)

    def whole_tokens(self, path) -> int:
        """The whole tokens every edge of the non-empty ``path`` holds: its
        lowest level, floored to an integer."""
        lvl = min(map(self._rel.__getitem__, path)) + self._clock
        return (self._cap if lvl > self._cap else lvl) // self._den

    def levels(self) -> dict[str, Fraction]:
        return {e: self.level(e) for e in sorted(self._rel)}

    def tick(self) -> bool:
        """Advance one round; every bucket gains the rate, clamped at burst.
        Returns whether some antitoken group is due in the new round.

        Must run once per round before any other bucket operation.
        """
        self.round += 1
        self._clock += self._num
        return self.round in self._due

    # -- injection ---------------------------------------------------------

    def inject(self, paths) -> InjectionResult:
        """Atomically buy tokens for a sequence of packet paths.

        For each edge, the number of requested packets crossing it must
        not exceed the bucket level; on refusal nothing is deducted and
        the first insufficient edge, in order of first appearance, is
        reported. Refusal is a normal outcome for an adversary driver, not
        an error.

        The purchase is one pass: each link of each path gives one token
        from its clamped level as the pass reaches it. On a shortfall the
        takes so far are given back, which leaves each link at its clamped
        level, the level it had, and only then is the demand per link
        counted to name the short one.
        """
        rel, clock, den = self._rel, self._clock, self._den
        full = self._cap - clock  # the relative level of a full bucket
        need = den - clock  # the relative level of one whole token
        taken = 0
        for path in paths:
            for edge in path:
                r = rel[edge]
                if r > full:
                    r = full
                if r < need:
                    return self._refuse(paths, taken)
                rel[edge] = r - den
                taken += 1
        return _AFFORDED

    def _refuse(self, paths, taken: int) -> InjectionResult:
        """Give back the first ``taken`` tokens of a purchase that fell
        short, then name the first edge, in order of first appearance,
        whose demand exceeds its level."""
        rel, den = self._rel, self._den
        demand: dict[str, int] = {}
        for path in paths:
            for e in path:
                if taken:
                    rel[e] += den
                    taken -= 1
                demand[e] = demand.get(e, 0) + 1
        clock, cap = self._clock, self._cap
        short = next(e for e, count in demand.items()
                     if min(rel[e] + clock, cap) < count * den)
        return InjectionResult(False, short)

    # -- antitokens ----------------------------------------------------------

    def register_stall(self, remaining_edges, delay_choice=None):
        """Create the antitoken group for a packet that just stalled, one
        member per edge in ``remaining_edges``.

        ``delay_choice`` is the adversary's annihilation delay in
        [0, delay]; None or delay means letting the group expire, the
        maximally delayed feedback. A zero delay annihilates immediately.
        The group annihilates as ``annihilation`` rules.
        """
        max_delay = self.adversary.delay
        d = max_delay if delay_choice is None else delay_choice
        if not 0 <= d <= max_delay:
            raise ScenarioError(f"annihilation delay {d} outside [0, {max_delay}]")
        gid = self._next_gid
        self._next_gid += 1
        group = AntitokenGroup(gid, remaining_edges, *annihilation(self.round, d, max_delay))
        events = []
        if d == 0:
            events.append(self._annihilate(group))
        else:
            self._due.setdefault(group.due_round, []).append(group)
        return group, events

    def _annihilate(self, group: AntitokenGroup):
        rel, num, full = self._rel, self._num, self._cap - self._clock
        for edge in group.edges:
            r = rel[edge]
            rel[edge] = (full if r > full else r) - num
        return (group.manner, group)

    def tick_antitokens(self):
        """Annihilate every group due in the current round, in gid order.

        Runs once per round right after tick(). A group due at its creation
        round was already annihilated inline by register_stall. Groups join
        their round's list as they are created, so the list is in gid order.
        """
        return [self._annihilate(group) for group in self._due.pop(self.round, ())]
