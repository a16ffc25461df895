"""Leaky-bucket token credit and antitoken debt, per edge.

Every edge owns a bucket level K: each round K gains the injection rate
and clamps at the burst capacity; injecting i packets whose paths cross
the edge requires i <= K and removes i; annihilating an antitoken removes
one rate unit. Levels may go negative through annihilations.

Levels are stored as integers scaled by the rate denominator, so every
comparison is exact. Accrual is applied lazily: an untouched bucket's
level is reconstructed as min(capacity, level + rate * elapsed), which is
exact because ticks are the only increments and the clamp commutes with
them below capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, ScenarioError

VOLUNTARY = "voluntary"
FORCED = "forced"


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
    round, count down from the feedback delay in lockstep, and vanish
    atomically; the group's annihilation round is when the feedback about
    the stall arrives.
    """

    __slots__ = ("gid", "stall_edge", "stall_round", "packet_id", "edges",
                 "due_round", "alive", "annihilated_at")

    def __init__(self, gid, stall_edge, stall_round, packet_id, edges, due_round):
        self.gid = gid
        self.stall_edge = stall_edge
        self.stall_round = stall_round
        self.packet_id = packet_id
        self.edges = tuple(edges)
        self.due_round = due_round
        self.alive = True
        self.annihilated_at = None

    def value(self, now: int, delay: int) -> int:
        """Remaining antitoken value at round ``now``."""
        return delay - (now - self.stall_round)


@dataclass(frozen=True)
class InjectionResult:
    ok: bool
    insufficient_edge: str | None = None

    def __bool__(self):
        return self.ok


_AFFORDED = InjectionResult(True)  # frozen, so one instance serves every success


class BucketSystem:
    """All per-edge buckets plus the live antitoken groups of one run."""

    def __init__(self, adversary: AdversaryType, edge_ids):
        self.adversary = adversary
        self._num = adversary.rate.numerator
        self._den = adversary.rate.denominator
        self._cap = adversary.burst * self._den
        self.round = 0
        self._lvl = {e: 0 for e in edge_ids}
        self._touched = {e: 0 for e in edge_ids}
        self.groups: dict[int, AntitokenGroup] = {}
        self._due: dict[int, list[int]] = {}
        self._next_gid = 0

    # -- level bookkeeping -------------------------------------------------

    def _accrue(self, edge):
        last = self._touched[edge]
        if last != self.round:
            lvl = self._lvl[edge] + self._num * (self.round - last)
            self._lvl[edge] = self._cap if lvl > self._cap else lvl
            self._touched[edge] = self.round
        return self._lvl[edge]

    def level(self, edge) -> Fraction:
        """Current exact bucket level (after this round's tick)."""
        return Fraction(self._accrue(edge), self._den)

    def whole_tokens(self, edge) -> int:
        """Whole tokens in the bucket: the level floored to an integer."""
        return self._accrue(edge) // self._den

    def levels(self) -> dict[str, Fraction]:
        return {e: self.level(e) for e in sorted(self._lvl)}

    def tick(self):
        """Advance one round; every bucket gains the rate, clamped at burst.

        Must run once per round before any other bucket operation.
        """
        self.round += 1

    # -- injection ---------------------------------------------------------

    def can_afford(self, demand: dict[str, int]) -> str | None:
        """First edge (in demand order) that cannot cover its token count."""
        for edge, count in demand.items():
            if count > 0 and self._accrue(edge) < count * self._den:
                return edge
        return None

    def inject(self, paths) -> InjectionResult:
        """Atomically buy tokens for a batch of packet paths.

        For each edge, the number of requested packets crossing it must
        not exceed the bucket level; on refusal nothing is deducted and
        the first insufficient edge is reported. Refusal is a normal
        outcome for an adversary driver, not an error.
        """
        demand: dict[str, int] = {}
        for path in paths:
            for edge in path:
                demand[edge] = demand.get(edge, 0) + 1
        short = self.can_afford(demand)
        if short is not None:
            return InjectionResult(False, short)
        for edge, count in demand.items():
            self._lvl[edge] -= count * self._den
        return _AFFORDED

    # -- antitokens ----------------------------------------------------------

    def register_stall(self, stall_edge, remaining_edges, packet_id, delay_choice=None):
        """Create the antitoken group for a packet that just stalled.

        ``delay_choice`` is the adversary's annihilation delay in
        [0, delay]; None or delay means letting the group expire, the
        maximally delayed feedback. A zero delay annihilates immediately.
        """
        d = self.adversary.delay if delay_choice is None else delay_choice
        if not 0 <= d <= self.adversary.delay:
            raise ScenarioError(
                f"annihilation delay {d} outside [0, {self.adversary.delay}]")
        gid = self._next_gid
        self._next_gid += 1
        group = AntitokenGroup(gid, stall_edge, self.round, packet_id,
                               remaining_edges, self.round + d)
        self.groups[gid] = group
        events = []
        if d == 0:
            events.append(self._annihilate(group, VOLUNTARY))
        else:
            self._due.setdefault(group.due_round, []).append(gid)
        return group, events

    def _annihilate(self, group: AntitokenGroup, how: str):
        for edge in group.edges:
            self._accrue(edge)
            self._lvl[edge] -= self._num
        group.alive = False
        group.annihilated_at = self.round
        return (how, group)

    def annihilate_group(self, gid: int):
        """Adversary-chosen annihilation while the antitoken value is positive."""
        group = self.groups.get(gid)
        if group is None or not group.alive:
            raise ContractViolation(f"group {gid} is not alive")
        if group.value(self.round, self.adversary.delay) <= 0:
            raise ContractViolation(
                f"group {gid} must be force-expired, value is no longer positive")
        return self._annihilate(group, VOLUNTARY)

    def is_due(self, rnd: int) -> bool:
        """Whether some group is scheduled to annihilate in round ``rnd``."""
        return rnd in self._due

    def tick_antitokens(self):
        """Fire every group whose scheduled or forced round is now.

        Runs once per round right after tick(). A group scheduled at its
        creation round was already annihilated inline by register_stall.
        """
        events = []
        for gid in sorted(self._due.pop(self.round, ())):
            group = self.groups[gid]
            if not group.alive:
                continue
            how = FORCED if group.value(self.round, self.adversary.delay) == 0 else VOLUNTARY
            events.append(self._annihilate(group, how))
        return events

    def live_groups(self):
        return [g for g in self.groups.values() if g.alive]
