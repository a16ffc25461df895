"""Analytical view of a run: stall, notification and reactive functions.

Per queue q the derived time series are:

  stall indicator      w(t)  in {0,1}: a packet in q stalled in round t
  notification map     D(t): the round the feedback about the stall at t
                       arrives, always within [t, t + delay]
  notification counts  n(t): how many notifications arrive in round t
  reactive indicator   s(t) in {0,1}: rounds the adversary is constrained

The reactive indicator spreads each notification onto its own round: a
moving pointer starts at 1; when c notifications arrive at round t the
pointer jumps to max(t, pointer), the next c rounds are marked, and the
pointer advances past the whole marked block. Advancing by one less (so
blocks may overlap their predecessor's last mark) would lose marks and
break the count-preservation the bound checks rely on, so the pointer
always clears the block.

Every bound has one shape, checked by ``check_interval_bound``: for every
queue and every contiguous round interval T, a count summed over T stays
within a per-round allowance summed over T plus a constant slack.

  admissibility    injections <= rate per round, 0 on reactive marks,
                   plus burstiness
  regular          injections <= rate per round, plus burstiness
  stall/reaction   stalls <= 1 on reactive marks, 0 elsewhere, plus delay
  reduction        low injections + stalls <= rate' per round,
                   plus burst' + tau (see ``reduction``)

The check scales by the lcm of the denominators and runs a linear
maximum-subarray (Kadane) scan per queue in exact integer arithmetic. The
exhaustive quadratic scan is kept only as the oracle tests compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ModelViolation


@dataclass
class StallTrace:
    rounds: dict[str, list[int]]  # queue -> sorted stalled rounds


@dataclass
class NotificationSchedule:
    arrival: dict[str, dict[int, int]]  # queue -> stall round -> feedback round


@dataclass
class DelayedCountTrace:
    counts: dict[str, dict[int, int]]  # queue -> round -> notifications arriving


@dataclass
class ReactiveTrace:
    marks: dict[str, tuple[int, ...]]  # queue -> sorted marked rounds (may pass horizon)


@dataclass
class InjectionTrace:
    counts: dict[str, dict[int, int]]  # queue -> round -> packets crossing it injected


# -- derivations from an execution trace -------------------------------------


def derive_stall_trace(trace) -> StallTrace:
    rounds: dict[str, list[int]] = {}
    for _, rnd, edge, _pid, _gid in trace.events_of("stall"):
        rounds.setdefault(edge, []).append(rnd)
    for lst in rounds.values():
        lst.sort()
    return StallTrace(rounds)


def derive_injection_trace(trace) -> InjectionTrace:
    counts: dict[str, dict[int, int]] = {}
    for _, rnd, _pid, path, _pri in trace.events_of("inject"):
        for edge in path:
            per_round = counts.setdefault(edge, {})
            per_round[rnd] = per_round.get(rnd, 0) + 1
    return InjectionTrace(counts)


def derive_notification_schedule(trace) -> NotificationSchedule:
    """Map each stall to the round its group annihilated.

    The engine drains pending groups past the horizon, so a missing or
    out-of-window annihilation is a model violation, not an input error.
    """
    annihilated: dict[int, int] = {}
    for _, rnd, gid, _how in trace.events_of("annihilate"):
        annihilated[gid] = rnd
    delay = trace.config.adversary.delay
    arrival: dict[str, dict[int, int]] = {}
    for _, rnd, edge, _pid, gid in trace.events_of("stall"):
        got = annihilated.get(gid)
        if got is None:
            raise ModelViolation(f"group {gid} never annihilated within horizon+delay")
        if not rnd <= got <= rnd + delay:
            raise ModelViolation(
                f"feedback for stall ({edge}, {rnd}) arrived at {got}, "
                f"outside [{rnd}, {rnd + delay}]")
        arrival.setdefault(edge, {})[rnd] = got
    return NotificationSchedule(arrival)


def delayed_counts(schedule: NotificationSchedule) -> DelayedCountTrace:
    counts: dict[str, dict[int, int]] = {}
    for queue, arrivals in schedule.arrival.items():
        per_round = counts.setdefault(queue, {})
        for arrive in arrivals.values():
            per_round[arrive] = per_round.get(arrive, 0) + 1
    return DelayedCountTrace(counts)


def compute_reactive(wd: DelayedCountTrace) -> ReactiveTrace:
    """Spread notification counts onto distinct reactive rounds."""
    marks: dict[str, tuple[int, ...]] = {}
    for queue, per_round in wd.counts.items():
        out: list[int] = []
        pointer = 1
        for t in sorted(per_round):
            count = per_round[t]
            if count <= 0:
                continue
            pointer = max(t, pointer)
            out.extend(range(pointer, pointer + count))
            pointer += count
        marks[queue] = tuple(out)
    return ReactiveTrace(marks)


def reactive_for_trace(trace) -> ReactiveTrace:
    """Pipeline shortcut: stall feedback of a run as a reactive trace."""
    schedule = derive_notification_schedule(trace)
    return compute_reactive(delayed_counts(schedule))


# -- interval checks -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    queue: str | None = None
    interval: tuple[int, int] | None = None
    lhs: Fraction | None = None
    rhs: Fraction | None = None

    def __bool__(self):
        return self.ok


def _max_interval_fast(values):
    """Best nonempty contiguous sum with its 1-based interval (Kadane)."""
    best = None
    best_span = (1, 1)
    cur = 0
    cur_start = 1
    for t in range(1, len(values)):
        v = values[t]
        if cur <= 0:
            cur = v
            cur_start = t
        else:
            cur += v
        if best is None or cur > best:
            best = cur
            best_span = (cur_start, t)
    return best, best_span


def _max_interval_quadratic(values):
    """Exhaustive interval scan; the test oracle for the Kadane scan."""
    horizon = len(values) - 1
    prefix = [0] * (horizon + 1)
    for t in range(1, horizon + 1):
        prefix[t] = prefix[t - 1] + values[t]
    best = None
    best_span = (1, 1)
    for t1 in range(1, horizon + 1):
        base = prefix[t1 - 1]
        for t2 in range(t1, horizon + 1):
            total = prefix[t2] - base
            if best is None or total > best:
                best = total
                best_span = (t1, t2)
    return best, best_span


def check_interval_bound(counts: dict[str, dict[int, int]], allowance: Fraction,
                         slack: Fraction, horizon: int,
                         overrides: dict[str, dict[int, Fraction]]) -> CheckResult:
    """The one interval inequality every bound of the model instantiates.

    For every queue in ``counts`` and every interval T within [1, horizon]:
    the counts summed over T stay at or below the per-round allowance
    summed over T, plus ``slack``. The allowance is ``allowance`` in every
    round except those a queue's ``overrides`` give their own value.

    Each round contributes scale * (count - allowance), with scale the lcm
    of all denominators, so the scan runs on integers. A positive scale
    keeps every comparison, hence the worst interval, of the rational scan.
    """
    scale = lcm(Fraction(allowance).denominator, Fraction(slack).denominator,
                *(Fraction(v).denominator
                  for per_round in overrides.values() for v in per_round.values()))
    base = -int(allowance * scale)
    worst = None  # (total, queue, span)
    for queue in sorted(counts):
        values = [base] * (horizon + 1)
        for t, v in overrides.get(queue, {}).items():
            if 1 <= t <= horizon:
                values[t] = -int(v * scale)
        for t, count in counts[queue].items():
            if 1 <= t <= horizon:
                values[t] += scale * count
        total, span = _max_interval_fast(values)
        if total is not None and (worst is None or total > worst[0]):
            worst = (total, queue, span)
    if worst is None:
        return CheckResult(True)
    total, queue, (t1, t2) = worst
    lhs = Fraction(sum(count for t, count in counts[queue].items() if t1 <= t <= t2))
    rhs = lhs - Fraction(total, scale) + slack
    return CheckResult(lhs <= rhs, queue, (t1, t2), lhs, rhs)


def check_admissibility(inj: InjectionTrace, reactive: ReactiveTrace,
                        rate: Fraction, burst: int, horizon: int) -> CheckResult:
    """Verify the delayed-feedback admissibility inequality everywhere.

    For every queue and contiguous interval T within the horizon:
    injected packets crossing the queue during T stay at or below
    rate * (rounds of T not marked reactive) + burstiness.
    """
    marked = {queue: dict.fromkeys(marks, 0) for queue, marks in reactive.marks.items()}
    return check_interval_bound(inj.counts, rate, burst, horizon, marked)


def check_regular_admissibility(inj: InjectionTrace, rate: Fraction, burst: int,
                                horizon: int) -> CheckResult:
    """Plain leaky-bucket admissibility: no reactive rounds at all."""
    return check_interval_bound(inj.counts, rate, burst, horizon, {})


def check_stall_reaction_bound(stalls: StallTrace, reactive: ReactiveTrace,
                               delay: int, horizon: int) -> CheckResult:
    """Stalls never outrun reactions by more than the feedback delay.

    For every queue and interval T: stalled rounds in T never exceed
    reactive rounds in T plus the delay.
    """
    stalled = {queue: dict.fromkeys(rounds, 1) for queue, rounds in stalls.rounds.items()}
    marked = {queue: dict.fromkeys(marks, 1) for queue, marks in reactive.marks.items()}
    return check_interval_bound(stalled, 0, delay, horizon, marked)
