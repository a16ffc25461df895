"""Transforming a delayed-feedback run into a two-priority run.

A run whose stalls are bounded (at most tau in any tau+1 consecutive
rounds per queue) maps onto an execution in the plain adversarial model
with two packet priorities: the original injections become low-priority
traffic, and every stalled (queue, round) becomes one high-priority
packet injected at that queue with the single-edge path, consuming
exactly the round the stall wasted. The reduced rate and burstiness are

    rate' = (rate + tau) / (tau + 1)        burst' = rate * delay + burst

and the combined per-queue congestion obeys rate' * |T| + burst' + tau on
every interval, the extra tau absorbing window alignment at finite
horizons. That bound is one instance of ``feedback.check_interval_bound``.

The replay keeps the source run's failures and recoveries, promoted
failures among them, so packets re-route exactly where they did in the
source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import feedback
from .engine import HIGH_ID_BASE, Engine, ExecutionTrace, Injection, ScenarioConfig
from .errors import ModelViolation, ScenarioError
from .policies import Prioritized

HIGH = 1


@dataclass(frozen=True)
class ReducedParams:
    rate2: Fraction
    burst2: Fraction
    source_rate: Fraction
    source_burst: int
    source_delay: int
    tau: int


def compute_reduced_params(rate: Fraction, burst: int, delay: int, tau: int) -> ReducedParams:
    if not 0 < rate < 1:
        raise ScenarioError(f"reduction needs 0 < rate < 1, got {rate}")
    if burst < 1 or delay < 1 or tau < 1:
        raise ScenarioError("burst, delay and tau must be positive")
    rate2 = (rate + tau) / Fraction(tau + 1)
    burst2 = rate * delay + burst
    if not 0 < rate2 < 1:
        raise ModelViolation(f"reduced rate {rate2} outside (0, 1)")
    return ReducedParams(rate2, burst2, rate, burst, delay, tau)


def tau_window_violation(stalls: feedback.StallTrace, tau: int):
    """First queue window holding more than tau stalls in tau+1 rounds.

    Equivalent to a run of more than tau consecutive stalled rounds.
    Returns (queue, start_round, end_round) or None.
    """
    for queue in sorted(stalls.rounds):
        rounds = stalls.rounds[queue]
        run_start = None
        prev = None
        for t in rounds:
            if prev is not None and t == prev + 1:
                if t - run_start + 1 > tau:
                    return (queue, run_start, t)
            else:
                run_start = t
            prev = t
    return None


@dataclass(frozen=True)
class TwoPriorityTrace:
    low: tuple[Injection, ...]
    high: tuple[Injection, ...]
    stall_free: bool = True


def build_two_priority_trace(src: ExecutionTrace) -> TwoPriorityTrace:
    """Low copies of the source injections plus one high packet per stall."""
    stalls = feedback.derive_stall_trace(src)
    witness = tau_window_violation(stalls, src.config.tau)
    if witness is not None:
        queue, start, end = witness
        raise ScenarioError(
            f"stall schedule at {queue!r} exceeds tau={src.config.tau} "
            f"in rounds [{start}, {end}]")
    low = tuple(
        Injection(rnd, tuple(path), 0, pid)
        for _, rnd, pid, path, _pri in src.events_of("inject"))
    high = []
    serial = 0
    for queue in sorted(stalls.rounds):
        for rnd in stalls.rounds[queue]:
            high.append(Injection(rnd, (queue,), HIGH, HIGH_ID_BASE + serial))
            serial += 1
    high.sort(key=lambda inj: (inj.round, inj.id))
    return TwoPriorityTrace(low, tuple(high), stall_free=not high)


@dataclass(frozen=True)
class ReductionReport:
    params: ReducedParams
    high_cap_ok: bool  # never two high packets waiting at one queue
    same_round_ok: bool  # each high packet absorbed the round it entered
    transmissions_equal: bool
    combined: feedback.CheckResult
    first_divergence: str | None = None

    @property
    def ok(self) -> bool:
        return (self.high_cap_ok and self.same_round_ok
                and self.transmissions_equal and bool(self.combined))


def _replay_config(src: ExecutionTrace, two: TwoPriorityTrace) -> ScenarioConfig:
    policy = src.config.policy
    if isinstance(policy, Prioritized):
        raise ScenarioError("source run must use a plain (unprioritized) policy")
    merged = sorted(two.low + two.high, key=lambda inj: (inj.round, inj.id))
    return replace(
        src.config,
        policy=Prioritized(policy, 2),
        injections=tuple(merged),
        stalls={},
        annihilation_delays={},
        enforce_buckets=False,
    )


def verify_reduction(src: ExecutionTrace) -> ReductionReport:
    """Replay the two-priority construction and verify its guarantees.

    Checks that (a) no queue ever holds two high-priority packets at
    once, (b) every high packet leaves in its injection round, (c) the
    low-priority transmission schedule is identical to the source run,
    and (d) the combined congestion respects the reduced parameters.
    """
    cfg = src.config
    params = compute_reduced_params(
        cfg.adversary.rate, cfg.adversary.burst, cfg.adversary.delay, cfg.tau)
    two = build_two_priority_trace(src)
    replay = Engine(_replay_config(src, two)).run()

    divergence = None
    # High packets occupy their queue from injection to transmission; the
    # occupancy intervals per queue must be disjoint points.
    high_cap_ok = True
    same_round_ok = True
    spans: dict[str, list[tuple[int, int]]] = {}
    for inj in two.high:
        rec = replay.packets.get(inj.id)
        out = rec.absorbed_round if rec else None
        if out is None:
            same_round_ok = False
            divergence = divergence or f"high packet {inj.id} never absorbed"
            out = replay.horizon + 1
        elif out != inj.round:
            same_round_ok = False
            divergence = divergence or (
                f"high packet {inj.id} injected in round {inj.round} "
                f"but left in round {out}")
        spans.setdefault(inj.path[0], []).append((inj.round, out))
    for queue, intervals in sorted(spans.items()):
        intervals.sort()
        for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
            if s2 <= e1:
                high_cap_ok = False
                divergence = divergence or (
                    f"two high packets overlap at {queue!r} in round {s2}")
                break

    src_tx = {(pid, edge, rnd) for _, rnd, edge, pid in src.events_of("transmit")}
    low_tx = {(pid, edge, rnd) for _, rnd, edge, pid in replay.events_of("transmit")
              if pid < HIGH_ID_BASE}
    transmissions_equal = src_tx == low_tx
    if not transmissions_equal and divergence is None:
        sample = sorted(src_tx ^ low_tx)[0]
        side = "source" if sample in src_tx else "replay"
        divergence = f"transmission {sample} only in the {side} run"

    combined = check_combined_congestion(src, params)
    return ReductionReport(params, high_cap_ok, same_round_ok,
                           transmissions_equal, combined, divergence)


def check_combined_congestion(src: ExecutionTrace,
                              params: ReducedParams) -> feedback.CheckResult:
    """Low injections plus stalls against rate' |T| + burst' + tau."""
    combined = {queue: dict(per_round)
                for queue, per_round in feedback.derive_injection_trace(src).counts.items()}
    for queue, rounds in feedback.derive_stall_trace(src).rounds.items():
        per_round = combined.setdefault(queue, {})
        for t in rounds:
            per_round[t] = per_round.get(t, 0) + 1
    return feedback.check_interval_bound(combined, params.rate2,
                                         params.burst2 + params.tau, src.horizon, {})
