from fractions import Fraction

import pytest

from aqsim.analysis import gen_random_scenario
from aqsim.buckets import AdversaryType
from aqsim.engine import Injection, ScenarioConfig, run
from aqsim.errors import ScenarioError
from aqsim.feedback import StallTrace
from aqsim.netmodel import Edge, Network
from aqsim.reduction import (HIGH_ID_BASE, build_two_priority_trace,
                             check_combined_congestion, compute_reduced_params,
                             tau_window_violation, verify_reduction)

HALF = Fraction(1, 2)


def test_reduced_params_worked_example():
    params = compute_reduced_params(HALF, 2, 4, 1)
    assert params.rate2 == Fraction(3, 4)
    assert params.burst2 == 4


def test_reduced_params_preconditions():
    with pytest.raises(ScenarioError):
        compute_reduced_params(HALF, 2, 0, 1)  # the delay must be positive
    with pytest.raises(ScenarioError):
        compute_reduced_params(Fraction(1), 2, 4, 1)  # rate 1 has no reduction
    with pytest.raises(ScenarioError):
        compute_reduced_params(HALF, 0, 4, 1)


def test_reduced_rate_grows_toward_one_with_tau():
    rates = [compute_reduced_params(HALF, 1, 1, tau).rate2
             for tau in range(1, 101)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(0 < r < 1 for r in rates)


def test_tau_window_detection():
    assert tau_window_violation(StallTrace({"q": [3, 4, 5]}), 2) == ("q", 3, 5)
    assert tau_window_violation(StallTrace({"q": [3, 4, 6, 7]}), 2) is None
    assert tau_window_violation(StallTrace({}), 1) is None


def stall_case(**kw):
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    base = dict(network=net, adversary=AdversaryType(HALF, 2, 2),
                policy="FIFO", horizon=8, tau=1,
                injections=(Injection(2, ("ab",)),),
                stalls={"ab": {2}})
    base.update(kw)
    return ScenarioConfig(**base)


def test_build_with_no_stalls_adds_no_high_packets():
    trace = run(stall_case(stalls={}))
    two = build_two_priority_trace(trace)
    assert two.high == ()
    assert [inj.id for inj in two.low] == [0]


def test_build_adds_one_single_edge_high_packet_per_stall():
    trace = run(stall_case())
    two = build_two_priority_trace(trace)
    assert len(two.high) == 1
    high = two.high[0]
    assert high.round == 2
    assert high.path == ("ab",)
    assert high.priority == 1
    assert high.id >= HIGH_ID_BASE


def test_build_refuses_tau_violations():
    trace = run(stall_case(horizon=10,
                           injections=(Injection(2, ("ab",)),),
                           stalls={"ab": {2, 3}}, tau=1))
    with pytest.raises(ScenarioError) as err:
        build_two_priority_trace(trace)
    assert "[2, 3]" in str(err.value)


def test_hand_scenario_reduction_passes_all_checks():
    trace = run(stall_case())
    report = verify_reduction(trace)
    assert report.ok, report.first_divergence
    assert report.high_cap_ok and report.same_round_ok
    assert report.transmissions_equal
    assert report.combined.ok


@pytest.mark.parametrize("ids, first_high", [
    ((0, 1), HIGH_ID_BASE),
    ((HIGH_ID_BASE, HIGH_ID_BASE + 1), HIGH_ID_BASE + 2),
    ((5, HIGH_ID_BASE + 7), HIGH_ID_BASE + 8),
], ids=["below", "at-base", "straddling"])
def test_sources_with_ids_at_or_above_the_high_base_reduce_exactly(ids, first_high):
    # The high packets are numbered above every source id.
    net = Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ba", "b", "a")])
    src = run(ScenarioConfig(
        network=net, adversary=AdversaryType(HALF, 2, 2), policy="FIFO", horizon=6,
        injections=tuple(Injection(rnd, ("ab",), 0, pid) for rnd, pid in zip((1, 2), ids)),
        stalls={"ab": {1}}, enforce_buckets=False))
    assert [inj.id for inj in build_two_priority_trace(src).high] == [first_high]
    report = verify_reduction(src)
    assert report.ok and report.transmissions_equal, report.first_divergence


def test_high_packet_takes_exactly_the_stalled_slot():
    src = run(stall_case())
    # Source: the packet stalls in round 2 and crosses in round 3.
    assert [(r, p) for _, r, _, p in src.events_of("transmit")] == [(3, 0)]
    two = build_two_priority_trace(src)
    from aqsim.reduction import _replay_config

    replay = run(_replay_config(src, two))
    tx = [(r, p) for _, r, _, p in replay.events_of("transmit")]
    assert (2, two.high[0].id) in tx  # the high packet fills round 2
    assert (3, 0) in tx  # the low packet crosses exactly as in the source


def test_combined_congestion_holds_on_hand_scenario():
    trace = run(stall_case())
    params = compute_reduced_params(HALF, 2, 2, 1)
    assert check_combined_congestion(trace, params).ok


def test_prioritized_source_rejected():
    from dataclasses import replace

    from aqsim.policies import Prioritized

    trace = run(stall_case())
    trace.config = replace(trace.config, policy=Prioritized("FIFO", 2))
    with pytest.raises(ScenarioError):
        verify_reduction(trace)


@pytest.mark.parametrize("seed,tau,policy", [
    (11, 1, "FTG"), (12, 2, "FTG"), (13, 3, "NFS"), (14, 2, "SIS"),
    (15, 1, "FIFO"),
])
def test_randomized_tau_bounded_scenarios_verify(seed, tau, policy):
    _, trace = gen_random_scenario(
        seed, rate=HALF, burst=2, delay=2, tau=tau, policy=policy,
        horizon=80, nodes=(4, 7), stall_density=0.25, with_trace=True)
    report = verify_reduction(trace)
    assert report.ok, report.first_divergence


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reduction_replays_permanent_failures(seed):
    # The replay must fail the same links, so its low packets re-route
    # exactly where the source's did.
    _, trace = gen_random_scenario(
        seed, rate=HALF, burst=2, delay=2, tau=2, policy="FTG",
        horizon=60, nodes=(4, 6), failures=2, with_trace=True)
    assert list(trace.events_of("reroute"))
    report = verify_reduction(trace)
    assert report.transmissions_equal, report.first_divergence
    assert report.ok


def test_reduction_replays_promoted_failures():
    # Stalls on bz in rounds 3 and 4 reach tau = 2, so bz fails from round
    # 5 on; the replay must fail it too, or its low packets would cross bz.
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(HALF, 2, 2), policy="FIFO", horizon=12,
        injections=(Injection(2, ("ab", "bz")), Injection(4, ("ab", "bz"))),
        stalls={"bz": {3, 4}}, tau=2, tau_prime=1, promote_after_tau=True)
    trace = run(cfg)
    assert trace.events_of("fail") == [("fail", 5, "bz")]
    assert trace.events_of("reroute")
    report = verify_reduction(trace)
    assert report.transmissions_equal, report.first_divergence
    assert report.ok
