from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from aqsim import feedback, reduction
from aqsim.buckets import AdversaryType
from aqsim.engine import Engine, Injection, ScenarioConfig, run
from aqsim.errors import ModelViolation
from aqsim.feedback import (DelayedCountTrace, InjectionTrace, ReactiveTrace,
                            StallTrace, check_admissibility,
                            check_regular_admissibility,
                            check_stall_reaction_bound, compute_reactive,
                            delayed_counts, derive_injection_trace,
                            derive_notification_schedule, derive_stall_trace,
                            reactive_for_trace)
from aqsim.netmodel import Edge, Network

HALF = Fraction(1, 2)
ONE = Fraction(1)


def two_node(**kw):
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    base = dict(network=net, adversary=AdversaryType(ONE, 4, 2),
                policy="FIFO", horizon=8)
    base.update(kw)
    return ScenarioConfig(**base)


# -- derivations ----------------------------------------------------------------


def test_no_stalls_means_empty_stall_trace():
    trace = run(two_node(injections=(Injection(1, ("ab",)),)))
    assert derive_stall_trace(trace).rounds == {}


def test_single_stall_is_the_only_nonzero():
    trace = run(two_node(injections=(Injection(5, ("ab",)),), stalls={"ab": {5}}))
    stalls = derive_stall_trace(trace)
    assert stalls.rounds == {"ab": [5]}


def test_stall_trace_matches_group_creations():
    cfg = two_node(horizon=10,
                   injections=(Injection(1, ("ab",)), Injection(2, ("ab",)),
                               Injection(4, ("ab",))),
                   stalls={"ab": {2, 4, 7}})
    engine = Engine(cfg)
    adversary = cfg.adversary
    paid = []  # the rounds in which the ab bucket paid an antitoken
    level = engine.buckets.level("ab")
    for rnd in range(1, cfg.horizon + 1):
        bought = sum(ev[0] == "inject" for ev in engine.step(rnd))
        gained = min(level + adversary.rate, adversary.burst)
        level = engine.buckets.level("ab")
        if gained - bought - level == adversary.rate:
            paid.append(rnd)
    stalls = derive_stall_trace(engine.trace)
    # Each stall's group expires delta rounds later, the rate off its bucket.
    assert stalls.rounds["ab"] == [rnd - adversary.delay for rnd in paid] == [2, 4]


def test_forced_expiry_schedule():
    cfg = two_node(injections=(Injection(3, ("ab",)),), stalls={"ab": {3}})
    trace = run(cfg)
    schedule = derive_notification_schedule(trace)
    assert schedule.arrival == {"ab": {3: 5}}  # delay 2, maximally late


def test_same_round_voluntary_schedule():
    cfg = two_node(injections=(Injection(3, ("ab",)),), stalls={"ab": {3}},
                   annihilation_delays={("ab", 3): 0})
    trace = run(cfg)
    assert derive_notification_schedule(trace).arrival == {"ab": {3: 3}}


def test_two_stalls_arriving_together_count_twice():
    cfg = two_node(injections=(Injection(3, ("ab",)),), stalls={"ab": {3, 4}},
                   annihilation_delays={("ab", 3): 1, ("ab", 4): 0})
    trace = run(cfg)
    schedule = derive_notification_schedule(trace)
    assert schedule.arrival == {"ab": {3: 4, 4: 4}}
    wd = delayed_counts(schedule)
    assert wd.counts == {"ab": {4: 2}}


def test_out_of_window_annihilation_is_a_model_violation():
    trace = run(two_node(injections=(Injection(3, ("ab",)),), stalls={"ab": {3}}))
    # Tamper: pretend the annihilation happened before the stall.
    trace.events = [("annihilate", 1, gid, how) if kind == "annihilate"
                    else (kind, rnd, *rest)
                    for kind, rnd, *rest in trace.events
                    for gid, how in [(rest[0], rest[-1]) if kind == "annihilate"
                                     else (None, None)]]
    with pytest.raises(ModelViolation):
        derive_notification_schedule(trace)


# -- the reactive marking loop ---------------------------------------------------


def test_reactive_of_nothing_is_nothing():
    assert compute_reactive(DelayedCountTrace({})).marks == {}


def test_reactive_spreads_a_burst_forward():
    wd = DelayedCountTrace({"q": {1: 3}})
    assert compute_reactive(wd).marks["q"] == (1, 2, 3)


def test_reactive_pointer_clears_each_block():
    wd = DelayedCountTrace({"q": {2: 2, 4: 1}})
    # Hand trace: pointer 1 -> max(2,1)=2, mark 2,3, pointer 5? no: 2+2=4;
    # at t=4 pointer max(4,4)=4, mark 4, pointer 5.
    assert compute_reactive(wd).marks["q"] == (2, 3, 4)


def test_reactive_mass_equals_notification_mass():
    wd = DelayedCountTrace({"q": {1: 2, 2: 3, 9: 1}})
    reactive = compute_reactive(wd)
    assert len(reactive.marks["q"]) == 6
    assert reactive.marks["q"] == (1, 2, 3, 4, 5, 9)


@given(st.dictionaries(st.integers(1, 30), st.integers(1, 4), max_size=10))
def test_reactive_marks_are_distinct_and_never_early(counts):
    reactive = compute_reactive(DelayedCountTrace({"q": counts}))
    marks = reactive.marks.get("q", ())
    assert len(set(marks)) == len(marks)
    assert len(marks) == sum(counts.values())
    # Every mark is at or after the earliest notification not yet served.
    arrivals = sorted(t for t, c in counts.items() for _ in range(c))
    for arrived, marked in zip(arrivals, marks):
        assert marked >= arrived


# -- admissibility checks ---------------------------------------------------------


def brute_force_worst(values_by_queue, threshold):
    """Plain triple-loop oracle for the interval checks."""
    worst = None
    for queue in sorted(values_by_queue):
        vals = values_by_queue[queue]
        horizon = len(vals) - 1
        for t1 in range(1, horizon + 1):
            for t2 in range(t1, horizon + 1):
                total = sum(vals[t1:t2 + 1])
                if worst is None or total > worst[0]:
                    worst = (total, queue, (t1, t2))
    return worst


def test_empty_injections_are_admissible():
    result = check_admissibility(InjectionTrace({}), ReactiveTrace({}),
                                 HALF, 2, 10)
    assert result.ok and result.queue is None


def test_full_burst_in_one_round_sits_on_the_boundary():
    inj = InjectionTrace({"q": {5: 2}})
    result = check_admissibility(inj, ReactiveTrace({}), HALF, 2, 10)
    assert result.ok


def test_burst_plus_one_violates_on_the_singleton_interval():
    inj = InjectionTrace({"q": {5: 3}})
    result = check_admissibility(inj, ReactiveTrace({}), HALF, 2, 10)
    assert not result.ok
    assert result.queue == "q"
    assert result.interval == (5, 5)
    assert result.lhs == 3
    assert result.rhs == HALF + 2


def test_reactive_rounds_tighten_the_bound():
    # Two packets in rounds 4 and 5 pass with no marks at rate 1/2, b 1
    # over [4,5]: 2 <= 1/2*2 + 1 = 2; marking round 5 reactive drops the
    # allowance to 1/2 + 1 and the same injections now violate.
    inj = InjectionTrace({"q": {4: 1, 5: 1}})
    assert check_admissibility(inj, ReactiveTrace({}), HALF, 1, 10).ok
    marked = ReactiveTrace({"q": (5,)})
    result = check_admissibility(inj, marked, HALF, 1, 10)
    assert not result.ok and result.interval == (4, 5)


def test_uniform_rate_spacing_is_admissible():
    # One packet every ceil(1/r) = 2 rounds at rate 1/2 never exceeds
    # r|T| + b for any interval; verified against the brute-force oracle.
    inj = InjectionTrace({"q": {t: 1 for t in range(1, 21, 2)}})
    assert check_regular_admissibility(inj, HALF, 1, 20).ok
    values = {"q": [0] + [inj.counts["q"].get(t, 0) * 2 - 1 for t in range(1, 21)]}
    total, _, _ = brute_force_worst(values, 2)
    assert total <= 2


def test_double_burst_over_two_rounds_violates():
    inj = InjectionTrace({"q": {1: 2, 2: 2}})
    result = check_regular_admissibility(inj, HALF, 2, 10)
    assert not result.ok
    assert result.interval == (1, 2)
    assert result.lhs == 4 and result.rhs == 3


def test_worst_interval_matches_brute_force_oracle():
    inj = InjectionTrace({"q": {1: 1, 4: 2, 5: 1}, "p": {2: 2, 3: 2}})
    reactive = ReactiveTrace({"q": (2, 6), "p": (3,)})
    rate, burst = Fraction(1, 3), 2
    result = check_admissibility(inj, reactive, rate, burst, 8)
    values = {}
    for queue in inj.counts:
        marks = reactive.marks[queue]
        values[queue] = [0] + [
            3 * inj.counts[queue].get(t, 0) - 1 * (t not in marks)
            for t in range(1, 9)]
    total, queue, span = brute_force_worst(values, 3 * burst)
    assert result.ok == (total <= 3 * burst)
    got = sum(values[result.queue][result.interval[0]:result.interval[1] + 1])
    assert got == total  # same extremal value, interval may differ on ties


# -- the stall/reaction bound ------------------------------------------------------


def test_stall_bound_trivial_when_no_stalls():
    result = check_stall_reaction_bound(StallTrace({}), ReactiveTrace({}), 2, 10)
    assert result.ok


def test_stall_bound_small_case_all_intervals():
    # w = [1,0,0], s = [0,0,1], delay 2: every one of the 6 intervals obeys
    # sum(w) <= sum(s) + 2; checked here by full enumeration.
    stalls = StallTrace({"q": [1]})
    reactive = ReactiveTrace({"q": (3,)})
    w, s = [0, 1, 0, 0], [0, 0, 0, 1]
    for t1 in range(1, 4):
        for t2 in range(t1, 4):
            assert sum(w[t1:t2 + 1]) <= sum(s[t1:t2 + 1]) + 2
    assert check_stall_reaction_bound(stalls, reactive, 2, 3).ok


def test_stall_bound_detects_unserved_backlog():
    stalls = StallTrace({"q": [1, 2, 3, 4]})
    result = check_stall_reaction_bound(stalls, ReactiveTrace({}), 2, 6)
    assert not result.ok
    assert result.interval == (1, 4)  # the maximal violation window
    assert result.lhs == 4 and result.rhs == 2


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
def test_fast_and_quadratic_scans_agree(raw):
    values = [0] + raw
    fast_total, fast_span = feedback._max_interval_fast(values)
    quad_total, _ = feedback._max_interval_quadratic(values)
    assert fast_total == quad_total
    t1, t2 = fast_span
    assert sum(values[t1:t2 + 1]) == fast_total


# -- pipeline properties on real runs ----------------------------------------------


def pipeline_case(seed):
    from aqsim.analysis import gen_random_scenario

    return gen_random_scenario(
        seed, rate=HALF, burst=2, delay=2, tau=2, policy="FTG",
        horizon=60, nodes=(4, 6), stall_density=0.2, with_trace=True)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_generated_runs_satisfy_both_bounds(seed):
    # Both feedback bounds and the reduction's combined congestion, each
    # run once with the Kadane scan and once with the quadratic oracle.
    _, trace = pipeline_case(seed)
    inj = derive_injection_trace(trace)
    reactive = reactive_for_trace(trace)
    stalls = derive_stall_trace(trace)
    adv = trace.config.adversary
    params = reduction.compute_reduced_params(adv.rate, adv.burst, adv.delay,
                                              trace.config.tau)

    def checks():
        return [check_admissibility(inj, reactive, adv.rate, adv.burst, trace.horizon),
                check_stall_reaction_bound(stalls, reactive, adv.delay, trace.horizon),
                reduction.check_combined_congestion(trace, params)]

    fast = checks()
    with mock.patch.object(feedback, "_max_interval_fast",
                           feedback._max_interval_quadratic):
        oracle = checks()
    for got, want in zip(fast, oracle):
        assert got.ok and want.ok
        # A tie may pick another witness interval, never another margin.
        assert got.rhs - got.lhs == want.rhs - want.lhs


def test_mass_conservation_on_a_real_run():
    _, trace = pipeline_case(7)
    stalls = derive_stall_trace(trace)
    schedule = derive_notification_schedule(trace)
    wd = delayed_counts(schedule)
    reactive = compute_reactive(wd)
    for queue, rounds in stalls.rounds.items():
        assert len(rounds) == sum(wd.counts.get(queue, {}).values())
        assert len(reactive.marks.get(queue, ())) == len(rounds)
