import multiprocessing
import os
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from aqsim.analysis import (BOUNDED, GROWTH, GreedyDriver, count_rerouted,
                            gen_random_scenario, injections_after_notification,
                            probe_stability, random_network, rerouting_gadget,
                            strongly_connected, sweep)
from aqsim.buckets import AdversaryType, BucketSystem
from aqsim.engine import (Engine, ExecutionTrace, FailureEvent, Injection,
                          ScenarioConfig, run)
from aqsim.errors import ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.scenario_io import dumps_scenario

HALF = Fraction(1, 2)
ONE = Fraction(1)


def synthetic_trace(q_totals):
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(ONE, 1, 1),
                         policy="FIFO", horizon=len(q_totals))
    trace = ExecutionTrace(cfg)
    trace.q_totals = list(q_totals)
    return trace


def test_probe_rejects_short_horizons():
    with pytest.raises(ScenarioError):
        probe_stability(synthetic_trace([0] * 50), window=10, k=3)


def test_probe_reports_bounded_for_drained_runs():
    report = probe_stability(synthetic_trace([1, 2, 1] + [0] * 97),
                             window=10, k=3, g=5)
    assert report.verdict == BOUNDED
    assert report.overall_max == 2


def test_probe_flags_linear_growth():
    report = probe_stability(synthetic_trace(list(range(1, 101))),
                             window=10, k=3, g=5)
    assert report.verdict == GROWTH
    assert len(report.witness) == 4  # base window plus three raisers
    assert report.maxima[:3] == (10, 20, 30)


def test_probe_parameters_validated():
    with pytest.raises(ScenarioError):
        probe_stability(synthetic_trace([0] * 100), window=0)


# -- the re-routing overload gadget ---------------------------------------------


def test_gadget_topology_shape():
    for n in (1, 2, 4):
        cfg = rerouting_gadget(branches=n, cycles=2).config
        assert len(cfg.network.nodes) == 3 * n + 2
        assert len(cfg.network.edges) == 5 * n


def test_gadget_single_branch_reroutes_whole_bursts():
    g = rerouting_gadget(branches=1, burst=10, fail_duration=10, cycles=3)
    trace = run(g.config)
    counts = count_rerouted(trace)
    # Every burst of 10 is cut off and re-routed through the hub.
    assert sorted(counts.per_failure.values()) == [10, 10, 10]
    assert counts.total == 30
    hub_tx = [e for _, _, e, _ in trace.events_of("transmit") if e == "g1"]
    assert len(hub_tx) > 0


def test_gadget_bottleneck_grows_a_fixed_step_each_cycle():
    # Hand count for two branches, burst 10, failures lasting 10 rounds:
    # warmup 12 rounds fills the buckets; each 12-round cycle feeds the hub
    # 2 packets a round for 10 rounds (20 in) while it serves 12, so the
    # cycle-end backlog is 11 after the first cycle and climbs by 8.
    g = rerouting_gadget(branches=2, burst=10, fail_duration=10, cycles=12)
    assert (g.warmup, g.cycle_length) == (12, 12)
    trace = run(g.config)
    series = trace.queue_series(g.bottleneck_edge)
    ends = [series[r - 1] for r in g.cycle_end_rounds()]
    assert ends == [11 + 8 * c for c in range(12)]


def test_gadget_recoveries_break_the_recovery_discipline():
    from aqsim.engine import validate_recovery

    g = rerouting_gadget(branches=2, burst=10, fail_duration=10, cycles=3)
    trace = run(g.config)
    assert not validate_recovery(trace).ok


def test_injections_inside_a_notification_window_are_reported():
    # b1 fails in rounds 12 and 24, each notified a round later, and
    # recovers in 22 and 34; injects edited into an imported trace are
    # reported only inside [13, 22) and [25, 34).
    trace = run(rerouting_gadget(branches=1, burst=10, fail_duration=10, cycles=2).config)
    assert trace.config.fault_pairs() == {("b1", 12): 22, ("b1", 24): 34}
    trace.events += [("inject", rnd, 1000 + rnd, ("a1", "b1"), 0)
                     for rnd in (12, 13, 21, 22, 24, 25, 33, 34)]
    assert injections_after_notification(trace) == [
        (13, 1013, "b1"), (21, 1021, "b1"), (25, 1025, "b1"), (33, 1033, "b1")]


def test_tiny_gadget_can_be_served_in_time():
    g = rerouting_gadget(branches=1, burst=1, fail_duration=1, cycles=300)
    trace = run(g.config)
    assert probe_stability(trace).verdict == BOUNDED


def test_gadget_injections_stay_inside_notification_rules():
    g = rerouting_gadget(branches=2, burst=10, fail_duration=10, cycles=4)
    trace = run(g.config)
    assert injections_after_notification(trace) == []


# -- re-route accounting -----------------------------------------------------------


def test_count_rerouted_zero_without_failures():
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(ONE, 2, 1),
                         policy="FIFO", horizon=4,
                         injections=(Injection(1, ("ab",)),))
    counts = count_rerouted(run(cfg))
    assert counts.total == 0 and counts.per_failure == {}
    assert counts.last_round is None


def test_count_rerouted_on_a_line_is_waiting_plus_in_flight():
    # Four packets head for e3; when it fails (visible in round 5) two sit
    # in its queue and two are still approaching. All four re-route via
    # the bypass, and nothing re-routes after the flow drains.
    nodes = ["n0", "n1", "n2", "n3", "n4"]
    edges = [Edge(f"e{i}", nodes[i], nodes[i + 1]) for i in range(4)]
    edges.append(Edge("byp", "n3", "n4"))
    net = Network(nodes, edges)
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 4, 1), policy="FIFO",
        horizon=20, tau_prime=2,
        injections=tuple(Injection(r, ("e0", "e1", "e2", "e3"))
                         for r in (1, 2, 3, 4)),
        failures=(FailureEvent("e3", 4, notify_delay=1),))
    trace = run(cfg)
    counts = count_rerouted(trace)
    assert counts.per_failure == {("e3", 4): 4}
    assert counts.last_round is not None
    drain = max(rec.absorbed_round for rec in trace.packets.values())
    assert counts.last_round <= drain


# -- random generation ---------------------------------------------------------------


def test_random_network_is_strongly_connected():
    import random

    for seed in range(10):
        net = random_network(random.Random(seed), 4, 12)
        assert strongly_connected(net)


def test_gen_is_deterministic_per_seed():
    kw = dict(rate=HALF, burst=2, delay=2, tau=2, policy="FTG", horizon=60,
              stall_density=0.2)
    a = gen_random_scenario(21, **kw)
    b = gen_random_scenario(21, **kw)
    c = gen_random_scenario(22, **kw)
    assert dumps_scenario(a) == dumps_scenario(b)
    assert dumps_scenario(a) != dumps_scenario(c)


def test_gen_scripts_replay_identically():
    cfg, co_trace = gen_random_scenario(
        33, rate=Fraction(3, 4), burst=2, delay=2, tau=2, policy="NFS",
        horizon=80, stall_density=0.2, with_trace=True)
    replay = run(cfg)
    assert replay.digest() == co_trace.digest()


def test_gen_respects_tau_in_stall_schedules():
    cfg = gen_random_scenario(5, rate=HALF, burst=2, delay=2, tau=2,
                              policy="FTG", horizon=200, stall_density=0.3)
    for edge, rounds in cfg.stalls.items():
        ordered = sorted(rounds)
        consecutive = 1
        for a, b in zip(ordered, ordered[1:]):
            consecutive = consecutive + 1 if b == a + 1 else 1
            assert consecutive <= 2, f"{edge} stalls {ordered}"


def test_gen_with_failures_keeps_reroutes_possible():
    cfg, trace = gen_random_scenario(
        8, rate=HALF, burst=2, delay=2, tau=2, policy="FTG", horizon=120,
        stall_density=0.1, failures=2, with_trace=True)
    assert len(cfg.failures) == 2
    assert strongly_connected(cfg.network,
                              frozenset(ev.edge for ev in cfg.failures))
    assert injections_after_notification(trace) == []


def test_greedy_driver_is_deterministic():
    net = random_network(__import__("random").Random(3), 4, 6)
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(HALF, 2, 2),
                         policy="FIFO", horizon=40)
    from aqsim.engine import Engine

    a = Engine(cfg, driver=GreedyDriver(99)).run()
    b = Engine(cfg, driver=GreedyDriver(99)).run()
    assert a.events == b.events


def test_greedy_driver_whole_tokens_keep_the_truncating_scripts(monkeypatch):
    # Criterion-6 base seeds 9001..9009: the co-run scripts from floored
    # whole tokens equal those from int() of the exact level.
    def sweep():
        scripts = []
        for base in range(9001, 9010):
            i = base - 9001
            for policy in ("FTG", "NFS", "SIS"):
                cfg = gen_random_scenario(
                    base, rate=(HALF, Fraction(3, 4), Fraction(9, 10))[i % 3],
                    burst=(1, 2, 4)[i % 3], delay=(1, 2, 4)[i % 3], tau=(i % 2) + 1,
                    policy=policy, horizon=10_000, stall_density=0.02,
                    inject_prob=0.25)
                scripts.append(cfg.injections)
        return scripts

    floored = sweep()
    monkeypatch.setattr(BucketSystem, "whole_tokens",
                        lambda self, edge: int(self.level(edge)))
    assert sweep() == floored
    assert sum(map(len, floored)) > 27 * 1000


def scripted_kept(cfg, trace):
    """Whether every scripted injection of ``cfg`` was made in ``trace``."""
    made = Counter((ev[1], ev[3]) for ev in trace.events if ev[0] == "inject")
    return not Counter((inj.round, inj.path) for inj in cfg.injections) - made


def test_greedy_driver_leaves_a_script_its_tokens():
    # A driver sizing its injections from the levels alone aborts this run
    # in round 3: in round 2 it spends a token on e003 that the two round-3
    # scripted injections need.
    cfg = gen_random_scenario(11, rate=Fraction(3, 4), burst=2, delay=3, tau=2,
                              policy="FTG", horizon=600, nodes=(5, 8),
                              stall_density=0.1, failures=2)
    cfg = replace(cfg, injections=cfg.injections[:40])
    trace = Engine(cfg, driver=GreedyDriver(7)).run()
    assert scripted_kept(cfg, trace)
    assert sum(ev[0] == "inject" for ev in trace.events) > 2 * len(cfg.injections)


@pytest.mark.parametrize("script", [
    (Injection(1, ("ab",)),),
    (Injection(2, ("ab",)), Injection(2, ("ab",))),
    (Injection(3, ("ab",)), Injection(3, ("ab",)), Injection(4, ("ab",))),
], ids=["same-round", "next-round", "two-rounds-on"])
def test_greedy_driver_spends_no_token_a_later_script_needs(script):
    # One edge at rate 1, burst 2: the level is 1 in round 1 and 2 from
    # round 2 on, exactly what each script spends when the driver leaves it.
    net = Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ba", "b", "a")])
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(ONE, 2, 1),
                         policy="FIFO", horizon=6, injections=script)
    for seed in range(20):
        trace = Engine(cfg, driver=GreedyDriver(seed, inject_prob=1.0, max_path_len=1,
                                                max_burst=2)).run()
        assert scripted_kept(cfg, trace), seed


def square_in(x):
    return x * x, os.getpid()


def fail_on(x):
    if x in (3, 5):
        raise ScenarioError(f"item {x}", round=x, edge=f"e{x}")
    return x


def test_sweep_maps_in_item_order_on_worker_processes():
    results = sweep(square_in, range(7), 2)
    assert [value for value, _pid in results] == [x * x for x in range(7)]
    assert os.getpid() not in {pid for _value, pid in results}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("items", [range(5), [4], []])
def test_sweep_on_one_worker_or_item_maps_here(items):
    assert sweep(square_in, items, 1 if len(items) > 1 else 4) == [
        (x * x, os.getpid()) for x in items]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_raises_the_first_error_in_item_order(workers):
    with pytest.raises(ScenarioError, match="item 3") as error:
        sweep(fail_on, range(8), workers)
    assert (error.value.round, error.value.edge) == (3, "e3")
    assert multiprocessing.active_children() == []


def test_scenario_error_pickles_with_its_round_and_edge():
    error = pickle.loads(pickle.dumps(ScenarioError("short", round=4, edge="ab")))
    assert type(error) is ScenarioError
    assert (str(error), error.round, error.edge) == ("short", 4, "ab")
