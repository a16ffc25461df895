import hashlib
import json
import math
import multiprocessing
import os
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import aqsim.analysis
from aqsim.analysis import (BOUNDED, GROWTH, GreedyDriver, _below, count_rerouted,
                            gen_random_scenario, injections_after_notification,
                            probe_stability, random_network, rerouting_gadget,
                            strongly_connected, sweep)
from aqsim.buckets import AdversaryType, BucketSystem
from aqsim.engine import (Engine, ExecutionTrace, FailureEvent, Injection,
                          ScenarioConfig, run)
from aqsim.errors import ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.policies import Prioritized
from aqsim.scenario_io import dumps_scenario, format_rational, scenario_hash

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
    assert trace.config.schedule.fault_pairs == {("b1", 12): 22, ("b1", 24): 34}
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


def test_gen_random_fails_at_most_every_edge():
    # A 2-node network has two edges, neither removable alone: two failures
    # twin both, and a third is refused before any is drawn.
    cfg = gen_random_scenario(5, rate=HALF, burst=2, delay=2, tau=1, policy="FIFO",
                              horizon=40, nodes=(2, 2), failures=2)
    assert len(cfg.failures) == 2 and len(cfg.network.edges) == 4
    with pytest.raises(ScenarioError, match="3 failures asked of a network of 2 edges"):
        gen_random_scenario(5, rate=HALF, burst=2, delay=2, tau=1, policy="FIFO",
                            horizon=40, nodes=(2, 2), failures=3)


@pytest.mark.parametrize("kwargs", [dict(max_path_len=0), dict(max_path_len=-1),
                                    dict(max_burst=0)],
                         ids=["path-len-0", "path-len-negative", "burst-0"])
def test_gen_refuses_empty_paths_and_bursts_before_the_first_draw(monkeypatch, kwargs):
    # A walk of 0 hops drew getrandbits(0) == 0 forever, and the run hung.
    def drawn(*args):
        raise AssertionError("the network was drawn")

    monkeypatch.setattr(aqsim.analysis, "random_network", drawn)
    with pytest.raises(ScenarioError, match="^max_path_len and max_burst must be positive$"):
        gen_random_scenario(1, rate=HALF, burst=2, delay=2, tau=1, policy="FIFO",
                            horizon=40, **kwargs)


@pytest.mark.parametrize("max_path_len, max_burst", [(0, 1), (-1, 1), (4, 0), (4, -2)])
def test_greedy_driver_refuses_empty_paths_and_bursts(max_path_len, max_burst):
    with pytest.raises(ScenarioError, match="^max_path_len and max_burst must be positive$"):
        GreedyDriver(1, 0.9, max_path_len, max_burst)


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
    truncated = []

    def int_of_level(self, path):
        truncated.append(path)
        return min(int(self.level(edge)) for edge in path)

    # The driver reads its path's whole tokens through this one method.
    monkeypatch.setattr(BucketSystem, "whole_tokens", int_of_level)
    assert sweep() == floored
    assert len(truncated) > 27 * 1000
    assert sum(map(len, floored)) > 27 * 1000


def v1_scenario_hash(config):
    """SHA-256 of the compact, key-sorted JSON of the scenario in the
    version 1 scenario layout: one object per injection and one per
    annihilation delay. The pins below were recorded in that layout."""
    net = config.network
    edges = []
    for eid in sorted(net.edges):
        e = net.edges[eid]
        entry = {"id": e.id, "tail": e.tail, "head": e.head}
        if e.slowness != 1:
            entry["slowness"] = e.slowness
        edges.append(entry)
    policy = config.policy
    if isinstance(policy, Prioritized):
        policy_doc = {"name": policy.base, "priorities": policy.levels}
    else:
        policy_doc = {"name": policy}
    injections = []
    for inj in config.injections:
        entry = {"round": inj.round, "path": list(inj.path)}
        if inj.priority:
            entry["priority"] = inj.priority
        if inj.id is not None:
            entry["id"] = inj.id
        injections.append(entry)
    run = {"horizon": config.horizon}
    if config.seed is not None:
        run["seed"] = config.seed
    if not config.enforce_buckets:
        run["enforce_buckets"] = False
    doc = {
        "network": {"nodes": list(net.sorted_nodes), "edges": edges},
        "adversary": {
            "r": format_rational(config.adversary.rate),
            "b": config.adversary.burst,
            "delta": config.adversary.delay,
            "tau": config.tau,
            "tau_prime": config.tau_prime,
        },
        "policy": policy_doc,
        "schedules": {
            "injections": injections,
            "stalls": [{"edge": edge, "rounds": sorted(config.stalls[edge])}
                       for edge in sorted(config.stalls)],
            "annihilations": [
                {"edge": edge, "round": rnd, "delay": config.annihilation_delays[(edge, rnd)]}
                for edge, rnd in sorted(config.annihilation_delays)],
            "failures": [
                {"edge": ev.edge, "round": ev.round, "notify_delay": ev.notify_delay}
                for ev in config.failures],
            "recoveries": [{"edge": ev.edge, "round": ev.round}
                           for ev in config.recoveries],
        },
        "run": run,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# gen_random_scenario configurations and the hashes of the scenarios they
# made before the greedy driver was rewritten for speed: the generator
# must keep drawing the same numbers.
GENERATOR_PINS = [
    pytest.param(dict(seed=3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG",
                      horizon=400, failures=2),
                 "de1bfd26ac6ed9e4bfb431c4127baa8078c39ca99cb01525d36c2e9dedfd15e9",
                 id="two-failures"),
    pytest.param(dict(seed=5, rate=Fraction(3, 4), burst=4, delay=3, tau=1, policy="NFS",
                      horizon=400, max_burst=3),
                 "b6e04683a4e4ad3567a0eae50c255f4d57e7aea4a11ae2e12c7dba764545f114",
                 id="burst-4-max-burst-3"),
    pytest.param(dict(seed=8, rate=Fraction(9, 10), burst=2, delay=4, tau=2, policy="SIS",
                      horizon=400, stall_density=0.1, failures=1),
                 "5139dba68209af3303c8680489757df52b1cd4efb067726d34c8d7243c3e707d",
                 id="tau-2"),
    pytest.param(dict(seed=9004, rate=Fraction(9, 10), burst=1, delay=1, tau=2,
                      policy="FIFO", horizon=2000, stall_density=0.02, inject_prob=0.25,
                      nodes=(6, 9)),
                 "cc83efd347b83b773a1c501b2890ece806bd239db95d94f7cd186239cdd20320",
                 id="criterion-6-like"),
]


@pytest.mark.parametrize("kwargs, digest", GENERATOR_PINS)
def test_generator_draws_are_pinned(kwargs, digest):
    kwargs = dict(kwargs)
    assert v1_scenario_hash(gen_random_scenario(kwargs.pop("seed"), **kwargs)) == digest


# trace.digest() of the generator's co-run in the criterion-6 sweep, at its
# 10 000 rounds, for its first three base seeds (their rates, bursts,
# delays and tau cycle with the seed) under the three stable policies.
CO_RUN_DIGESTS = {
    (9001, "FTG"): "530c381960262b7935f1abae9918eee9c637c2d5c41502f8a9d39ccfe9b7288f",
    (9001, "NFS"): "f230f4584ba57f4d4da98e4ec8d624a01452d6126858fe074964b9170ff33a5a",
    (9001, "SIS"): "f230f4584ba57f4d4da98e4ec8d624a01452d6126858fe074964b9170ff33a5a",
    (9002, "FTG"): "6da5a5e3f1eb5d37a3044385ca5b876d0c9f119b0a1247973bf83a118bf79b1f",
    (9002, "NFS"): "788c978830e2239463c2bba96e97e05b513add70a20820bce012149eb6c4d63b",
    (9002, "SIS"): "3a50f1ba50684070a3d5a02ec8262503c6523b8e3072b20bfb219af611cde8fb",
    (9003, "FTG"): "ebfadc458da9df605e3948541a3b01a78ee273cbad56ae11b39ce346c2ce08ae",
    (9003, "NFS"): "cdf1bb6057e8974ad0641e0b80aacfd0ae844bacba5e0ffde5046819d6a61bc3",
    (9003, "SIS"): "a55a6be28aa9913d0b79f8f7c77cde52046206385b3ad7ce5aeebee57bdc10ed",
}


@pytest.mark.parametrize("base, policy", CO_RUN_DIGESTS,
                         ids=[f"{base}-{policy}" for base, policy in CO_RUN_DIGESTS])
def test_co_runs_at_sweep_scale_are_pinned(base, policy):
    i = base - 9001
    config, co_run = gen_random_scenario(
        base, rate=(HALF, Fraction(3, 4), Fraction(9, 10))[i % 3], burst=(1, 2, 4)[i % 3],
        delay=(1, 2, 4)[i % 3], tau=i % 2 + 1, policy=policy, horizon=10_000,
        stall_density=0.02, inject_prob=0.25, with_trace=True)
    assert co_run.digest() == CO_RUN_DIGESTS[base, policy]
    assert run(config).digest() == CO_RUN_DIGESTS[base, policy]


def oracle_simple_path(rng, net, avoid, max_len):
    """The reference walk: edge-distinct, 1..max_len hops, or None if stuck."""
    node = rng.choice(net.sorted_nodes)
    target = rng.randint(1, max_len)
    path = []
    used = set()
    for _ in range(target):
        options = [e for e in net.out_edges[node] if e not in used and e not in avoid]
        if not options:
            break
        eid = rng.choice(options)
        path.append(eid)
        used.add(eid)
        node = net.edges[eid].head
    return tuple(path) if path else None


class OracleGreedyDriver:
    """The reference greedy driver: one Injection per packet, each bucket
    level read through a generator expression."""

    def __init__(self, seed, inject_prob=0.9, max_path_len=4, max_burst=1):
        self.rng = random.Random(seed)
        self.inject_prob = inject_prob
        self.max_path_len = max_path_len
        self.max_burst = max_burst

    def __call__(self, engine, rnd):
        if self.rng.random() >= self.inject_prob:
            return []
        path = oracle_simple_path(self.rng, engine.net, engine.visible_failed,
                                  self.max_path_len)
        if path is None:
            return []
        want = self.rng.randint(1, self.max_burst) if self.max_burst > 1 else 1
        if engine.config.enforce_buckets:
            level = engine.buckets.level
            afford = min((math.floor(level(edge)) for edge in path), default=0)
            want = min(want, max(0, afford))
        if want < 1:
            return []
        return [Injection(rnd, path) for _ in range(want)]


@settings(deadline=None)
@given(st.integers(0, 2 ** 64), st.one_of(st.integers(1, 40), st.integers(1, 2 ** 62)),
       st.integers(-3, 3))
def test_below_draws_what_random_draws(seed, n, low):
    # Three streams of one seed: _below's draws must be the draws
    # Random._randbelow, randint and choice make, number for number.
    mine, theirs = random.Random(seed), random.Random(seed)
    bits = mine.getrandbits
    for _ in range(4):
        assert _below(bits, n) == theirs._randbelow(n)
        assert low + _below(bits, n) == theirs.randint(low, low + n - 1)
        options = range(low, low + n)
        assert options[_below(bits, n)] == theirs.choice(options)
    assert mine.random() == theirs.random()


def driven_rounds(cfg, driver):
    """Per round, the injections ``driver`` returned, and the run's trace."""
    rounds = []

    def record(engine, rnd):
        out = driver(engine, rnd)
        rounds.append((rnd, sorted(engine.visible_failed), out))
        return out

    return rounds, Engine(cfg, driver=record).run()


def test_greedy_driver_injects_as_the_oracle_does():
    # Co-runs as gen_random_scenario makes them: the driver's injections
    # are the only ones.
    seen_failures = bursts = 0
    for seed in range(6):
        cfg = gen_random_scenario(seed, rate=Fraction(3, 4), burst=3, delay=2, tau=2,
                                  policy="FTG", horizon=500, nodes=(4, 8),
                                  failures=2)
        cfg = replace(cfg, injections=())
        args = (seed + 77, 0.8, 5, 3)
        got, trace = driven_rounds(cfg, GreedyDriver(*args))
        want, _ = driven_rounds(cfg, OracleGreedyDriver(*args))
        assert got == want, seed
        seen_failures += sum(1 for _rnd, visible, out in got if visible and out)
        bursts += sum(1 for _rnd, _visible, out in got if len(out) > 1)
        assert sum(ev[0] == "inject" for ev in trace.events) > 0
    assert seen_failures > 100 and bursts > 100


def scanned_script(trace):
    """The oracle of a co-run's script: one Injection per inject event."""
    return [Injection(ev[1], ev[3], ev[4]) for ev in trace.events if ev[0] == "inject"]


# Scenario hashes of gen_random_scenario(seed, rate 3/4, burst 4, delay 2,
# tau 1, FTG, horizon 400, failures 2) as made when the generator took its
# script from a scan of the co-run's inject events.
SCANNED_SCRIPT_HASHES = {
    1: "366e43fadb51427486827dac9389cb6f36ab6515e04ba7a08915f6c677edc311",
    2: "c0abef6af6e8c8b928b59b44f8636f01a0cfde50907c541287084bb0fb39c882",
    3: "1d601a652ed8a558f03626efe4ef40f3e9afe95f3b0b66c2885f51d71640c08d",
    4: "4b9750c796c08603d3c987fc9efd6084999192e8ad538a021fbac8f4abddaa4e",
}


@pytest.mark.parametrize("seed", sorted(SCANNED_SCRIPT_HASHES))
def test_the_generators_script_is_its_co_runs_injections(monkeypatch, seed):
    drivers = []

    class Kept(GreedyDriver):
        def __init__(self, *args):
            super().__init__(*args)
            drivers.append(self)

    monkeypatch.setattr(aqsim.analysis, "GreedyDriver", Kept)
    cfg, co_run = gen_random_scenario(seed, rate=Fraction(3, 4), burst=4, delay=2, tau=1,
                                      policy="FTG", horizon=400, failures=2,
                                      with_trace=True)
    [driver] = drivers
    assert driver.script == scanned_script(co_run)
    assert cfg.injections == tuple(driver.script)
    assert scenario_hash(cfg) == SCANNED_SCRIPT_HASHES[seed]
    # A burst is one object, listed once per copy.
    assert sum(a is b for a, b in zip(cfg.injections, cfg.injections[1:])) > 100


def test_a_greedy_drivers_script_accumulates_across_runs():
    cfg = ScenarioConfig(network=random_network(random.Random(3), 4, 6),
                         adversary=AdversaryType(HALF, 3, 2), policy="FIFO", horizon=60)
    driver = GreedyDriver(99, max_burst=3)
    first = Engine(cfg, driver=driver).run()
    kept = len(driver.script)
    second = Engine(cfg, driver=driver).run()
    assert kept and driver.script[:kept] == scanned_script(first)
    assert driver.script[kept:] == scanned_script(second)


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
