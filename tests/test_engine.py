import dataclasses
import gc
import json
import os
import pickle
import subprocess
import sys
import tempfile
from copy import copy
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import aqsim.engine
from aqsim.analysis import (GreedyDriver, gen_random_scenario,
                            injections_after_notification, rerouting_gadget)
from aqsim.buckets import AdversaryType
from aqsim.engine import (Engine, FailureEvent, Injection, PacketRecord, RecoveryEvent,
                          RecoveryViolation, ScenarioConfig, run, validate_recovery)
from aqsim.errors import ContractViolation, ModelViolation, ScenarioError
from aqsim.netmodel import Edge, Network, Packet, shortest_path_avoiding
from aqsim.policies import POLICY_NAMES, SIS, Prioritized, select_packet
from aqsim.reduction import _replay_config, build_two_priority_trace, verify_reduction
from aqsim.scenario_io import (ParseError, dumps_scenario, load_trace, loads_scenario,
                               save_trace, trace_digest)

HALF = Fraction(1, 2)
ONE = Fraction(1)


def two_node(**kw):
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    base = dict(network=net, adversary=AdversaryType(ONE, 4, 2),
                policy="FIFO", horizon=4)
    base.update(kw)
    return ScenarioConfig(**base)


def line(n, **kw):
    nodes = [f"n{i}" for i in range(n + 1)]
    edges = [Edge(f"e{i}", nodes[i], nodes[i + 1]) for i in range(n)]
    net = Network(nodes, edges)
    base = dict(network=net, adversary=AdversaryType(ONE, 4, 2),
                policy="FIFO", horizon=12)
    base.update(kw)
    return ScenarioConfig(**base)


def test_trivial_packet_absorbs_the_round_it_is_injected():
    trace = run(two_node(injections=(Injection(1, ("ab",)),)))
    assert trace.events_of("absorb") == [("absorb", 1, 0)]
    assert trace.q_totals == [0, 0, 0, 0]


def annihilated_members(engine, rnd):
    """Step ``engine`` through round ``rnd`` and return the edges whose
    bucket lost the rate in that round: the members of the one group that
    annihilates in it. Nothing may be injected in round ``rnd``, and no
    level may reach the burst by it."""
    for step in range(len(engine.trace.q_totals) + 1, rnd):
        engine.step(step)
    before = {edge: engine.buckets.level(edge) for edge in engine.net.edges}
    events = engine.step(rnd)
    assert [ev[0] for ev in events].count("annihilate") == 1
    gained = {edge: engine.buckets.level(edge) - level for edge, level in before.items()}
    assert set(gained.values()) <= {0, engine.config.adversary.rate}
    return {edge for edge, gain in gained.items() if gain == 0}  # the tick, taken back


def test_stalled_packet_waits_one_round_and_leaves_a_group():
    engine = Engine(two_node(injections=(Injection(1, ("ab",)),), stalls={"ab": {1}}))
    # The group of the round-1 stall expires in round 1 + delta = 3.
    assert annihilated_members(engine, 3) == {"ab"}
    trace = engine.run()
    assert trace.events_of("stall") == [("stall", 1, "ab", 0, 0)]
    assert trace.events_of("annihilate") == [("annihilate", 3, 0, "forced")]
    assert trace.events_of("absorb") == [("absorb", 2, 0)]
    assert trace.q_totals[0] == 1


def test_stall_mid_path_covers_only_unfinished_edges():
    cfg = line(3, injections=(Injection(1, ("e0", "e1", "e2")),),
               stalls={"e1": {2}})
    engine = Engine(cfg)
    assert annihilated_members(engine, 4) == {"e1", "e2"}  # e0 was already crossed
    trace = engine.run()
    assert trace.events_of("stall") == [("stall", 2, "e1", 0, 0)]


def test_scheduled_stall_on_empty_queue_is_silent():
    engine = Engine(two_node(stalls={"ab": {1, 2, 3}}))
    trace = engine.run()
    assert trace.events_of("stall") == []
    assert trace.events_of("annihilate") == []  # no group, not even in the drain


def test_horizon_zero_gives_empty_trace():
    trace = run(two_node(horizon=0))
    assert trace.events == []
    assert trace.q_totals == []


def test_one_transmission_per_edge_per_round():
    cfg = two_node(injections=(Injection(3, ("ab",)), Injection(3, ("ab",)),
                               Injection(3, ("ab",))),
                   horizon=6)
    trace = run(cfg)
    per_round = {}
    for _, rnd, edge, _pid in trace.events_of("transmit"):
        per_round[(rnd, edge)] = per_round.get((rnd, edge), 0) + 1
    assert all(v == 1 for v in per_round.values())
    assert [r for _, r, _ in trace.events_of("absorb")] == [3, 4, 5]


def test_packet_crosses_one_link_per_round():
    cfg = line(3, injections=(Injection(1, ("e0", "e1", "e2")),))
    trace = run(cfg)
    assert [(r, e) for _, r, e, _ in trace.events_of("transmit")] == [
        (1, "e0"), (2, "e1"), (3, "e2")]


def test_replays_are_bit_identical():
    cfg = line(3, injections=(Injection(1, ("e0", "e1", "e2")),
                              Injection(2, ("e1", "e2")),
                              Injection(3, ("e0",))),
               stalls={"e1": {2, 5}, "e2": {4}},
               annihilation_delays={("e1", 2): 0, ("e1", 5): 1})
    a = run(cfg)
    b = run(cfg)
    assert a.events == b.events
    assert a.digest() == b.digest()


def test_queue_order_is_arrival_then_id():
    # Two transit arrivals and one direct injection reach cd in the same
    # round; the direct one enters earlier in the round but carries the
    # largest id, so it must sort last.
    net = Network(
        ["a", "b", "c", "d"],
        [Edge("ac", "a", "c"), Edge("bc", "b", "c"), Edge("cd", "c", "d")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 4, 2), policy="FIFO",
        horizon=8,
        injections=(Injection(1, ("ac", "cd")), Injection(1, ("bc", "cd")),
                    Injection(1, ("cd",))),
        stalls={"cd": {1, 2, 3}},
        enforce_buckets=False)
    engine = Engine(cfg)
    engine.step(1)
    queue = [pkt for *_, pkt in sorted(engine.queues["cd"])]  # in the FIFO key's order
    assert [p.id for p in queue] == [0, 1, 2]
    assert [(p.arrival_round, p.id) for p in queue] == sorted(
        (p.arrival_round, p.id) for p in queue)
    sent = []
    for rnd in range(2, 9):
        sent += [(ev[1], ev[3]) for ev in engine.step(rnd)
                 if ev[0] == "transmit" and ev[2] == "cd"]
    assert sent == [(4, 0), (5, 1), (6, 2)]


def test_waiting_packets_sit_at_their_next_edge():
    cfg = line(2, injections=(Injection(1, ("e0", "e1")),), stalls={"e1": {2, 3}})
    engine = Engine(cfg)
    for rnd in (1, 2):
        engine.step(rnd)
    for edge, queue in engine.queues.items():
        for *_, pkt in queue:
            assert pkt.path[pkt.idx] == edge


def test_scripted_injection_the_buckets_cannot_afford_aborts():
    cfg = two_node(adversary=AdversaryType(HALF, 2, 2),
                   injections=(Injection(1, ("ab",)),))
    with pytest.raises(ScenarioError) as err:
        run(cfg)  # round 1 level is 1/2: even one packet is unaffordable
    assert err.value.round == 1
    assert err.value.edge == "ab"


def test_bucket_enforcement_can_be_disabled():
    cfg = two_node(adversary=AdversaryType(HALF, 2, 2),
                   injections=(Injection(1, ("ab",)), Injection(1, ("ab",))),
                   enforce_buckets=False)
    trace = run(cfg)
    assert len(trace.events_of("absorb")) == 2


def test_annihilation_schedule_controls_feedback_round():
    cfg = two_node(horizon=6, injections=(Injection(2, ("ab",)),),
                   stalls={"ab": {2}}, annihilation_delays={("ab", 2): 1})
    trace = run(cfg)
    assert trace.events_of("annihilate") == [("annihilate", 3, 0, "voluntary")]


def test_groups_near_horizon_drain_past_it():
    cfg = two_node(horizon=2, injections=(Injection(2, ("ab",)),),
                   stalls={"ab": {2}})
    trace = run(cfg)
    assert trace.events_of("annihilate") == [("annihilate", 4, 0, "forced")]


# -- permanent failures and re-routing ------------------------------------------


def detour_net():
    #      direct: a -> b -> z     detour: b -> c -> z
    return Network(
        ["a", "b", "c", "z"],
        [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
         Edge("bc", "b", "c"), Edge("cz", "c", "z")])


def detour_cfg(**kw):
    base = dict(network=detour_net(), adversary=AdversaryType(ONE, 4, 2),
                policy="FIFO", horizon=10, tau_prime=3,
                injections=(Injection(1, ("ab", "bz")),),
                failures=(FailureEvent("bz", 1, notify_delay=1),))
    base.update(kw)
    return ScenarioConfig(**base)


def test_reroute_takes_shortest_live_suffix():
    trace = run(detour_cfg())
    reroutes = trace.events_of("reroute")
    assert reroutes == [("reroute", 2, 0, ("bz",), ("bc", "cz"), "bz", 1)]
    rec = trace.packets[0]
    assert rec.rerouted
    assert rec.final_path == ("ab", "bc", "cz")
    assert rec.original_path == ("ab", "bz")
    assert rec.absorbed_round == 4


def test_failed_edge_never_transmits():
    trace = run(detour_cfg())
    assert all(edge != "bz" for _, _, edge, _ in trace.events_of("transmit"))


def test_packets_wait_until_the_failure_is_visible():
    trace = run(detour_cfg(failures=(FailureEvent("bz", 1, notify_delay=3),)))
    reroutes = trace.events_of("reroute")
    assert [ev[1] for ev in reroutes] == [4]  # notification lands in round 4


def test_one_edge_detour_when_parallel_edge_exists():
    net = Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ab2", "a", "b")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 2, 2), policy="FIFO",
        horizon=5, injections=(Injection(1, ("ab",)),),
        failures=(FailureEvent("ab", 1, notify_delay=1),), tau_prime=1)
    trace = run(cfg)
    assert trace.events_of("reroute")[0][4] == ("ab2",)
    assert trace.packets[0].absorbed_round == 3


def test_reroute_without_surviving_path_aborts():
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 2, 2), policy="FIFO",
        horizon=5, injections=(Injection(1, ("ab",)),),
        failures=(FailureEvent("ab", 1, notify_delay=1),), tau_prime=1)
    with pytest.raises(ScenarioError):
        run(cfg)


def test_second_failure_reroutes_again():
    net = Network(
        ["a", "b", "c", "z"],
        [Edge("ab", "a", "b"), Edge("bz", "b", "z"), Edge("bz2", "b", "z"),
         Edge("bc", "b", "c"), Edge("cz", "c", "z"), Edge("cz2", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 4, 2), policy="FIFO",
        horizon=12,
        injections=(Injection(1, ("ab", "bz")),),
        failures=(FailureEvent("bz", 1, notify_delay=1),
                  FailureEvent("bz2", 1, notify_delay=1),
                  FailureEvent("cz", 3, notify_delay=0)),
        tau_prime=1)
    trace = run(cfg)
    reroutes = trace.events_of("reroute")
    assert [(ev[1], ev[4]) for ev in reroutes] == [
        (2, ("bc", "cz")), (3, ("cz2",))]
    assert trace.packets[0].absorbed_round == 4
    for _, _, _, _old, suffix, _, _ in reroutes:
        assert len(set(suffix)) == len(suffix)  # each new suffix is simple


def recurring_failure_cfg():
    # Stalls at ab space three packets out; each meets bz failed, while the
    # parallel bz2 fails, recovers and fails again between their arrivals.
    net = Network(
        ["a", "b", "c", "z"],
        [Edge("ab", "a", "b"), Edge("bz", "b", "z"), Edge("bz2", "b", "z"),
         Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    return ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 4, 2), policy="FIFO",
        horizon=12, tau_prime=1, enforce_buckets=False,
        injections=tuple(Injection(1, ("ab", "bz")) for _ in range(3)),
        stalls={"ab": {2, 3, 4, 6, 7, 8}},
        failures=(FailureEvent("bz", 1, notify_delay=1),
                  FailureEvent("bz2", 1, notify_delay=1),
                  FailureEvent("bz2", 7, notify_delay=0)),
        recoveries=(RecoveryEvent("bz2", 3),))


def test_reroutes_see_every_failure_and_recovery_since_the_last():
    reroutes = run(recurring_failure_cfg()).events_of("reroute")
    assert [(ev[1], ev[2], ev[4]) for ev in reroutes] == [
        (2, 0, ("bc", "cz")), (5, 1, ("bz2",)), (9, 2, ("bc", "cz"))]


def failed_in(cfg, rnd):
    """The links down in round ``rnd``, read off the scheduled failures and
    recoveries alone: a link is down from its failure round up to the
    round before its recovery."""
    marks = sorted([(ev.round, ev.edge, True) for ev in cfg.failures]
                   + [(ev.round, ev.edge, False) for ev in cfg.recoveries])
    down = {}
    for mark_round, edge, fails in marks:
        if mark_round <= rnd:
            down[edge] = fails
    return frozenset(edge for edge, fails in down.items() if fails)


def route_queries(cfg, trace):
    """Per re-route event, the query a route lookup answers and its answer:
    (failed set, node, destination) and the new suffix."""
    edges = cfg.network.edges
    for _, rnd, _pid, old_suffix, new_suffix, edge, _fail in trace.events_of("reroute"):
        yield (failed_in(cfg, rnd), edges[edge].tail, edges[old_suffix[-1]].head), new_suffix


def route_oracle_configs():
    yield "gadget", rerouting_gadget(branches=3, burst=12, fail_duration=12, cycles=10).config
    for seed in range(1, 6):
        yield f"random-{seed}", gen_random_scenario(
            seed, rate=Fraction(9, 10), burst=4, delay=2, tau=2, policy="FIFO",
            horizon=300, nodes=(4, 8), failures=2)
    yield "fail-recover-fail", recurring_failure_cfg()


@pytest.mark.parametrize("name, cfg", route_oracle_configs(),
                         ids=[name for name, _cfg in route_oracle_configs()])
def test_kept_routes_match_a_fresh_shortest_path(name, cfg):
    queries = list(route_queries(cfg, run(cfg)))
    assert queries
    for (failed, node, dest), suffix in queries:
        assert suffix == shortest_path_avoiding(cfg.network, node, dest, failed)


def count_route_computations(monkeypatch):
    """The engine's route computations from here on, as (failed set, node,
    destination) queries, in call order."""
    calls = []

    def counted(net, src, dst, avoid):
        calls.append((frozenset(avoid), src, dst))
        return shortest_path_avoiding(net, src, dst, avoid)

    monkeypatch.setattr("aqsim.engine.shortest_path_avoiding", counted)
    return calls


def test_recurring_failed_set_reuses_its_routes(monkeypatch):
    cfg = recurring_failure_cfg()
    calls = count_route_computations(monkeypatch)
    queries = [query for query, _suffix in route_queries(cfg, run(cfg))]
    # Rounds 2 and 9 both re-route from b to z around {bz, bz2}.
    assert queries[0] == queries[2] == (frozenset({"bz", "bz2"}), "b", "z")
    assert calls == list(dict.fromkeys(queries))


def test_routes_are_computed_once_per_failed_set_node_and_destination(monkeypatch):
    cfg = rerouting_gadget(branches=2, cycles=6).config
    calls = count_route_computations(monkeypatch)
    queries = [query for query, _suffix in route_queries(cfg, run(cfg))]
    # Every cycle fails and recovers both b links, so the failed sets recur.
    assert len(set(queries)) < len(queries)
    assert calls == list(dict.fromkeys(queries))


def test_reroutes_follow_arrival_then_id_not_policy_order():
    # Three packets wait at the failed bz. SIS would serve 4, 3, 5 and id
    # order is 3, 4, 5; re-routing must take them by (arrival round, id).
    cfg = detour_cfg(
        policy=SIS,
        injections=(Injection(1, ("bz",), id=5), Injection(2, ("bz",), id=3),
                    Injection(3, ("bz",), id=4)),
        failures=(FailureEvent("bz", 1, notify_delay=3),))
    reroutes = run(cfg).events_of("reroute")
    assert [(ev[1], ev[2]) for ev in reroutes] == [(4, 5), (4, 3), (4, 4)]


def cross_check_configs():
    gadget = rerouting_gadget(branches=3, cycles=20).config
    random_cfg = gen_random_scenario(
        3, rate=Fraction(9, 10), burst=4, delay=2, tau=2, policy="FIFO",
        horizon=300, nodes=(4, 6), failures=2)
    for name in POLICY_NAMES:
        for policy in (name, Prioritized(name, 2)):
            for cfg in (gadget, random_cfg):
                injections = cfg.injections
                if isinstance(policy, Prioritized):
                    injections = tuple(inj._replace(priority=i % 2)
                                       for i, inj in enumerate(injections))
                # Another policy changes which packets the scripted stalls
                # hit, and so the bucket levels: only selection is checked.
                yield replace(cfg, policy=policy, injections=injections,
                              enforce_buckets=False)


@pytest.mark.parametrize("cfg", cross_check_configs(),
                         ids=lambda cfg: f"{cfg.policy}-{len(cfg.network.nodes)}n")
def test_heap_selection_matches_select_packet(cfg):
    # Before each step the queues are saved, as copies of their packets with
    # every field a policy key reads; the round's injections then join them,
    # as they join the queues before selection. No other phase before
    # selection moves a packet, so the oracle sees the queues that the
    # transmit phase sees.
    engine = Engine(cfg)
    reroutes = choices = 0
    for rnd in range(1, cfg.horizon + 1):
        saved = {edge: [copy(pkt) for *_, pkt in queue] for edge, queue in engine.queues.items()}
        events = engine.step(rnd)
        for ev in events:
            if ev[0] == "inject":
                _, _, pid, path, priority = ev
                saved.setdefault(path[0], []).append(Packet(pid, rnd, path, priority))
        live = {edge: waiting for edge, waiting in saved.items() if edge not in engine.failed}
        # Each selected packet is named by the round's transmit or stall.
        assert {ev[2]: ev[3] for ev in events if ev[0] in ("transmit", "stall")} == {
            edge: select_packet(cfg.policy, waiting).id for edge, waiting in live.items()}
        choices += sum(len(waiting) > 1 for waiting in live.values())
        reroutes += sum(ev[0] == "reroute" for ev in events)
    assert reroutes > 0 and choices >= 50


def cycle_cfg(**kw):
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")])
    return ScenarioConfig(network=net, adversary=AdversaryType(ONE, 4, 2),
                          policy="FIFO", horizon=4, **kw)


def gate_refusal(source, bad):
    """The refusal of ``bad``, an injection in round 2 of cycle_cfg whose
    edge ab fails in round 1 and is notified in round 2, added to the script
    (``source="script"``) or returned by a driver: (message, round, edge).
    The script's round-1 injection, before the notification, puts
    (("ab",), 0) in the memo of checked pairs."""
    cfg = cycle_cfg(injections=(Injection(1, ("ab",)),), failures=(FailureEvent("ab", 1, 1),))
    if source == "script":
        attempt = replace(cfg, injections=(*cfg.injections, bad)).validate
    else:
        attempt = Engine(cfg, driver=lambda engine, rnd: [bad] if rnd == 2 else []).run
    with pytest.raises(ScenarioError) as err:
        attempt()
    return str(err.value), err.value.round, err.value.edge


@pytest.mark.parametrize("path, priority, message, edge", [
    pytest.param(("ab", "ca"), 0, "round 2: injection on a path not in the network, "
                 "path ('ab', 'ca'): discontinuity at 1", None, id="discontinuous"),
    pytest.param(("ab", "bc", "ca", "ab"), 0, "round 2: injection on a path not in the "
                 "network, path ('ab', 'bc', 'ca', 'ab'): repeated_edge at 3", None,
                 id="repeated-edge"),
    pytest.param(("ab",), 5, "round 2: injection with priority 5, not one of the "
                 "policy's 1 level(s)", None, id="priority"),
    # The memo holds the pair; the window rule still refuses it.
    pytest.param(("ab",), 0, "round 2: injection routed over 'ab' after its failure "
                 "notification", "ab", id="notified-link"),
])
def test_a_drivers_injections_are_checked_as_scripted_ones(path, priority, message, edge):
    bad = Injection(2, path, priority)
    assert gate_refusal("script", bad) == gate_refusal("driver", bad) == (message, 2, edge)


def test_a_priority_equal_to_a_checked_one_is_still_checked():
    # False == 0 and hashes alike, so the memo must not pass it.
    bad = Injection(2, ("ab",), False)
    assert gate_refusal("script", bad) == gate_refusal("driver", bad) == (
        "round 2: injection with priority False, not one of the policy's 1 level(s)", 2, None)


NOTIFIED_AB = ("round 2: injection routed over 'ab' after its failure notification", 2, "ab")


@pytest.mark.parametrize("script, refusal", [
    # False == 0, so a copy passes unchecked only with an int priority.
    pytest.param((Injection(1, ("ab",), 0), Injection(1, ("ab",), False)),
                 ("round 1: injection with priority False, not one of the policy's "
                  "1 level(s)", 1, None), id="false-after-0"),
    pytest.param((Injection(1, ("ab",)), *[Injection(2, ("ab",))] * 10), NOTIFIED_AB,
                 id="ten-copies-over-notified"),
    # Only the previous injection in script order is passed over.
    pytest.param((Injection(2, ("bc",)), Injection(2, ("ab",)), Injection(2, ("bc",))),
                 NOTIFIED_AB, id="bad-between-copies"),
])
def test_a_burst_is_refused_as_its_copies_one_by_one_would_be(script, refusal):
    # cycle_cfg's edge ab fails in round 1 and is notified in round 2.
    cfg = cycle_cfg(injections=script, failures=(FailureEvent("ab", 1, 1),))
    with pytest.raises(ScenarioError) as err:
        cfg.validate()
    assert (str(err.value), err.value.round, err.value.edge) == refusal


def test_the_gate_runs_once_per_burst(monkeypatch):
    calls = []
    admit = aqsim.engine.Schedule.admit

    def counted(self, *args):
        calls.append(args)
        return admit(self, *args)

    monkeypatch.setattr(aqsim.engine.Schedule, "admit", counted)
    cfg = rerouting_gadget(3, 10, 10, 62).config
    cfg.validate()
    assert len(cfg.injections) == 1860 and len(calls) == 186


def test_the_driven_gate_runs_once_per_burst(monkeypatch):
    calls = []
    admit = aqsim.engine.Schedule.admit

    def counted(self, *args):
        calls.append(args)
        return admit(self, *args)

    monkeypatch.setattr(aqsim.engine.Schedule, "admit", counted)
    trace = run(cycle_cfg(enforce_buckets=False),
                driver=lambda engine, rnd: [Injection(rnd, ("ab", "bc"))] * 5)
    assert calls == [(rnd, ("ab", "bc"), 0) for rnd in range(1, 5)]
    assert len(trace.events_of("inject")) == 20


def test_a_driven_burst_over_a_notified_link_is_refused():
    cfg = cycle_cfg(injections=(Injection(1, ("ab",)),), failures=(FailureEvent("ab", 1, 1),))
    bad = Injection(2, ("ab",))
    with pytest.raises(ScenarioError) as err:
        run(cfg, driver=lambda engine, rnd: [bad] * 5 if rnd == 2 else [])
    assert (str(err.value), err.value.round, err.value.edge) == NOTIFIED_AB


def test_the_driven_gate_passes_over_only_the_object_just_checked():
    # False == 0, so the three are equal, but they are three objects.
    batch = [Injection(2, ("bc",), 0), Injection(2, ("bc",), False), Injection(2, ("bc",), 0)]
    assert batch[0] == batch[1] == batch[2]
    with pytest.raises(ScenarioError) as err:
        run(cycle_cfg(), driver=lambda engine, rnd: batch if rnd == 2 else [])
    assert (str(err.value), err.value.round, err.value.edge) == (
        "round 2: injection with priority False, not one of the policy's 1 level(s)", 2, None)


# The tuple of the same edges is in the memo of checked pairs.
LIST_PATH_REFUSAL = ("round 2: injection on path ['ab'], which is not a tuple of edge ids",
                     2, None)


def test_a_scripted_injection_on_a_list_path_is_a_scenario_error():
    assert gate_refusal("script", Injection(2, ["ab"])) == LIST_PATH_REFUSAL


def test_a_drivers_injection_on_a_list_path_is_a_scenario_error():
    assert gate_refusal("driver", Injection(2, ["ab"])) == LIST_PATH_REFUSAL


def test_a_drivers_injection_that_carries_a_packet_id_is_refused():
    def driver(engine, rnd):
        return [Injection(rnd, ("ab",), 0, 7)] if rnd == 2 else []

    with pytest.raises(ScenarioError,
                       match="^round 2: a driver's injection carries packet id 7$") as err:
        run(cycle_cfg(), driver=driver)
    assert err.value.round == 2


def test_a_driver_cannot_add_to_a_script_whose_injections_carry_ids():
    cfg = cycle_cfg(injections=(Injection(1, ("ab",), 0, 5),))
    with pytest.raises(ScenarioError, match="^a driver cannot add to a script whose "
                                            "injections carry ids$"):
        Engine(cfg, driver=lambda engine, rnd: [])
    assert run(cfg).events_of("inject") == [("inject", 1, 5, ("ab",), 0)]


def test_a_drivers_injection_must_be_for_the_current_round():
    def driver(engine, rnd):
        return [Injection(99, ("ab",))] if rnd == 1 else []

    with pytest.raises(ScenarioError, match="^round 1: a driver's injection is for round 99$") \
            as err:
        run(cycle_cfg(), driver=driver)
    assert err.value.round == 1


def test_injections_over_notified_failures_abort():
    cfg = detour_cfg(injections=(Injection(1, ("ab", "bz")),
                                 Injection(4, ("ab", "bz"))))
    with pytest.raises(ScenarioError) as err:
        run(cfg)
    assert err.value.round == 4


def test_injection_before_notification_is_legal():
    cfg = detour_cfg(
        failures=(FailureEvent("bz", 1, notify_delay=2),),
        injections=(Injection(1, ("ab", "bz")), Injection(2, ("ab", "bz"))))
    trace = run(cfg)  # second packet slips in before the round-3 delivery
    assert len(trace.events_of("reroute")) == 2


def test_recovered_edge_serves_again():
    cfg = detour_cfg(
        injections=(Injection(1, ("ab", "bz")), Injection(8, ("ab", "bz"))),
        recoveries=(RecoveryEvent("bz", 6),),
        horizon=12)
    trace = run(cfg)
    assert any(edge == "bz" for _, _, edge, _ in trace.events_of("transmit"))


def test_promote_after_tau_turns_stall_runs_permanent():
    cfg = detour_cfg(
        failures=(),
        stalls={"bz": {2, 3}},
        tau=2, tau_prime=1,
        promote_after_tau=True)
    trace = run(cfg)
    # Stalls in rounds 2..3 hit the tau limit; the edge fails from round 4,
    # notified one round later, and the waiting packet reroutes.
    assert trace.events_of("fail_notify") == [("fail_notify", 5, "bz", 4)]
    assert [ev[1] for ev in trace.events_of("reroute")] == [5]


def test_fail_event_marks_the_failure_round():
    scripted = run(detour_cfg(failures=(FailureEvent("bz", 3, notify_delay=2),)))
    assert scripted.events_of("fail") == [("fail", 3, "bz")]
    assert scripted.events_of("fail_notify") == [("fail_notify", 5, "bz", 3)]
    # Stalls in rounds 2..3 reach tau = 2, so bz fails from round 4 on.
    promoted = run(detour_cfg(failures=(), stalls={"bz": {2, 3}}, tau=2,
                              tau_prime=1, promote_after_tau=True))
    assert promoted.events_of("fail") == [("fail", 4, "bz")]
    assert promoted.events_of("fail_notify") == [("fail_notify", 5, "bz", 4)]


def test_promoted_failures_join_the_scripted_ones():
    cfg = detour_cfg(stalls={"bz": {7, 8}, "cz": {2}}, tau=2, tau_prime=1,
                     promote_after_tau=True)
    assert cfg.failures == (FailureEvent("bz", 1, 1), FailureEvent("bz", 9, 1))
    # A copy keeps the promoted failures and promotes none again.
    assert replace(cfg, horizon=12).failures == cfg.failures
    assert detour_cfg(stalls={"bz": {7, 8}}, tau=2).failures == (FailureEvent("bz", 1, 1),)
    # A run of tau stalls ending at the horizon promotes nothing.
    assert detour_cfg(failures=(), stalls={"bz": {9, 10}}, tau=2,
                      promote_after_tau=True).failures == ()


def mixed_fault_schedule():
    """bz fails in round 1 and recovers in round 3, when its notification is
    due; cz fails in round 3, notified in 5, and recovers in 9; bz fails
    again in round 6, notified in 7; ab fails in round 9, notified only
    after the horizon. Failures are listed out of round order."""
    return detour_cfg(horizon=10, tau_prime=3, injections=(),
                      failures=(FailureEvent("cz", 3, 2), FailureEvent("bz", 1, 2),
                                FailureEvent("bz", 6, 1), FailureEvent("ab", 9, 2)),
                      recoveries=(RecoveryEvent("bz", 3), RecoveryEvent("cz", 9)))


def scheduled_fault_events(schedule):
    """The schedule's fail, recover and fail_notify events, flattened in
    round order: per round, step 1's, then step 4's."""
    faults, notifications = schedule.faults, schedule.notifications
    return tuple(ev for rnd in sorted({*faults, *notifications})
                 for ev in (*faults.get(rnd, ()), *notifications.get(rnd, ())))


def test_fault_events_are_listed_in_write_order():
    # Per round: recoveries, failures, then the notifications due.
    schedule = mixed_fault_schedule().schedule
    assert scheduled_fault_events(schedule) == (
        ("fail", 1, "bz"),
        ("recover", 3, "bz"), ("fail", 3, "cz"), ("fail_notify", 3, "bz", 1),
        ("fail_notify", 5, "cz", 3),
        ("fail", 6, "bz"),
        ("fail_notify", 7, "bz", 6),
        ("recover", 9, "cz"), ("fail", 9, "ab"),
    )


def nested_key_fault_events(failures, recoveries, horizon):
    """The oracle of the schedule's fault tables: the events a run writes,
    sorted on (round, kind, config index) keys."""
    keyed = [((ev.round, 0, i), ("recover", ev.round, ev.edge))
             for i, ev in enumerate(recoveries)]
    for i, ev in enumerate(failures):
        keyed.append(((ev.round, 1, i), ("fail", ev.round, ev.edge)))
        notified = ev.round + ev.notify_delay
        if notified <= horizon:
            keyed.append(((notified, 2, i), ("fail_notify", notified, ev.edge, ev.round)))
    keyed.sort()
    return tuple(ev for _, ev in keyed)


@st.composite
def fault_schedules(draw):
    """A horizon of 0..14 rounds and a valid fault schedule within it on
    the edges ab, bz and cz: per edge, failures (notified after 0..4
    rounds) and recoveries alternate, a failure first, one a round. Each
    kind is listed in a drawn order."""
    horizon = draw(st.integers(0, 14))
    failures, recoveries = [], []
    for edge in ("ab", "bz", "cz"):
        rounds = draw(st.sets(st.integers(1, horizon), max_size=6)) if horizon else ()
        for i, rnd in enumerate(sorted(rounds)):
            if i % 2:
                recoveries.append(RecoveryEvent(edge, rnd))
            else:
                failures.append(FailureEvent(edge, rnd, draw(st.integers(0, 4))))
    return draw(st.permutations(failures)), draw(st.permutations(recoveries)), horizon


@given(fault_schedules())
def test_fault_events_match_the_nested_key_sort(faults):
    failures, recoveries, horizon = faults
    cfg = detour_cfg(horizon=horizon, tau_prime=4, injections=(),
                     failures=tuple(failures), recoveries=tuple(recoveries))
    expected = nested_key_fault_events(failures, recoveries, horizon)
    assert scheduled_fault_events(cfg.schedule) == expected
    assert tuple(ev for ev in run(cfg).events if ev[0] in FAULT_KINDS) == expected


def test_notified_windows_run_from_notification_to_recovery():
    # bz's first failure recovers as it is notified and ab's is notified
    # after the horizon: neither is ever visible.
    schedule = mixed_fault_schedule().schedule
    assert schedule.edge_windows == {"cz": [(5, 9)], "bz": [(7, 11)]}


FAULT_KINDS = ("fail", "recover", "fail_notify")


def scheduled_runs():
    """Configs whose fault and feedback events the scenario fixes: the
    benchmark's gadget shapes, its held-out shape, promoted failures,
    generated scenarios with two failures and random annihilation delays
    in [0, delta], and one stall per delay 0, 1 and delta."""
    for branches, cycles in ((2, 90), (3, 62), (4, 48)):
        yield rerouting_gadget(branches=branches, burst=10, fail_duration=10,
                               cycles=cycles).config
    yield rerouting_gadget(branches=3, burst=12, fail_duration=12, cycles=54).config
    # Packet 0 stalls at bz in rounds 2 and 3, so bz fails in round 4 and
    # the packet re-routes when that is notified, in round 6.
    yield detour_cfg(failures=(), stalls={"bz": {2, 3}}, tau=2, tau_prime=2,
                     promote_after_tau=True, recoveries=(RecoveryEvent("bz", 9),))
    for seed in (201, 202, 203):
        yield gen_random_scenario(seed, rate=Fraction(9, 10), burst=4, delay=2, tau=2,
                                  policy="FTG", horizon=500, nodes=(8, 8), failures=2)
    yield line(2, horizon=10, adversary=AdversaryType(ONE, 4, 3),
               injections=tuple(Injection(r, ("e0", "e1")) for r in (1, 2, 3)),
               stalls={"e1": {2, 3, 4}},
               annihilation_delays={("e1", 2): 0, ("e1", 3): 1, ("e1", 4): 3},
               enforce_buckets=False)


def test_fault_and_feedback_events_are_the_scenarios():
    delays_seen = set()
    promoted_seen = False
    for cfg in scheduled_runs():
        trace = run(cfg)
        faults = tuple(ev for ev in trace.events if ev[0] in FAULT_KINDS)
        assert faults == scheduled_fault_events(cfg.schedule) == (
            nested_key_fault_events(cfg.failures, cfg.recoveries, cfg.horizon))
        promoted_seen |= ("reroute", 6, 0, ("bz",), ("bc", "cz"), "bz", 4) in trace.events
        # A stall in round t with delay d annihilates in t + d, forced when
        # d is delta; each group once.
        delta = cfg.adversary.delay
        expected = []
        for _, rnd, edge, _pid, gid in trace.events_of("stall"):
            d = cfg.annihilation_delays.get((edge, rnd), delta)
            expected.append(("annihilate", rnd + d, gid, "forced" if d == delta else "voluntary"))
            delays_seen.add("delta" if d == delta else d)
        assert sorted(trace.events_of("annihilate")) == sorted(expected)
    assert delays_seen == {0, 1, "delta"}
    assert promoted_seen


def test_injection_after_a_promoted_failure_is_refused_before_round_1():
    # tau = 1: the round-2 stall fails ab from round 3, notified in round 4.
    cfg = two_node(horizon=6, tau=1, stalls={"ab": {2}}, promote_after_tau=True,
                   injections=tuple(Injection(r, ("ab",)) for r in range(1, 6)))
    with pytest.raises(ScenarioError, match="round 4: injection routed over 'ab' after "
                                            "its failure notification") as err:
        cfg.validate()
    assert (err.value.round, err.value.edge) == (4, "ab")
    scripted = replace(cfg, failures=(FailureEvent("ab", 2, 1),))
    with pytest.raises(ScenarioError) as err:
        scripted.validate()
    assert (err.value.round, err.value.edge) == (3, "ab")


def test_injection_between_failure_windows_is_accepted():
    cfg = detour_cfg(failures=(FailureEvent("bz", 1, 1), FailureEvent("bz", 6, 2)),
                     recoveries=(RecoveryEvent("bz", 4),), horizon=12,
                     injections=(Injection(1, ("ab", "bz")), Injection(5, ("bz",)),
                                 Injection(7, ("bz",))))
    cfg.validate()  # round 5 lies between the recovery and the next failure
    with pytest.raises(ScenarioError) as err:
        replace(cfg, injections=cfg.injections + (Injection(8, ("bz",)),)).validate()
    assert (err.value.round, err.value.edge) == (8, "bz")
    with pytest.raises(ScenarioError) as err:
        replace(cfg, injections=(Injection(3, ("ab", "bz")),)).validate()
    assert (err.value.round, err.value.edge) == (3, "bz")


def test_fault_pairs_pair_each_failure_with_its_recovery():
    cfg = detour_cfg(failures=(FailureEvent("bz", 6), FailureEvent("bz", 1),
                               FailureEvent("cz", 2)),
                     recoveries=(RecoveryEvent("bz", 4),), injections=())
    assert cfg.schedule.fault_pairs == {("bz", 1): 4, ("bz", 6): None, ("cz", 2): None}


def test_recovery_of_a_promoted_failure_is_judged():
    def promoted(recovery):
        return detour_cfg(failures=(), stalls={"bz": {2, 3}}, tau=2, tau_prime=1,
                          recoveries=(RecoveryEvent("bz", recovery),),
                          promote_after_tau=True)

    # bz fails in round 4 and is notified in round 5; packet 0 re-routes
    # over bc and cz and is absorbed in round 7.
    early = validate_recovery(run(promoted(6)))
    assert early.violations == (RecoveryViolation("bz", 6, 0, 7),)
    assert validate_recovery(run(promoted(8))).ok


DETOUR_EDGES = ("ab", "bz", "bc", "cz")
DETOUR_PATHS = (("ab", "bz"), ("ab", "bc", "cz"), ("bz",), ("bc", "cz"), ("cz",))


@st.composite
def promoted_scenarios(draw):
    """Detour scenarios whose stall runs promote failures, with scripted
    injections and recoveries that may or may not respect them."""
    horizon = draw(st.integers(3, 12))
    rounds = st.integers(1, horizon)
    injections = draw(st.lists(st.builds(Injection, rounds, st.sampled_from(DETOUR_PATHS)),
                               max_size=8))
    cfg = ScenarioConfig(
        network=detour_net(), adversary=AdversaryType(HALF, 2, 2), policy="FIFO",
        horizon=horizon,
        injections=tuple(sorted(injections, key=lambda inj: inj.round)),
        stalls=draw(st.dictionaries(st.sampled_from(DETOUR_EDGES),
                                    st.frozensets(rounds, min_size=1))),
        tau=draw(st.integers(1, 3)), tau_prime=draw(st.integers(1, 3)),
        promote_after_tau=True, enforce_buckets=False)
    recoveries = [RecoveryEvent(ev.edge, draw(st.integers(ev.round, horizon)))
                  for ev in cfg.failures if draw(st.booleans())]
    return replace(cfg, recoveries=tuple(recoveries))


@settings(max_examples=200, deadline=None)
@given(promoted_scenarios())
def test_promoted_failures_are_refused_at_load_or_run_as_scheduled(cfg):
    try:
        cfg.validate()
    except ScenarioError:
        return
    try:
        trace = run(cfg)
    except ScenarioError as exc:
        # Failing both bz and cz can leave a packet no way to z; no fault
        # or notification error is left for a run to raise.
        assert "avoiding failed links" in str(exc)
        return
    fails = trace.events_of("fail")
    assert fails == [("fail", ev.round, ev.edge)
                     for ev in sorted(cfg.failures, key=lambda ev: ev.round)]
    try:
        two = build_two_priority_trace(trace)
    except ScenarioError:
        return  # a run of more than tau stalls: no reduction to replay
    assert run(_replay_config(trace, two)).events_of("fail") == fails


def test_rerouted_packets_get_no_scheduling_favor():
    # A rerouted and a never-rerouted packet meet at cz under FIFO; the
    # one that reached cz first wins, reroute history notwithstanding.
    cfg = detour_cfg(
        injections=(Injection(1, ("ab", "bz")), Injection(1, ("bc", "cz"))))
    trace = run(cfg)
    tx = [(r, p) for _, r, e, p in trace.events_of("transmit") if e == "cz"]
    assert tx[0][1] == 1


def test_conservation_holds_every_round():
    cfg = line(3, adversary=AdversaryType(HALF, 4, 2),
               injections=tuple(
                   Injection(r, ("e0", "e1", "e2")) for r in (2, 6, 10)),
               stalls={"e1": {3}, "e2": {7}}, horizon=16)
    trace = run(cfg)  # engine raises ModelViolation internally if broken
    assert len(trace.events_of("absorb")) == 3
    assert trace.q_totals[-1] == 0


def test_fault_alternation_validated():
    with pytest.raises(ScenarioError):
        detour_cfg(recoveries=(RecoveryEvent("bz", 1),),
                   failures=(FailureEvent("bz", 1),)).validate()
    with pytest.raises(ScenarioError):
        detour_cfg(failures=(FailureEvent("bz", 1), FailureEvent("bz", 3)),
                   recoveries=()).validate()


def test_recovery_validator_accepts_drained_and_rejects_early():
    drained = run(detour_cfg(recoveries=(RecoveryEvent("bz", 6),)))
    assert drained.packets[0].absorbed_round == 4
    assert validate_recovery(drained).ok

    early = run(detour_cfg(recoveries=(RecoveryEvent("bz", 4),)))
    verdict = validate_recovery(early)
    assert not verdict.ok
    assert verdict.violations[0].packet_id == 0
    assert verdict.violations[0].absorbed_round == 4

    boundary = run(detour_cfg(recoveries=(RecoveryEvent("bz", 5),)))
    assert validate_recovery(boundary).ok  # absorbed in 4, strictly before 5


def test_recovery_validator_passes_without_recoveries():
    assert validate_recovery(run(detour_cfg())).ok


@pytest.mark.parametrize("cfg", cross_check_configs(),
                         ids=lambda cfg: f"{cfg.policy}-{len(cfg.network.nodes)}n")
def test_derived_queue_sizes_match_the_engine_queues(cfg):
    engine = Engine(cfg)
    observed = []
    for rnd in range(1, cfg.horizon + 1):
        engine.step(rnd)
        observed.append({edge: len(q) for edge, q in engine.queues.items()})
    trace = engine.trace
    assert trace.queue_sizes() == observed
    for edge in cfg.network.edges:
        assert trace.queue_series(edge) == [sizes.get(edge, 0) for sizes in observed]
    assert trace.events_of("reroute") and max(trace.q_totals) > 1


def queue_series_cases(tmp_path):
    """Traces to check the one-edge queue series on, with what each covers."""
    random_cfg = gen_random_scenario(
        5, rate=Fraction(9, 10), burst=4, delay=2, tau=2, policy="FIFO",
        horizon=300, nodes=(4, 8), failures=2)
    path = tmp_path / "random.trace.jsonl"
    save_trace(run(random_cfg), path)
    # Annihilations of stalls near the horizon fall in the drain rounds.
    yield "saved-random", load_trace(path), lambda t: t.events[-1][1] > t.horizon
    held_out = rerouting_gadget(branches=3, burst=12, fail_duration=12, cycles=10)
    yield "held-out-gadget", run(held_out.config), lambda t: t.events_of("reroute")
    # With the horizon pushed out the hub drains, and the last event comes
    # before the horizon.
    drained = replace(held_out.config, horizon=held_out.config.horizon + 400)
    yield "drained-gadget", run(drained), lambda t: t.events[-1][1] < t.horizon
    # The packet is bound for cd2 behind bc; re-routed around ab, it still
    # crosses bc but then takes cd1, so it never joins cd2's queue.
    net = Network(["a", "b", "c", "d"],
                  [Edge("ab", "a", "b"), Edge("ab2", "a", "b"), Edge("bc", "b", "c"),
                   Edge("cd1", "c", "d"), Edge("cd2", "c", "d")])
    off_course = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 2, 1), policy="FIFO", horizon=6,
        injections=(Injection(1, ("ab", "bc", "cd2")),),
        failures=(FailureEvent("ab", 1, notify_delay=1),))
    yield "rerouted-off-a-queue-ahead", run(off_course), \
        lambda t: t.events_of("reroute")[0][4] == ("ab2", "bc", "cd1")


def test_queue_series_matches_the_fold_of_every_queue(tmp_path):
    for name, trace, covers in queue_series_cases(tmp_path):
        assert covers(trace), name
        sizes = trace.queue_sizes()
        assert len(sizes) == trace.horizon
        for edge in trace.config.network.edges:
            assert trace.queue_series(edge) == [s.get(edge, 0) for s in sizes], (name, edge)


# trace.digest() of rerouting_gadget at the benchmark's two shapes, burst
# and failure 10 and the held-out 12, under every policy. On these gadgets
# the six policies other than FIFO and SIS give one trace.
GADGET_DIGESTS = {
    (2, 10, 20): {
        "FIFO": "b216b8c891d22727bd1dcef440b23b93a18fc4e62e81af8fa5fd5004b3da44ba",
        "SIS": "1d52118be3f567ff033b0f1716091c4a9cee70398b0c7e8e1b62cfc41cab70b9",
        "other": "8325214b501d47699d8dbacbe00b2fe9d402bd30cc36b07db32449f56fd4dfdb",
    },
    (3, 12, 16): {
        "FIFO": "d3c9f7ac3bb87e9188b35f0ed1d2cf4cd0a64a6c65be14202f3139b9b80694d7",
        "SIS": "8c4a9f88aeb17460929af444787c34f9a80fb5a9d821003d02638e7a80455431",
        "other": "8922eb24a3bcc2f6eaf1c8e2c96030760254aba8894c66fde756acfad00d245d",
    },
}


@pytest.mark.parametrize("shape", GADGET_DIGESTS, ids=lambda s: "{}br-{}b-{}c".format(*s))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_gadget_digests_are_pinned(shape, policy):
    branches, burst, cycles = shape
    gadget = rerouting_gadget(branches=branches, burst=burst, fail_duration=burst,
                              cycles=cycles)
    digests = GADGET_DIGESTS[shape]
    trace = run(replace(gadget.config, policy=policy))
    assert trace.digest() == digests.get(policy, digests["other"])


def stepped_run(engine):
    """The oracle for ``Engine.run``: ``step`` over every round of the
    horizon, then the drain rounds, which only tick the buckets and fire
    due groups. Also checks that each step returns exactly the events it
    appended."""
    events = engine.trace.events
    for rnd in range(1, engine.config.horizon + 1):
        start = len(events)
        returned = engine.step(rnd)
        assert returned == events[start:]
        assert all(ev[1] == rnd for ev in returned)
    horizon, delay = engine.config.horizon, engine.config.adversary.delay
    for rnd in range(horizon + 1, horizon + delay + 1):
        engine.buckets.tick()
        for how, group in engine.buckets.tick_antitokens():
            events.append(("annihilate", rnd, group.gid, how))
    return engine.trace


def assert_same_run(ran, stepped):
    assert ran.events == stepped.events
    assert ran.q_totals == stepped.q_totals
    assert ran.packets == stepped.packets
    assert trace_digest(ran) == trace_digest(stepped)


@pytest.mark.parametrize("cfg", cross_check_configs(),
                         ids=lambda cfg: f"{cfg.policy}-{len(cfg.network.nodes)}n")
def test_run_matches_stepping_every_round(cfg):
    assert_same_run(Engine(cfg).run(), stepped_run(Engine(cfg)))


def test_driven_run_matches_stepping_every_round():
    # A co-run as gen_random_scenario makes it: buckets enforced, the
    # greedy driver choosing every injection, two failures re-routing.
    cfg = replace(gen_random_scenario(
        19, rate=Fraction(3, 4), burst=2, delay=3, tau=2, policy="FTG",
        horizon=600, nodes=(5, 8), stall_density=0.1, failures=2), injections=())
    ran = Engine(cfg, driver=GreedyDriver(7, max_path_len=5, max_burst=2)).run()
    stepped = stepped_run(Engine(cfg, driver=GreedyDriver(7, max_path_len=5, max_burst=2)))
    assert_same_run(ran, stepped)
    kinds = {ev[0] for ev in ran.events}
    assert {"inject", "stall", "annihilate", "reroute", "fail_notify"} <= kinds
    assert len(ran.packets) > 200


def stepping_cfg():
    return gen_random_scenario(3, rate=Fraction(9, 10), burst=4, delay=2, tau=2,
                               policy="FTG", horizon=50, nodes=(4, 6), failures=1)


@pytest.mark.parametrize("stepped, rnd, expected", [
    ((), 5, 1), ((1,), 1, 2), ((1, 2), 4, 3), ((), 0, 1), ((), 51, 1),
], ids=["ahead-on-a-fresh-engine", "repeated", "skipping", "round-0", "past-the-horizon"])
def test_step_refuses_any_round_but_the_next(stepped, rnd, expected):
    engine = Engine(stepping_cfg())
    for done in stepped:
        engine.step(done)
    events, totals = list(engine.trace.events), list(engine.trace.q_totals)
    with pytest.raises(ContractViolation, match=(
            f"^cannot step round {rnd}: the next round is {expected}, and the horizon is 50$")):
        engine.step(rnd)
    assert engine.trace.events == events and engine.trace.q_totals == totals
    assert engine.buckets.round == len(stepped)


def test_step_past_a_finished_horizon_is_refused():
    engine = Engine(stepping_cfg())
    for rnd in range(1, 51):
        engine.step(rnd)
    with pytest.raises(ContractViolation, match="^cannot step round 51: the next round is 51"):
        engine.step(51)
    engine.run()  # the drain rounds only
    with pytest.raises(ContractViolation, match="^cannot step round 50: the next round is 53"):
        engine.step(50)


@pytest.mark.parametrize("stepped", [0, 1, 3, 50])
def test_run_after_steps_runs_from_the_next_round(stepped):
    cfg = stepping_cfg()
    ran = run(cfg)
    engine = Engine(cfg)
    for rnd in range(1, stepped + 1):
        engine.step(rnd)
    assert_same_run(ran, engine.run())
    assert len(engine.trace.q_totals) == 50
    again = engine.run()  # a finished run has no round left to run
    assert_same_run(ran, again)


def oracle_records(events):
    """The reference fold of the packet records over a whole event list."""
    records = {}
    for ev in events:
        if ev[0] == "inject":
            _, rnd, pid, path, priority = ev
            records[pid] = PacketRecord(pid, rnd, priority, path, path)
        elif ev[0] == "reroute":
            rec = records[ev[2]]
            rec.final_path = rec.final_path[: len(rec.final_path) - len(ev[3])] + ev[4]
            rec.rerouted = True
        elif ev[0] == "absorb":
            records[ev[2]].absorbed_round = ev[1]
    return records


def detour_absorb_cfg():
    # The packet waits at bc, which fails; its destination b is the node it
    # waits at, so its re-route is empty and it is absorbed on the spot.
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("cb", "c", "b")])
    return ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 2, 2), policy="FIFO", horizon=5,
        injections=(Injection(1, ("ab", "bc", "cb")),),
        failures=(FailureEvent("bc", 1, notify_delay=1),), tau_prime=1)


def derived_record_configs():
    yield "reroute", detour_cfg()
    yield "detour-absorb", detour_absorb_cfg()
    yield "promoted", detour_cfg(failures=(), stalls={"bz": {2, 3}}, tau=2, tau_prime=1,
                                 promote_after_tau=True)
    yield "random-failures", gen_random_scenario(
        3, rate=Fraction(9, 10), burst=4, delay=2, tau=2, policy="FIFO",
        horizon=300, nodes=(4, 6), failures=2)
    gadget = rerouting_gadget(branches=3, cycles=20).config
    yield "gadget-prioritized", replace(
        gadget, policy=Prioritized("SIS", 2), enforce_buckets=False,
        injections=tuple(inj._replace(priority=i % 2)
                         for i, inj in enumerate(gadget.injections)))


@pytest.mark.parametrize("name, cfg", derived_record_configs(),
                         ids=[name for name, _ in derived_record_configs()])
def test_packet_records_are_current_after_every_step(name, cfg):
    # A queued packet's record holds its injection round, priority and
    # path; a packet that is no longer queued was absorbed in the round it
    # left the queues.
    engine = Engine(cfg)
    trace = engine.trace
    absorbed_in = {}
    for rnd in range(1, cfg.horizon + 1):
        engine.step(rnd)
        queued = {pkt.id: (pkt.injected_at, pkt.priority, pkt.path)
                  for queue in engine.queues.values() for *_, pkt in queue}
        records = trace.packets
        for pid in records.keys() - queued.keys():
            absorbed_in.setdefault(pid, rnd)
        assert {pid: (rec.injected_at, rec.priority, rec.final_path)
                for pid, rec in records.items() if pid in queued} == queued, rnd
        assert {pid: rec.absorbed_round for pid, rec in records.items()} == {
            pid: absorbed_in.get(pid) for pid in records}, rnd
        assert records == oracle_records(trace.events), rnd
    records = trace.packets.values()
    assert any(rec.rerouted for rec in records)
    if name == "detour-absorb":
        assert trace.packets[0] == PacketRecord(0, 1, 0, ("ab", "bc", "cb"), ("ab",), 2, True)
    if name == "gadget-prioritized":
        assert {rec.priority for rec in records} == {0, 1}


def test_packet_records_follow_a_replaced_event_list():
    trace = run(detour_cfg(injections=(Injection(1, ("ab", "bz")), Injection(3, ("bc",)))))
    events = trace.events
    assert trace.packets == oracle_records(events) and trace.packets[0].rerouted
    cut = next(i for i, ev in enumerate(events) if ev[0] == "reroute")
    trace.events = events[:cut]
    assert trace.packets == oracle_records(events[:cut])
    assert not trace.packets[0].rerouted and 1 not in trace.packets
    trace.events = events
    assert trace.packets == oracle_records(events)
    del events[cut:]
    assert trace.packets == oracle_records(events[:cut])
    trace.events = []
    assert trace.packets == {}


def test_validate_names_the_first_bad_injection_of_a_repeated_path():
    good, bad, worse = ("e0", "e1"), ("e1", "e0"), ("e0", "zz")
    cfg = line(3, injections=(Injection(1, good), Injection(2, good),
                              Injection(3, bad), Injection(4, worse),
                              Injection(5, bad)))
    with pytest.raises(ScenarioError, match=r"path \('e1', 'e0'\): discontinuity at 1"):
        cfg.validate()
    cfg = replace(cfg, injections=(Injection(1, good), Injection(2, worse),
                                   Injection(3, bad), Injection(4, worse)))
    with pytest.raises(ScenarioError, match=r"path \('e0', 'zz'\): unknown_edge at 1"):
        cfg.validate()
    # A path checked once is still checked for each injection's round.
    cfg = replace(cfg, injections=(Injection(1, good), Injection(13, good)))
    with pytest.raises(ScenarioError, match="injection round 13 outside horizon"):
        cfg.validate()


def corrupted_counter_runs():
    """Runs with a corrupted absorb counter, round 1 with and without traffic.

    Returns the error message per run; no assert, so the result means the
    same under ``python -O``.
    """
    results = []
    for first_injection in (1, 3):
        engine = Engine(two_node(injections=(Injection(first_injection, ("ab",)),)))
        engine._absorbed = 1
        try:
            engine.run()
            results.append(None)
        except ModelViolation as exc:
            results.append(str(exc))
    return results


CORRUPTED_COUNTER_VERDICTS = [
    "round 1: packet conservation broken (1 injected, 2 absorbed, 0 queued)",
    "round 1: packet conservation broken (0 injected, 1 absorbed, 0 queued)",
]


def test_conservation_check_covers_rounds_with_and_without_traffic():
    assert corrupted_counter_runs() == CORRUPTED_COUNTER_VERDICTS


def optimized_repr(function_name):
    """The repr of what a function of this module returns under ``python -O``."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    script = ("import test_engine\n"
              "assert False, 'asserts are still on'\n"
              f"print(repr(test_engine.{function_name}()))\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_conservation_check_holds_under_optimized_python():
    assert optimized_repr("corrupted_counter_runs") == repr(CORRUPTED_COUNTER_VERDICTS)


def load_time_refusals():
    """What ``validate`` and the loaders refuse, as (error class, message)
    pairs; no assert, so the result means the same under ``python -O``."""
    promoted = two_node(horizon=6, tau=1, stalls={"ab": {2}}, promote_after_tau=True,
                        injections=tuple(Injection(r, ("ab",)) for r in range(1, 6)))
    unpaired = detour_cfg(failures=(FailureEvent("bz", 1), FailureEvent("bz", 3)))

    def totals(values):
        def edit(lines):
            lines[1] = json.dumps({"q_totals": values}, separators=(",", ":"))
        return edit

    def as_version(version):
        def edit(lines):
            header = json.loads(lines[0])
            header["version"] = version
            lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        return edit

    # Edits of the two lines of a saved run of detour_cfg(), whose packet is
    # queued in rounds 1 and 2 and absorbed in round 4.
    trace_edits = [
        totals([1, 1, 1, 1, 0, 0, 0, 0, 0, 0]),
        totals([1, 1, 1, 0, 0, 0, 0, 0, 0]),
        totals([1, 1, 1, "0", 0, 0, 0, 0, 0, 0]),
        lambda lines: lines.pop(),
        lambda lines: lines.append(lines[1]),
        as_version(4),
        as_version(5),
        as_version(6),
        as_version(7),
    ]

    def set_in(keys, value):
        def edit(doc):
            *path, last = keys
            for key in path:
                doc = doc[key]
            doc[last] = value
        return edit

    def as_scenario_version_1(doc):
        del doc["format"], doc["version"]

    # Edits of the scenario document of a stalled detour_cfg().
    doc_edits = [
        set_in(("run", "horizon"), "10"),
        as_scenario_version_1,
        set_in(("schedules", "injections", "path"), [1]),
        set_in(("schedules", "injections", "round"), [1, 2]),
        set_in(("schedules", "stalls", 0, "delays"), [1]),
        set_in(("schedules", "injections", "round"), ["1"]),
    ]

    results = []
    stalled = detour_cfg(stalls={"ab": {2, 5}}, annihilation_delays={("ab", 2): 1})
    for cfg in (promoted, replace(promoted, failures=(FailureEvent("ab", 2, 1),)), unpaired,
                replace(stalled, annihilation_delays={("ab", 3): 1})):
        try:
            cfg.validate()
        except ScenarioError as exc:
            results.append(("ScenarioError", str(exc)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(run(detour_cfg()), path)
        saved = path.read_text().splitlines()
        for edit in trace_edits:
            lines = list(saved)
            edit(lines)
            path.write_text("\n".join(lines) + "\n")
            try:
                load_trace(path)
            except ParseError as exc:
                results.append(("ParseError", str(exc)))
    for edit in doc_edits:
        doc = json.loads(dumps_scenario(stalled))
        edit(doc)
        try:
            loads_scenario(json.dumps(doc))
        except ParseError as exc:
            results.append(("ParseError", str(exc)))
    return results


LOAD_TIME_REFUSALS = [
    ("ScenarioError", "round 4: injection routed over 'ab' after its failure notification"),
    ("ScenarioError", "round 3: injection routed over 'ab' after its failure notification"),
    ("ScenarioError", "edge 'bz' fault events must alternate failure/recovery"),
    ("ScenarioError", "annihilation delay for (ab, 3), which is not a stall round"),
    ("ParseError", "q_totals disagrees with the replay of its scenario from round 4: "
                   "1 stored, 0 replayed"),
    ("ParseError", "q_totals has 9 rounds, the horizon is 10"),
    ("ParseError", "line 2.q_totals[3]: expected int, got '0'"),
    ("ParseError", "trace has no q_totals record"),
    ("ParseError", "line 3: a line after the q_totals record"),
    ("ParseError", "unsupported trace format 'aqsim-trace' v4"),
    ("ParseError", "unsupported trace format 'aqsim-trace' v5"),
    ("ParseError", "unsupported trace format 'aqsim-trace' v6"),
    ("ParseError", "unsupported trace format 'aqsim-trace' v7"),
    ("ParseError", "run.horizon: expected int, got '10'"),
    ("ParseError", "unsupported scenario format v1: the document has no version; v2 is read"),
    ("ParseError", "injections.path[0]: 1 is not an index of the 1 paths"),
    ("ParseError", "injections.path has 1 entries, injections.round has 2"),
    ("ParseError", "stalls[0]: 1 delays for 2 rounds"),
    ("ParseError", "injections.round[0]: expected int, got '1'"),
]


def test_load_time_refusals():
    assert load_time_refusals() == LOAD_TIME_REFUSALS


def test_load_time_refusals_hold_under_optimized_python():
    assert optimized_repr("load_time_refusals") == repr(LOAD_TIME_REFUSALS)


# -- the frozen config and its one schedule ------------------------------------


def failing_scenario():
    """A generated scenario with two failures, stalls and a script."""
    return gen_random_scenario(202, rate=Fraction(9, 10), burst=4, delay=2, tau=2,
                               policy="FTG", horizon=300, nodes=(8, 8), failures=2)


def test_config_fields_cannot_be_assigned():
    cfg = two_node()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.horizon = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.stalls = {}


def test_config_keeps_its_own_copy_of_the_stall_and_delay_maps():
    rounds, stalls, delays = {1}, {}, {("ab", 1): 0}
    stalls["ab"] = rounds
    cfg = two_node(injections=(Injection(1, ("ab",)),), stalls=stalls,
                   annihilation_delays=delays)
    rounds.add(2)
    stalls["zz"] = {1}
    delays[("ab", 1)] = 7
    assert cfg.stalls == {"ab": frozenset({1})}
    assert cfg.annihilation_delays == {("ab", 1): 0}
    trace = run(cfg)
    assert trace.events_of("stall") == [("stall", 1, "ab", 0, 0)]
    assert trace.events_of("annihilate") == [("annihilate", 1, 0, "voluntary")]


def test_a_config_is_checked_and_its_schedule_built_once(monkeypatch):
    cfg = failing_scenario()
    counts = dict.fromkeys(("validate_path", "_fault_pairs"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(aqsim.engine, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(aqsim.engine, name, counted)
    assert cfg.validate() is cfg
    schedule = cfg.schedule
    distinct = {(inj.path, inj.priority) for inj in cfg.injections}
    assert counts == {"validate_path": len(distinct), "_fault_pairs": 1}
    traces = [Engine(cfg).run(), Engine(cfg).run()]
    assert validate_recovery(traces[0]).ok and injections_after_notification(traces[1]) == []
    cfg.validate()
    assert counts == {"validate_path": len(distinct), "_fault_pairs": 1}
    assert cfg.schedule is schedule and schedule.injectable == distinct
    assert Engine(cfg)._schedule is schedule
    tables = (schedule.scripted, schedule.stalled, schedule.faults, schedule.notifications)
    assert all(type(entries) is tuple for table in tables for entries in table.values())
    assert all(list(edges) == sorted(edges) for edges in schedule.stalled.values())
    assert sum(map(len, schedule.scripted.values())) == len(cfg.injections)


def test_a_replaced_config_is_checked_on_its_own_first_use():
    cfg = two_node(injections=(Injection(1, ("ab",)),)).validate()
    late = replace(cfg, horizon=0)  # its injection is now after the horizon
    with pytest.raises(ScenarioError, match="injection round 1 outside horizon"):
        Engine(late)
    with pytest.raises(ScenarioError, match="injection round 1 outside horizon"):
        late.validate()  # a config that fails is checked again
    assert run(replace(late, horizon=2)).q_totals == [0, 0]


def test_two_engines_on_one_config_run_alike():
    cfg = replace(failing_scenario(), injections=())
    first = Engine(cfg, driver=GreedyDriver(7, max_path_len=5, max_burst=2)).run()
    second = Engine(cfg, driver=GreedyDriver(7, max_path_len=5, max_burst=2)).run()
    assert first.events_of("reroute") and first.events_of("stall")
    assert trace_digest(first) == trace_digest(second)
    scripted = failing_scenario()
    assert trace_digest(run(scripted)) == trace_digest(run(scripted))


def test_a_checked_config_pickles_to_one_that_runs_alike():
    cfg = failing_scenario().validate()
    copied = pickle.loads(pickle.dumps(cfg))
    assert copied.network is not cfg.network
    assert copied == cfg and dumps_scenario(copied) == dumps_scenario(cfg)
    for name in ("fault_pairs", "edge_windows", "scripted", "stalled", "faults",
                 "notifications"):
        assert getattr(copied.schedule, name) == getattr(cfg.schedule, name), name
    assert trace_digest(run(copied)) == trace_digest(run(cfg))


def co_run():
    return gen_random_scenario(5, rate=Fraction(3, 4), burst=2, delay=2, tau=2,
                               policy="FTG", horizon=400, with_trace=True)


def rerouting_run():
    trace = run(failing_scenario())
    assert trace.events_of("reroute")
    return trace


@pytest.mark.parametrize("make", [
    co_run,
    lambda: run(co_run()[0]),
    rerouting_run,
    lambda: run(rerouting_gadget(2, 6, 5, 12).config),
    lambda: verify_reduction(run(co_run()[0])),
], ids=["co-run", "replay", "failure-run", "gadget-run", "verify-reduction"])
def test_a_run_leaves_no_cyclic_garbage(make):
    # Automatic collection is off while the engine runs rounds; that frees
    # nothing only while runs make no reference cycles. A first call fills
    # the caches that last the process; the second must leave nothing.
    make()
    gc.collect()
    kept = make()
    assert gc.collect() == 0
    assert kept


@pytest.mark.parametrize("collecting", [True, False])
def test_runs_and_steps_keep_the_callers_gc_state(collecting):
    inside = []

    def driver(engine, rnd):
        inside.append(gc.isenabled())
        # Round 3's injection is for round 4: that round raises.
        return [Injection(rnd + (rnd == 3), ("ab",))]

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        run(two_node(), driver=lambda engine, rnd: [Injection(rnd, ("ab",))])
        assert gc.isenabled() is collecting
        engine = Engine(two_node(), driver=driver)
        for rnd in (1, 2):
            engine.step(rnd)
            assert gc.isenabled() is collecting
        with pytest.raises(ScenarioError, match="^round 3: a driver's injection is for round 4$"):
            engine.step(3)
        assert gc.isenabled() is collecting
        with pytest.raises(ScenarioError, match="^round 3: a driver's injection is for round 4$"):
            Engine(two_node(), driver=driver).run()
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert inside == [False] * 6
