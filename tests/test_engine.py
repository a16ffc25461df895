import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aqsim.analysis import GreedyDriver, gen_random_scenario, rerouting_gadget
from aqsim.buckets import AdversaryType
from aqsim.engine import (Engine, FailureEvent, Injection, RecoveryEvent,
                          RecoveryViolation, ScenarioConfig, run, validate_recovery)
from aqsim.errors import ModelViolation, ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.policies import POLICY_NAMES, SIS, Prioritized, select_packet
from aqsim.reduction import _replay_config, build_two_priority_trace
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


def test_stalled_packet_waits_one_round_and_leaves_a_group():
    trace = run(two_node(injections=(Injection(1, ("ab",)),), stalls={"ab": {1}}))
    assert trace.events_of("stall") == [("stall", 1, "ab", 0, 0)]
    assert trace.events_of("group") == [("group", 1, 0, "ab", 0, ("ab",))]
    assert trace.events_of("absorb") == [("absorb", 2, 0)]
    assert trace.q_totals[0] == 1


def test_stall_mid_path_covers_only_unfinished_edges():
    cfg = line(3, injections=(Injection(1, ("e0", "e1", "e2")),),
               stalls={"e1": {2}})
    trace = run(cfg)
    groups = trace.events_of("group")
    assert len(groups) == 1
    _, rnd, _gid, edge, pid, edges = groups[0]
    assert (rnd, edge, pid) == (2, "e1", 0)
    assert edges == ("e1", "e2")  # e0 was already crossed


def test_scheduled_stall_on_empty_queue_is_silent():
    trace = run(two_node(stalls={"ab": {1, 2, 3}}))
    assert trace.events_of("stall") == []
    assert trace.events_of("group") == []


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
    queue = engine.waiting("cd")
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
    for edge in engine.queues:
        for pkt in engine.waiting(edge):
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


def test_reroutes_see_every_failure_and_recovery_since_the_last():
    # Stalls at ab space three packets out; each meets bz failed, while the
    # parallel bz2 fails, recovers and fails again between their arrivals.
    net = Network(
        ["a", "b", "c", "z"],
        [Edge("ab", "a", "b"), Edge("bz", "b", "z"), Edge("bz2", "b", "z"),
         Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(ONE, 4, 2), policy="FIFO",
        horizon=12, tau_prime=1, enforce_buckets=False,
        injections=tuple(Injection(1, ("ab", "bz")) for _ in range(3)),
        stalls={"ab": {2, 3, 4, 6, 7, 8}},
        failures=(FailureEvent("bz", 1, notify_delay=1),
                  FailureEvent("bz2", 1, notify_delay=1),
                  FailureEvent("bz2", 7, notify_delay=0)),
        recoveries=(RecoveryEvent("bz2", 3),))
    reroutes = run(cfg).events_of("reroute")
    assert [(ev[1], ev[2], ev[4]) for ev in reroutes] == [
        (2, 0, ("bc", "cz")), (5, 1, ("bz2",)), (9, 2, ("bc", "cz"))]


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
                    injections = tuple(replace(inj, priority=i % 2)
                                       for i, inj in enumerate(injections))
                # Another policy changes which packets the scripted stalls
                # hit, and so the bucket levels: only selection is checked.
                yield replace(cfg, policy=policy, injections=injections,
                              enforce_buckets=False)


@pytest.mark.parametrize("cfg", cross_check_configs(),
                         ids=lambda cfg: f"{cfg.policy}-{len(cfg.network.nodes)}n")
def test_heap_selection_matches_select_packet(cfg):
    engine = Engine(cfg)
    transmit = engine._transmit
    expected = {}
    choices = 0

    def checked_transmit(rnd):
        # The oracle sees the queues exactly as the transmit phase does.
        nonlocal choices
        for edge in engine.queues:
            if edge not in engine.failed:
                waiting = engine.waiting(edge)
                expected[edge] = select_packet(cfg.policy, waiting).id
                choices += len(waiting) > 1
        transmit(rnd)

    engine._transmit = checked_transmit
    reroutes = 0
    for rnd in range(1, cfg.horizon + 1):
        # The transmit phase runs only when a packet is queued.
        expected.clear()
        events = engine.step(rnd)
        # Each selected packet is named by the round's transmit or stall.
        assert {ev[2]: ev[3] for ev in events
                if ev[0] in ("transmit", "stall")} == expected
        reroutes += sum(ev[0] == "reroute" for ev in events)
    assert reroutes > 0 and choices >= 50


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
                     recoveries=(RecoveryEvent("bz", 4),))
    assert cfg.fault_pairs() == {("bz", 1): 4, ("bz", 6): None, ("cz", 2): None}


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

    # The first event of a kind, replaced in a saved run of detour_cfg().
    trace_edits = [
        ("reroute", ["reroute", 2, 0, ["bz"], ["bc", "cz"], "bz", [["x"]]]),
        ("fail", ["fail", 1, "cz"]),
        ("fail_notify", ["fail_notify", 2, "bz", 2]),
    ]

    results = []
    for cfg in (promoted, replace(promoted, failures=(FailureEvent("ab", 2, 1),)), unpaired):
        try:
            cfg.validate()
        except ScenarioError as exc:
            results.append(("ScenarioError", str(exc)))
    doc = json.loads(dumps_scenario(detour_cfg()))
    doc["run"]["horizon"] = "10"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        save_trace(run(detour_cfg()), path)
        saved = path.read_text().splitlines()
        for kind, event in trace_edits:
            lines = list(saved)
            at = next(i for i, text in enumerate(lines) if text.startswith(f'{{"event":["{kind}"'))
            lines[at] = json.dumps({"event": event})
            path.write_text("\n".join(lines) + "\n")
            try:
                load_trace(path)
            except ParseError as exc:
                results.append(("ParseError", str(exc)))
        try:
            loads_scenario(json.dumps(doc))
        except ParseError as exc:
            results.append(("ParseError", str(exc)))
    return results


LOAD_TIME_REFUSALS = [
    ("ScenarioError", "round 4: injection routed over 'ab' after its failure notification"),
    ("ScenarioError", "round 3: injection routed over 'ab' after its failure notification"),
    ("ScenarioError", "edge 'bz' fault events must alternate failure/recovery"),
    ("ParseError", "line 6: reroute of packet 0 at 'bz' names a failure in round (('x',),); "
                   "'bz' last failed in round 1"),
    ("ParseError", "line 2: fail of edge 'cz' in round 1, which is not in the scenario's "
                   "failures"),
    ("ParseError", "line 5: fail_notify in round 2 of a failure of edge 'bz' in round 2, "
                   "which the scenario does not notify in that round"),
    ("ParseError", "run.horizon: expected int, got '10'"),
]


def test_load_time_refusals():
    assert load_time_refusals() == LOAD_TIME_REFUSALS


def test_load_time_refusals_hold_under_optimized_python():
    assert optimized_repr("load_time_refusals") == repr(LOAD_TIME_REFUSALS)
