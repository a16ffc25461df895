import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from aqsim.analysis import gen_random_scenario, rerouting_gadget
from aqsim.buckets import AdversaryType
from aqsim.engine import (HIGH_ID_BASE, ExecutionTrace, FailureEvent, Injection,
                          PacketRecord, RecoveryEvent, ScenarioConfig, run)
from aqsim.errors import ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.policies import Prioritized
from aqsim.scenario_io import (ParseError, dumps_scenario, format_rational,
                               load_scenario, load_trace, loads_scenario,
                               parse_rational, save_scenario, save_trace,
                               scenario_hash, trace_digest, write_metrics_csv)
from trace_lines import before_the_totals, event_line, first_event, line_event

HALF = Fraction(1, 2)


def sample_config():
    net = Network(
        ["a", "b", "c"],
        [Edge("ab", "a", "b"), Edge("bc", "b", "c", slowness=2),
         Edge("ac", "a", "c")])
    return ScenarioConfig(
        network=net,
        adversary=AdversaryType(Fraction(3, 4), 2, 2),
        policy=Prioritized("FTG", 2),
        horizon=10,
        injections=(Injection(2, ("ab", "bc")), Injection(3, ("ac",), 1)),
        stalls={"bc": frozenset({3, 5})},
        annihilation_delays={("bc", 3): 1},
        failures=(FailureEvent("ac", 4, notify_delay=1),),
        recoveries=(RecoveryEvent("ac", 8),),
        tau=2,
        tau_prime=2,
        seed=17,
    )


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("2") == 2
    assert format_rational(Fraction(9, 10)) == "9/10"
    with pytest.raises(ParseError):
        parse_rational("x/y")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_scenario_round_trip_is_identity():
    cfg = sample_config()
    text = dumps_scenario(cfg)
    back = loads_scenario(text)
    assert dumps_scenario(back) == text
    assert back.policy == cfg.policy
    assert back.adversary == cfg.adversary
    assert back.injections == cfg.injections
    assert back.stalls == cfg.stalls
    assert back.annihilation_delays == cfg.annihilation_delays
    assert back.failures == cfg.failures
    assert back.recoveries == cfg.recoveries
    assert (back.tau, back.tau_prime, back.seed) == (2, 2, 17)


def test_round_trip_of_generated_scenarios():
    for builder in (lambda: gen_random_scenario(
            4, rate=HALF, burst=2, delay=2, tau=2, policy="SIS", horizon=50,
            stall_density=0.2),
                    lambda: rerouting_gadget(branches=1, cycles=3).config):
        cfg = builder()
        assert dumps_scenario(loads_scenario(dumps_scenario(cfg))) == dumps_scenario(cfg)


ROUND_TRIP_NET = Network(
    ["a", "b", "c"],
    [Edge("ab", "a", "b"), Edge("bc", "b", "c", slowness=2), Edge("ac", "a", "c"),
     Edge("ca", "c", "a"), Edge("cb", "c", "b")])
# The injections' paths, none over ca or cb, the only edges that fail.
ROUND_TRIP_PATHS = [("ab",), ("ab", "bc"), ("bc",), ("ac",), ("ac", "cb")]


@st.composite
def v2_scenarios(draw):
    """Scenarios whose documents use every part of the version 2 layout:
    priorities, explicit ids (some at or above HIGH_ID_BASE), delays given
    for some stall rounds only, failures with recoveries, and promotion."""
    horizon = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 3))
    script = draw(st.lists(st.tuples(st.integers(1, horizon), st.sampled_from(ROUND_TRIP_PATHS),
                                     st.integers(0, levels - 1)), max_size=8))
    ids = [None] * len(script)
    if draw(st.booleans()):
        ids = draw(st.lists(st.one_of(st.integers(0, 50),
                                      st.integers(HIGH_ID_BASE, HIGH_ID_BASE + 50)),
                            min_size=len(script), max_size=len(script), unique=True))
    injections = tuple(Injection(rnd, path, priority, pid)
                       for (rnd, path, priority), pid in zip(script, ids))
    tau = draw(st.integers(1, 2))
    stalls, delays = {}, {}
    for edge in draw(st.sets(st.sampled_from(sorted(ROUND_TRIP_NET.edges)))):
        rounds = draw(st.sets(st.integers(1, horizon + 2), min_size=1, max_size=4))
        stalls[edge] = frozenset(rounds)
        for rnd in sorted(rounds):
            delay = draw(st.one_of(st.none(), st.integers(0, 2)))
            if delay is not None:
                delays[edge, rnd] = delay
    failures, recoveries = [], []
    for edge in ("ca", "cb"):
        marks = sorted(draw(st.sets(st.integers(1, horizon), max_size=3)))
        for i, rnd in enumerate(marks):
            if i % 2:
                recoveries.append(RecoveryEvent(edge, rnd))
            else:
                failures.append(FailureEvent(edge, rnd, draw(st.integers(0, 2))))
    cfg = ScenarioConfig(
        network=ROUND_TRIP_NET, adversary=AdversaryType(Fraction(3, 4), 2, 2),
        policy=Prioritized("FTG", levels) if levels > 1 else "FIFO", horizon=horizon,
        injections=injections, stalls=stalls, annihilation_delays=delays,
        failures=tuple(failures), recoveries=tuple(recoveries), tau=tau, tau_prime=2,
        seed=draw(st.one_of(st.none(), st.integers(0, 99))),
        promote_after_tau=draw(st.booleans()), enforce_buckets=draw(st.booleans()))
    try:
        cfg.validate()
    except ScenarioError:
        # A promoted failure can fall on an edge an injection crosses after
        # its notification, or next to a scheduled failure of ca or cb.
        assume(False)
    return cfg


@settings(max_examples=150, deadline=None)
@given(v2_scenarios())
def test_v2_documents_round_trip(cfg):
    text = dumps_scenario(cfg)
    back = loads_scenario(text)
    assert dumps_scenario(back) == text
    for name in ("adversary", "policy", "horizon", "injections", "stalls",
                 "annihilation_delays", "failures", "recoveries", "tau", "tau_prime",
                 "seed", "enforce_buckets"):
        assert getattr(back, name) == getattr(cfg, name), name
    columns = json.loads(text)["schedules"]["injections"]
    assert ("priority" in columns) == any(inj.priority for inj in cfg.injections)
    assert ("id" in columns) == any(inj.id is not None for inj in cfg.injections)


def test_promoted_failures_are_saved_as_failures():
    cfg = dataclasses.replace(sample_config(), stalls={"bc": frozenset({3, 4})},
                              failures=(), recoveries=())
    promoted = ScenarioConfig(**{**vars(cfg), "promote_after_tau": True})
    assert promoted.failures == (FailureEvent("bc", 5, 2),)
    doc = json.loads(dumps_scenario(promoted))
    assert doc["run"] == {"horizon": 10, "seed": 17}
    assert doc["schedules"]["failures"] == [{"edge": "bc", "notify_delay": 2, "round": 5}]
    assert loads_scenario(dumps_scenario(promoted)).failures == promoted.failures
    # A file may still ask for promotion; it is saved with the failure it made.
    doc = json.loads(dumps_scenario(cfg))
    doc["run"]["promote_after_tau"] = True
    loaded = loads_scenario(json.dumps(doc))
    assert loaded.failures == promoted.failures
    assert dumps_scenario(loaded) == dumps_scenario(promoted)


def mistyped(edit):
    doc = json.loads(dumps_scenario(sample_config()))
    edit(doc)
    return doc


MISTYPED_FIELDS = [
    pytest.param(lambda doc: doc["schedules"]["stalls"][0].update(rounds=[3, "x"]),
                 "stalls[0].rounds[1]: expected int, got 'x'", id="stall-round"),
    pytest.param(lambda doc: doc["schedules"]["injections"]["round"].__setitem__(1, "3"),
                 "injections.round[1]: expected int, got '3'", id="injection-round"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(round=3),
                 "injections.round: expected a list of int, got 3", id="injection-rounds"),
    pytest.param(lambda doc: doc["schedules"]["injections"]["priority"].__setitem__(1, True),
                 "injections.priority[1]: expected int, got True", id="injection-priority"),
    pytest.param(lambda doc: doc["run"].update(horizon="50"),
                 "run.horizon: expected int, got '50'", id="horizon"),
    pytest.param(lambda doc: doc["schedules"]["injections"]["path"].__setitem__(0, "0"),
                 "injections.path[0]: expected int, got '0'", id="injection-path"),
    pytest.param(lambda doc: doc["schedules"]["paths"].__setitem__(0, 5),
                 "schedules.paths[0]: expected a list of str, got 5", id="path"),
    pytest.param(lambda doc: doc["schedules"]["paths"].__setitem__(1, ["ab", ["bc"]]),
                 "schedules.paths[1][1]: expected str, got ['bc']",
                 id="injection-path-nested"),
    pytest.param(lambda doc: doc["schedules"].update(paths=[]),
                 "injections.path[0]: 0 is not an index of the 0 paths", id="no-paths"),
    pytest.param(lambda doc: doc["adversary"].update(b=True),
                 "adversary.b: expected int, got True", id="burst-bool"),
    pytest.param(lambda doc: doc["adversary"].update(r=0.75),
                 "adversary.r: expected str, got 0.75", id="rate-float"),
    pytest.param(lambda doc: doc["schedules"]["stalls"][0]["delays"].__setitem__(0, 1.0),
                 "stalls[0].delays[0]: expected int or null, got 1.0", id="annihilation-delay"),
    pytest.param(lambda doc: doc["schedules"]["failures"][0].update(edge=["ac"]),
                 "failures[0].edge: expected str, got ['ac']", id="failure-edge"),
    pytest.param(lambda doc: doc["schedules"].update(recoveries={"edge": "ac"}),
                 "schedules.recoveries: expected list, got {'edge': 'ac'}",
                 id="recoveries-object"),
    pytest.param(lambda doc: doc["network"]["edges"][1].update(slowness="2"),
                 "network.edges[1].slowness: expected int, got '2'", id="edge-slowness"),
    pytest.param(lambda doc: doc["network"].update(nodes="abc"),
                 "network.nodes: expected a list of str, got 'abc'", id="nodes"),
    pytest.param(lambda doc: doc["run"].update(enforce_buckets=0),
                 "run.enforce_buckets: expected bool, got 0", id="enforce-buckets"),
    pytest.param(lambda doc: doc.update(version="2"),
                 "scenario.version: expected int, got '2'", id="version"),
]


@pytest.mark.parametrize("edit, message", MISTYPED_FIELDS)
def test_mistyped_field_is_a_parse_error_naming_it(edit, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        loads_scenario(json.dumps(mistyped(edit)))


def as_version_1(doc):
    """The document in the version 1 layout: no format or version, one
    object per injection and one per annihilation delay."""
    del doc["format"], doc["version"]
    sched = doc["schedules"]
    paths, columns = sched.pop("paths"), sched["injections"]
    sched["injections"] = [{"round": rnd, "path": paths[at]}
                           for rnd, at in zip(columns["round"], columns["path"])]
    sched["annihilations"] = [{"edge": row["edge"], "round": rnd, "delay": delay}
                              for row in sched["stalls"]
                              for rnd, delay in zip(row["rounds"], row.pop("delays"))
                              if delay is not None]


V2_REFUSALS = [
    pytest.param(as_version_1,
                 "unsupported scenario format v1: the document has no version; v2 is read",
                 id="version-1"),
    pytest.param(lambda doc: doc.update(version=3),
                 "unsupported scenario format 'aqsim-scenario' v3", id="version-3"),
    pytest.param(lambda doc: doc.update(format="aqsim-trace"),
                 "unsupported scenario format 'aqsim-trace' v2", id="other-format"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(path=[0, -1]),
                 "injections.path[1]: -1 is not an index of the 2 paths", id="path-negative"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(path=[2, 1]),
                 "injections.path[0]: 2 is not an index of the 2 paths", id="path-past-table"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(path=[0]),
                 "injections.path has 1 entries, injections.round has 2", id="path-short"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(priority=[0]),
                 "injections.priority has 1 entries, injections.round has 2",
                 id="priority-short"),
    pytest.param(lambda doc: doc["schedules"]["injections"].update(id=[4, 5, 6]),
                 "injections.id has 3 entries, injections.round has 2", id="id-long"),
    pytest.param(lambda doc: doc["schedules"]["stalls"][0].update(delays=[1, None, 0]),
                 "stalls[0]: 3 delays for 2 rounds", id="delays-long"),
    pytest.param(lambda doc: doc["schedules"]["stalls"][0].pop("delays"),
                 "stalls[0]: missing key 'delays'", id="delays-missing"),
    pytest.param(lambda doc: doc["schedules"]["stalls"].append(
                     {"edge": "bc", "rounds": [7], "delays": [0]}),
                 "stalls[1]: a second row for edge 'bc'", id="stall-edge-twice"),
    pytest.param(lambda doc: doc["schedules"]["stalls"][0].update(rounds=[3, 3]),
                 "stalls[0].rounds: a round is listed twice", id="stall-round-twice"),
    pytest.param(lambda doc: doc["schedules"].update(annihilations=[]),
                 "schedules: unknown key 'annihilations'", id="annihilations"),
]


@pytest.mark.parametrize("edit, message", V2_REFUSALS)
def test_v2_document_refused(edit, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        loads_scenario(json.dumps(mistyped(edit)))


def test_schedules_may_be_left_out():
    doc = json.loads(dumps_scenario(sample_config()))
    doc["schedules"] = {}
    cfg = loads_scenario(json.dumps(doc))
    assert (cfg.injections, cfg.stalls, cfg.annihilation_delays) == ((), {}, {})
    assert (cfg.failures, cfg.recoveries) == ((), ())


def test_readme_scenario_loads_and_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario files"):readme.index("## Trace files")]
    text = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = loads_scenario(text)
    assert cfg.injections == (Injection(3, ("ab", "bc"), 0, 0), Injection(4, ("bc",), 1, 1),
                              Injection(6, ("ab", "bc"), 0, 2))
    assert cfg.annihilation_delays == {("bc", 3): 1}
    assert json.loads(dumps_scenario(cfg)) == json.loads(text)
    assert run(cfg).q_totals[-1] == 0


def test_unknown_keys_rejected_everywhere():
    doc = json.loads(dumps_scenario(sample_config()))
    doc["surprise"] = 1
    with pytest.raises(ParseError, match="surprise"):
        loads_scenario(json.dumps(doc))

    doc = json.loads(dumps_scenario(sample_config()))
    doc["network"]["edges"][0]["speed"] = 3
    with pytest.raises(ParseError, match="speed"):
        loads_scenario(json.dumps(doc))

    doc = json.loads(dumps_scenario(sample_config()))
    doc["run"]["horizont"] = 5
    with pytest.raises(ParseError, match="horizont"):
        loads_scenario(json.dumps(doc))


def test_missing_keys_rejected():
    doc = json.loads(dumps_scenario(sample_config()))
    del doc["adversary"]["delta"]
    with pytest.raises(ParseError, match="delta"):
        loads_scenario(json.dumps(doc))


def test_malformed_json_reports_position():
    with pytest.raises(ParseError, match="line"):
        loads_scenario("{nope")


def test_scenario_files(tmp_path):
    cfg = sample_config()
    path = tmp_path / "s.json"
    save_scenario(cfg, path)
    assert dumps_scenario(load_scenario(path)) == dumps_scenario(cfg)


def run_small():
    """Packet 0 crosses ab, stalls at bc in round 2 and crosses it in round
    3; packet 1 crosses bc in round 4. Edge ca, which no packet uses, fails
    in round 3 and would be notified only after the horizon, so the fail
    event is its one fault event."""
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2),
        policy="FIFO", horizon=6,
        injections=(Injection(1, ("ab", "bc")), Injection(3, ("bc",))),
        stalls={"bc": frozenset({2})}, failures=(FailureEvent("ca", 3, 4),), tau_prime=4)
    return run(cfg)


def test_trace_round_trip(tmp_path):
    trace = run_small()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.events == trace.events
    assert loaded.q_totals == trace.q_totals
    assert loaded.queue_sizes() == trace.queue_sizes()
    assert trace_digest(loaded) == trace_digest(trace)
    assert scenario_hash(loaded.config) == scenario_hash(trace.config)
    for pid, rec in trace.packets.items():
        got = loaded.packets[pid]
        assert (got.injected_at, got.absorbed_round, got.final_path,
                got.rerouted) == (rec.injected_at, rec.absorbed_round,
                                  rec.final_path, rec.rerouted)


def test_trace_rebuilds_rerouted_paths(tmp_path):
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2),
        policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab", "bz")),),
        failures=(FailureEvent("bz", 1, notify_delay=1),))
    trace = run(cfg)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.packets[0].final_path == ("ab", "bc", "cz")
    assert loaded.packets[0].rerouted
    lines = path.read_text().splitlines()
    at = first_event(lines, "reroute")
    ev = line_event(lines[at])
    assert ev[3] == ["bz"]
    ev[3] = ["ab", "bz"]
    lines[at] = event_line(ev)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="reroute of packet 0 does not match its path"):
        load_trace(path)


def test_tampered_header_detected(tmp_path):
    trace = run_small()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["scenario"]["run"]["horizon"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="hash"):
        load_trace(path)


def test_metrics_csv(tmp_path):
    trace = run_small()
    path = tmp_path / "m.csv"
    write_metrics_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,edge,queue_len,q_total"
    assert len(lines) >= trace.horizon + 1
    # Round 2 held the stalled packet at bc.
    assert "2,bc,1,1" in lines


def saved_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    save_trace(run_small(), path)
    return path, path.read_text().splitlines()


def test_edited_queue_total_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert json.loads(lines[-1])["q_totals"] == [1, 1, 1, 0, 0, 0]
    lines[-1] = json.dumps({"q_totals": [1, 1, 1, 0, 1, 0]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="from round 5: 1 stored, 0 injected"):
        load_trace(path)
    lines[-1] = json.dumps({"q_totals": [1, 1, 1, 0, 0]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="q_totals has 5 rounds, the horizon is 6"):
        load_trace(path)


def test_deleted_absorb_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    at = first_event(lines, "absorb")
    assert line_event(lines[at]) == ["absorb", 3, 0]
    del lines[at]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="from round 3: 1 stored, 2 injected"):
        load_trace(path)


def test_events_out_of_round_order_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    # The annihilate moves ahead of the round-3 events but stays after the
    # group it ends, so the round order is the first thing wrong.
    assert line_event(lines[8]) == ["annihilate", 4, 0, "forced"]
    lines[5], lines[8] = lines[8], lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 7: event of round 3 after round 4"):
        load_trace(path)


# Edits of the saved run_small trace: (index into its lines, replacement
# event, message). Its events are, from index 1: inject 0 on ab-bc, transmit
# 0 on ab, stall on bc, fail of ca, inject 1 on bc, transmit and absorb 0,
# annihilate, transmit and absorb 1. A stall creates its antitoken group,
# so the group cases edit a stall.
INCONSISTENT_EDITS = [
    pytest.param(5, ["inject", 3, 0, ["bc"], 0], "packet 0 is injected twice",
                 id="duplicate-inject"),
    pytest.param(5, ["inject", 3, 1, ["zz"], 0],
                 "packet 1 is injected on a path not in the network", id="unknown-edge"),
    pytest.param(5, ["inject", 3, 1, ["bc", "ab"], 0],
                 r"packet 1 is injected on a path not in the network, path \('bc', 'ab'\): "
                 "discontinuity at 1", id="discontinuous-path"),
    pytest.param(5, ["inject", 3, 1, ["bc", "ca", "ab", "bc"], 0],
                 "packet 1 is injected on a path not in the network, "
                 r"path \('bc', 'ca', 'ab', 'bc'\): repeated_edge at 3", id="repeated-edge"),
    pytest.param(7, ["absorb", 3, 123456], "absorb of packet 123456, which is never injected",
                 id="unknown-absorb"),
    pytest.param(9, ["transmit", 4, "bc", 0],
                 "transmit of packet 0, which is already absorbed", id="absorbed-transmit"),
    pytest.param(2, ["transmit", 1, "bc", 0],
                 "transmit of packet 0 at 'bc', where it is not queued", id="wrong-edge"),
    pytest.param(3, ["stall", 2, "ab", 0, 0],
                 "stall of packet 0 at 'ab', where it is not queued", id="wrong-stall"),
    pytest.param(7, ["absorb", 3, 1], r"absorb of packet 1 with \['bc'\] still to cross",
                 id="early-absorb"),
    pytest.param(2, ["transmit"], r"an event is a list \[kind, round, ...\]",
                 id="no-round"),
    pytest.param(2, ["transmit", "1", "ab", 0], "an event is a list", id="text-round"),
    pytest.param(2, ["transmit", 1, "ab", "0"], "transmit event with packet id '0'",
                 id="text-packet"),
    pytest.param(2, ["transmit", 1, "ab"], "malformed 'transmit' event", id="short"),
    pytest.param(2, ["tick", 1], "malformed 'tick' event", id="v1-kind"),
    pytest.param(2, ["transmit", 0, "ab", 0], "event of round 0; rounds start at 1",
                 id="round-0"),
    pytest.param(3, ["stall", 2, "zz", 0, 0],
                 "stall of packet 0 at 'zz', where it is not queued", id="group-unknown-edge"),
    pytest.param(8, ["stall", 4, "bc", 1, 0], "group 0 is created twice", id="group-twice"),
    pytest.param(3, ["stall", 2, "bc", 0, "0"], "stall event with group id '0'",
                 id="stall-text-group"),
    pytest.param(8, ["annihilate", 4, "0", "forced"], "annihilate event with group id '0'",
                 id="annihilate-text-id"),
    pytest.param(8, ["annihilate", 4, 7, "forced"],
                 "annihilate of group 7, which is never created", id="annihilate-unknown"),
    pytest.param(9, ["annihilate", 4, 0, "voluntary"],
                 "annihilate of group 0, which is already annihilated", id="annihilate-twice"),
    pytest.param(8, ["annihilate", 4, 0, "later"],
                 "annihilate of group 0 in round 4 as 'later'; its stall annihilates it in "
                 "round 4 as 'forced'", id="annihilate-manner"),
    pytest.param(4, ["fail", 3, "zz"], "fail of edge 'zz' in round 3, where the scenario's "
                 "next fault event is the fail of edge 'ca' in round 3", id="fail-unknown-edge"),
    pytest.param(8, ["recover", 4, ["bc"]],
                 r"recover of edge \('bc',\) in round 4, after the scenario's last fault event",
                 id="recover-unknown-edge"),
    pytest.param(8, ["fail_notify", 4, "zz", 4],
                 "fail_notify of edge 'zz' in round 4 of its failure in round 4, after the",
                 id="fail-notify-unknown-edge"),
    pytest.param(8, ["fail_notify", 4, "ca", 5],
                 "fail_notify of edge 'ca' in round 4 of its failure in round 5, after the",
                 id="fail-notify-later"),
    pytest.param(8, ["fail_notify", 4, "ca", "3"],
                 "fail_notify of edge 'ca' in round 4 of its failure in round '3', after the",
                 id="fail-notify-text-round"),
    pytest.param(5, ["inject", 3, 1, ["bc"], [7]],
                 r"packet 1 is injected with priority \(7,\), not one of the policy's 1 level",
                 id="inject-priority-list"),
    pytest.param(5, ["inject", 3, 1, ["bc"], 1],
                 "packet 1 is injected with priority 1, not one of the policy's 1 level",
                 id="inject-priority-beyond-levels"),
    pytest.param(5, ["inject", 3, 1, ["bc"], -1],
                 "packet 1 is injected with priority -1, not one", id="inject-priority-negative"),
    pytest.param(5, ["inject", 3, 1, ["bc"], "0"],
                 "packet 1 is injected with priority '0', not one", id="inject-priority-text"),
    pytest.param(3, ["stall", 2, "bc", 999999, 0],
                 "stall of packet 999999, which is never injected", id="group-other-packet"),
    pytest.param(3, ["stall", 3, "bc", 0, 0],
                 "stall of packet 0 at 'bc' in round 3, which the scenario does not schedule",
                 id="group-other-round"),
    pytest.param(3, ["stall", 2, "bc", 0, 1],
                 "stall of packet 0 creates group 1, not the next, 0", id="group-other-id"),
    pytest.param(4, ["stall", 2, "bc", 0, 1],
                 "stall of packet 0 at 'bc' in round 2, which is stalled already",
                 id="stall-after-stall"),
    pytest.param(8, ["fail", 4, "bc"],
                 "fail of edge 'bc' in round 4, after the scenario's last fault event",
                 id="fail-unscheduled"),
    pytest.param(4, ["recover", 3, "ca"],
                 "recover of edge 'ca' in round 3, where the scenario's next fault event is "
                 "the fail of edge 'ca' in round 3", id="recover-unscheduled"),
    pytest.param(8, ["fail_notify", 4, "ca", 3],
                 "fail_notify of edge 'ca' in round 4 of its failure in round 3, after the "
                 "scenario's last fault event", id="fail-notify-unscheduled"),
]


@pytest.mark.parametrize("index, event, message", INCONSISTENT_EDITS)
def test_inconsistent_event_refused(tmp_path, index, event, message):
    path, lines = saved_lines(tmp_path)
    lines[index] = event_line(event)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {index + 1}: {message}"):
        load_trace(path)


def fault_lines(tmp_path):
    """A saved trace whose edge bz fails in round 1, recovers in round 3 and
    fails again in round 5; each failure re-routes one packet over bc, cz.

    Its events are, from index 1: fail, inject 0, transmit 0 on ab,
    fail_notify, reroute 0, recover, transmit 0 on bc and cz, absorb 0,
    fail, inject 1, transmit 1 on ab, fail_notify, reroute 1, transmit 1 on
    bc and cz, absorb 1.
    """
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab", "bz")), Injection(5, ("ab", "bz"))),
        failures=(FailureEvent("bz", 1, 1), FailureEvent("bz", 5, 1)),
        recoveries=(RecoveryEvent("bz", 3),))
    path = tmp_path / "faults.jsonl"
    save_trace(run(cfg), path)
    return path, path.read_text().splitlines()


# Edits of the fault_lines trace against its fault schedule: (edits, each an
# index and the event put there or None to delete the line, then the
# line number and message of the refusal).
FAULT_EDITS = [
    pytest.param([(6, None)], 10,
                 "trace has no recover of edge 'bz' in round 3, which the scenario schedules "
                 "before this fail of edge 'bz' in round 5", id="fail-of-failed-edge"),
    pytest.param([(5, None), (4, None), (1, None)], 4,
                 "trace has no fail of edge 'bz' in round 1, which the scenario schedules "
                 "before this recover of edge 'bz' in round 3", id="recover-of-live-edge"),
    pytest.param([(4, None), (1, None)], 4,
                 "reroute of packet 0 at 'bz' before the fail_notify of its failure in round 1",
                 id="reroute-at-live-edge"),
    pytest.param([(14, ["reroute", 6, 1, ["bz"], ["bc", "cz"], "bz", 1])], 15,
                 "reroute of packet 1 at 'bz' in round 6 names a failure in round 1, visible "
                 "in rounds 2..2", id="reroute-of-earlier-failure"),
    pytest.param([(5, ["reroute", 2, 0, ["bz"], ["bc", "cz"], "bz", [["x"]]])], 6,
                 "reroute of packet 0 at 'bz' in round 2 names a failure in round (('x',),), "
                 "which the scenario never makes visible", id="reroute-failure-round-not-a-round"),
    pytest.param([(5, ["reroute", 2, 0, ["bz"], ["bc", "cz"], "bz", True])], 6,
                 "reroute of packet 0 at 'bz' in round 2 names a failure in round True",
                 id="reroute-bool"),
    pytest.param([(13, ["fail_notify", 6, "bz", 1])], 14,
                 "fail_notify of edge 'bz' in round 6 of its failure in round 1, where the "
                 "scenario's next fault event is the fail_notify of edge 'bz' in round 6 of its "
                 "failure in round 5", id="fail-notify-of-earlier-failure"),
    pytest.param([(4, ["fail_notify", 3, "bz", 1])], 5,
                 "fail_notify of edge 'bz' in round 3 of its failure in round 1, where the "
                 "scenario's next fault event is the fail_notify of edge 'bz' in round 2 of its "
                 "failure in round 1", id="fail-notify-late"),
    pytest.param([(10, ["fail", 5, "bc"])], 11,
                 "fail of edge 'bc' in round 5, where the scenario's next fault event is the "
                 "fail of edge 'bz' in round 5", id="fail-of-other-edge"),
    pytest.param([(6, ["recover", 4, "bz"])], 7,
                 "recover of edge 'bz' in round 4, where the scenario's next fault event is "
                 "the recover of edge 'bz' in round 3", id="recover-in-other-round"),
    pytest.param([(4, ["fail_notify", 2, "bz", True])], 5,
                 "fail_notify of edge 'bz' in round 2 of its failure in round True, where the "
                 "scenario's next fault event is the fail_notify of edge 'bz' in round 2 of its "
                 "failure in round 1", id="fail-notify-bool"),
]


@pytest.mark.parametrize("edits, lineno, message", FAULT_EDITS)
def test_fault_event_off_the_schedule_refused(tmp_path, edits, lineno, message):
    path, lines = fault_lines(tmp_path)
    for index, event in edits:
        if event is None:
            del lines[index]
        else:
            lines[index] = event_line(event)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"line {lineno}: {message}")):
        load_trace(path)


def test_repeated_fail_notify_refused(tmp_path):
    path, lines = fault_lines(tmp_path)
    assert line_event(lines[4]) == ["fail_notify", 2, "bz", 1]
    lines.insert(5, lines[4])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(
            "line 6: fail_notify of edge 'bz' in round 2 of its failure in round 1, where the "
            "scenario's next fault event is the recover of edge 'bz' in round 3")):
        load_trace(path)


def notified_reroute_lines(tmp_path):
    """A saved trace whose edge bz fails in round 2, with notify delay 2 and
    tau_prime 2: packet 0 waits at bz until the notification in round 4,
    then re-routes over bc, cz."""
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab", "bz")),), failures=(FailureEvent("bz", 2, 2),),
        tau_prime=2)
    path = tmp_path / "notified.jsonl"
    save_trace(run(cfg), path)
    return path, path.read_text().splitlines()


def delete_annihilate(lines):
    assert line_event(lines.pop(8)) == ["annihilate", 4, 0, "forced"]


def annihilate_a_round_early(lines):
    delete_annihilate(lines)
    assert line_event(lines[4]) == ["fail", 3, "ca"]
    lines.insert(5, event_line(["annihilate", 3, 0, "voluntary"]))


def reroute_before_its_notification(lines):
    at = first_event(lines, "reroute")
    assert line_event(lines[at - 1]) == ["fail_notify", 4, "bz", 2]
    lines[at - 1], lines[at] = lines[at], lines[at - 1]


def notified_failure_lines(tmp_path):
    """A saved trace of two links, ab and ba, whose packet 0 crosses ab in
    round 1; ab fails in round 2, notified at once, and never recovers."""
    net = Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ba", "b", "a")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 1, 1), policy="FIFO", horizon=4,
        injections=(Injection(1, ("ab",)),), failures=(FailureEvent("ab", 2, 0),),
        enforce_buckets=False)
    path = tmp_path / "notified-failure.jsonl"
    save_trace(run(cfg), path)
    return path, path.read_text().splitlines()


def injected_in_round_3(path):
    """An edit that injects packet 1 on ``path`` in round 3, with the totals
    to match: the packet is never sent."""
    def edit(lines):
        assert [line_event(line) for line in lines[1:-1]] == [
            ["inject", 1, 0, ["ab"], 0], ["transmit", 1, "ab", 0], ["absorb", 1, 0],
            ["fail", 2, "ab"], ["fail_notify", 2, "ab", 2]]
        lines.insert(6, event_line(["inject", 3, 1, path, 0]))
        lines[-1] = '{"q_totals":[0,0,1,1]}'
    return edit


# Edits that keep a trace consistent with itself but not with the
# feedback and fault events its scenario determines: (the saved lines, the
# edit, the refusal).
SCHEDULE_EDITS = [
    pytest.param(saved_lines, delete_annihilate,
                 "trace has no annihilate of group 0, which its stall annihilates in round 4 "
                 "as 'forced'", id="annihilate-deleted"),
    pytest.param(saved_lines, annihilate_a_round_early,
                 "line 6: annihilate of group 0 in round 3 as 'voluntary'; its stall "
                 "annihilates it in round 4 as 'forced'", id="annihilate-moved"),
    pytest.param(notified_reroute_lines, reroute_before_its_notification,
                 "line 5: reroute of packet 0 at 'bz' before the fail_notify of its failure "
                 "in round 2", id="reroute-before-notification"),
    # The script's path, which the first inject checked, and one that only
    # ends on the failed link.
    pytest.param(notified_failure_lines, injected_in_round_3(["ab"]),
                 "line 7: packet 1 is injected in round 3 over 'ab' after its failure "
                 "notification", id="inject-after-notification"),
    pytest.param(notified_failure_lines, injected_in_round_3(["ba", "ab"]),
                 "line 7: packet 1 is injected in round 3 over 'ab' after its failure "
                 "notification", id="inject-via-a-notified-link"),
]


@pytest.mark.parametrize("saved, edit, message", SCHEDULE_EDITS)
def test_trace_off_its_scenario_schedule_refused(tmp_path, saved, edit, message):
    path, lines = saved(tmp_path)
    load_trace(path)
    edit(lines)
    path.write_text(joined(lines))
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        load_trace(path)


def one_link_lines(tmp_path):
    """A saved trace of one link, ab, whose three packets are injected in
    round 1 and cross it one a round, but for a stall of packet 1 in round 2.

    Its events are, from index 1: inject 0, 1 and 2; transmit and absorb 0
    (round 1); the stall of packet 1 (round 2); the annihilate of its group,
    transmit and absorb 1 (round 3); transmit and absorb 2 (round 4).
    """
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 1, 1), policy="FIFO", horizon=4,
        injections=(Injection(1, ("ab",)),) * 3, stalls={"ab": {2}}, enforce_buckets=False)
    path = tmp_path / "one-link.jsonl"
    save_trace(run(cfg), path)
    return path, path.read_text().splitlines()


def inserted(index, event):
    """An edit that puts ``event`` at ``index`` of a trace file's lines."""
    def edit(lines):
        lines.insert(index, event_line(event))
    return edit


# A link selects one packet a round, to transmit or to stall. Edits of the
# one_link_lines trace that select a second, each refused at the line that
# does: (the edit, the refusal).
SELECTION_EDITS = [
    pytest.param(inserted(6, ["transmit", 1, "ab", 1]),
                 "line 7: transmit of packet 1 at 'ab' in round 1, after the link already "
                 "transmitted or stalled in that round", id="transmit-after-transmit"),
    pytest.param(inserted(6, ["transmit", 2, "ab", 2]),
                 "line 8: stall of packet 1 at 'ab' in round 2, after the link already "
                 "transmitted or stalled in that round", id="stall-after-transmit"),
    pytest.param(inserted(7, ["transmit", 2, "ab", 2]),
                 "line 8: transmit of packet 2 at 'ab' in round 2, after the link already "
                 "transmitted or stalled in that round", id="transmit-after-stall"),
]


@pytest.mark.parametrize("edit, message", SELECTION_EDITS)
def test_second_selection_of_a_link_in_a_round_refused(tmp_path, edit, message):
    path, lines = one_link_lines(tmp_path)
    assert [line_event(line) for line in lines[4:8]] == [
        ["transmit", 1, "ab", 0], ["absorb", 1, 0], ["stall", 2, "ab", 1, 0],
        ["annihilate", 3, 0, "forced"]]
    load_trace(path)
    edit(lines)
    path.write_text(joined(lines))
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        load_trace(path)


def at_round(index, rnd):
    """Move the event on line ``index`` to round ``rnd``."""
    def edit(lines):
        event = line_event(lines[index])
        event[1] = rnd
        lines[index] = event_line(event)
    return edit


# Edits of the saved run_small trace (horizon 6, annihilation delay 2)
# that put an event after the horizon: (edits, the refused line, message).
# The transmit, absorb and inject would each pass a typed lane but for
# their round; the other kinds take the generic checks.
AFTER_THE_HORIZON = [
    pytest.param([at_round(9, 7), at_round(10, 7)], 10,
                 "transmit event of round 7, after the horizon 6", id="transmit"),
    pytest.param([at_round(10, 7)], 11, "absorb event of round 7, after the horizon 6",
                 id="absorb"),
    pytest.param([before_the_totals(["inject", 7, 2, ["bc"], 0])], 12,
                 "inject event of round 7, after the horizon 6", id="inject"),
    pytest.param([before_the_totals(["stall", 7, "bc", 1, 1])], 12,
                 "stall event of round 7, after the horizon 6", id="stall"),
    pytest.param([before_the_totals(["reroute", 7, 1, ["bc"], ["bc"], "bc", 1])], 12,
                 "reroute event of round 7, after the horizon 6", id="reroute"),
    pytest.param([before_the_totals(["fail", 7, "bc"])], 12,
                 "fail event of round 7, after the horizon 6", id="fail"),
    pytest.param([before_the_totals(["fail_notify", 7, "bc", 6])], 12,
                 "fail_notify event of round 7, after the horizon 6", id="fail_notify"),
    pytest.param([before_the_totals(["recover", 7, "bc"])], 12,
                 "recover event of round 7, after the horizon 6", id="recover"),
    pytest.param([before_the_totals(["annihilate", 9, 0, "forced"])], 12,
                 "annihilate event of round 9, after the drain rounds 7..8", id="annihilate"),
]


@pytest.mark.parametrize("edits, lineno, message", AFTER_THE_HORIZON)
def test_event_after_the_horizon_refused(tmp_path, edits, lineno, message):
    path, lines = saved_lines(tmp_path)
    for edit in edits:
        edit(lines)
    path.write_text(joined(lines))
    with pytest.raises(ParseError, match=re.escape(f"line {lineno}: {message}")):
        load_trace(path)


@pytest.mark.parametrize("rnd", [7, 8])
def test_annihilate_in_the_drain_rounds_loads(tmp_path, rnd):
    # A stall in round rnd - 2 <= 6 with the maximum delay, 2: its group
    # annihilates in round rnd, after the horizon, and the trace loads.
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=6,
        injections=(Injection(rnd - 2, ("ab",)),), stalls={"ab": frozenset({rnd - 2})})
    path = tmp_path / "t.jsonl"
    save_trace(run(cfg), path)
    loaded = load_trace(path)
    assert loaded.events_of("stall") == [("stall", rnd - 2, "ab", 0, 0)]
    assert loaded.events[-1] == ("annihilate", rnd, 0, "forced")


def test_transmit_after_the_horizon_of_a_generated_trace_refused(tmp_path):
    _cfg, trace = gen_random_scenario(
        1, rate=Fraction(9, 10), burst=4, delay=2, tau=1, policy="FTG", horizon=200,
        failures=2, with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    assert trace.events[-1][1] == 200
    before_the_totals(["transmit", 201, "e005", 330])(lines)
    path.write_text(joined(lines))
    with pytest.raises(ParseError, match=re.escape(
            f"line {len(lines) - 1}: transmit event of round 201, after the horizon 200")):
        load_trace(path)


def test_fault_trace_loads_as_saved(tmp_path):
    path, lines = fault_lines(tmp_path)
    assert [line_event(line)[0] for line in lines[1:-1]] == [
        "fail", "inject", "transmit", "fail_notify", "reroute", "recover", "transmit",
        "transmit", "absorb", "fail", "inject", "transmit", "fail_notify", "reroute",
        "transmit", "transmit", "absorb"]
    assert load_trace(path).events_of("reroute")[1][-1] == 5


def quiet_fault_lines(tmp_path, horizon=8):
    """A saved trace whose edge bc, which no packet uses, fails in round 2,
    is notified in round 3 and recovers in round 5, those by the horizon."""
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO",
        horizon=horizon, injections=(Injection(1, ("ab",)),),
        failures=(FailureEvent("bc", 2, 1),),
        recoveries=(RecoveryEvent("bc", 5),) if horizon >= 5 else ())
    path = tmp_path / "quiet.jsonl"
    save_trace(run(cfg), path)
    return path, path.read_text().splitlines()


# A fault event missing before another is named at the next one; the last
# one missing, at the end.
@pytest.mark.parametrize("kinds, message", [
    (("fail", "recover"), "line 5: trace has no fail of edge 'bc' in round 2, which the "
                          "scenario schedules before this fail_notify of edge 'bc' in round 3 "
                          "of its failure in round 2"),
    (("fail_notify",), "line 6: trace has no fail_notify of edge 'bc' in round 3 of its "
                       "failure in round 2, which the scenario schedules before this recover "
                       "of edge 'bc' in round 5"),
    (("recover",), "trace has no recover of edge 'bc' in round 5, which the scenario "
                   "schedules"),
], ids=["fail", "fail_notify", "recover"])
def test_missing_scheduled_fault_event_refused(tmp_path, kinds, message):
    path, lines = quiet_fault_lines(tmp_path)
    load_trace(path)
    for kind in kinds:
        del lines[first_event(lines, kind)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        load_trace(path)


def test_missing_fault_events_are_named_first_round_first(tmp_path):
    path, lines = quiet_fault_lines(tmp_path)
    path.write_text("\n".join(line for line in lines if '"recover"' not in line
                               and '"fail_notify"' not in line) + "\n")
    with pytest.raises(ParseError, match="no fail_notify of edge 'bc' in round 3"):
        load_trace(path)


def test_traces_with_every_scheduled_fault_event_load(tmp_path):
    # A notification due past the horizon is not delivered, so not required.
    path, _lines = quiet_fault_lines(tmp_path, horizon=2)
    loaded = load_trace(path)
    assert (len(loaded.events_of("fail")), loaded.events_of("fail_notify")) == (1, [])
    promoted = ScenarioConfig(
        network=Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ab2", "a", "b")]),
        adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab",)), Injection(2, ("ab",))),
        stalls={"ab": {2, 3}}, tau=2, tau_prime=1, promote_after_tau=True)
    gadget = rerouting_gadget(branches=2, cycles=5).config
    for name, cfg in (("promoted", promoted), ("gadget", gadget)):
        trace = run(cfg)
        assert trace.events_of("fail") and trace.events_of("fail_notify"), name
        save_trace(trace, tmp_path / f"{name}.jsonl")
        assert load_trace(tmp_path / f"{name}.jsonl").events == trace.events, name


# The lines of the saved run_small trace that the loader's typed lanes
# take: inject, transmit and absorb events. Each field in turn is given a
# value of the wrong type (text, null, bool, float) or made a list. The
# lane must pass the event on, and the generic checks must refuse it in
# the words the loader used before it had lanes; only the priority check
# is new.
LANE_LINES = {
    1: ["inject", 1, 0, ["ab", "bc"], 0],
    2: ["transmit", 1, "ab", 0],
    5: ["inject", 3, 1, ["bc"], 0],
    7: ["absorb", 3, 0],
    9: ["transmit", 4, "bc", 1],
    10: ["absorb", 4, 1],
}


def lane_field_edits():
    for index, ev in LANE_LINES.items():
        kind = ev[0]
        pid_field = 3 if kind == "transmit" else 2
        pid = ev[pid_field]
        for field in range(1, len(ev)):
            value = ev[field]
            bad_values = [None, True, 1.5, [value]]
            if type(value) is not str:
                bad_values.append(str(value))
            for bad in bad_values:
                shown = tuple(bad) if type(bad) is list else bad
                if field == 1:
                    message = "an event is a list [kind, round, ...]"
                elif field == pid_field:
                    message = f"{kind} event with packet id {shown!r}"
                elif kind == "transmit":
                    message = f"transmit of packet {pid} at {shown!r}, where it is not queued"
                elif field == 3:
                    message = f"packet {pid} is injected on a path not in the network"
                else:
                    message = (f"packet {pid} is injected with priority {shown!r}, "
                               "not one of the policy's 1 level")
                event = list(ev)
                event[field] = bad
                yield pytest.param(index, event, re.escape(message),
                                   id=f"{index}-{kind}-field{field}-{type(bad).__name__}")


LANE_RULE_EDITS = [
    pytest.param(2, ["transmit", 0, "ab", 0], "event of round 0; rounds start at 1",
                 id="transmit-round-0"),
    pytest.param(9, ["transmit", 3, "bc", 1], "event of round 3 after round 4",
                 id="transmit-round-back"),
    pytest.param(9, ["transmit", 4, "bc", 123456],
                 "transmit of packet 123456, which is never injected", id="transmit-unknown"),
    pytest.param(9, ["transmit", 4, "ab", 1],
                 "transmit of packet 1 at 'ab', where it is not queued", id="transmit-other-edge"),
    pytest.param(9, ["transmit", 4, "zz", 1],
                 "transmit of packet 1 at 'zz', where it is not queued",
                 id="transmit-unknown-edge"),
    pytest.param(5, ["inject", 0, 1, ["bc"], 0], "event of round 0; rounds start at 1",
                 id="inject-round-0"),
    pytest.param(5, ["inject", 1, 1, ["bc"], 0], "event of round 1 after round 3",
                 id="inject-round-back"),
    pytest.param(5, ["inject", 3, 0, ["bc"], 0], "packet 0 is injected twice",
                 id="inject-second"),
    pytest.param(5, ["inject", 3, 1, [], 0],
                 "packet 1 is injected on a path not in the network", id="inject-empty-path"),
    pytest.param(5, ["inject", 3, 1, ["bc", 7], 0],
                 "packet 1 is injected on a path not in the network", id="inject-path-int"),
    pytest.param(5, ["inject", 3, 1, ["bc"], 2],
                 "packet 1 is injected with priority 2, not one", id="inject-priority-2"),
    pytest.param(10, ["absorb", 0, 1], "event of round 0; rounds start at 1",
                 id="absorb-round-0"),
    pytest.param(10, ["absorb", 3, 1], "event of round 3 after round 4", id="absorb-round-back"),
    pytest.param(10, ["absorb", 4, 123456], "absorb of packet 123456, which is never injected",
                 id="absorb-unknown"),
    pytest.param(10, ["absorb", 4, 0], "absorb of packet 0, which is already absorbed",
                 id="absorb-absorbed"),
    pytest.param(9, ["absorb", 4, 1], r"absorb of packet 1 with \['bc'\] still to cross",
                 id="absorb-edges-left"),
]


@pytest.mark.parametrize("index, event, message", [*lane_field_edits(), *LANE_RULE_EDITS])
def test_lane_refusals_read_as_the_generic_checks(tmp_path, index, event, message):
    path, lines = saved_lines(tmp_path)
    assert line_event(lines[index]) == LANE_LINES[index]
    lines[index] = event_line(event)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {index + 1}: {message}"):
        load_trace(path)


def test_group_without_its_stall_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert line_event(lines[3]) == ["stall", 2, "bc", 0, 0]
    del lines[3]
    path.write_text("\n".join(lines) + "\n")
    # The annihilate of the stall's group is then of no group.
    with pytest.raises(ParseError, match="line 8: annihilate of group 0, which is never created"):
        load_trace(path)


def test_stall_before_the_totals_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert line_event(lines[9]) == ["transmit", 4, "bc", 1]
    lines[9:11] = [event_line(["stall", 4, "bc", 1, 1])]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {len(lines) - 1}: stall of packet 1 at 'bc' in "
                                         "round 4, which the scenario does not schedule"):
        load_trace(path)


# A list is read as an event, so a bare list of totals is refused as one.
@pytest.mark.parametrize("record, message", [
    pytest.param(record, message, id=record) for record, message in (
        ('{"q_totals": 3}', "^q_totals is not a list of integers$"),
        ('{"q_totals": [1, 1, 1, 0, 0, "0"]}', "^q_totals is not a list of integers$"),
        ('[1, 1, 1, 0, 0, 0]', re.escape("line 12: an event is a list [kind, round, ...]")),
        ('7', "^line 12: unknown record$"))])
def test_malformed_record_refused(tmp_path, record, message):
    path, lines = saved_lines(tmp_path)
    lines[-1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        load_trace(path)


def test_version_1_trace_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    header = json.loads(lines[0])
    header["version"] = 1
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="unsupported trace format 'aqsim-trace' v1"):
        load_trace(path)


def test_version_2_trace_refused(tmp_path):
    # A version 2 header hashed the indented scenario file text; the version
    # is refused before the hash is compared.
    path, lines = saved_lines(tmp_path)
    header = json.loads(lines[0])
    header["version"] = 2
    header["scenario_hash"] = hashlib.sha256(
        dumps_scenario(run_small().config).encode()).hexdigest()
    path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="unsupported trace format 'aqsim-trace' v2"):
        load_trace(path)


def test_version_4_trace_refused(tmp_path):
    # A version 4 file held each event as {"event": [kind, round, ...]},
    # under a header of the same layout; the version is refused first.
    path, lines = saved_lines(tmp_path)
    header = lines[0].replace('"version":7}', '"version":4}')
    events = [json.dumps({"event": line_event(line)}, separators=(",", ":"))
              for line in lines[1:-1]]
    path.write_text("\n".join([header, *events, lines[-1]]) + "\n")
    with pytest.raises(ParseError, match="^unsupported trace format 'aqsim-trace' v4$"):
        load_trace(path)


def test_version_6_trace_refused(tmp_path):
    # A version 6 file held a group line after each stall; the version is
    # refused before any event is read.
    path, lines = saved_lines(tmp_path)
    lines[0] = lines[0].replace('"version":7}', '"version":6}')
    lines.insert(4, event_line(["group", 2, 0, "bc", 0, ["bc"]]))
    path.write_text(joined(lines))
    with pytest.raises(ParseError, match="^unsupported trace format 'aqsim-trace' v6$"):
        load_trace(path)


def test_version_3_trace_refused(tmp_path):
    # A version 3 header was the key-sorted JSON with spaces after its
    # separators, hashing the same compact scenario; the version is refused
    # before the layout or the hash is looked at.
    path, lines = saved_lines(tmp_path)
    header = json.loads(lines[0])
    header["version"] = 3
    path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
    with pytest.raises(ParseError, match="unsupported trace format 'aqsim-trace' v3"):
        load_trace(path)


def header_edits():
    """Edits of a saved header line: (id, edit of the line, message)."""
    def respaced(line):
        return json.dumps(json.loads(line), sort_keys=True)

    def unsorted(line):
        header = json.loads(line)
        return json.dumps({"version": header.pop("version"), **header},
                          separators=(",", ":"))

    def retimed(line):
        assert '"horizon":6' in line
        return line.replace('"horizon":6', '"horizon":9')

    def upper_hash(line):
        digest = json.loads(line)["scenario_hash"]
        return line.replace(digest, digest.upper())

    def short_hash(line):
        digest = json.loads(line)["scenario_hash"]
        return line.replace(digest, digest[:63])

    def padded_scenario(line):
        return line.replace('"scenario":{', '"scenario": {')

    layout = "trace header is not the compact, key-sorted layout its hash covers"
    mismatch = "trace header hash does not match its scenario"
    return [
        pytest.param(respaced, layout, id="spaces"),
        pytest.param(unsorted, layout, id="keys-unsorted"),
        pytest.param(short_hash, layout, id="short-hash"),
        pytest.param(retimed, mismatch, id="scenario-edited"),
        pytest.param(upper_hash, mismatch, id="hash-in-capitals"),
        pytest.param(padded_scenario, mismatch, id="scenario-respaced"),
    ]


@pytest.mark.parametrize("edit, message", header_edits())
def test_header_is_checked_as_stored(tmp_path, edit, message):
    path, lines = saved_lines(tmp_path)
    lines[0] = edit(lines[0])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        load_trace(path)


def test_mistyped_header_scenario_is_a_parse_error(tmp_path):
    path, lines = saved_lines(tmp_path)
    header = json.loads(lines[0])
    header["scenario"]["run"]["horizon"] = "6"
    compact = json.dumps(header["scenario"], sort_keys=True, separators=(",", ":"))
    header["scenario_hash"] = hashlib.sha256(compact.encode()).hexdigest()
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape("run.horizon: expected int, got '6'")):
        load_trace(path)


def test_trace_file_holds_no_per_round_markers_or_sizes(tmp_path):
    path, lines = saved_lines(tmp_path)
    kinds = {line_event(line)[0] for line in lines[1:-1]}
    assert kinds == {"inject", "transmit", "stall", "fail", "annihilate", "absorb"}
    assert list(json.loads(lines[-1])) == ["q_totals"]


def test_saved_trace_bytes(tmp_path):
    # Each event line is what json.dumps(ev, separators=(",", ":")) gives,
    # and the hash is over the compact, key-sorted scenario.
    path, lines = saved_lines(tmp_path)
    assert lines[1:] == [
        '["inject",1,0,["ab","bc"],0]',
        '["transmit",1,"ab",0]',
        '["stall",2,"bc",0,0]',
        '["fail",3,"ca"]',
        '["inject",3,1,["bc"],0]',
        '["transmit",3,"bc",0]',
        '["absorb",3,0]',
        '["annihilate",4,0,"forced"]',
        '["transmit",4,"bc",1]',
        '["absorb",4,1]',
        '{"q_totals":[1,1,1,0,0,0]}',
    ]
    assert path.read_text().endswith("}\n")
    # The header line is the compact, key-sorted JSON of the header, and
    # the hash covers the scenario's bytes as they stand in it.
    header = json.loads(lines[0])
    assert list(header) == ["format", "scenario", "scenario_hash", "version"]
    assert lines[0] == json.dumps(header, sort_keys=True, separators=(",", ":"))
    compact = json.dumps(header["scenario"], sort_keys=True, separators=(",", ":"))
    head = '{"format":"aqsim-trace","scenario":'
    tail = f',"scenario_hash":"{header["scenario_hash"]}","version":7}}'
    assert lines[0] == head + compact + tail
    assert compact == (
        '{"adversary":{"b":2,"delta":2,"r":"1/1","tau":1,"tau_prime":4},'
        '"format":"aqsim-scenario",'
        '"network":{"edges":[{"head":"b","id":"ab","tail":"a"},'
        '{"head":"c","id":"bc","tail":"b"},{"head":"a","id":"ca","tail":"c"}],'
        '"nodes":["a","b","c"]},'
        '"policy":{"name":"FIFO"},"run":{"horizon":6},'
        '"schedules":{"failures":[{"edge":"ca","notify_delay":4,"round":3}],'
        '"injections":{"path":[0,1],"round":[1,3]},'
        '"paths":[["ab","bc"],["bc"]],"recoveries":[],'
        '"stalls":[{"delays":[null],"edge":"bc","rounds":[2]}]},"version":2}')
    assert header["scenario_hash"] == hashlib.sha256(compact.encode()).hexdigest()
    assert header["scenario_hash"] == (
        "71282203abeaf85104c8e0dbd5bd90d59d300ce961507aab68d3df7dcdddfe0d")


def joined(lines):
    return "\n".join(lines) + "\n"


def replaced(index, record):
    def edit(lines):
        lines[index] = record
        return joined(lines)
    return edit


def two_records_on_one_line(lines):
    lines[6:8] = [lines[6] + "," + lines[7]]
    return joined(lines)


def split_record(lines):
    # The group record split inside a string: decoded in one call, the two
    # lines are one group event with edge ",bc".
    lines[4:5] = ['["group",2,0,"', 'bc",0,["bc"]]']
    return joined(lines)


def split_record_and_two_on_one_line(lines):
    # With two records joined on a later line, a decode of all lines in one
    # call would give as many records as there are lines.
    split_record(lines)
    lines[7:9] = [lines[7] + "," + lines[8]]
    return joined(lines)


# Edits of the saved run_small trace, giving file text that no longer
# parses line by line, and the error that names the line. Lines end at
# "\n" only, as when iterating the file: U+2028 is part of a line.
UNDECODABLE_EDITS = [
    pytest.param(replaced(5, "not json"), "line 6: Expecting value", id="non-json"),
    pytest.param(lambda lines: joined(lines[:5] + [""] + lines[5:]),
                 "line 6: Expecting value", id="blank"),
    pytest.param(lambda lines: joined(lines)[:-5],
                 "line 12: Expecting ',' delimiter", id="truncated-last-line"),
    pytest.param(replaced(4, '["group",2,'), "line 5: Expecting value",
                 id="truncated-mid-file"),
    pytest.param(two_records_on_one_line, "line 7: Extra data", id="two-records"),
    pytest.param(split_record, "line 5: Invalid control character", id="split-record"),
    pytest.param(split_record_and_two_on_one_line, "line 5: Invalid control character",
                 id="split-record-and-two-records"),
    pytest.param(replaced(6, '["transmit",3,"b\u2028c",0]'),
                 r"line 7: transmit of packet 0 at 'b\\u2028c', where it is not queued",
                 id="u2028-in-string"),
    pytest.param(lambda lines: joined(lines[:6] + [lines[6] + "\u2028"] + lines[7:]),
                 "line 7: Extra data", id="u2028-after-record"),
]


@pytest.mark.parametrize("edit, message", UNDECODABLE_EDITS)
def test_undecodable_line_named(tmp_path, edit, message):
    path, lines = saved_lines(tmp_path)
    path.write_text(edit(lines), encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        load_trace(path)


@pytest.mark.parametrize("lineno, at", [
    pytest.param(1, 2, id="header"),
    pytest.param(5, 2, id="between-records"),
    pytest.param(5, 15, id="inside-a-string"),
    pytest.param(12, 2, id="totals-line"),
])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, lineno, at):
    # Inside a string the bytes would otherwise decode as part of a name.
    path, lines = saved_lines(tmp_path)
    assert len(lines) == 12
    raw = [line.encode() for line in lines]
    raw[lineno - 1] = raw[lineno - 1][:at] + b"\xff\xfe" + raw[lineno - 1][at:]
    path.write_bytes(b"\n".join(raw) + b"\n")
    with pytest.raises(ParseError, match=f"^line {lineno}: bytes that are not UTF-8$"):
        load_trace(path)


def test_bytes_that_are_not_utf8_past_the_first_chunk_of_lines(tmp_path):
    _cfg, trace = gen_random_scenario(
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=500,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    raw = path.read_bytes().split(b"\n")
    assert len(raw) > 2000
    raw[1500] = raw[1500][:-1] + b"\xff\xfe]"
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError, match="^line 1501: bytes that are not UTF-8$"):
        load_trace(path)


def test_bytes_that_do_not_decode_come_after_an_earlier_error(tmp_path):
    # The file decodes in blocks of bytes. With the bad bytes past the first
    # block, reading line by line reports the event error on line 2 first.
    _cfg, trace = gen_random_scenario(
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=500,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[1] = event_line(["absorb", 1, 123456])
    path.write_bytes(joined(lines).encode() + b"\xff\n")
    assert path.stat().st_size > 64 * 1024
    with pytest.raises(ParseError, match="line 2: absorb of packet 123456"):
        load_trace(path)


# A record in the version 4 layout is no record of a version 5 file.
@pytest.mark.parametrize("lineno, record, message", [
    (1500, "not json", "Expecting value"),
    (2100, '{"event":["absorb",1000000,123456]}', "unknown record"),
    (2100, '["absorb",1000,123456]', "absorb of packet 123456, which is never injected"),
])
def test_error_past_the_first_chunk_of_lines_named(tmp_path, lineno, record, message):
    _cfg, trace = gen_random_scenario(
        5, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=1000,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) > 2500
    lines[lineno - 1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {lineno}: {message}"):
        load_trace(path)


def assert_tuples_all_the_way_down(value):
    assert not isinstance(value, list)
    if isinstance(value, tuple):
        for item in value:
            assert_tuples_all_the_way_down(item)


def oracle_tuplify(value):
    if isinstance(value, list):
        return tuple(oracle_tuplify(v) for v in value)
    return value


def oracle_load(path):
    """The reference loader: one json.loads per line, lists made tuples
    recursively, and the packet records folded from the events afterwards.
    It checks nothing."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        docs = [json.loads(line) for line in fh]
    events = [oracle_tuplify(doc) for doc in docs if isinstance(doc, list)]
    (q_totals,) = [doc["q_totals"] for doc in docs if isinstance(doc, dict)]
    packets = {}
    for ev in events:
        if ev[0] == "inject":
            _, rnd, pid, path_, pri = ev
            packets[pid] = PacketRecord(pid, rnd, pri, path_, path_)
        elif ev[0] == "reroute":
            rec = packets[ev[2]]
            rec.final_path = rec.final_path[: len(rec.final_path) - len(ev[3])] + ev[4]
            rec.rerouted = True
        elif ev[0] == "absorb":
            packets[ev[2]].absorbed_round = ev[1]
    return events, q_totals, packets


def oracle_traces():
    for seed in range(10):
        _cfg, trace = gen_random_scenario(
            seed, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=2000,
            failures=2 if seed % 2 else 0, with_trace=True)
        yield f"random-{seed}", trace
    gadget = rerouting_gadget(branches=3, cycles=20)
    yield "gadget", run(dataclasses.replace(gadget.config, policy=Prioritized("FIFO", 2)))


def test_load_trace_matches_the_per_line_oracle(tmp_path):
    kinds = set()
    for name, trace in oracle_traces():
        path = tmp_path / f"{name}.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        events, q_totals, packets = oracle_load(path)
        with open(path, encoding="utf-8") as fh:
            header_line = fh.readline().removesuffix("\n")
        header = json.loads(header_line)
        assert header_line == json.dumps(header, sort_keys=True, separators=(",", ":")), name
        assert header["version"] == 7, name
        assert header["scenario_hash"] == scenario_hash(trace.config), name
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")[1:-2]
        assert lines == [json.dumps(ev, separators=(",", ":")) for ev in trace.events], name
        assert dumps_scenario(loaded.config) == dumps_scenario(trace.config), name
        assert loaded.events == events == trace.events, name
        for ev in loaded.events:
            assert_tuples_all_the_way_down(ev)
        assert loaded.q_totals == q_totals == trace.q_totals, name
        assert loaded.packets == packets == trace.packets, name
        reference = ExecutionTrace(loaded.config)
        reference.events, reference.q_totals = events, q_totals
        assert trace_digest(loaded) == trace_digest(reference) == trace_digest(trace), name
        kinds.update(ev[0] for ev in events)
    assert {"inject", "stall", "reroute", "absorb"} <= kinds


def test_lines_read_one_by_one_load_the_same(tmp_path):
    # Lines that the decoder's fast path does not take: spaces around a
    # record and records with spaces inside. The file still loads as the
    # oracle reads it, with the lists nested in the events made tuples.
    path, lines = saved_lines(tmp_path)
    lines[1] = json.dumps(line_event(lines[1]))
    lines[2] = " " + lines[2] + "\t"
    lines[4] = json.dumps(line_event(lines[4]))
    lines[8] = json.dumps(line_event(lines[8]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_trace(path)
    events, q_totals, packets = oracle_load(path)
    assert loaded.events == events
    assert events[0] == ("inject", 1, 0, ("ab", "bc"), 0)
    assert (loaded.q_totals, loaded.packets) == (q_totals, packets)


# Edge ids that a cut of the events' JSON in the wrong place would get
# wrong: the text that starts an event, a kind, brackets, a quote,
# non-ASCII and U+2028.
ODD_IDS = ('],["inject",1', 'b"]z', "inject", "\u00e9\u2028[c]")


def odd_trace():
    """A detour run over edges with odd ids. Its reroute is followed by a
    detour that starts at the edge called "inject"."""
    ab, bz, bc, cz = ODD_IDS
    net = Network(["a", "b", "c", "z"], [Edge(ab, "a", "b"), Edge(bz, "b", "z"),
                                         Edge(bc, "b", "c"), Edge(cz, "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, (ab, bz)), Injection(2, (bc, cz))),
        stalls={cz: frozenset({3, 4})}, failures=(FailureEvent(bz, 1, notify_delay=1),))
    return run(cfg)


def test_saved_lines_are_the_compact_json_of_each_event(tmp_path):
    trace = odd_trace()
    assert ("reroute", 2, 0, (ODD_IDS[1],), ODD_IDS[2:], ODD_IDS[1], 1) in trace.events
    assert {"stall", "annihilate", "fail_notify"} <= {ev[0] for ev in trace.events}
    path = tmp_path / "odd.jsonl"
    digest = save_trace(trace, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[1:-2] == [json.dumps(ev, separators=(",", ":")) for ev in trace.events]
    assert lines[-2:] == [json.dumps({"q_totals": trace.q_totals}, separators=(",", ":")), ""]
    loaded = load_trace(path)
    assert loaded.events == trace.events
    assert trace_digest(loaded) == digest


def json_loads_oracle(path):
    """Per-line ``json.loads`` of the lines after the header: the loader's
    message for the first line it refuses, or else the events."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, 2):
            try:
                docs.append(json.loads(line))
            except json.JSONDecodeError as exc:
                return f"line {lineno}: {exc.msg}"
    return [oracle_tuplify(doc) for doc in docs if isinstance(doc, list)]


def padded(lines):
    lines[2] = " \t" + lines[2] + "  "


def two_on_one_line(lines):
    lines[3:5] = [lines[3] + "," + lines[4]]


def split_in_a_string(lines):
    at = lines[5].index("inject", 2)
    lines[5:6] = [lines[5][:at], lines[5][at:]]


def raw_u2028_in_a_string(lines):
    assert sum("\\u2028" in line for line in lines[1:]) > 5
    lines[1:] = [line.replace("\\u2028", "\u2028") for line in lines[1:]]


def u2028_after_a_record(lines):
    lines[6] += "\u2028"


@pytest.mark.parametrize("edit, loads", [
    (padded, True), (two_on_one_line, False), (split_in_a_string, False),
    (raw_u2028_in_a_string, True), (u2028_after_a_record, False),
], ids=["padded", "two-on-one-line", "split-in-a-string", "raw-u2028-in-a-string",
        "u2028-after-a-record"])
def test_lines_load_as_json_loads_reads_them_one_by_one(tmp_path, edit, loads):
    path = tmp_path / "odd.jsonl"
    save_trace(odd_trace(), path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = json_loads_oracle(path)
    if loads:
        assert load_trace(path).events == expected == odd_trace().events
    else:
        with pytest.raises(ParseError, match=f"^{re.escape(expected)}$"):
            load_trace(path)


def oracle_metrics_csv(trace, path):
    """The reference writer: one write per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round,edge,queue_len,q_total\n")
        for rnd, (sizes, total) in enumerate(zip(trace.queue_sizes(), trace.q_totals), 1):
            if not sizes:
                fh.write(f"{rnd},,0,{total}\n")
                continue
            for edge in sorted(sizes):
                fh.write(f"{rnd},{edge},{sizes[edge]},{total}\n")


def test_metrics_csv_matches_the_row_by_row_writer(tmp_path):
    _cfg, trace = gen_random_scenario(
        1, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=300,
        failures=2, with_trace=True)
    for name, tr in (("small", run_small()), ("random", trace)):
        write_metrics_csv(tr, tmp_path / f"{name}.csv")
        oracle_metrics_csv(tr, tmp_path / f"{name}.oracle.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}.oracle.csv").read_bytes()


def one_shot_digest(trace):
    """The digest's definition, encoded in one call."""
    compact = dict(separators=(",", ":"))
    text = json.dumps(trace.events, **compact) + json.dumps(trace.q_totals, **compact)
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_is_the_hash_of_the_compact_json(tmp_path):
    _cfg, trace = gen_random_scenario(
        2, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=1000,
        nodes=(8, 8), failures=2, with_trace=True)
    assert len(trace.events) > 3 * 1024
    cut = ExecutionTrace(trace.config)
    cut.q_totals = trace.q_totals
    # No events, part of a chunk, exactly one and two chunks, and more.
    for count in (0, 5, 1024, 2048, len(trace.events)):
        cut.events = trace.events[:count]
        assert trace_digest(cut) == one_shot_digest(cut), count
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    assert trace_digest(load_trace(path)) == trace_digest(trace)


def test_save_trace_returns_the_trace_digest(tmp_path):
    # No fault is scheduled, so a trace with no events is whole.
    empty = ExecutionTrace(dataclasses.replace(run_small().config, failures=()))
    empty.q_totals = [0] * empty.horizon
    for name, trace in (*oracle_traces(), ("odd-ids", odd_trace()), ("no-events", empty)):
        path = tmp_path / f"{name}.jsonl"
        digest = save_trace(trace, path)
        # The hash of the event lines joined as one JSON list, then the totals.
        *events, totals = path.read_text(encoding="utf-8").split("\n")[1:-1]
        text = "[" + ",".join(events) + "]" + totals.removeprefix('{"q_totals":')[:-1]
        assert digest == trace_digest(trace) == hashlib.sha256(text.encode()).hexdigest(), name
    assert trace_digest(load_trace(tmp_path / "no-events.jsonl")) == trace_digest(empty)


def test_digest_sees_every_field_and_total():
    _cfg, trace = gen_random_scenario(
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=300,
        nodes=(6, 6), failures=2, with_trace=True)
    digest = trace_digest(trace)
    edited = ExecutionTrace(trace.config)
    seen = set()
    for at in sorted({len(trace.events) - 1, 0} | {
            next(i for i, ev in enumerate(trace.events) if ev[0] == kind)
            for kind in ("inject", "stall", "reroute", "annihilate")}):
        ev = trace.events[at]
        for i in range(1, len(ev)):
            value = ev[i]
            if type(value) is int:
                new = value + 1
            elif type(value) is str:
                new = value + "x"
            else:
                new = value[:-1]
            edited.events = list(trace.events)
            edited.events[at] = ev[:i] + (new,) + ev[i + 1:]
            edited.q_totals = trace.q_totals
            assert trace_digest(edited) != digest, (ev, i)
            seen.add(ev[0])
    assert {"inject", "stall", "reroute", "annihilate"} <= seen
    edited.events = trace.events
    for rnd in (0, len(trace.q_totals) // 2, len(trace.q_totals) - 1):
        edited.q_totals = list(trace.q_totals)
        edited.q_totals[rnd] += 1
        assert trace_digest(edited) != digest, rnd
    edited.q_totals = trace.q_totals
    assert trace_digest(edited) == digest
