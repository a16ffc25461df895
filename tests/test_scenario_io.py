import dataclasses
import hashlib
import json
import re
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from aqsim.analysis import gen_random_scenario, rerouting_gadget
from aqsim.buckets import AdversaryType
from aqsim.engine import (ExecutionTrace, FailureEvent, Injection,
                          PacketRecord, RecoveryEvent, ScenarioConfig, run)
from aqsim.errors import ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.policies import Prioritized
from aqsim.reduction import HIGH_ID_BASE
from aqsim.scenario_io import (ParseError, dumps_scenario, format_rational,
                               load_scenario, load_trace, loads_scenario,
                               parse_rational, save_scenario, save_trace,
                               scenario_from_dict, scenario_hash, trace_digest,
                               write_metrics_csv)

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
    pytest.param(lambda doc: doc["policy"].update(priorities=1),
                 "policy.priorities: must be at least 2, not 1", id="priorities-1"),
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


def test_a_scenario_loaded_twice_compares_equal(tmp_path):
    path = tmp_path / "s.json"
    save_scenario(sample_config(), path)
    first, second = load_scenario(path), load_scenario(path)
    assert first.network is not second.network
    assert first.network == second.network
    assert hash(first.network) == hash(second.network)
    assert first == second == sample_config()
    assert dataclasses.replace(second, horizon=11) != first
    slower = Network(first.network.nodes, [dataclasses.replace(e, slowness=3)
                                           for e in first.network.edges.values()])
    assert slower != first.network
    # The stall and delay maps are dicts, so a config has no hash.
    with pytest.raises(TypeError, match="unhashable"):
        hash(first)


def test_a_saved_co_run_loads_with_its_events(tmp_path):
    # The co-run of a generated scenario is the run of its recorded script,
    # and is saved with it in its header.
    cfg, trace = gen_random_scenario(
        5, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=300, failures=2,
        with_trace=True)
    assert trace.config is cfg
    assert len(cfg.injections) == len(trace.events_of("inject")) > 100
    path = tmp_path / "co-run.jsonl"
    digest = save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.events == trace.events and loaded.q_totals == trace.q_totals
    assert trace_digest(loaded) == digest


def run_small():
    """Packet 0 crosses ab, stalls at bc in round 2 and crosses it in round
    3; packet 1 crosses bc in round 4. Edge ca, which no packet uses, fails
    in round 3 and would be notified only after the horizon, so the fail
    event is its one fault event.

    Its events are: 0 inject 0 on ab-bc, 1 transmit 0 on ab, 2 stall on bc,
    3 fail of ca, 4 inject 1 on bc, 5 transmit and 6 absorb 0, 7 annihilate,
    8 transmit and 9 absorb 1; its totals are [1, 1, 1, 0, 0, 0].
    """
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


# -- edits of the events ---------------------------------------------------------
#
# A version 8 file holds no events, so an edit of a run's events reaches a
# file only through the totals the edited events imply. Each edit below,
# made to the events in memory, is saved that way (``save_edited``): an
# edit that moves a total is refused from the first round where the
# totals differ from the replay's; one that moves none saves to the very
# file of the run, which loads to the engine's events.


def implied_totals(events, horizon):
    """The totals ``events`` imply: after each round of the horizon, the
    injections minus the absorptions so far. An event without an int round
    in 1..horizon moves none."""
    net = [0] * (horizon + 1)
    for ev in events:
        if len(ev) > 1 and type(ev[1]) is int and 1 <= ev[1] <= horizon:
            net[ev[1]] += {"inject": 1, "absorb": -1}.get(ev[0], 0)
    return list(accumulate(net[1:]))


def save_edited(trace, events, path):
    """Save ``trace`` as if its run had written ``events``: its header and
    the totals ``events`` imply. Returns the digest of ``events`` and those
    totals."""
    edited = ExecutionTrace(trace.config)
    edited.events, edited.q_totals = events, implied_totals(events, trace.horizon)
    return save_trace(edited, path)


def assert_edit_reaches_no_checker(tmp_path, trace, events, differs_from=None):
    """The edit of ``trace`` to ``events`` is refused from round
    ``differs_from``, or, given None, saves to the file of ``trace`` and
    loads to the engine's events. Digests tell the edit from the run where
    Python equality would not: True == 1, but its JSON is true."""
    path = tmp_path / "edited.jsonl"
    digest = save_edited(trace, events, path)
    if differs_from is not None:
        with pytest.raises(ParseError, match="^q_totals disagrees with the replay of its "
                                             f"scenario from round {differs_from}: "):
            load_trace(path)
        return
    save_trace(trace, tmp_path / "run.jsonl")
    assert path.read_bytes() == (tmp_path / "run.jsonl").read_bytes()
    loaded = load_trace(path)
    assert loaded.events == trace.events
    assert trace_digest(loaded) == trace_digest(trace) != digest


def edited(events, at, event):
    """``events`` with the one at ``at`` replaced by ``event``, or deleted
    when ``event`` is None."""
    events = list(events)
    if event is None:
        del events[at]
    else:
        events[at] = event
    return events


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
    at = next(i for i, ev in enumerate(trace.events) if ev[0] == "reroute")
    ev = trace.events[at]
    assert ev[3] == ("bz",)
    assert_edit_reaches_no_checker(
        tmp_path, trace, edited(trace.events, at, ev[:3] + (("ab", "bz"),) + ev[4:]))


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
    assert lines[-1] == '{"q_totals":[1,1,1,0,0,0]}'
    lines[-1] = json.dumps({"q_totals": [1, 1, 1, 0, 1, 0]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="^q_totals disagrees with the replay of its scenario "
                                         "from round 5: 1 stored, 0 replayed$"):
        load_trace(path)
    lines[-1] = json.dumps({"q_totals": [1, 1, 1, 0, 0]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="q_totals has 5 rounds, the horizon is 6"):
        load_trace(path)


def test_deleted_absorb_refused(tmp_path):
    trace = run_small()
    assert trace.events[6] == ("absorb", 3, 0)
    assert_edit_reaches_no_checker(tmp_path, trace, edited(trace.events, 6, None), 3)


def test_events_out_of_round_order_refused(tmp_path):
    # The annihilate of round 4 moves ahead of the inject of round 3; each
    # keeps its round, so no total moves.
    trace = run_small()
    events = list(trace.events)
    events[4], events[7] = events[7], events[4]
    assert_edit_reaches_no_checker(tmp_path, trace, events)


# Edits of the run_small events: (the index of the event, its replacement).
# A stall creates its antitoken group, so the group cases edit a stall.
# Each keeps the injections and absorptions of every round, so none moves a
# total.
INCONSISTENT_EDITS = [
    pytest.param(4, ["inject", 3, 0, ["bc"], 0], id="duplicate-inject"),
    pytest.param(4, ["inject", 3, 1, ["zz"], 0], id="unknown-edge"),
    pytest.param(4, ["inject", 3, 1, ["bc", "ab"], 0], id="discontinuous-path"),
    pytest.param(4, ["inject", 3, 1, ["bc", "ca", "ab", "bc"], 0], id="repeated-edge"),
    pytest.param(6, ["absorb", 3, 123456], id="unknown-absorb"),
    pytest.param(8, ["transmit", 4, "bc", 0], id="absorbed-transmit"),
    pytest.param(1, ["transmit", 1, "bc", 0], id="wrong-edge"),
    pytest.param(2, ["stall", 2, "ab", 0, 0], id="wrong-stall"),
    pytest.param(6, ["absorb", 3, 1], id="early-absorb"),
    pytest.param(1, ["transmit"], id="no-round"),
    pytest.param(1, ["transmit", "1", "ab", 0], id="text-round"),
    pytest.param(1, ["transmit", 1, "ab", "0"], id="text-packet"),
    pytest.param(1, ["transmit", 1, "ab"], id="short"),
    pytest.param(1, ["tick", 1], id="v1-kind"),
    pytest.param(1, ["transmit", 0, "ab", 0], id="round-0"),
    pytest.param(2, ["stall", 2, "zz", 0, 0], id="group-unknown-edge"),
    pytest.param(7, ["stall", 4, "bc", 1, 0], id="group-twice"),
    pytest.param(2, ["stall", 2, "bc", 0, "0"], id="stall-text-group"),
    pytest.param(7, ["annihilate", 4, "0", "forced"], id="annihilate-text-id"),
    pytest.param(7, ["annihilate", 4, 7, "forced"], id="annihilate-unknown"),
    pytest.param(8, ["annihilate", 4, 0, "voluntary"], id="annihilate-twice"),
    pytest.param(7, ["annihilate", 4, 0, "later"], id="annihilate-manner"),
    pytest.param(3, ["fail", 3, "zz"], id="fail-unknown-edge"),
    pytest.param(7, ["recover", 4, ["bc"]], id="recover-unknown-edge"),
    pytest.param(7, ["fail_notify", 4, "zz", 4], id="fail-notify-unknown-edge"),
    pytest.param(7, ["fail_notify", 4, "ca", 5], id="fail-notify-later"),
    pytest.param(7, ["fail_notify", 4, "ca", "3"], id="fail-notify-text-round"),
    pytest.param(4, ["inject", 3, 1, ["bc"], [7]], id="inject-priority-list"),
    pytest.param(4, ["inject", 3, 1, ["bc"], 1], id="inject-priority-beyond-levels"),
    pytest.param(4, ["inject", 3, 1, ["bc"], -1], id="inject-priority-negative"),
    pytest.param(4, ["inject", 3, 1, ["bc"], "0"], id="inject-priority-text"),
    pytest.param(2, ["stall", 2, "bc", 999999, 0], id="group-other-packet"),
    pytest.param(2, ["stall", 3, "bc", 0, 0], id="group-other-round"),
    pytest.param(2, ["stall", 2, "bc", 0, 1], id="group-other-id"),
    pytest.param(3, ["stall", 2, "bc", 0, 1], id="stall-after-stall"),
    pytest.param(7, ["fail", 4, "bc"], id="fail-unscheduled"),
    pytest.param(3, ["recover", 3, "ca"], id="recover-unscheduled"),
    pytest.param(7, ["fail_notify", 4, "ca", 3], id="fail-notify-unscheduled"),
]


@pytest.mark.parametrize("at, event", INCONSISTENT_EDITS)
def test_inconsistent_event_refused(tmp_path, at, event):
    trace = run_small()
    assert_edit_reaches_no_checker(tmp_path, trace, edited(trace.events, at, event))


def fault_run():
    """A run whose edge bz fails in round 1, recovers in round 3 and fails
    again in round 5; each failure re-routes one packet over bc, cz.

    Its events are: 0 fail, 1 inject 0, 2 transmit 0 on ab, 3 fail_notify,
    4 reroute 0, 5 recover, 6 and 7 transmit 0 on bc and cz, 8 absorb 0,
    9 fail, 10 inject 1, 11 transmit 1 on ab, 12 fail_notify, 13 reroute 1,
    14 and 15 transmit 1 on bc and cz, 16 absorb 1.
    """
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab", "bz")), Injection(5, ("ab", "bz"))),
        failures=(FailureEvent("bz", 1, 1), FailureEvent("bz", 5, 1)),
        recoveries=(RecoveryEvent("bz", 3),))
    return run(cfg)


# Edits of the fault_run events against its fault schedule: each an index
# and the event put there, or None to delete the event, applied in turn.
# None moves a total.
FAULT_EDITS = [
    pytest.param([(5, None)], id="fail-of-failed-edge"),
    pytest.param([(4, None), (3, None), (0, None)], id="recover-of-live-edge"),
    pytest.param([(3, None), (0, None)], id="reroute-at-live-edge"),
    pytest.param([(13, ("reroute", 6, 1, ("bz",), ("bc", "cz"), "bz", 1))],
                 id="reroute-of-earlier-failure"),
    pytest.param([(4, ("reroute", 2, 0, ("bz",), ("bc", "cz"), "bz", (("x",),)))],
                 id="reroute-failure-round-not-a-round"),
    pytest.param([(4, ("reroute", 2, 0, ("bz",), ("bc", "cz"), "bz", True))], id="reroute-bool"),
    pytest.param([(12, ("fail_notify", 6, "bz", 1))], id="fail-notify-of-earlier-failure"),
    pytest.param([(3, ("fail_notify", 3, "bz", 1))], id="fail-notify-late"),
    pytest.param([(9, ("fail", 5, "bc"))], id="fail-of-other-edge"),
    pytest.param([(5, ("recover", 4, "bz"))], id="recover-in-other-round"),
    pytest.param([(3, ("fail_notify", 2, "bz", True))], id="fail-notify-bool"),
]


@pytest.mark.parametrize("edits", FAULT_EDITS)
def test_fault_event_off_the_schedule_refused(tmp_path, edits):
    trace = fault_run()
    events = trace.events
    for at, event in edits:
        events = edited(events, at, event)
    assert_edit_reaches_no_checker(tmp_path, trace, events)


def test_repeated_fail_notify_refused(tmp_path):
    trace = fault_run()
    assert trace.events[3] == ("fail_notify", 2, "bz", 1)
    events = list(trace.events)
    events.insert(4, events[3])
    assert_edit_reaches_no_checker(tmp_path, trace, events)


def notified_reroute_run():
    """A run whose edge bz fails in round 2, with notify delay 2 and
    tau_prime 2: packet 0 waits at bz until the notification in round 4,
    then re-routes over bc, cz."""
    net = Network(["a", "b", "c", "z"],
                  [Edge("ab", "a", "b"), Edge("bz", "b", "z"),
                   Edge("bc", "b", "c"), Edge("cz", "c", "z")])
    return run(ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO", horizon=8,
        injections=(Injection(1, ("ab", "bz")),), failures=(FailureEvent("bz", 2, 2),),
        tau_prime=2))


def delete_annihilate(events):
    assert events.pop(7) == ("annihilate", 4, 0, "forced")


def annihilate_a_round_early(events):
    delete_annihilate(events)
    assert events[3] == ("fail", 3, "ca")
    events.insert(4, ("annihilate", 3, 0, "voluntary"))


def reroute_before_its_notification(events):
    at = next(i for i, ev in enumerate(events) if ev[0] == "reroute")
    assert events[at - 1] == ("fail_notify", 4, "bz", 2)
    events[at - 1], events[at] = events[at], events[at - 1]


def notified_failure_run():
    """A run of two links, ab and ba, whose packet 0 crosses ab in round 1;
    ab fails in round 2, notified at once, and never recovers."""
    net = Network(["a", "b"], [Edge("ab", "a", "b"), Edge("ba", "b", "a")])
    return run(ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 1, 1), policy="FIFO", horizon=4,
        injections=(Injection(1, ("ab",)),), failures=(FailureEvent("ab", 2, 0),),
        enforce_buckets=False))


def injected_in_round_3(path):
    """An edit that injects packet 1 on ``path`` in round 3: the packet is
    never sent, so it stays in the totals from round 3 on."""
    def edit(events):
        assert events == [("inject", 1, 0, ("ab",), 0), ("transmit", 1, "ab", 0),
                          ("absorb", 1, 0), ("fail", 2, "ab"), ("fail_notify", 2, "ab", 2)]
        events.append(("inject", 3, 1, path, 0))
    return edit


# Edits that keep a run's events consistent with themselves but not with
# the feedback and fault events its scenario determines: (the run, the edit
# of its events, the first round whose total the edit moves, or None).
SCHEDULE_EDITS = [
    pytest.param(run_small, delete_annihilate, None, id="annihilate-deleted"),
    pytest.param(run_small, annihilate_a_round_early, None, id="annihilate-moved"),
    pytest.param(notified_reroute_run, reroute_before_its_notification, None,
                 id="reroute-before-notification"),
    # The script's path, and one that only ends on the failed link.
    pytest.param(notified_failure_run, injected_in_round_3(("ab",)), 3,
                 id="inject-after-notification"),
    pytest.param(notified_failure_run, injected_in_round_3(("ba", "ab")), 3,
                 id="inject-via-a-notified-link"),
]


@pytest.mark.parametrize("make, edit, differs_from", SCHEDULE_EDITS)
def test_trace_off_its_scenario_schedule_refused(tmp_path, make, edit, differs_from):
    trace = make()
    events = list(trace.events)
    edit(events)
    assert_edit_reaches_no_checker(tmp_path, trace, events, differs_from)


def one_link_run():
    """A run of one link, ab, whose three packets are injected in round 1
    and cross it one a round, but for a stall of packet 1 in round 2.

    Its events are: 0 to 2 inject 0, 1 and 2; 3 transmit and 4 absorb 0
    (round 1); 5 the stall of packet 1 (round 2); 6 the annihilate of its
    group, 7 transmit and 8 absorb 1 (round 3); 9 transmit and 10 absorb 2
    (round 4).
    """
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    return run(ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 1, 1), policy="FIFO", horizon=4,
        injections=(Injection(1, ("ab",)),) * 3, stalls={"ab": {2}}, enforce_buckets=False))


def inserted(at, event):
    """An edit that puts ``event`` at index ``at`` of a run's events."""
    def edit(events):
        events.insert(at, event)
    return edit


# A link selects one packet a round, to transmit or to stall. Edits of the
# one_link_run events that select a second; none moves a total.
SELECTION_EDITS = [
    pytest.param(inserted(5, ("transmit", 1, "ab", 1)), id="transmit-after-transmit"),
    pytest.param(inserted(5, ("transmit", 2, "ab", 2)), id="stall-after-transmit"),
    pytest.param(inserted(6, ("transmit", 2, "ab", 2)), id="transmit-after-stall"),
]


@pytest.mark.parametrize("edit", SELECTION_EDITS)
def test_second_selection_of_a_link_in_a_round_refused(tmp_path, edit):
    trace = one_link_run()
    assert trace.events[3:7] == [("transmit", 1, "ab", 0), ("absorb", 1, 0),
                                 ("stall", 2, "ab", 1, 0), ("annihilate", 3, 0, "forced")]
    events = list(trace.events)
    edit(events)
    assert_edit_reaches_no_checker(tmp_path, trace, events)


def at_round(at, rnd):
    """Move the event at index ``at`` to round ``rnd``."""
    def edit(events):
        events[at] = events[at][:1] + (rnd,) + events[at][2:]
    return edit


# Edits of the run_small events (horizon 6, annihilation delay 2) that put
# an event after the horizon: (the edits, the first round whose total they
# move, or None). An absorb after the horizon is in no total, so packet 1
# stays queued from round 4 on.
AFTER_THE_HORIZON = [
    pytest.param([at_round(8, 7), at_round(9, 7)], 4, id="transmit"),
    pytest.param([at_round(9, 7)], 4, id="absorb"),
    pytest.param([inserted(10, ("inject", 7, 2, ("bc",), 0))], None, id="inject"),
    pytest.param([inserted(10, ("stall", 7, "bc", 1, 1))], None, id="stall"),
    pytest.param([inserted(10, ("reroute", 7, 1, ("bc",), ("bc",), "bc", 1))], None,
                 id="reroute"),
    pytest.param([inserted(10, ("fail", 7, "bc"))], None, id="fail"),
    pytest.param([inserted(10, ("fail_notify", 7, "bc", 6))], None, id="fail_notify"),
    pytest.param([inserted(10, ("recover", 7, "bc"))], None, id="recover"),
    pytest.param([inserted(10, ("annihilate", 9, 0, "forced"))], None, id="annihilate"),
]


@pytest.mark.parametrize("edits, differs_from", AFTER_THE_HORIZON)
def test_event_after_the_horizon_refused(tmp_path, edits, differs_from):
    trace = run_small()
    events = list(trace.events)
    for edit in edits:
        edit(events)
    assert_edit_reaches_no_checker(tmp_path, trace, events, differs_from)


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
    assert trace.events[-1][1] == 200
    assert_edit_reaches_no_checker(tmp_path, trace,
                                   [*trace.events, ("transmit", 201, "e005", 330)])


def test_fault_trace_loads_as_saved(tmp_path):
    trace = fault_run()
    path = tmp_path / "faults.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert [ev[0] for ev in loaded.events] == [
        "fail", "inject", "transmit", "fail_notify", "reroute", "recover", "transmit",
        "transmit", "absorb", "fail", "inject", "transmit", "fail_notify", "reroute",
        "transmit", "transmit", "absorb"]
    assert loaded.events_of("reroute")[1][-1] == 5


def quiet_fault_run(horizon=8):
    """A run whose edge bc, which no packet uses, fails in round 2, is
    notified in round 3 and recovers in round 5, those by the horizon."""
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")])
    return run(ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2), policy="FIFO",
        horizon=horizon, injections=(Injection(1, ("ab",)),),
        failures=(FailureEvent("bc", 2, 1),),
        recoveries=(RecoveryEvent("bc", 5),) if horizon >= 5 else ()))


@pytest.mark.parametrize("kinds", [("fail", "recover"), ("fail_notify",), ("recover",)],
                         ids=["fail", "fail_notify", "recover"])
def test_missing_scheduled_fault_event_refused(tmp_path, kinds):
    trace = quiet_fault_run()
    events = [ev for ev in trace.events if ev[0] not in kinds]
    assert len(events) == len(trace.events) - len(kinds)
    assert_edit_reaches_no_checker(tmp_path, trace, events)


def test_missing_fault_events_are_named_first_round_first(tmp_path):
    trace = quiet_fault_run()
    assert_edit_reaches_no_checker(tmp_path, trace, [
        ev for ev in trace.events if ev[0] not in ("recover", "fail_notify")])


def test_traces_with_every_scheduled_fault_event_load(tmp_path):
    # A notification due past the horizon is not delivered, so not written.
    path = tmp_path / "quiet.jsonl"
    save_trace(quiet_fault_run(horizon=2), path)
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


# The inject, transmit and absorb events of the run_small events, by index.
# Each field in turn is given a value of the wrong type (text, null, bool,
# float) or made a list. Only an inject or absorb whose round is no longer
# an int moves a total: it counts in no round, from its own on.
LANE_EVENTS = {
    0: ("inject", 1, 0, ("ab", "bc"), 0),
    1: ("transmit", 1, "ab", 0),
    4: ("inject", 3, 1, ("bc",), 0),
    6: ("absorb", 3, 0),
    8: ("transmit", 4, "bc", 1),
    9: ("absorb", 4, 1),
}


def lane_field_edits():
    # The ids number the events as the lines of a version 7 file did.
    for at, ev in LANE_EVENTS.items():
        kind = ev[0]
        for field in range(1, len(ev)):
            value = ev[field]
            bad_values = [None, True, 1.5, [value]]
            if type(value) is not str:
                bad_values.append(str(value))
            for bad in bad_values:
                differs_from = ev[1] if field == 1 and kind != "transmit" else None
                yield pytest.param(at, ev[:field] + (bad,) + ev[field + 1:], differs_from,
                                   id=f"{at + 1}-{kind}-field{field}-{type(bad).__name__}")


LANE_RULE_EDITS = [
    pytest.param(1, ("transmit", 0, "ab", 0), None, id="transmit-round-0"),
    pytest.param(8, ("transmit", 3, "bc", 1), None, id="transmit-round-back"),
    pytest.param(8, ("transmit", 4, "bc", 123456), None, id="transmit-unknown"),
    pytest.param(8, ("transmit", 4, "ab", 1), None, id="transmit-other-edge"),
    pytest.param(8, ("transmit", 4, "zz", 1), None, id="transmit-unknown-edge"),
    pytest.param(4, ("inject", 0, 1, ("bc",), 0), 3, id="inject-round-0"),
    pytest.param(4, ("inject", 1, 1, ("bc",), 0), 1, id="inject-round-back"),
    pytest.param(4, ("inject", 3, 0, ("bc",), 0), None, id="inject-second"),
    pytest.param(4, ("inject", 3, 1, (), 0), None, id="inject-empty-path"),
    pytest.param(4, ("inject", 3, 1, ("bc", 7), 0), None, id="inject-path-int"),
    pytest.param(4, ("inject", 3, 1, ("bc",), 2), None, id="inject-priority-2"),
    pytest.param(9, ("absorb", 0, 1), 4, id="absorb-round-0"),
    pytest.param(9, ("absorb", 3, 1), 3, id="absorb-round-back"),
    pytest.param(9, ("absorb", 4, 123456), None, id="absorb-unknown"),
    pytest.param(9, ("absorb", 4, 0), None, id="absorb-absorbed"),
    pytest.param(8, ("absorb", 4, 1), 4, id="absorb-edges-left"),
]


@pytest.mark.parametrize("at, event, differs_from", [*lane_field_edits(), *LANE_RULE_EDITS])
def test_lane_refusals_read_as_the_generic_checks(tmp_path, at, event, differs_from):
    trace = run_small()
    assert trace.events[at] == LANE_EVENTS[at]
    assert_edit_reaches_no_checker(tmp_path, trace, edited(trace.events, at, event),
                                   differs_from)


def test_group_without_its_stall_refused(tmp_path):
    trace = run_small()
    assert trace.events[2] == ("stall", 2, "bc", 0, 0)
    assert_edit_reaches_no_checker(tmp_path, trace, edited(trace.events, 2, None))


def test_stall_before_the_totals_refused(tmp_path):
    # The transmit and absorb of packet 1 in round 4 become a stall, so the
    # packet stays queued from round 4 on.
    trace = run_small()
    events = list(trace.events)
    assert events[8:] == [("transmit", 4, "bc", 1), ("absorb", 4, 1)]
    events[8:] = [("stall", 4, "bc", 1, 1)]
    assert_edit_reaches_no_checker(tmp_path, trace, events, 4)


# The totals record edited to each of these: (the record, the refusal).
@pytest.mark.parametrize("record, message", [
    pytest.param(record, message, id=record) for record, message in (
        ('{"q_totals": 3}', "^line 2.q_totals: expected a list of int, got 3$"),
        ('{"q_totals": [1, 1, 1, 0, 0, "0"]}',
         re.escape("line 2.q_totals[5]: expected int, got '0'")),
        ('[1, 1, 1, 0, 0, 0]', "^line 2: expected an object$"),
        ('7', "^line 2: expected an object$"))])
def test_malformed_record_refused(tmp_path, record, message):
    path, lines = saved_lines(tmp_path)
    lines[-1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message):
        load_trace(path)


def as_version(lines, version):
    """The header of a saved trace's lines, relabelled as of ``version``."""
    header = json.loads(lines[0])
    header["version"] = version
    return json.dumps(header, sort_keys=True, separators=(",", ":"))


def event_lines(trace):
    """The event lines a version 5 to 7 file held: each event's compact JSON."""
    return [json.dumps(ev, separators=(",", ":")) for ev in trace.events]


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
    events = [json.dumps({"event": ev}, separators=(",", ":")) for ev in run_small().events]
    path.write_text("\n".join([as_version(lines, 4), *events, lines[-1]]) + "\n")
    with pytest.raises(ParseError, match="^unsupported trace format 'aqsim-trace' v4$"):
        load_trace(path)


def test_version_6_trace_refused(tmp_path):
    # A version 6 file held a group line after each stall; the version is
    # refused before any line after the header is read.
    path, lines = saved_lines(tmp_path)
    events = event_lines(run_small())
    events.insert(3, '["group",2,0,"bc",0,["bc"]]')
    path.write_text("\n".join([as_version(lines, 6), *events, lines[-1]]) + "\n")
    with pytest.raises(ParseError, match="^unsupported trace format 'aqsim-trace' v6$"):
        load_trace(path)


def test_version_7_trace_refused(tmp_path):
    # A version 7 file held one line per event between the header and the
    # totals.
    path, lines = saved_lines(tmp_path)
    path.write_text("\n".join([as_version(lines, 7), *event_lines(run_small()),
                               lines[-1]]) + "\n")
    with pytest.raises(ParseError, match="^unsupported trace format 'aqsim-trace' v7$"):
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
    assert len(lines) == 2
    assert list(json.loads(lines[-1])) == ["q_totals"]


def test_saved_trace_bytes(tmp_path):
    # The totals line is the compact JSON of the totals record, and the
    # hash is over the compact, key-sorted scenario.
    path, lines = saved_lines(tmp_path)
    assert lines[1:] == ['{"q_totals":[1,1,1,0,0,0]}']
    assert path.read_text().endswith("}\n")
    # The header line is the compact, key-sorted JSON of the header, and
    # the hash covers the scenario's bytes as they stand in it.
    header = json.loads(lines[0])
    assert list(header) == ["format", "scenario", "scenario_hash", "version"]
    assert lines[0] == json.dumps(header, sort_keys=True, separators=(",", ":"))
    compact = json.dumps(header["scenario"], sort_keys=True, separators=(",", ":"))
    head = '{"format":"aqsim-trace","scenario":'
    tail = f',"scenario_hash":"{header["scenario_hash"]}","version":8}}'
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
    lines[1] = lines[1] + "," + lines[1]
    return joined(lines)


def split_record(lines):
    # The header split inside a string, the policy name.
    at = lines[0].index('"FIFO"') + 3
    lines[0:1] = [lines[0][:at], lines[0][at:]]
    return joined(lines)


def split_record_and_two_on_one_line(lines):
    # The header is named first, though the totals line is bad too.
    lines[1] = lines[1] + "," + lines[1]
    return split_record(lines)


# Edits of the saved run_small trace, giving file text that no longer
# parses line by line, and the error that names the line. Lines end at
# "\n" only, as when iterating the file: U+2028 is part of a line.
UNDECODABLE_EDITS = [
    pytest.param(replaced(1, "not json"), "^line 2: Expecting value", id="non-json"),
    pytest.param(lambda lines: joined(lines[:1] + [""] + lines[1:]),
                 "^line 2: Expecting value", id="blank"),
    pytest.param(lambda lines: joined(lines)[:-5],
                 "^line 2: Expecting ',' delimiter", id="truncated-last-line"),
    pytest.param(lambda lines: replaced(0, lines[0][:40])(lines),
                 "^line 1: Invalid control character at", id="truncated-mid-file"),
    pytest.param(two_records_on_one_line, "^line 2: Extra data", id="two-records"),
    pytest.param(split_record, "^line 1: Invalid control character at", id="split-record"),
    pytest.param(split_record_and_two_on_one_line, "^line 1: Invalid control character at",
                 id="split-record-and-two-records"),
    # JSON text may hold U+2028 in a string; the header's hash then tells.
    pytest.param(lambda lines: replaced(0, lines[0].replace('"bc"', '"b\u2028c"'))(lines),
                 "^trace header hash does not match its scenario$", id="u2028-in-string"),
    pytest.param(lambda lines: replaced(1, lines[1] + "\u2028")(lines),
                 "^line 2: Extra data", id="u2028-after-record"),
]


@pytest.mark.parametrize("edit, message", UNDECODABLE_EDITS)
def test_undecodable_line_named(tmp_path, edit, message):
    path, lines = saved_lines(tmp_path)
    path.write_text(edit(lines), encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        load_trace(path)


@pytest.mark.parametrize("lineno, at", [
    pytest.param(1, 2, id="header"),
    pytest.param(2, 0, id="between-records"),
    pytest.param(1, 40, id="inside-a-string"),
    pytest.param(2, 2, id="totals-line"),
])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, lineno, at):
    # Inside a string the bytes would otherwise decode as part of a name.
    path, lines = saved_lines(tmp_path)
    raw = [line.encode() for line in lines]
    raw[lineno - 1] = raw[lineno - 1][:at] + b"\xff\xfe" + raw[lineno - 1][at:]
    path.write_bytes(b"\n".join(raw) + b"\n")
    with pytest.raises(ParseError, match=f"^line {lineno}: bytes that are not UTF-8$"):
        load_trace(path)


def long_header_trace(tmp_path, seed=3, horizon=2000):
    """A saved ``gen_random_scenario`` co-run whose header line, its script
    inline, spans many of the blocks a file is decoded in."""
    _cfg, trace = gen_random_scenario(
        seed, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=horizon,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    raw = path.read_bytes().split(b"\n")
    assert len(raw[0]) > 8 * 1024
    return path, raw


def test_bytes_that_are_not_utf8_past_the_first_chunk_of_lines(tmp_path):
    path, raw = long_header_trace(tmp_path)
    raw[0] = raw[0][:-100] + b"\xff\xfe" + raw[0][-100:]
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError, match="^line 1: bytes that are not UTF-8$"):
        load_trace(path)


def test_bytes_that_do_not_decode_come_after_an_earlier_error(tmp_path):
    # The totals line is read, and refused, before the bad bytes after it.
    path, raw = long_header_trace(tmp_path)
    raw[1] = b'{"q_totals":[0]}'
    path.write_bytes(b"\n".join(raw) + b"\xff\n")
    with pytest.raises(ParseError, match="^q_totals has 1 rounds, the horizon is 2000$"):
        load_trace(path)


# A record in the version 4 layout, or an event line, is no totals record;
# the ids are those of the lines a version 7 file held them on.
@pytest.mark.parametrize("record, message", [
    pytest.param("not json", "line 2: Expecting value",
                 id="1500-not json-Expecting value"),
    pytest.param('{"event":["absorb",1000000,123456]}', "line 2: unknown key 'event'",
                 id='2100-{"event":["absorb",1000000,123456]}-unknown record'),
    pytest.param('["absorb",1000,123456]', "line 2: expected an object",
                 id='2100-["absorb",1000,123456]-absorb of packet 123456, '
                    'which is never injected'),
])
def test_error_past_the_first_chunk_of_lines_named(tmp_path, record, message):
    path, raw = long_header_trace(tmp_path, seed=5, horizon=1000)
    raw[1] = record.encode()
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        load_trace(path)


def assert_tuples_all_the_way_down(value):
    assert not isinstance(value, list)
    if isinstance(value, tuple):
        for item in value:
            assert_tuples_all_the_way_down(item)


def oracle_load(path):
    """The reference loader: the header and the totals read with
    ``json.loads``, then a run of the header's scenario, its packet records
    folded from its events afterwards. It checks nothing."""
    with open(path, encoding="utf-8") as fh:
        header, totals = (json.loads(line) for line in fh)
    events = run(scenario_from_dict(header["scenario"])).events
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
    return events, totals["q_totals"], packets


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
        assert header["version"] == 8, name
        assert header["scenario_hash"] == scenario_hash(trace.config), name
        assert dumps_scenario(loaded.config) == dumps_scenario(trace.config), name
        assert loaded.events == events == trace.events, name
        for ev in loaded.events:
            assert_tuples_all_the_way_down(ev)
        assert loaded.q_totals == q_totals == trace.q_totals, name
        assert loaded.packets == packets == trace.packets, name
        assert trace_digest(loaded) == trace_digest(trace), name
        kinds.update(ev[0] for ev in events)
    assert {"inject", "stall", "reroute", "absorb"} <= kinds


def test_lines_read_one_by_one_load_the_same(tmp_path):
    # A totals record with spaces inside and around it is still read as
    # json.loads reads it.
    path, lines = saved_lines(tmp_path)
    lines[1] = " " + json.dumps(json.loads(lines[1]), indent=None) + "\t"
    assert " " in lines[1].strip()
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_trace(path)
    trace = run_small()
    assert loaded.events == trace.events
    assert loaded.events[0] == ("inject", 1, 0, ("ab", "bc"), 0)
    assert (loaded.q_totals, loaded.packets) == (trace.q_totals, trace.packets)


# Edge ids that text handling in the wrong place would get wrong: the text
# that started an event line, a kind, brackets, a quote, non-ASCII and
# U+2028.
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
    # The file holds the header and the totals; the events come back from
    # the replay, odd ids and all.
    trace = odd_trace()
    assert ("reroute", 2, 0, (ODD_IDS[1],), ODD_IDS[2:], ODD_IDS[1], 1) in trace.events
    assert {"stall", "annihilate", "fail_notify"} <= {ev[0] for ev in trace.events}
    path = tmp_path / "odd.jsonl"
    digest = save_trace(trace, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert len(lines) == 3
    assert lines[-2:] == [json.dumps({"q_totals": trace.q_totals}, separators=(",", ":")), ""]
    loaded = load_trace(path)
    assert loaded.events == trace.events
    assert trace_digest(loaded) == digest


def padded(lines):
    lines[1] = " \t" + lines[1] + "  "


def two_on_one_line(lines):
    lines[0:2] = [lines[0] + "," + lines[1]]


def split_in_a_string(lines):
    at = lines[0].index("inject", 2)
    lines[0:1] = [lines[0][:at], lines[0][at:]]


def raw_u2028_in_a_string(lines):
    assert "\\u2028" in lines[0]
    lines[0] = lines[0].replace("\\u2028", "\u2028")


def u2028_after_a_record(lines):
    lines[1] += "\u2028"


# Edits of the odd trace's two lines: (the edit, the refusal, or None when
# the file loads). A line is what json.loads reads on its own; the header
# is also read as the bytes its hash covers.
@pytest.mark.parametrize("edit, message", [
    (padded, None), (two_on_one_line, "line 1: Extra data"),
    (split_in_a_string, "line 1: Invalid control character at"),
    (raw_u2028_in_a_string, "trace header hash does not match its scenario"),
    (u2028_after_a_record, "line 2: Extra data"),
], ids=["padded", "two-on-one-line", "split-in-a-string", "raw-u2028-in-a-string",
        "u2028-after-a-record"])
def test_lines_load_as_json_loads_reads_them_one_by_one(tmp_path, edit, message):
    path = tmp_path / "odd.jsonl"
    save_trace(odd_trace(), path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    edit(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if message is None:
        assert load_trace(path).events == odd_trace().events
    else:
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
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
    # Nothing is scheduled, so a run with no events is whole.
    empty = run(dataclasses.replace(run_small().config, injections=(), stalls={},
                                    failures=()))
    assert empty.events == []
    for name, trace in (*oracle_traces(), ("odd-ids", odd_trace()), ("no-events", empty)):
        path = tmp_path / f"{name}.jsonl"
        digest = save_trace(trace, path)
        assert digest == trace_digest(trace) == one_shot_digest(trace), name
        assert trace_digest(load_trace(path)) == digest, name


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
