import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import pytest

from aqsim.analysis import gen_random_scenario, rerouting_gadget
from aqsim.buckets import AdversaryType
from aqsim.engine import (ExecutionTrace, FailureEvent, Injection, PacketRecord,
                          RecoveryEvent, ScenarioConfig, run)
from aqsim.netmodel import Edge, Network
from aqsim.policies import Prioritized
from aqsim.scenario_io import (ParseError, dumps_scenario, format_rational,
                               load_scenario, load_trace, loads_scenario,
                               parse_rational, save_scenario, save_trace,
                               scenario_hash, trace_digest, write_metrics_csv)

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
                 "stalls[0].rounds: expected a list of int, got [3, 'x']", id="stall-round"),
    pytest.param(lambda doc: doc["schedules"]["injections"][1].update(round="3"),
                 "injections[1].round: expected int, got '3'", id="injection-round"),
    pytest.param(lambda doc: doc["run"].update(horizon="50"),
                 "run.horizon: expected int, got '50'", id="horizon"),
    pytest.param(lambda doc: doc["schedules"]["injections"][0].update(path=5),
                 "injections[0].path: expected a list of str, got 5", id="injection-path"),
    pytest.param(lambda doc: doc["schedules"]["injections"][0].update(path=["ab", ["bc"]]),
                 "injections[0].path: expected a list of str, got ['ab', ['bc']]",
                 id="injection-path-nested"),
    pytest.param(lambda doc: doc["adversary"].update(b=True),
                 "adversary.b: expected int, got True", id="burst-bool"),
    pytest.param(lambda doc: doc["adversary"].update(r=0.75),
                 "adversary.r: expected str, got 0.75", id="rate-float"),
    pytest.param(lambda doc: doc["schedules"]["annihilations"][0].update(delay=1.0),
                 "annihilations[0].delay: expected int, got 1.0", id="annihilation-delay"),
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
]


@pytest.mark.parametrize("edit, message", MISTYPED_FIELDS)
def test_mistyped_field_is_a_parse_error_naming_it(edit, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        loads_scenario(json.dumps(mistyped(edit)))


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
    net = Network(["a", "b", "c"],
                  [Edge("ab", "a", "b"), Edge("bc", "b", "c")])
    cfg = ScenarioConfig(
        network=net, adversary=AdversaryType(Fraction(1), 2, 2),
        policy="FIFO", horizon=6,
        injections=(Injection(1, ("ab", "bc")), Injection(3, ("bc",))),
        stalls={"bc": frozenset({2})})
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
    at = next(i for i, line in enumerate(lines) if '"reroute"' in line)
    ev = json.loads(lines[at])["event"]
    assert ev[3] == ["bz"]
    ev[3] = ["ab", "bz"]
    lines[at] = json.dumps({"event": ev})
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
    absorbs = [i for i, line in enumerate(lines) if '"absorb"' in line]
    assert json.loads(lines[absorbs[0]])["event"] == ["absorb", 3, 0]
    del lines[absorbs[0]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="from round 3: 1 stored, 2 injected"):
        load_trace(path)


def test_events_out_of_round_order_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    # The annihilate moves ahead of the round-3 events but stays after the
    # group it ends, so the round order is the first thing wrong.
    assert json.loads(lines[8])["event"] == ["annihilate", 4, 0, "forced"]
    lines[5], lines[8] = lines[8], lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 7: event of round 3 after round 4"):
        load_trace(path)


# Edits of the saved run_small trace: (index into its lines, replacement
# event, message). Its events are, from index 1: inject 0 on ab-bc, transmit
# 0 on ab, stall and group on bc, inject 1 on bc, transmit and absorb 0,
# annihilate, transmit and absorb 1.
INCONSISTENT_EDITS = [
    pytest.param(5, ["inject", 3, 0, ["bc"], 0], "packet 0 is injected twice",
                 id="duplicate-inject"),
    pytest.param(5, ["inject", 3, 1, ["zz"], 0],
                 "packet 1 is injected on a path not in the network", id="unknown-edge"),
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
    pytest.param(4, ["group", 2, "0", "bc", 0, ["bc"]], "group event with group id '0'",
                 id="group-text-id"),
    pytest.param(4, ["group", 2, 0, "zz", 0, ["bc"]],
                 "group 0 stalls at 'zz', which is not in the network", id="group-unknown-edge"),
    pytest.param(4, ["group", 2, 0, "bc", 0, 3], "group 0 holds 3, not a path of network edges",
                 id="group-members-int"),
    pytest.param(4, ["group", 2, 0, "bc", 0, []], r"group 0 holds \(\), not a path",
                 id="group-members-empty"),
    pytest.param(4, ["group", 2, 0, "bc", 0, ["bc", "zz"]],
                 r"group 0 holds \('bc', 'zz'\), not a path", id="group-members-unknown"),
    pytest.param(8, ["group", 4, 0, "bc", 1, ["bc"]], "group 0 is created twice",
                 id="group-twice"),
    pytest.param(3, ["stall", 2, "bc", 0, "0"], "stall event with group id '0'",
                 id="stall-text-group"),
    pytest.param(8, ["annihilate", 4, "0", "forced"], "annihilate event with group id '0'",
                 id="annihilate-text-id"),
    pytest.param(8, ["annihilate", 4, 7, "forced"],
                 "annihilate of group 7, which is never created", id="annihilate-unknown"),
    pytest.param(9, ["annihilate", 4, 0, "voluntary"],
                 "annihilate of group 0, which is already annihilated", id="annihilate-twice"),
    pytest.param(8, ["annihilate", 4, 0, "later"],
                 "annihilate of group 0 as 'later', not 'voluntary' or 'forced'",
                 id="annihilate-manner"),
    pytest.param(8, ["fail", 4, "zz"], "fail of edge 'zz', which is not in the network",
                 id="fail-unknown-edge"),
    pytest.param(8, ["recover", 4, ["bc"]],
                 r"recover of edge \('bc',\), which is not in the network",
                 id="recover-unknown-edge"),
    pytest.param(8, ["fail_notify", 4, "zz", 4],
                 "fail_notify of edge 'zz', which is not in the network",
                 id="fail-notify-unknown-edge"),
    pytest.param(8, ["fail_notify", 4, "bc", 5],
                 "fail_notify in round 4 of a failure in round 5", id="fail-notify-later"),
    pytest.param(8, ["fail_notify", 4, "bc", "4"],
                 "fail_notify in round 4 of a failure in round '4'", id="fail-notify-text-round"),
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
    pytest.param(4, ["group", 2, 0, "bc", 999999, ["bc"]],
                 "group 0 does not directly follow the stall of packet 999999 at 'bc' in round 2",
                 id="group-other-packet"),
    pytest.param(4, ["group", 3, 0, "bc", 0, ["bc"]],
                 "group 0 does not directly follow the stall of packet 0 at 'bc' in round 3",
                 id="group-other-round"),
    pytest.param(4, ["group", 2, 1, "bc", 0, ["bc"]],
                 "group 1 does not directly follow the stall of packet 0", id="group-other-id"),
    pytest.param(4, ["group", 2, 0, "ab", 0, ["bc"]],
                 "group 0 does not directly follow the stall of packet 0 at 'ab'",
                 id="group-other-edge"),
    pytest.param(4, ["group", 2, 0, "bc", 0, ["bc", "ab"]],
                 r"group 0 holds \('bc', 'ab'\), not the edges packet 0 has still to cross",
                 id="group-members-not-remaining"),
    pytest.param(4, ["transmit", 2, "bc", 0],
                 "stall of packet 0 at 'bc' in round 2 is not followed by its group",
                 id="stall-without-group"),
    pytest.param(4, ["stall", 2, "bc", 0, 1],
                 "stall of packet 0 at 'bc' in round 2 is not followed by its group",
                 id="stall-after-stall"),
    pytest.param(8, ["fail", 4, "bc"],
                 "fail of edge 'bc' in round 4, which is not in the scenario's failures",
                 id="fail-unscheduled"),
    pytest.param(8, ["recover", 4, "bc"],
                 "recover of edge 'bc' in round 4, which is not in the scenario's recoveries",
                 id="recover-unscheduled"),
    pytest.param(8, ["fail_notify", 4, "bc", 3],
                 "fail_notify in round 4 of a failure of edge 'bc' in round 3, which the "
                 "scenario does not notify in that round", id="fail-notify-unscheduled"),
]


@pytest.mark.parametrize("index, event, message", INCONSISTENT_EDITS)
def test_inconsistent_event_refused(tmp_path, index, event, message):
    path, lines = saved_lines(tmp_path)
    lines[index] = json.dumps({"event": event})
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
    pytest.param([(6, None)], 10, "fail of edge 'bz' in round 5, which is already failed",
                 id="fail-of-failed-edge"),
    pytest.param([(5, None), (1, None)], 5,
                 "recover of edge 'bz' in round 3, which is not failed",
                 id="recover-of-live-edge"),
    pytest.param([(1, None)], 5, "reroute of packet 0 at 'bz', which is not failed",
                 id="reroute-at-live-edge"),
    pytest.param([(14, ["reroute", 6, 1, ["bz"], ["bc", "cz"], "bz", 1])], 15,
                 "reroute of packet 1 at 'bz' names a failure in round 1; 'bz' last failed "
                 "in round 5", id="reroute-of-earlier-failure"),
    pytest.param([(5, ["reroute", 2, 0, ["bz"], ["bc", "cz"], "bz", [["x"]]])], 6,
                 "reroute of packet 0 at 'bz' names a failure in round (('x',),); 'bz' last "
                 "failed in round 1", id="reroute-failure-round-not-a-round"),
    pytest.param([(5, ["reroute", 2, 0, ["bz"], ["bc", "cz"], "bz", True])], 6,
                 "reroute of packet 0 at 'bz' names a failure in round True", id="reroute-bool"),
    pytest.param([(13, ["fail_notify", 6, "bz", 1])], 14,
                 "fail_notify in round 6 of a failure of edge 'bz' in round 1, which the "
                 "scenario does not notify in that round", id="fail-notify-of-earlier-failure"),
    pytest.param([(4, ["fail_notify", 3, "bz", 1])], 5,
                 "fail_notify in round 3 of a failure of edge 'bz' in round 1, which the "
                 "scenario does not notify in that round", id="fail-notify-late"),
    pytest.param([(10, ["fail", 5, "bc"])], 11,
                 "fail of edge 'bc' in round 5, which is not in the scenario's failures",
                 id="fail-of-other-edge"),
    pytest.param([(6, ["recover", 4, "bz"])], 7,
                 "recover of edge 'bz' in round 4, which is not in the scenario's recoveries",
                 id="recover-in-other-round"),
]


@pytest.mark.parametrize("edits, lineno, message", FAULT_EDITS)
def test_fault_event_off_the_schedule_refused(tmp_path, edits, lineno, message):
    path, lines = fault_lines(tmp_path)
    for index, event in edits:
        if event is None:
            del lines[index]
        else:
            lines[index] = json.dumps({"event": event})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(f"line {lineno}: {message}")):
        load_trace(path)


def test_fault_trace_loads_as_saved(tmp_path):
    path, lines = fault_lines(tmp_path)
    assert [json.loads(line)["event"][0] for line in lines[1:-1]] == [
        "fail", "inject", "transmit", "fail_notify", "reroute", "recover", "transmit",
        "transmit", "absorb", "fail", "inject", "transmit", "fail_notify", "reroute",
        "transmit", "transmit", "absorb"]
    assert load_trace(path).events_of("reroute")[1][-1] == 5


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
    pytest.param(5, ["inject", 1, 1, ["bc"], 0], "event of round 1 after round 2",
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
    assert json.loads(lines[index])["event"] == LANE_LINES[index]
    lines[index] = json.dumps({"event": event})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line {index + 1}: {message}"):
        load_trace(path)


def test_group_without_its_stall_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert json.loads(lines[3])["event"] == ["stall", 2, "bc", 0, 0]
    del lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 4: group 0 does not directly follow the stall "
                                         "of packet 0 at 'bc' in round 2 that it belongs to"):
        load_trace(path)


def test_stall_before_the_totals_refused(tmp_path):
    path, lines = saved_lines(tmp_path)
    assert json.loads(lines[9])["event"] == ["transmit", 4, "bc", 1]
    lines[9:11] = [json.dumps({"event": ["stall", 4, "bc", 1, 1]})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {len(lines)}: stall of packet 1 at 'bc' in "
                                         "round 4 is not followed by its group"):
        load_trace(path)


@pytest.mark.parametrize("record", ['{"q_totals": 3}', '{"q_totals": [1, 1, 1, 0, 0, "0"]}',
                                    '[1, 1, 1, 0, 0, 0]'])
def test_malformed_record_refused(tmp_path, record):
    path, lines = saved_lines(tmp_path)
    lines[-1] = record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="q_totals is not a list of integers|unknown record"):
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
    kinds = {json.loads(line)["event"][0] for line in lines[1:-1]}
    assert kinds == {"inject", "transmit", "stall", "group", "annihilate", "absorb"}
    assert list(json.loads(lines[-1])) == ["q_totals"]


def test_saved_trace_bytes(tmp_path):
    # Each event line is what json.dumps({"event": ev}, separators=(",", ":"))
    # gives, and the hash is over the compact, key-sorted scenario.
    path, lines = saved_lines(tmp_path)
    assert lines[1:] == [
        '{"event":["inject",1,0,["ab","bc"],0]}',
        '{"event":["transmit",1,"ab",0]}',
        '{"event":["stall",2,"bc",0,0]}',
        '{"event":["group",2,0,"bc",0,["bc"]]}',
        '{"event":["inject",3,1,["bc"],0]}',
        '{"event":["transmit",3,"bc",0]}',
        '{"event":["absorb",3,0]}',
        '{"event":["annihilate",4,0,"forced"]}',
        '{"event":["transmit",4,"bc",1]}',
        '{"event":["absorb",4,1]}',
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
    tail = f',"scenario_hash":"{header["scenario_hash"]}","version":4}}'
    assert lines[0] == head + compact + tail
    assert compact.startswith('{"adversary":{"b":2,"delta":2,"r":"1/1"')
    assert header["scenario_hash"] == hashlib.sha256(compact.encode()).hexdigest()
    assert header["scenario_hash"] == (
        "b3349a5da6d408447c0ade104ddfeba25b87a3e9ccda717f73bebb4539deb81d")


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
    # lines are one group event with edge "},{".
    lines[4:5] = ['{"event":["group",2,0,"}', '{",0,["bc"]]}']
    return joined(lines)


def split_record_and_two_on_one_line(lines):
    # With two records joined on a later line, the one call would give as
    # many records as there are lines.
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
    pytest.param(replaced(4, '{"event":["group",2,'), "line 5: Expecting value",
                 id="truncated-mid-file"),
    pytest.param(two_records_on_one_line, "line 7: Extra data", id="two-records"),
    pytest.param(split_record, "line 5: Invalid control character", id="split-record"),
    pytest.param(split_record_and_two_on_one_line, "line 5: Invalid control character",
                 id="split-record-and-two-records"),
    pytest.param(replaced(6, '{"event":["transmit",3,"b\u2028c",0]}'),
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
    pytest.param(5, 30, id="inside-a-string"),
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
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=400,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    raw = path.read_bytes().split(b"\n")
    assert len(raw) > 2000
    raw[1500] = raw[1500][:-1] + b"\xff\xfe}"
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError, match="^line 1501: bytes that are not UTF-8$"):
        load_trace(path)


def test_bytes_that_do_not_decode_come_after_an_earlier_error(tmp_path):
    # The file decodes in blocks of bytes. With the bad bytes past the first
    # block, reading line by line reports the event error on line 2 first.
    _cfg, trace = gen_random_scenario(
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=400,
        nodes=(8, 8), with_trace=True)
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({"event": ["absorb", 1, 123456]})
    path.write_bytes(joined(lines).encode() + b"\xff\n")
    assert path.stat().st_size > 64 * 1024
    with pytest.raises(ParseError, match="line 2: absorb of packet 123456"):
        load_trace(path)


@pytest.mark.parametrize("lineno, record, message", [
    (1500, "not json", "Expecting value"),
    (2100, '{"event":["absorb",1000000,123456]}',
     "absorb of packet 123456, which is never injected"),
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
    events = [oracle_tuplify(doc["event"]) for doc in docs if "event" in doc]
    (q_totals,) = [doc["q_totals"] for doc in docs if "q_totals" in doc]
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
        assert header["version"] == 4, name
        assert header["scenario_hash"] == scenario_hash(trace.config), name
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
    assert {"inject", "group", "reroute", "absorb"} <= kinds


def test_lines_read_one_by_one_load_the_same(tmp_path):
    # Lines that a one-call decode must not take: spaces around a record, a
    # brace or a U+2028 inside a string. The file still loads as the oracle
    # reads it, with the list nested in the group event made a tuple too.
    # The odd string and the nested list sit in a key of the group's record
    # that the loader does not read: every field of the event is checked.
    path, lines = saved_lines(tmp_path)
    lines[2] = " " + lines[2] + "\t"
    lines[4] = '{"event":["group",2,0,"bc",0,["bc"]],"note":[["b{c}\u2028"]]}'
    lines[8] = json.dumps(json.loads(lines[8]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_trace(path)
    events, q_totals, packets = oracle_load(path)
    assert loaded.events == events
    assert events[3] == ("group", 2, 0, "bc", 0, ("bc",))
    assert (loaded.q_totals, loaded.packets) == (q_totals, packets)


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


def test_digest_sees_every_field_and_total():
    _cfg, trace = gen_random_scenario(
        3, rate=HALF, burst=2, delay=2, tau=1, policy="FTG", horizon=300,
        nodes=(6, 6), failures=2, with_trace=True)
    digest = trace_digest(trace)
    edited = ExecutionTrace(trace.config)
    seen = set()
    for at in sorted({len(trace.events) - 1, 0} | {
            next(i for i, ev in enumerate(trace.events) if ev[0] == kind)
            for kind in ("inject", "group", "reroute", "annihilate")}):
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
    assert {"inject", "group", "reroute", "annihilate"} <= seen
    edited.events = trace.events
    for rnd in (0, len(trace.q_totals) // 2, len(trace.q_totals) - 1):
        edited.q_totals = list(trace.q_totals)
        edited.q_totals[rnd] += 1
        assert trace_digest(edited) != digest, rnd
    edited.q_totals = trace.q_totals
    assert trace_digest(edited) == digest
