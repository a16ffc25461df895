import json
from fractions import Fraction

import pytest

from aqsim.analysis import gen_random_scenario, rerouting_gadget
from aqsim.buckets import AdversaryType
from aqsim.engine import FailureEvent, Injection, RecoveryEvent, ScenarioConfig, run
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
    assert json.loads(lines[8])["event"] == ["annihilate", 4, 0, "forced"]
    lines[4], lines[8] = lines[8], lines[4]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 6: event of round 3 after round 4"):
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
]


@pytest.mark.parametrize("index, event, message", INCONSISTENT_EDITS)
def test_inconsistent_event_refused(tmp_path, index, event, message):
    path, lines = saved_lines(tmp_path)
    lines[index] = json.dumps({"event": event})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {index + 1}: {message}"):
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


def test_trace_file_holds_no_per_round_markers_or_sizes(tmp_path):
    path, lines = saved_lines(tmp_path)
    kinds = {json.loads(line)["event"][0] for line in lines[1:-1]}
    assert kinds == {"inject", "transmit", "stall", "group", "annihilate", "absorb"}
    assert list(json.loads(lines[-1])) == ["q_totals"]
