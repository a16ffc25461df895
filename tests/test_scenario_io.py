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
    assert loaded.queue_sizes == trace.queue_sizes
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
