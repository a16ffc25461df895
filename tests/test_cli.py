import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from aqsim.cli import build_parser, main
from aqsim.scenario_io import load_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHECK_MODES = ("admissibility", "regular", "stall-bound", "recovery")


def gen(tmp_path, *extra):
    out = tmp_path / "scenario.json"
    rc = main(["gen", "random", "--seed", "9", "--r", "1/2", "--b", "2",
               "--delta", "2", "--tau", "2", "--policy", "FTG",
               "--horizon", "60", "--out", str(out), *extra])
    assert rc == 0
    return out


def test_gen_run_check_pipeline(tmp_path):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    trace = out_dir / "scenario.trace.jsonl"
    assert trace.exists()
    assert (out_dir / "scenario.metrics.csv").exists()
    assert (out_dir / "scenario.stability.json").exists()
    assert main(["check", str(trace), "--mode", "admissibility"]) == 0
    assert main(["check", str(trace), "--mode", "stall-bound"]) == 0
    assert main(["check", str(trace), "--mode", "recovery"]) == 0
    assert main(["reduce", str(trace)]) == 0


def test_gen_is_reproducible(tmp_path):
    a = gen(tmp_path / "a")
    b = gen(tmp_path / "b")
    assert a.read_text() == b.read_text()


def test_no_stall_trace_passes_regular_mode(tmp_path):
    scenario = gen(tmp_path, "--stall-density", "0")
    cfg = load_scenario(scenario)
    assert cfg.stalls == {}
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    trace = out_dir / "scenario.trace.jsonl"
    assert main(["check", str(trace), "--mode", "regular"]) == 0


def test_corrupted_trace_fails_admissibility(tmp_path):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", str(scenario), "--out", str(out_dir)])
    trace = out_dir / "scenario.trace.jsonl"
    lines = trace.read_text().splitlines()
    cfg = load_scenario(scenario)
    edge = sorted(cfg.network.edges)[0]
    pids = range(900, 900 + cfg.adversary.burst + 2)
    flood = [json.dumps({"event": ["inject", 5, pid, [edge], 0]}) for pid in pids]
    at = next(i for i, line in enumerate(lines) if line.startswith('{"event"')
              and json.loads(line)["event"][1] > 5)
    trace.write_text("\n".join(lines[:at] + flood + lines[at:]) + "\n")
    # The extra packets are never absorbed, so the stored totals give it away.
    assert main(["check", str(trace), "--mode", "admissibility"]) == 2
    # Sent and absorbed in the round they enter, they keep the totals
    # consistent and only the admissibility check can refuse them.
    flood += [json.dumps({"event": [kind, 5, *args]}) for pid in pids
              for kind, *args in (("transmit", edge, pid), ("absorb", pid))]
    trace.write_text("\n".join(lines[:at] + flood + lines[at:]) + "\n")
    assert main(["check", str(trace), "--mode", "admissibility"]) == 1


def test_trace_naming_an_unknown_packet_is_a_parse_error(tmp_path):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", str(scenario), "--out", str(out_dir)])
    trace = out_dir / "scenario.trace.jsonl"
    lines = trace.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith('{"event":["absorb"'))
    rnd = json.loads(lines[at])["event"][1]
    lines[at] = json.dumps({"event": ["absorb", rnd, 123456]})
    trace.write_text("\n".join(lines) + "\n")
    for mode in CHECK_MODES:
        assert main(["check", str(trace), "--mode", mode]) == 2
    assert main(["reduce", str(trace)]) == 2


def generated_trace(tmp_path, *extra):
    """A 200-round ``gen random --seed 3`` trace written by ``run``."""
    scenario = tmp_path / "scenario.json"
    assert main(["gen", "random", "--seed", "3", "--horizon", "200",
                 "--out", str(scenario), *extra]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    return out_dir / "scenario.trace.jsonl"


def assert_every_reader_exits_2(trace):
    for mode in CHECK_MODES:
        assert main(["check", str(trace), "--mode", mode]) == 2, mode
    assert main(["reduce", str(trace)]) == 2


def test_trace_with_bytes_that_are_not_utf8_is_a_parse_error(tmp_path, capsys):
    trace = generated_trace(tmp_path)
    data = trace.read_bytes()
    at = data.rindex(b'{"event"', 0, len(data) - 200)
    trace.write_bytes(data[:at] + b"\xff\xfe" + data[at:])
    assert_every_reader_exits_2(trace)
    lineno = data[:at].count(b"\n") + 1
    assert f"line {lineno}: bytes that are not UTF-8" in capsys.readouterr().err


def edit_first(kind, edit):
    """Replace the first event of ``kind`` in a trace's lines by ``edit(event)``."""
    def apply(lines):
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(f'{{"event":["{kind}"'))
        lines[at] = json.dumps({"event": edit(json.loads(lines[at])["event"])})
    return apply


def drop_first(kind):
    """Delete the first event of ``kind`` from a trace's lines."""
    def apply(lines):
        del lines[next(i for i, line in enumerate(lines)
                       if line.startswith(f'{{"event":["{kind}"'))]
    return apply


def after_first(kind, make):
    """Insert ``make(event)`` after the first event of ``kind`` in a trace's lines."""
    def apply(lines):
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(f'{{"event":["{kind}"'))
        lines.insert(at + 1, json.dumps({"event": make(json.loads(lines[at])["event"])}))
    return apply


@pytest.mark.parametrize("apply", [
    edit_first("group", lambda ev: ev[:3] + ["zz"] + ev[4:]),
    edit_first("group", lambda ev: ev[:5] + [3]),
    edit_first("group", lambda ev: ev[:2] + ["g"] + ev[3:]),
    edit_first("stall", lambda ev: ev[:4] + [None]),
    edit_first("annihilate", lambda ev: ev[:2] + [10 ** 6, ev[3]]),
    edit_first("annihilate", lambda ev: ev[:3] + ["eventually"]),
    edit_first("fail", lambda ev: ev[:2] + ["zz"]),
    edit_first("fail_notify", lambda ev: ev[:2] + ["zz", ev[3]]),
    edit_first("fail_notify", lambda ev: ev[:3] + [ev[1] + 1]),
    edit_first("inject", lambda ev: ev[:4] + [[7]]),
    edit_first("group", lambda ev: ev[:4] + [999999, ev[5]]),
    edit_first("group", lambda ev: ev[:5] + [ev[5] + ev[5]]),
    drop_first("group"),
    drop_first("stall"),
    edit_first("reroute", lambda ev: ev[:6] + [[["x"]]]),
    edit_first("reroute", lambda ev: ev[:6] + [ev[6] - 1]),
    drop_first("fail"),
    after_first("fail", lambda ev: ev),
    after_first("fail", lambda ev: ["recover", ev[1], ev[2]]),
    edit_first("fail", lambda ev: ev[:2] + ["e000"]),
    edit_first("fail_notify", lambda ev: ev[:3] + [ev[3] - 1]),
], ids=["group-edge", "group-members", "group-id", "stall-group", "annihilate-unknown",
        "annihilate-manner", "fail-edge", "fail-notify-edge", "fail-notify-round",
        "inject-priority", "group-packet", "group-members-not-remaining", "stall-without-group",
        "group-without-stall", "reroute-failure-round-not-a-round",
        "reroute-other-failure-round", "reroute-at-live-edge", "fail-of-failed-edge",
        "recover-unscheduled", "fail-unscheduled", "fail-notify-other-failure"])
def test_inconsistent_feedback_or_fault_event_is_a_parse_error(tmp_path, apply):
    trace = generated_trace(tmp_path, "--failures", "2")
    lines = trace.read_text().splitlines()
    apply(lines)
    trace.write_text("\n".join(lines) + "\n")
    assert_every_reader_exits_2(trace)


def test_gadget_gen_writes_expected_topology(tmp_path):
    out = tmp_path / "gadget.json"
    rc = main(["gen", "rerouting-gadget", "--branches", "3", "--cycles", "2",
               "--out", str(out)])
    assert rc == 0
    cfg = load_scenario(out)
    assert len(cfg.network.nodes) == 3 * 3 + 2
    assert len(cfg.network.edges) == 5 * 3


def test_gadget_run_reports_growth(tmp_path):
    out = tmp_path / "gadget.json"
    main(["gen", "rerouting-gadget", "--cycles", "40", "--out", str(out)])
    out_dir = tmp_path / "out"
    assert main(["run", str(out), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "gadget.stability.json").read_text())
    assert report["verdict"] == "growth-detected"


def test_unaffordable_scenario_exits_3(tmp_path):
    scenario = gen(tmp_path)
    doc = json.loads(scenario.read_text())
    doc["schedules"]["injections"] = [
        {"round": 1, "path": doc["schedules"]["injections"][0]["path"]}
        for _ in range(6)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 3


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("field, edit", [
    ("stalls[0].rounds", lambda doc: doc["schedules"]["stalls"][0]["rounds"].append("x")),
    ("injections[0].round", lambda doc: doc["schedules"]["injections"][0].update(round="3")),
    ("run.horizon", lambda doc: doc["run"].update(horizon="50")),
    ("injections[0].path", lambda doc: doc["schedules"]["injections"][0].update(path=5)),
], ids=["stall-round", "injection-round", "horizon", "injection-path"])
def test_mistyped_scenario_field_exits_2(tmp_path, capsys, field, edit):
    scenario = gen(tmp_path)
    doc = json.loads(scenario.read_text())
    edit(doc)
    scenario.write_text(json.dumps(doc))
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 2
    assert f"parse error: {field}: expected" in capsys.readouterr().err


def test_trace_with_a_mistyped_header_scenario_exits_2(tmp_path, capsys):
    trace = generated_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["scenario"]["run"]["horizon"] = "50"
    compact = json.dumps(header["scenario"], sort_keys=True, separators=(",", ":"))
    header["scenario_hash"] = hashlib.sha256(compact.encode()).hexdigest()
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    assert_every_reader_exits_2(trace)
    assert "parse error: run.horizon: expected int, got '50'" in capsys.readouterr().err


def test_batch_runs_every_scenario(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for seed in (1, 2):
        out = scenarios / f"s{seed}.json"
        main(["gen", "random", "--seed", str(seed), "--horizon", "40",
              "--out", str(out)])
    out_dir = tmp_path / "traces"
    assert main(["batch", str(scenarios), "--out", str(out_dir),
                 "--workers", "2"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "s1.trace.jsonl", "s2.trace.jsonl"]


def batch_folder(tmp_path):
    """Three scenario files, one of them with permanent failures."""
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    for seed, extra in ((1, ()), (2, ("--failures", "2")), (3, ())):
        assert main(["gen", "random", "--seed", str(seed), "--horizon", "120",
                     "--out", str(scenarios / f"s{seed}.json"), *extra]) == 0
    return scenarios


def batch_at(scenarios, out_dir, workers, capsys):
    """Exit code, stdout lines and stderr of ``batch`` at ``workers``."""
    capsys.readouterr()
    code = main(["batch", str(scenarios), "--out", str(out_dir), "--workers", str(workers)])
    captured = capsys.readouterr()
    assert multiprocessing.active_children() == []
    return code, captured.out.splitlines(), captured.err


def test_batch_is_the_same_on_one_or_two_workers(tmp_path, capsys):
    scenarios = batch_folder(tmp_path)
    one = batch_at(scenarios, tmp_path / "one", 1, capsys)
    two = batch_at(scenarios, tmp_path / "two", 2, capsys)
    assert one == two
    assert one[0] == 0
    assert [line.split(":")[0] for line in one[1]] == ["s1", "s2", "s3"]
    for name in ("s1", "s2", "s3"):
        trace = f"{name}.trace.jsonl"
        assert (tmp_path / "one" / trace).read_bytes() == (tmp_path / "two" / trace).read_bytes()


def unparsable(scenarios):
    (scenarios / "s2.json").write_text("{")


def unaffordable(scenarios):
    doc = json.loads((scenarios / "s2.json").read_text())
    doc["schedules"]["injections"] = [
        {"round": 1, "path": doc["schedules"]["injections"][0]["path"]} for _ in range(6)]
    (scenarios / "s2.json").write_text(json.dumps(doc))


@pytest.mark.parametrize("spoil, code, message", [
    (unparsable, 2, "parse error: line 1, column 2: Expecting property name"),
    (unaffordable, 3, "model violation: round 1: buckets cannot afford the scripted injections"),
], ids=["unparsable", "unaffordable"])
def test_batch_refusal_is_the_same_on_one_or_two_workers(tmp_path, capsys, spoil, code, message):
    scenarios = batch_folder(tmp_path)
    spoil(scenarios)
    one = batch_at(scenarios, tmp_path / "one", 1, capsys)
    two = batch_at(scenarios, tmp_path / "two", 2, capsys)
    assert one == two
    assert one[0] == code
    assert one[2].startswith(message)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_batch_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    gen(scenarios)
    with pytest.raises(SystemExit) as exit_:
        main(["batch", str(scenarios), "--out", str(tmp_path / "traces"),
              "--workers", workers])
    assert exit_.value.code == 2
    assert "--workers: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "traces").exists()


def test_batch_workers_default_fits_the_cores():
    args = build_parser().parse_args(["batch", "scenarios"])
    assert args.workers == min(4, os.cpu_count() or 1)


def test_run_policy_override(tmp_path):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir),
                 "--policy", "SIS"]) == 0


def test_check_and_reduce_print_pinned_witnesses(tmp_path, capsys):
    scenario = tmp_path / "s101.json"
    assert main(["gen", "random", "--seed", "101", "--horizon", "2000",
                 "--nodes-min", "8", "--nodes-max", "8", "--out", str(scenario)]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    trace = str(out_dir / "s101.trace.jsonl")
    capsys.readouterr()
    witnesses = {
        "admissibility": "worst queue e000 interval [922, 922] lhs=2/1 rhs=2/1",
        "regular": "worst queue e000 interval [6, 6] lhs=2/1 rhs=5/2",
        "stall-bound": "worst queue e000 interval [364, 364] lhs=1/1 rhs=2/1",
    }
    for mode in CHECK_MODES:
        assert main(["check", trace, "--mode", mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(": pass")
        assert lines[1:] == ([f"  {witnesses[mode]}"] if mode in witnesses else [])
    assert main(["reduce", trace]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "combined congestion: pass",
        "  worst queue e000 interval [922, 922] lhs=3/1 rhs=19/4"]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_check_and_reduce(tmp_path):
    # The benchmark's traced run wraps program functions by name and reads
    # their positional arguments; a rename or a changed signature must
    # fail here, not only when the benchmark runs.
    harness, tracer_module = load_perfbench("harness"), load_perfbench("tracer")
    aq = SimpleNamespace(**{m: importlib.import_module(f"aqsim.{m}")
                            for m in harness.MODULES})
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    trace = str(out_dir / "scenario.trace.jsonl")
    tracer = tracer_module.Tracer(aq)
    tracer.install()
    try:
        for mode in CHECK_MODES:
            assert main(["check", trace, "--mode", mode]) == 0
        assert main(["reduce", trace]) == 0
    finally:
        tracer.uninstall()
    calls = {name: entry[0] for name, entry in tracer.totals().items()}
    assert calls["cli.cmd_check"] == len(CHECK_MODES)
    for name in ("feedback.check_admissibility", "feedback.check_regular_admissibility",
                 "feedback.check_stall_reaction_bound",
                 "reduction.check_combined_congestion", "reduction.replay"):
        assert calls[name] >= 1, name
    assert tracer.metrics()["feedback.scan_cells"] > 0
