import importlib
import importlib.util
import json
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
    flood = [json.dumps({"event": ["inject", 5, 900 + i, [edge], 0]})
             for i in range(cfg.adversary.burst + 2)]
    trace.write_text("\n".join(lines[:1] + flood + lines[1:]) + "\n")
    assert main(["check", str(trace), "--mode", "admissibility"]) == 1


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
