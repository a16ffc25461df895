import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from aqsim.analysis import injections_after_notification
from aqsim.buckets import AdversaryType
from aqsim.cli import build_parser, main
from aqsim.engine import ExecutionTrace, Injection, ScenarioConfig, run
from aqsim.errors import ScenarioError
from aqsim.netmodel import Edge, Network
from aqsim.scenario_io import (ParseError, load_scenario, load_trace, save_scenario,
                               save_trace, scenario_from_dict, trace_digest)
from test_scenario_io import SCHEDULE_EDITS, SELECTION_EDITS, one_link_run, save_edited

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
    path = out_dir / "scenario.trace.jsonl"
    trace = load_trace(path)
    cfg = trace.config
    edge = sorted(cfg.network.edges)[0]
    pids = range(900, 900 + cfg.adversary.burst + 2)
    flood = [("inject", 5, pid, (edge,), 0) for pid in pids]
    at = next(i for i, ev in enumerate(trace.events) if ev[1] > 5)
    # A file holds only the totals of a flood of extra packets, which are
    # never absorbed: they differ from the replay's, and the load says so.
    save_edited(trace, [*trace.events[:at], *flood, *trace.events[at:]], path)
    assert main(["check", str(path), "--mode", "admissibility"]) == 2
    # Sent and absorbed in the round they enter, they leave the totals as
    # they were: the file is the run's, and the check reads the run.
    flood += [(kind, 5, *args) for pid in pids
              for kind, *args in (("transmit", edge, pid), ("absorb", pid))]
    save_edited(trace, [*trace.events[:at], *flood, *trace.events[at:]], path)
    assert main(["check", str(path), "--mode", "admissibility"]) == 0
    # The same flood scripted into a scenario that does not enforce the
    # buckets runs, and only the admissibility check refuses its trace.
    flooded = tmp_path / "flooded.json"
    save_scenario(replace(cfg, enforce_buckets=False, injections=(
        *cfg.injections, *[Injection(5, (edge,))] * len(pids))), flooded)
    assert main(["run", str(flooded), "--out", str(out_dir)]) == 0
    assert main(["check", str(out_dir / "flooded.trace.jsonl"),
                 "--mode", "admissibility"]) == 1


def assert_edit_is_the_run(path, events):
    """An edit of the events of the trace saved at ``path`` that moves no
    total saves to the same file: the readers read the run."""
    saved = path.read_bytes()
    save_edited(load_trace(path), events, path)
    assert path.read_bytes() == saved


def test_trace_naming_an_unknown_packet_is_a_parse_error(tmp_path):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    main(["run", str(scenario), "--out", str(out_dir)])
    path = out_dir / "scenario.trace.jsonl"
    events = list(load_trace(path).events)
    at = next(i for i, ev in enumerate(events) if ev[0] == "absorb")
    events[at] = ("absorb", events[at][1], 123456)
    assert_edit_is_the_run(path, events)


def generated_trace(tmp_path, *extra):
    """A 200-round ``gen random --seed 3`` trace written by ``run``."""
    scenario = tmp_path / "scenario.json"
    assert main(["gen", "random", "--seed", "3", "--horizon", "200",
                 "--out", str(scenario), *extra]) == 0
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    return out_dir / "scenario.trace.jsonl"


def assert_every_reader_exits(trace, code):
    for mode in CHECK_MODES:
        assert main(["check", str(trace), "--mode", mode]) == code, mode
    assert main(["reduce", str(trace)]) == code


def test_trace_with_bytes_that_are_not_utf8_is_a_parse_error(tmp_path, capsys):
    trace = generated_trace(tmp_path)
    lines = trace.read_bytes().split(b"\n")
    lines[1] = b"\xff\xfe" + lines[1]
    trace.write_bytes(b"\n".join(lines))
    assert_every_reader_exits(trace, 2)
    assert "line 2: bytes that are not UTF-8" in capsys.readouterr().err


def test_second_totals_record_is_a_parse_error(tmp_path, capsys):
    # A copy of the totals line, edited, before the last line: the loader
    # must stop at the first totals record, not let the second replace it.
    trace = generated_trace(tmp_path, "--failures", "2")
    lines = trace.read_text().splitlines()
    totals = json.loads(lines[-1])
    lines.insert(len(lines) - 1, json.dumps({"q_totals": [9, *totals["q_totals"][1:]]},
                                            separators=(",", ":")))
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert_every_reader_exits(trace, 2)
    message = "parse error: line 3: a line after the q_totals record"
    assert capsys.readouterr().err.count(message) == len(CHECK_MODES) + 1


def totals_edited(rnd):
    """An edit of a trace's lines that adds one to the total of round ``rnd``."""
    def edit(lines):
        totals = json.loads(lines[1])["q_totals"]
        totals[rnd - 1] += 1
        lines[1] = json.dumps({"q_totals": totals}, separators=(",", ":"))
    return edit


def as_version_7(lines):
    # A version 7 file held each event on a line of its own.
    header = json.loads(lines[0])
    header["version"] = 7
    events = run(scenario_from_dict(header["scenario"])).events
    lines[:] = [json.dumps(header, sort_keys=True, separators=(",", ":")),
                *(json.dumps(ev, separators=(",", ":")) for ev in events), lines[1]]


def not_utf8_in_the_header(lines):
    lines[0] = lines[0].replace('"FTG"', '"FT\udcffG"')


# Edits of a saved 200-round trace that every reader refuses: (the edit,
# what the refusal says).
TRACE_REFUSALS = [
    pytest.param(totals_edited(120), "q_totals disagrees with the replay of its scenario "
                 "from round 120: ", id="edited-total"),
    pytest.param(lambda lines: lines.__setitem__(1, '{"q_totals":[0]}'),
                 "q_totals has 1 rounds, the horizon is 200", id="totals-too-short"),
    pytest.param(lambda lines: lines.__setitem__(1, lines[1].replace(",", ',"1",', 1)),
                 "line 2.q_totals[1]: expected int, got '1'", id="totals-hold-text"),
    pytest.param(lambda lines: lines.pop(), "trace has no q_totals record",
                 id="totals-missing"),
    pytest.param(lambda lines: lines.append("{}"), "line 3: a line after the q_totals record",
                 id="line-after-the-totals"),
    pytest.param(as_version_7, "unsupported trace format 'aqsim-trace' v7", id="version-7"),
    pytest.param(not_utf8_in_the_header, "line 1: bytes that are not UTF-8",
                 id="header-not-utf8"),
]


@pytest.mark.parametrize("edit, message", TRACE_REFUSALS)
def test_trace_file_refusals_exit_2(tmp_path, capsys, edit, message):
    trace = generated_trace(tmp_path, "--failures", "2")
    lines = trace.read_text().splitlines()
    assert len(lines) == 2
    edit(lines)
    trace.write_text("\n".join(lines) + "\n", errors="surrogateescape")
    capsys.readouterr()
    assert_every_reader_exits(trace, 2)
    assert capsys.readouterr().err.count(f"parse error: {message}") == len(CHECK_MODES) + 1


def test_trace_whose_header_the_buckets_cannot_afford_exits_3(tmp_path, capsys):
    # The header's script floods one link in round 1, as a scenario file
    # that ``run`` refuses would: the load raises what the run raises.
    trace = generated_trace(tmp_path)
    saved = load_trace(trace)
    config = saved.config
    edge = sorted(config.network.edges)[0]
    flooded = ExecutionTrace(replace(config, injections=(
        *[Injection(1, (edge,))] * (config.adversary.burst + 1), *config.injections)))
    flooded.q_totals = saved.q_totals
    save_trace(flooded, trace)
    capsys.readouterr()
    assert_every_reader_exits(trace, 3)
    err = capsys.readouterr().err
    assert err.count(f"model violation: round 1: buckets cannot afford the scripted "
                     f"injections, edge {edge!r} is short") == len(CHECK_MODES) + 1


def test_swapped_fifo_sends_load_in_the_engines_order(tmp_path):
    # Two packets queued in round 1 at one FIFO link: the link sends packet
    # 0, then packet 1. The run with the two sends swapped keeps every
    # total, so it saves to the run's own file, and every reader reads the
    # engine's order.
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(Fraction(1), 1, 1),
                         policy="FIFO", horizon=4, injections=(Injection(1, ("ab",)),) * 2,
                         enforce_buckets=False)
    path = tmp_path / "fifo.trace.jsonl"
    save_trace(run(cfg), path)
    sends = [("transmit", 1, "ab", 0), ("absorb", 1, 0),
             ("transmit", 2, "ab", 1), ("absorb", 2, 1)]
    events = list(load_trace(path).events)
    assert events[2:] == sends
    events[2:] = [("transmit", 1, "ab", 1), ("absorb", 1, 1),
                  ("transmit", 2, "ab", 0), ("absorb", 2, 0)]
    assert_edit_is_the_run(path, events)
    assert load_trace(path).events[2:] == sends
    for mode in CHECK_MODES:
        assert main(["check", str(path), "--mode", mode]) in (0, 1), mode


def test_run_horizon_before_a_promoted_failure_exits_3(tmp_path, capsys):
    # Promotion of the stall rounds 2 and 3 (tau 2) fails ab in round 4.
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    cfg = ScenarioConfig(network=net, adversary=AdversaryType(Fraction(1, 2), 2, 2),
                         policy="FTG", horizon=10, stalls={"ab": {2, 3}}, tau=2,
                         promote_after_tau=True)
    scenario = tmp_path / "promoted.json"
    save_scenario(cfg, scenario)
    out_dir = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out_dir), "--horizon", "4"]) == 0
    capsys.readouterr()
    assert main(["run", str(scenario), "--out", str(out_dir), "--horizon", "3"]) == 3
    assert capsys.readouterr().err == "model violation: failure round outside horizon\n"


# Digests of gen random runs of 2 000 rounds on 8 nodes, recorded with
# version 1 scenario files: a run from a saved scenario must not change.
# Each is the digest of the version 6 run with its group events removed.
PINNED_RUNS = [
    (101, 0, "ac6c4eeacfce69980488bd3b2244bdbec777fa320170b6fadb80aaa53546b915"),
    (102, 0, "9ebf9c82bc5c02e801abfeef8cea9d9bb9ef62cd69d201c9523e7a2efb4631da"),
    (103, 0, "e360f9e8d389c3a5248a88aedf4ecb89158204988001fde1512a02e329f4f44f"),
    (201, 2, "66b66c74a9a18fbfcd31d3ae74a04b6b7a3724b0c664b5f81cf8ccd033eee4bb"),
    (202, 2, "a23815585fe09068a23d11f457124b250c470c7de095e9965775aaf04d1ba277"),
    (203, 2, "42c5c828c5bfd4c2f13a144c244c2b1b723843550d5fa26d20d80cfb3f2b299e"),
]


@pytest.mark.parametrize("seed, failures, digest", PINNED_RUNS,
                         ids=[f"s{seed}" for seed, _f, _d in PINNED_RUNS])
def test_runs_of_saved_scenarios_are_pinned(tmp_path, capsys, seed, failures, digest):
    scenario = tmp_path / f"s{seed}.json"
    assert main(["gen", "random", "--seed", str(seed), "--horizon", "2000",
                 "--nodes-min", "8", "--nodes-max", "8", "--failures", str(failures),
                 "--out", str(scenario)]) == 0
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"trace digest {digest}"
    assert trace_digest(load_trace(out_dir / f"s{seed}.trace.jsonl")) == digest


def edit_first(kind, edit):
    """Replace the first event of ``kind`` in a run's events by ``edit(event)``."""
    def apply(events):
        at = next(i for i, ev in enumerate(events) if ev[0] == kind)
        events[at] = edit(events[at])
    return apply


def drop_first(kind):
    """Delete the first event of ``kind`` from a run's events."""
    def apply(events):
        del events[next(i for i, ev in enumerate(events) if ev[0] == kind)]
    return apply


def after_first(kind, make):
    """Insert ``make(event)`` after the first event of ``kind`` in a run's events."""
    def apply(events):
        at = next(i for i, ev in enumerate(events) if ev[0] == kind)
        events.insert(at + 1, make(events[at]))
    return apply


# Edits of the events of a run, by name. A stall creates its antitoken
# group, so the group cases edit a stall. None moves a total.
RUN_EDITS = {
    "group-edge": edit_first("stall", lambda ev: ev[:2] + ("zz",) + ev[3:]),
    "group-id": edit_first("stall", lambda ev: ev[:4] + (ev[4] + 1,)),
    "stall-group": edit_first("stall", lambda ev: ev[:4] + (None,)),
    "annihilate-unknown": edit_first("annihilate", lambda ev: ev[:2] + (10 ** 6, ev[3])),
    "annihilate-manner": edit_first("annihilate", lambda ev: ev[:3] + ("eventually",)),
    "fail-edge": edit_first("fail", lambda ev: ev[:2] + ("zz",)),
    "fail-notify-edge": edit_first("fail_notify", lambda ev: ev[:2] + ("zz", ev[3])),
    "fail-notify-round": edit_first("fail_notify", lambda ev: ev[:3] + (ev[1] + 1,)),
    "inject-priority": edit_first("inject", lambda ev: ev[:4] + ((7,),)),
    "group-packet": edit_first("stall", lambda ev: ev[:3] + (999999, ev[4])),
    "group-without-stall": drop_first("stall"),
    "reroute-failure-round-not-a-round":
        edit_first("reroute", lambda ev: ev[:6] + ((("x",),),)),
    "reroute-other-failure-round": edit_first("reroute", lambda ev: ev[:6] + (ev[6] - 1,)),
    "reroute-at-live-edge": drop_first("fail"),
    "fail-of-failed-edge": after_first("fail", lambda ev: ev),
    "recover-unscheduled": after_first("fail", lambda ev: ("recover", ev[1], ev[2])),
    "fail-unscheduled": edit_first("fail", lambda ev: ev[:2] + ("e000",)),
    "fail-notify-other-failure": edit_first("fail_notify", lambda ev: ev[:3] + (ev[3] - 1,)),
    "fail-notify-repeated": after_first("fail_notify", lambda ev: ev),
}


# The name is the v7 one, kept so that each case keeps its id (ROADMAP item
# 12). A trace stores no events, so no edit of them that moves no total
# reaches a reader: each case saves to the bytes of the run's own file.
@pytest.mark.parametrize("apply", list(RUN_EDITS.values()), ids=list(RUN_EDITS))
def test_inconsistent_feedback_or_fault_event_is_a_parse_error(tmp_path, apply):
    path = generated_trace(tmp_path, "--failures", "2")
    run_events = load_trace(path).events
    events = list(run_events)
    apply(events)
    assert events != run_events
    assert_edit_is_the_run(path, events)


@pytest.mark.parametrize("make, edit, differs_from", SCHEDULE_EDITS)
def test_trace_off_its_scenario_schedule_is_a_parse_error(tmp_path, capsys, make, edit,
                                                           differs_from):
    path = tmp_path / "t.jsonl"
    save_trace(make(), path)
    events = list(load_trace(path).events)
    edit(events)
    if differs_from is None:
        assert_edit_is_the_run(path, events)
        return
    save_edited(load_trace(path), events, path)
    capsys.readouterr()
    assert_every_reader_exits(path, 2)
    message = ("parse error: q_totals disagrees with the replay of its scenario from "
               f"round {differs_from}: ")
    assert capsys.readouterr().err.count(message) == len(CHECK_MODES) + 1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_inject_in_a_notified_window_is_refused_as_the_oracle_reports(tmp_path, seed):
    # Injections added to the script in the header of a ``gen random
    # --failures 2`` trace, on the script's paths over a failed link and on
    # that link alone, at the edges of its notified window: the load refuses
    # exactly those that injections_after_notification reports, naming the
    # first such link, as ``aqsim run`` would (exit 3).
    scenario, out_dir = tmp_path / "scenario.json", tmp_path / "out"
    assert main(["gen", "random", "--seed", str(seed), "--horizon", "200",
                 "--failures", "2", "--out", str(scenario)]) == 0
    assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    path = out_dir / "scenario.trace.jsonl"
    trace = load_trace(path)
    config = trace.config
    assert injections_after_notification(trace) == []
    refused = 0
    for edge, windows in config.schedule.edge_windows.items():
        paths = {(edge,), *(inj.path for inj in config.injections if edge in inj.path)}
        rounds = {r for first, end in windows for r in (first - 1, first, end - 1, end)}
        for rnd in sorted(r for r in rounds if 1 <= r <= config.horizon):
            for inj_path in sorted(paths):
                edited = replace(config, enforce_buckets=False,
                                 injections=(*config.injections, Injection(rnd, inj_path)))
                # No totals: a header that passes its checks is refused by them.
                save_trace(ExecutionTrace(edited), path)
                alone = ExecutionTrace(config)
                alone.events = [("inject", rnd, 0, inj_path, 0)]
                reported = injections_after_notification(alone)
                if not reported:
                    with pytest.raises(ParseError, match="^q_totals has 0 rounds"):
                        load_trace(path)
                    continue
                refused += 1
                with pytest.raises(ScenarioError, match="^" + re.escape(
                        f"round {rnd}: injection routed over {reported[0][2]!r} after its "
                        "failure notification") + "$"):
                    load_trace(path)
                assert main(["check", str(path), "--mode", "recovery"]) == 3
    assert refused


@pytest.mark.parametrize("edit", SELECTION_EDITS)
def test_second_selection_of_a_link_in_a_round_is_a_parse_error(tmp_path, edit):
    path = tmp_path / "one-link.jsonl"
    save_trace(one_link_run(), path)
    events = list(load_trace(path).events)
    edit(events)
    assert_edit_is_the_run(path, events)


# No packet re-routes at e003 after it fails in round 96, so only the
# schedule would tell that the event is missing; the file cannot hold it.
@pytest.mark.parametrize("kind", [
    pytest.param("fail", id="fail-trace has no fail of edge 'e003' in round 96"),
    pytest.param("fail_notify", id="fail_notify-trace has no fail_notify of edge 'e003' in "
                                   "round 97 of its failure in round 96"),
])
def test_trace_missing_a_scheduled_fault_event_is_a_parse_error(tmp_path, kind):
    path = generated_trace(tmp_path, "--failures", "2")
    events = list(load_trace(path).events)
    last = max(i for i, ev in enumerate(events) if ev[0] == kind)
    assert events[last][:3] == (kind, 96 if kind == "fail" else 97, "e003")
    del events[last]
    assert_edit_is_the_run(path, events)


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
    doc["schedules"]["injections"] = {"round": [1] * 6, "path": [0] * 6}
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
    ("stalls[0].rounds[0]", lambda doc: doc["schedules"]["stalls"][0]["rounds"].insert(0, "x")),
    ("injections.round[0]", lambda doc: doc["schedules"]["injections"]["round"].insert(0, "3")),
    ("run.horizon", lambda doc: doc["run"].update(horizon="50")),
    ("injections.path[0]", lambda doc: doc["schedules"]["injections"]["path"].insert(0, 0.0)),
    ("schedules.paths[0]", lambda doc: doc["schedules"]["paths"].insert(0, 5)),
], ids=["stall-round", "injection-round", "horizon", "injection-path", "path"])
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
    assert_every_reader_exits(trace, 2)
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
    doc["schedules"]["injections"] = {"round": [1] * 6, "path": [0] * 6}
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


@pytest.mark.parametrize("option", ["--window", "--k", "--g"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_run_rejects_a_non_positive_probe_parameter(tmp_path, capsys, option, value):
    scenario = gen(tmp_path)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(scenario), "--out", str(out_dir), option, value])
    assert exit_.value.code == 2
    assert f"{option}: must be at least 1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("args, code, message", [
    (["--nodes-min", "9", "--nodes-max", "5"], 2,
     "empty node range: --nodes-min 9 is above --nodes-max 5"),
    (["--tau", "0"], 3, "model violation: tau and tau_prime must be positive"),
    (["--tau-prime", "0"], 3, "model violation: tau and tau_prime must be positive"),
    (["--horizon", "-1"], 3, "model violation: horizon must be >= 0"),
    (["--r", "abc"], 2, "parse error: bad rational 'abc'"),
    (["--r", "0/0"], 2, "parse error: bad rational '0/0'"),
    (["--delta", "-1"], 3, "model violation: feedback delay must be a positive integer"),
    (["--failures", "-1"], 3, "model violation: failures must be >= 0"),
    (["--nodes-min", "2", "--nodes-max", "2", "--failures", "3"], 3,
     "model violation: 3 failures asked of a network of 2 edges"),
    (["--nodes-min", "-3", "--nodes-max", "-1"], 3,
     "model violation: node range (-3, -1) must have 1 <= min <= max"),
    (["--nodes-min", "0", "--nodes-max", "0"], 3,
     "model violation: node range (0, 0) must have 1 <= min <= max"),
], ids=["node-range", "tau", "tau-prime", "horizon", "rate", "rate-zero-denominator",
        "delta", "failures", "failures-beyond-edges", "nodes-negative", "nodes-0"])
def test_bad_gen_random_argument_exits_without_a_traceback(tmp_path, capsys, args, code,
                                                           message):
    out = tmp_path / "scenario.json"
    assert main(["gen", "random", "--out", str(out), *args]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert not out.exists()


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
