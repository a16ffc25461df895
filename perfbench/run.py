"""aqsim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload stable-10k --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it describes the run (seed slice, sample counts, host, load average).

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; every time is scaled to a nominal host speed by a reference loop
timed around it (``harness.reference_s``). With ``--trace 1`` a few
untraced passes are followed by one traced setup and pass, and the
metrics are the per-layer ones; the spans are written to
``.perfbench/spans-<workload>.bin``.

Every unit of every pass is compared with the fingerprints recorded in
``expected/``; a mismatch or an exception counts as a failed unit.
See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (MissingProgram, canonical, import_program,  # noqa: E402
                     mismatches, reference_s, run_pass, to_nominal)
from tracer import RECORD, Tracer  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

SETUP_BURST_S = 0.3  # set-up is repeated for at least this long between passes
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items above it


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "aqsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_speed_probe():
    """Fastest of five ``reference_s()`` timings, in ms.

    The load average misses the slowdowns of a shared host; this probe,
    taken at the start and the end of a run, shows them.
    """
    return min(reference_s() for _ in range(5)) * 1e3


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def set_up(workload, seed, workdir, times):
    """Import the program afresh and build the inputs.

    Appends the time taken, scaled as ``PassResult.scaled`` scales a unit's.
    """
    ref_before = reference_s()
    t0 = time.perf_counter()
    aq = import_program(ROOT / "src")
    state = workload.setup(aq, seed, workdir)
    dt = time.perf_counter() - t0
    times.append(to_nominal(dt, (ref_before + reference_s()) / 2))
    return aq, state


def measure(workload, seed, workdir, deadline, min_passes, encode):
    """Set-ups and untraced passes until the next pass and set-up would end after ``deadline``.

    Set-up is repeated before the first pass and after every pass, at least
    once and for at least ``SETUP_BURST_S`` each time, so that its
    repetitions, like each unit's, are spread over the whole run. Each pass
    uses the latest set-up. The time left after the last whole pass goes to
    a partial pass, which gives the units it reaches one more sample. With
    ``encode`` the first pass also measures the size of its traces.
    """
    setup_times, passes, clock = [], [], []
    while True:
        burst_start = time.perf_counter()
        while True:
            aq = state = None  # release the previous inputs before building again
            aq, state = set_up(workload, seed, workdir, setup_times)
            if time.perf_counter() - burst_start >= SETUP_BURST_S:
                break
        # A further pass is followed by a further set-up burst.
        burst = time.perf_counter() - burst_start
        if (len(passes) >= min_passes
                and time.perf_counter() + statistics.median(clock) + burst > deadline):
            estimates = {key: statistics.median(p.times[key] for p in passes)
                         for key in passes[0].times}
            partial = run_pass(workload, aq, state, workdir,
                               until=deadline, estimates=estimates)
            if partial.times:
                passes.append(partial)
            return aq, state, setup_times, passes
        t0 = time.perf_counter()
        passes.append(run_pass(workload, aq, state, workdir,
                               encode=encode and not passes))
        clock.append(time.perf_counter() - t0 - passes[-1].encode_s)


def end_to_end(workload, passes, state, setup_times):
    """The end-to-end metrics of a run's untraced passes.

    Each unit's time is scaled by the reference task timed around it,
    which removes most of the host's drift in speed, and then the median
    over the run's passes; the pass time is the sum of those, and item
    percentiles are taken over them.
    """
    def per_unit(time_of):
        return {key: statistics.median(time_of(p, key) for p in passes if key in p.times)
                for key in passes[0].times}

    unit_s = per_unit(lambda p, key: p.scaled(key))
    items = [unit_s[key] for key in passes[0].item_keys]
    # Every workload has at least 2 * TAIL_BEYOND items, so this is p50 or above.
    tail_pct = math.floor(100 * (1 - TAIL_BEYOND / len(items)))
    wall = sum(unit_s.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "sim_rounds_per_s": workload.rounds(state) / wall,
        "item_p50_ms": statistics.median(items) * 1e3,
        "item_tail_ms": percentile(items, tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace_bytes": passes[0].trace_bytes,
    }
    info = {"passes": sum(not p.partial for p in passes),
            "partial_pass_units": sum(len(p.times) for p in passes if p.partial),
            "items": len(items), "item_tail_pct": tail_pct,
            "setup_reps": len(setup_times),
            "unscaled_wall_s": sum(per_unit(lambda p, key: p.times[key]).values()),
            "pass_wall_s": [round(p.wall, 4) for p in passes]}
    return metrics, info


def per_layer(workload, aq, seed, workdir, passes, expected):
    """One traced set-up and pass; returns metrics, failed keys and run info."""
    tracer = Tracer(aq)
    tracer.install()
    try:
        tracer.item = -2  # set-up spans
        state = workload.setup(aq, seed, workdir)
        traced = run_pass(workload, aq, state, workdir, tracer=tracer)
    finally:
        tracer.uninstall()
    failed = mismatches(traced.fingerprints, expected)
    differs = [k for k, fp in traced.fingerprints.items()
               if canonical(fp) != canonical(passes[0].fingerprints.get(k))]
    untraced_wall = statistics.median(p.scaled_wall for p in passes if not p.partial)
    metrics = tracer.metrics()
    t = os.times()
    metrics["host.cpu_s"] = t.user + t.system + t.children_user + t.children_system
    metrics["trace.overhead_frac"] = traced.scaled_wall / untraced_wall - 1
    spans = ROOT / ".perfbench" / f"spans-{workload.name}.bin"
    tracer.dump(spans, list(traced.fingerprints))
    info = {"traced_wall_s": traced.scaled_wall, "untraced_wall_s": untraced_wall,
            "traced_differs_from_untraced": differs,
            "spans": len(tracer.spans) // RECORD.size, "spans_file": str(spans.relative_to(ROOT))}
    return metrics, failed, len(traced.fingerprints), info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    units_path = HERE / "expected" / f"{workload.name}.json"
    try:
        expected = json.loads(units_path.read_text())
    except FileNotFoundError:
        print(f"missing expected fingerprints {units_path}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    load_start, probe_start = os.getloadavg(), host_speed_probe()
    started = time.perf_counter()
    try:
        # Set-up repetitions count against --seconds; a traced run leaves
        # half of it for the traced set-up and pass.
        deadline = started + (args.seconds / 2 if args.trace else args.seconds)
        aq, state, setup_times, passes = measure(
            workload, args.seed, workdir, deadline,
            min_passes=2 if args.trace else workload.min_passes, encode=not args.trace)
        failed = [k for p in passes for k in mismatches(p.fingerprints, expected)]
        attempted = sum(len(p.fingerprints) for p in passes)
        if args.trace:
            metrics, traced_failed, traced_units, info = per_layer(
                workload, aq, args.seed, workdir, passes, expected)
            failed += traced_failed
            attempted += traced_units
            correct = not failed and not info["traced_differs_from_untraced"]
        else:
            metrics, info = end_to_end(workload, passes, state, setup_times)
            correct = not failed
            metrics["ok_frac"] = (attempted - len(failed)) / attempted
    except MissingProgram as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    src = ROOT / "src"
    meta = {
        "workload": workload.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(src),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "host_probe_ms_start": probe_start, "host_probe_ms_end": host_speed_probe(),
        "failed_units": sorted(set(failed))[:20], **info,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"metrics {sorted(set(units) ^ set(metrics))} are not both measured "
              "and declared in BENCHMARK.json", file=sys.stderr)
        return 2
    print(json.dumps({"run": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
