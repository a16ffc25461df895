"""Record the expected fingerprints of every input slice of a workload.

    python3 perfbench/record.py stable-10k gadget-hub cli-trace

Runs one untimed pass per slice of the input pool and writes
``perfbench/expected/<workload>.json``. Re-record only when the program's
results are meant to change; the benchmark treats any difference from
these values as a failed item.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import import_program, run_pass  # noqa: E402
from workloads import WORKLOADS, slice_seeds  # noqa: E402


def record(name: str) -> int:
    workload = WORKLOADS[name]
    aq = import_program(HERE.parent / "src")
    workdir = HERE.parent / ".perfbench" / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for seed in slice_seeds(workload.windows):
            state = workload.setup(aq, seed, workdir)
            result = run_pass(workload, aq, state, workdir)
            errors = {k: v for k, v in result.fingerprints.items()
                      if isinstance(v, str) and v.startswith("error:")}
            if errors:
                for key, err in errors.items():
                    print(f"{name} {key}: {err}", file=sys.stderr)
                return 1
            clash = set(expected) & set(result.fingerprints)
            if clash:
                print(f"{name}: slices share keys {sorted(clash)[:3]}", file=sys.stderr)
                return 1
            expected.update(result.fingerprints)
            print(f"{name} seed {seed}: {len(result.fingerprints)} units", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = HERE / "expected" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        keys = sorted(expected)
        for i, key in enumerate(keys):
            sep = "," if i + 1 < len(keys) else ""
            fh.write(f"{json.dumps(key)}: {json.dumps(expected[key], sort_keys=True)}{sep}\n")
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload(s): {', '.join(unknown)}")
    sys.exit(max(record(n) for n in names))
