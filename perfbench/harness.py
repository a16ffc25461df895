"""Shared plumbing: import the program from source, run and check one pass."""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

MODULES = ("engine", "buckets", "policies", "netmodel", "analysis", "feedback",
           "reduction", "scenario_io", "cli")

# The reference task's time on the host the benchmark was sized on, in
# one of its fast stretches. Reported times are scaled to a host this fast.
REFERENCE_NOMINAL_S = 0.003


def reference_s():
    """Seconds a fixed pure-Python integer loop, independent of aqsim, takes now.

    On a shared host the interpreter's speed moves by up to 2x within a
    minute, and this loop's time moves with it. Timed next to a unit, it
    gives the host's speed while the unit ran; the unit's time divided by
    it changes far less with the host than the time itself.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def to_nominal(seconds, reference, sensitivity=1.0):
    """``seconds`` taken while ``reference_s()`` read ``reference``, on the nominal host.

    ``sensitivity`` is how steeply the timed work slows as the reference
    loop slows: the slope of log time on log reference time.
    """
    return seconds * (REFERENCE_NOMINAL_S / reference) ** sensitivity


class MissingProgram(Exception):
    """The checkout holds no aqsim sources to benchmark."""


def import_program(src: Path) -> SimpleNamespace:
    """Import aqsim afresh from ``src``, dropping any earlier import."""
    if not (src / "aqsim" / "__init__.py").is_file():
        raise MissingProgram(f"no aqsim package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "aqsim" or n.startswith("aqsim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("aqsim")
    if Path(pkg.__file__).resolve().parent != (src / "aqsim").resolve():
        raise MissingProgram(f"aqsim imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"aqsim.{m}") for m in MODULES})


class PassResult:
    """Timings and fingerprints of one pass over a workload's units."""

    def __init__(self, sensitivity):
        self.sensitivity = sensitivity  # the workload's host_sensitivity
        self.times = {}  # key -> seconds of the unit's call
        self.reference = {}  # key -> mean reference_s() just before and after the call
        self.item_keys = []  # the units that are items
        self.fingerprints = {}  # key -> fingerprint, or an error string
        self.trace_bytes = 0
        self.encode_s = 0.0  # time spent measuring trace_bytes, outside every timer
        self.partial = False  # stopped before its last unit (``run_pass``'s ``until``)

    @property
    def wall(self):
        return sum(self.times.values())

    def scaled(self, key):
        """The unit's time on a host where ``reference_s()`` is ``REFERENCE_NOMINAL_S``."""
        return to_nominal(self.times[key], self.reference[key], self.sensitivity)

    @property
    def scaled_wall(self):
        return sum(self.scaled(key) for key in self.times)


def run_pass(workload, aq, state, workdir, *, encode=False, tracer=None,
             until=None, estimates=None):
    """Time every unit of one pass; optionally measure its traces' size.

    With ``encode`` the traces each unit produced are saved through the
    program's own ``save_trace`` after the unit's timer has stopped, and
    their sizes summed; workloads that write trace files report those.
    With ``until`` the pass stops before the first unit that, taking the
    time ``estimates`` gives for its key, would end after that moment.
    """
    result = PassResult(workload.host_sensitivity)
    if hasattr(workload, "before_pass"):
        workload.before_pass(workdir)
    encoded = workdir / "encoded.trace.jsonl"
    ref_before = reference_s()
    for index, unit in enumerate(workload.units(aq, state, workdir)):
        if until is not None and time.perf_counter() + estimates[unit.key] > until:
            result.partial = True
            break
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        try:
            out = unit.call()
        except Exception:  # a failing unit is counted, and the pass goes on
            dt = time.perf_counter() - t0
            ref_after = reference_s()
            result.fingerprints[unit.key] = "error: " + traceback.format_exc(limit=3)
        else:
            dt = time.perf_counter() - t0
            ref_after = reference_s()
            result.fingerprints[unit.key] = unit.fingerprint(out)
            if encode:
                t1 = time.perf_counter()
                for trace in unit.traces(out):
                    aq.scenario_io.save_trace(trace, encoded)
                    result.trace_bytes += encoded.stat().st_size
                result.encode_s += time.perf_counter() - t1
            del out
        result.times[unit.key] = dt
        result.reference[unit.key] = (ref_before + ref_after) / 2
        ref_before = ref_after
        if unit.is_item:
            result.item_keys.append(unit.key)
    if tracer is not None:
        tracer.item = -1
    if encode and hasattr(workload, "written_bytes"):
        result.trace_bytes = workload.written_bytes(workdir)
    encoded.unlink(missing_ok=True)
    return result


def mismatches(fingerprints, expected):
    """Keys whose fingerprint differs from the recorded one, or is missing."""
    bad = []
    for key, fp in fingerprints.items():
        want = expected.get(key)
        if want is None or canonical(fp) != canonical(want):
            bad.append(key)
    return bad


def canonical(value):
    return json.dumps(value, sort_keys=True)
