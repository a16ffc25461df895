"""The benchmark workloads: inputs from a seed, one pass, fingerprints.

A workload maps the benchmark seed onto one of ``windows`` slices of a
fixed input pool (``slice_of``), builds the inputs of that slice in
``setup`` and lists the timed units of one pass in ``units``. Units marked
``is_item`` are the items whose latency is reported; every unit, item or
not, is timed into the pass and fingerprinted.

Fingerprints read only what the program computes (queue totals, packet
records, verdicts, command output), never the trace encoding, so a new
trace format does not require re-recording them. Digests appear only as
an equality between two runs of the same scenario.

The program is reached through ``aq``, a namespace holding the imported
``aqsim`` modules. Every call looks its function up on the module at call
time, so the tracer's wrappers are seen by the workloads as well as by
the program's own callers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
from fractions import Fraction

BURSTS = (1, 2, 4)
DELAYS = (1, 2, 4)
STABLE_POLICIES = ("FTG", "NFS", "SIS")
CHECK_MODES = ("admissibility", "regular", "stall-bound", "recovery")

# The last slice of every pool is reached only through this seed, so a
# claim tuned on other seeds can be checked on inputs it has not seen.
HELD_OUT_SEED = 1009


def slice_of(seed: int, windows: int) -> int:
    """The pool slice a benchmark seed selects."""
    return windows - 1 if seed == HELD_OUT_SEED else seed % (windows - 1)


def slice_seeds(windows: int) -> list[int]:
    """One seed per slice, in slice order."""
    return list(range(windows - 1)) + [HELD_OUT_SEED]


def run_summary(trace):
    """Queue totals and packet counts of one execution."""
    packets = trace.packets.values()
    return {
        "q_peak": max(trace.q_totals, default=0),
        "q_sum": sum(trace.q_totals),
        "injected": len(trace.packets),
        "absorbed": sum(1 for rec in packets if rec.absorbed_round is not None),
        "stalled": len(trace.events_of("stall")),
        "rerouted": sum(1 for rec in packets if rec.rerouted),
    }


def probe_fp(report):
    return [report.verdict, report.overall_max, list(report.witness)]


@dataclasses.dataclass
class Unit:
    """One timed call of a pass, keyed into the expected fingerprints."""

    key: str
    call: object  # () -> program output; the only timed part
    fingerprint: object  # output -> JSON-able value
    traces: object = lambda out: ()  # output -> traces the pass produced
    is_item: bool = True


# -- stable-10k ----------------------------------------------------------------


class Stable10k:
    """The criterion-6 sweep: generator co-run, probe, replay, equal digests."""

    name = "stable-10k"
    pool_base = 9001  # base seeds 9001..9297, from the acceptance sweep's 9001..9300
    window = 9  # base seeds per pass: three periods of the rate cycle
    windows = 33
    # A pass takes 8 to 14 s, and the first also saves 27 traces; a third
    # pass would take a slow host's run well past --seconds.
    min_passes = 2
    host_sensitivity = 1.0  # see NOTES.md, "Host scaling"

    def setup(self, aq, seed, workdir):
        start = self.pool_base + slice_of(seed, self.windows) * self.window
        return [(base, policy) for base in range(start, start + self.window)
                for policy in STABLE_POLICIES]

    def rounds(self, state):
        # Co-run plus replay, each over the horizon and the drain rounds.
        return sum(2 * (10_000 + DELAYS[(base - self.pool_base) % 3])
                   for base, _policy in state)

    def units(self, aq, state, workdir):
        return [self.unit(aq, base, policy) for base, policy in state]

    def unit(self, aq, base, policy):
        i = base - self.pool_base

        def call():
            cfg, co_trace = aq.analysis.gen_random_scenario(
                base,
                rate=(Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))[i % 3],
                burst=BURSTS[i % 3],
                delay=DELAYS[i % 3],
                tau=(i % 2) + 1,
                policy=policy,
                horizon=10_000,
                stall_density=0.02,
                inject_prob=0.25,
                with_trace=True,
            )
            report = aq.analysis.probe_stability(co_trace, window=500, k=4, g=2)
            replay = aq.engine.run(cfg)
            digests_equal = replay.digest() == co_trace.digest()
            return co_trace, report, replay, digests_equal

        def fingerprint(out):
            co_trace, report, replay, digests_equal = out
            return {"digests_equal": digests_equal,
                    "co_run": run_summary(co_trace),
                    "replay": run_summary(replay),
                    "probe": probe_fp(report)}

        return Unit(f"{base}-{policy}", call, fingerprint,
                    traces=lambda out: (out[2],))


# -- gadget-hub -----------------------------------------------------------------


class GadgetHub:
    """The re-routing gadget at three sizes, each under every policy."""

    name = "gadget-hub"
    # (branches, cycles) of the gadgets: the hub queue peaks at about 700,
    # 1 100 and 1 300 packets, and each gadget costs about the same.
    shapes = ((2, 90), (3, 62), (4, 48))
    # Every seed but the held-out one gives the same gadgets. A gadget has
    # no randomness to draw, and lengthening one by a cycle or two per
    # slice added no behaviour but moved a pass's cost by up to 7 % (time
    # grows with the square of the length, as the hub queue does).
    windows = 2
    min_passes = 5
    # A run slows 1.25 times as steeply as the reference loop (the slope of
    # log time on log reference time was about 1.25 over interleaved passes
    # and 1.26 over 20 runs), so scaling it as the loop slows left a slow host's
    # runs about 11 % above a fast host's. See NOTES.md, "Host scaling".
    host_sensitivity = 1.25

    def gadget_args(self, seed):
        """Keyword arguments of the slice's ``rerouting_gadget`` calls."""
        if slice_of(seed, self.windows) == self.windows - 1:
            # The held-out slice changes the gadget's structure, not only its
            # length: larger bursts and failures give 14-round cycles, not
            # 12, and 7/8 of the cycles keep its cost near the others'.
            return [dict(branches=b, burst=12, fail_duration=12, cycles=round(c * 7 / 8))
                    for b, c in self.shapes]
        return [dict(branches=b, burst=10, fail_duration=10, cycles=c)
                for b, c in self.shapes]

    def setup(self, aq, seed, workdir):
        state = []
        for kwargs in self.gadget_args(seed):
            gadget = aq.analysis.rerouting_gadget(**kwargs)
            state += [(gadget, dataclasses.replace(gadget.config, policy=policy))
                      for policy in aq.policies.POLICY_NAMES]
        return state

    def rounds(self, state):
        return sum(cfg.horizon + cfg.adversary.delay for _g, cfg in state)

    def units(self, aq, state, workdir):
        return [self.unit(aq, gadget, cfg) for gadget, cfg in state]

    def unit(self, aq, gadget, cfg):
        def call():
            trace = aq.engine.run(cfg)
            report = aq.analysis.probe_stability(trace)
            series = trace.queue_series(gadget.bottleneck_edge)
            ends = [series[r - 1] for r in gadget.cycle_end_rounds()]
            return trace, report, ends

        def fingerprint(out):
            trace, report, ends = out
            return {"run": run_summary(trace), "probe": probe_fp(report),
                    "hub_cycle_ends": ends}

        key = f"{gadget.branches}br-{gadget.burst}b-{gadget.cycles}c-{cfg.policy}"
        return Unit(key, call, fingerprint,
                    traces=lambda out: (out[0],))


# -- cli-trace ------------------------------------------------------------------


def cli_call(aq, argv):
    """Run one terminal command in-process; returns (exit code, output lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = aq.cli.main([str(a) for a in argv])
    return [code, buf.getvalue().splitlines()]


_BATCH_LINE = re.compile(r"^(\S+): max queued (\d+), digest [0-9a-f]+$")
_RUN_LINE = re.compile(
    r"^ran (\d+) rounds, \d+ events, max queued (\d+), verdict (\S+)$")


def batch_fp(out):
    """Exit code and peak queue per scenario; the digests are encoding-bound."""
    code, lines = out
    return [code, [list(m.groups()) if (m := _BATCH_LINE.match(line)) else line
                   for line in lines]]


def run_fp(out):
    """Exit code, rounds, peak queue and probe verdict; not the event count."""
    code, lines = out
    return [code, [list(m.groups()) if (m := _RUN_LINE.match(line)) else line
                   for line in lines if not line.startswith("trace digest ")]]


class CliTrace:
    """The terminal pipeline on scenario files: batch, run, check, reduce."""

    name = "cli-trace"
    windows = 10
    min_passes = 3
    # Six 2 000-round scenarios instead of two of the generator's usual
    # 10 000 rounds: a pass still takes about 5 s, so a run repeats each
    # unit about seven times, and a pass has 27 items, enough for a tail
    # percentile with ten items beyond it.
    horizon = 2_000
    per_kind = 3  # failure-free scenarios per slice, and as many with failures
    # A fixed node count keeps the slices' trace sizes close: over ten
    # slices their quartile distance is about 5 % of the median. With the
    # default 4..12 nodes (and two 10 000-round scenarios per slice) it
    # was about 12 %.
    nodes = 8
    workers = 2  # the machine's core count; the command's default is 4
    host_sensitivity = 1.0

    def scenarios(self, seed):
        """Failure-free scenarios, and as many with two permanent failures."""
        first = slice_of(seed, self.windows) * self.per_kind
        return ([(101 + first + j, 0) for j in range(self.per_kind)]
                + [(201 + first + j, 2) for j in range(self.per_kind)])

    def setup(self, aq, seed, workdir):
        folder = workdir / "scenarios"
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        state = []
        for s, failures in self.scenarios(seed):
            path = folder / f"s{s}.json"
            argv = ["gen", "random", "--seed", s, "--horizon", self.horizon,
                    "--nodes-min", self.nodes, "--nodes-max", self.nodes,
                    "--out", path]
            if failures:
                argv += ["--failures", failures]
            code, _lines = cli_call(aq, argv)
            if code != 0:
                raise RuntimeError(f"aqsim gen exited with {code}")
            state.append((s, failures, path))
        return state

    def rounds(self, state):
        rounds = 0
        for i, (_s, failures, path) in enumerate(state):
            doc = json.loads(path.read_text())
            per_run = doc["run"]["horizon"] + doc["adversary"]["delta"]
            # batch runs every scenario; run repeats the first; reduce
            # replays the failure-free ones.
            rounds += per_run * (1 + (i == 0) + (failures == 0))
        return rounds

    def before_pass(self, workdir):
        shutil.rmtree(workdir / "pass", ignore_errors=True)

    def units(self, aq, state, workdir):
        out = workdir / "pass"
        folder = state[0][2].parent
        stems = "+".join(f"s{s}" for s, _f, _p in state)
        units = [
            Unit(f"batch:{stems}", lambda: cli_call(
                aq, ["batch", folder, "--out", out / "traces",
                     "--workers", self.workers]), batch_fp, is_item=False),
            Unit(f"s{state[0][0]}.run", lambda: cli_call(
                aq, ["run", state[0][2], "--out", out / "run"]), run_fp,
                is_item=False),
        ]
        for s, failures, _path in state:
            trace = out / "traces" / f"s{s}.trace.jsonl"
            for mode in CHECK_MODES:
                units.append(Unit(f"s{s}.{mode}", lambda t=trace, m=mode: cli_call(
                    aq, ["check", t, "--mode", m]), list))
            if failures == 0:
                # reduce drops permanent failures from its replay, so only
                # failure-free traces are reduced (see NOTES.md).
                units.append(Unit(f"s{s}.reduce", lambda t=trace: cli_call(
                    aq, ["reduce", t]), list))
        return units

    def written_bytes(self, workdir):
        return sum(p.stat().st_size for p in (workdir / "pass").rglob("*.trace.jsonl"))


WORKLOADS = {w.name: w for w in (Stable10k(), GadgetHub(), CliTrace())}
