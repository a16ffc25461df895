"""Span tracer wrapped around the program's public functions, per module.

Each traced function is replaced, wherever its callers look it up, by a
wrapper that records one span: name, start, end, parent span and the item
being run. Parents come from a stack kept per thread, because ``aqsim
batch`` runs scenarios on worker threads; a span opened on a worker thread
is a root there. Spans are packed into one bytearray while the pass runs
and written out by ``dump``.

Nested spans of one thread never overlap, so a span's self time, its
duration minus the time its child spans cover, is its duration minus the
sum of its children's durations.

Besides spans, some wrappers derive exact counts from a call's arguments
or result (events by kind, candidates per selection, distinct shortest
path queries, scanned cells, bytes written). These run after the span's
end time is taken, so they add to the traced pass but not to any span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import struct
import threading
import time
from array import array
from collections import Counter

RECORD = struct.Struct("<IiHhHdd")  # span, parent, name, item, thread, start, end

EVENT_KINDS = ("tick", "select", "stall", "group", "annihilate", "fail_notify",
               "inject", "transmit", "absorb", "reroute", "recover")


class Tracer:
    """Installs span wrappers on the modules in ``aq`` and restores them."""

    def __init__(self, aq):
        self.aq = aq
        self.names: list[str] = []
        self.spans = bytearray()
        self.item = -1  # set by the pass runner; -1 outside items
        self.counts: Counter = Counter()
        self._sp_queries: set = set()
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def targets(self):
        """(span name, [(owner, attribute)], hook) for every traced function.

        Owners list each place a caller looks the function up: the defining
        module or class, plus modules that imported the name directly.
        """
        aq = self.aq
        eng, bk, an = aq.engine.Engine, aq.buckets.BucketSystem, aq.analysis
        fb, red, io, cli = aq.feedback, aq.reduction, aq.scenario_io, aq.cli
        return [
            ("engine.Engine.__init__", [(eng, "__init__")], None),
            ("engine.Engine.step", [(eng, "step")], None),
            ("engine.Engine.run", [(eng, "run")], self._on_run),
            ("engine.validate_recovery",
             [(aq.engine, "validate_recovery"), (cli, "validate_recovery")], None),
            ("buckets.BucketSystem.tick", [(bk, "tick")], None),
            ("buckets.BucketSystem.inject", [(bk, "inject")], self._on_inject),
            ("buckets.BucketSystem.register_stall", [(bk, "register_stall")], None),
            ("buckets.BucketSystem.tick_antitokens", [(bk, "tick_antitokens")], None),
            ("buckets.BucketSystem.level", [(bk, "level")], None),
            ("policies.select_packet",
             [(aq.policies, "select_packet"), (aq.engine, "select_packet")],
             self._on_select),
            ("netmodel.shortest_path_avoiding",
             [(aq.netmodel, "shortest_path_avoiding"),
              (aq.engine, "shortest_path_avoiding")], self._on_shortest_path),
            ("analysis.gen_random_scenario", [(an, "gen_random_scenario")], None),
            ("analysis.GreedyDriver.__call__", [(an.GreedyDriver, "__call__")], None),
            ("analysis.probe_stability", [(an, "probe_stability")], None),
            ("analysis.rerouting_gadget", [(an, "rerouting_gadget")], None),
            ("feedback.derive_injection_trace", [(fb, "derive_injection_trace")], None),
            ("feedback.derive_stall_trace", [(fb, "derive_stall_trace")], None),
            ("feedback.reactive_for_trace", [(fb, "reactive_for_trace")], None),
            ("feedback.check_admissibility", [(fb, "check_admissibility")],
             self._on_admissibility),
            ("feedback.check_regular_admissibility",
             [(fb, "check_regular_admissibility")], None),
            ("feedback.check_stall_reaction_bound",
             [(fb, "check_stall_reaction_bound")], self._on_stall_bound),
            ("reduction.verify_reduction", [(red, "verify_reduction")], None),
            ("reduction.build_two_priority_trace",
             [(red, "build_two_priority_trace")], self._on_two_priority),
            ("reduction.check_combined_congestion",
             [(red, "check_combined_congestion")], None),
            ("scenario_io.save_trace", [(io, "save_trace")], self._on_save_trace),
            ("scenario_io.load_trace", [(io, "load_trace")], None),
            ("scenario_io.scenario_hash", [(io, "scenario_hash")], None),
            ("scenario_io.trace_digest", [(io, "trace_digest")], None),
            ("scenario_io.save_scenario", [(io, "save_scenario")], None),
            ("scenario_io.load_scenario", [(io, "load_scenario")], None),
            ("scenario_io.write_metrics_csv", [(io, "write_metrics_csv")], None),
            ("cli.cmd_batch", [(cli, "cmd_batch")], self._on_batch),
            ("cli.cmd_run", [(cli, "cmd_run")], None),
            ("cli.cmd_check", [(cli, "cmd_check")], None),
            ("cli.cmd_reduce", [(cli, "cmd_reduce")], None),
        ]

    def install(self):
        for name, owners, hook in self.targets():
            original = getattr(*owners[0])
            wrapper = self._wrap(name, original, hook)
            for owner, attr in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner!r}.{attr} is not the function {name}")
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        local, ids, spans, perf = self._local, self._ids, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = next(self._threads)
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.extend(RECORD.pack(sid, parent, nid, self.item, local.thread,
                                         start, end))
            if hook is not None:
                with self._lock:
                    hook(args, kwargs, result)
            return result

        return wrapper

    # -- exact counts from arguments and results ---------------------------------

    def _on_run(self, args, kwargs, trace):
        engine = args[0]
        horizon = trace.horizon
        self.counts["engine.rounds"] += horizon + engine.config.adversary.delay
        self.counts["engine.horizon_rounds"] += horizon
        busy = set()
        kinds = Counter()
        for ev in trace.events:
            kinds[ev[0]] += 1
            if ev[0] != "tick" and ev[1] <= horizon:
                busy.add(ev[1])
            if ev[0] == "annihilate":
                self.counts[f"buckets.annihilate.{ev[3]}"] += 1
        self.counts["engine.empty_rounds"] += horizon - len(busy)
        self.counts["engine.events"] += len(trace.events)
        for kind, n in kinds.items():
            self.counts[f"engine.events.{kind}"] += n

    def _on_inject(self, args, kwargs, result):
        self.counts["buckets.inject.refused"] += not result

    def _on_select(self, args, kwargs, packet):
        self.counts["policies.candidates"] += len(args[1])

    def _on_shortest_path(self, args, kwargs, path):
        net, src, dst, avoid = args
        self._sp_queries.add((tuple(net.edges), src, dst, frozenset(avoid)))

    def _scan(self, per_queue_rounds, marks, horizon):
        for queue, rounds in per_queue_rounds.items():
            self.counts["feedback.scan_cells"] += horizon + 1
            busy = {t for t in rounds if t <= horizon}
            busy.update(t for t in marks.get(queue, ()) if t <= horizon)
            self.counts["feedback.scan_nonzero"] += len(busy)

    def _on_admissibility(self, args, kwargs, result):
        inj, reactive, _rate, _burst, horizon = args[:5]
        self._scan({q: [t for t, c in per.items() if c] for q, per in inj.counts.items()},
                   reactive.marks, horizon)

    def _on_stall_bound(self, args, kwargs, result):
        stalls, reactive, _delay, horizon = args[:4]
        self._scan(stalls.rounds, reactive.marks, horizon)

    def _on_two_priority(self, args, kwargs, two):
        self.counts["reduction.high_packets"] += len(two.high)

    def _on_save_trace(self, args, kwargs, result):
        trace, path = args[:2]
        self.counts["scenario_io.saved_bytes"] += os.path.getsize(path)
        self.counts["scenario_io.saved_rounds"] += trace.horizon

    def _on_batch(self, args, kwargs, result):
        self.counts["cli.batch.workers"] = max(self.counts["cli.batch.workers"],
                                               args[0].workers)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds and self seconds.

        Also ``reduction.replay``: the Engine.run spans whose parent is a
        verify_reduction span.
        """
        count = len(self.spans) // RECORD.size
        name_of = array("H", [0]) * count
        dur = array("d", [0.0]) * count
        child = array("d", [0.0]) * count
        parents = array("q", [-1]) * count
        for sid, parent, nid, _item, _thread, start, end in RECORD.iter_unpack(self.spans):
            name_of[sid] = nid
            dur[sid] = end - start
            parents[sid] = parent
            if parent >= 0:
                child[parent] += end - start
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        stats["reduction.replay"] = [0, 0.0, 0.0]
        run_id = self.names.index("engine.Engine.run")
        verify_id = self.names.index("reduction.verify_reduction")
        for sid in range(count):
            entry = stats[self.names[name_of[sid]]]
            entry[0] += 1
            entry[1] += dur[sid]
            entry[2] += dur[sid] - child[sid]
            parent = parents[sid]
            if name_of[sid] == run_id and parent >= 0 and name_of[parent] == verify_id:
                replay = stats["reduction.replay"]
                replay[0] += 1
                replay[1] += dur[sid]
        return stats

    def metrics(self):
        """The per-layer metrics named in BENCHMARK.json, as name -> value."""
        stats = self.totals()
        c = self.counts

        def calls(name):
            return stats[name][0]

        def total(name):
            return stats[name][1]

        def own(name):
            return stats[name][2]

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "engine.Engine.step.calls": calls("engine.Engine.step"),
            "engine.Engine.step.self_s": own("engine.Engine.step"),
            "engine.Engine.__init__.s": total("engine.Engine.__init__"),
            "engine.Engine.run.s": total("engine.Engine.run"),
            "engine.rounds": c["engine.rounds"],
            "engine.empty_round_frac": ratio(c["engine.empty_rounds"],
                                             c["engine.horizon_rounds"]),
            "engine.events_per_round": ratio(c["engine.events"], c["engine.rounds"]),
        }
        for kind in EVENT_KINDS:
            m[f"engine.events.{kind}"] = c[f"engine.events.{kind}"]
        m["engine.validate_recovery.s"] = total("engine.validate_recovery")
        m.update({
            "buckets.BucketSystem.tick.s": total("buckets.BucketSystem.tick"),
            "buckets.BucketSystem.inject.calls": calls("buckets.BucketSystem.inject"),
            "buckets.BucketSystem.inject.s": total("buckets.BucketSystem.inject"),
            "buckets.BucketSystem.inject.refused_frac": ratio(
                c["buckets.inject.refused"], calls("buckets.BucketSystem.inject")),
            "buckets.BucketSystem.register_stall.calls":
                calls("buckets.BucketSystem.register_stall"),
            "buckets.BucketSystem.tick_antitokens.s":
                total("buckets.BucketSystem.tick_antitokens"),
            "buckets.BucketSystem.level.calls": calls("buckets.BucketSystem.level"),
            "buckets.BucketSystem.level.s": total("buckets.BucketSystem.level"),
            "buckets.annihilate.forced": c["buckets.annihilate.forced"],
            "buckets.annihilate.voluntary": c["buckets.annihilate.voluntary"],
            "policies.select_packet.calls": calls("policies.select_packet"),
            "policies.select_packet.s": total("policies.select_packet"),
            "policies.candidates_per_select": ratio(
                c["policies.candidates"], calls("policies.select_packet")),
            "netmodel.shortest_path_avoiding.calls":
                calls("netmodel.shortest_path_avoiding"),
            "netmodel.shortest_path_avoiding.s": total("netmodel.shortest_path_avoiding"),
            "netmodel.sp_distinct_frac": ratio(
                len(self._sp_queries), calls("netmodel.shortest_path_avoiding")),
            "analysis.gen_random_scenario.self_s": own("analysis.gen_random_scenario"),
            "analysis.GreedyDriver.__call__.calls": calls("analysis.GreedyDriver.__call__"),
            "analysis.GreedyDriver.__call__.s": total("analysis.GreedyDriver.__call__"),
            "analysis.probe_stability.s": total("analysis.probe_stability"),
            "analysis.rerouting_gadget.s": total("analysis.rerouting_gadget"),
        })
        for fn in ("derive_injection_trace", "derive_stall_trace", "reactive_for_trace",
                   "check_admissibility", "check_regular_admissibility",
                   "check_stall_reaction_bound"):
            m[f"feedback.{fn}.s"] = total(f"feedback.{fn}")
        m.update({
            "feedback.scan_cells": c["feedback.scan_cells"],
            "feedback.scan_nonzero_frac": ratio(c["feedback.scan_nonzero"],
                                                c["feedback.scan_cells"]),
            "reduction.verify_reduction.self_s": own("reduction.verify_reduction"),
            "reduction.build_two_priority_trace.s":
                total("reduction.build_two_priority_trace"),
            "reduction.check_combined_congestion.s":
                total("reduction.check_combined_congestion"),
            "reduction.replay.s": total("reduction.replay"),
            "reduction.high_packets": c["reduction.high_packets"],
            "scenario_io.save_trace.s": total("scenario_io.save_trace"),
            "scenario_io.load_trace.self_s": own("scenario_io.load_trace"),
            "scenario_io.scenario_hash.calls": calls("scenario_io.scenario_hash"),
            "scenario_io.scenario_hash.s": total("scenario_io.scenario_hash"),
            "scenario_io.trace_digest.calls": calls("scenario_io.trace_digest"),
            "scenario_io.trace_digest.s": total("scenario_io.trace_digest"),
            "scenario_io.save_scenario.s": total("scenario_io.save_scenario"),
            "scenario_io.load_scenario.s": total("scenario_io.load_scenario"),
            "scenario_io.write_metrics_csv.s": total("scenario_io.write_metrics_csv"),
            "scenario_io.bytes_per_round": ratio(c["scenario_io.saved_bytes"],
                                                 c["scenario_io.saved_rounds"]),
            "cli.cmd_batch.s": total("cli.cmd_batch"),
            "cli.cmd_run.s": total("cli.cmd_run"),
            "cli.cmd_check.s": total("cli.cmd_check"),
            "cli.cmd_reduce.s": total("cli.cmd_reduce"),
            "cli.batch.workers": c["cli.batch.workers"],
        })
        return m

    def dump(self, path, item_keys):
        """Write the spans: a JSON header line, then the packed records."""
        header = {"record": RECORD.format, "fields": ["span", "parent", "name", "item",
                                                      "thread", "start", "end"],
                  "names": self.names, "items": item_keys,
                  "spans": len(self.spans) // RECORD.size}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(self.spans)
