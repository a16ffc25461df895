"""Round-synchronous executor: injection, scheduling, stalling, failures.

Every round runs a fixed pipeline; the order is part of the model
contract and tests depend on it:

  1. failures and recoveries scheduled for the round
  2. bucket tick (every level gains the rate, clamps at burst)
  3. antitoken countdown: scheduled and forced group annihilations
  4. delivery of due permanent-failure notifications
  5. adversary injections (joint bucket feasibility, applied atomically)
  6. per live edge with a waiting packet: policy selection, then either a
     stall (antitoken group created) or a transmission; transit arrivals
     are staged so no packet crosses two links in one round. Each queue
     is a heap on the policy's key, computed when the packet enters it,
     so selection reads the top and a transmission pops it
  7. re-routing of packets whose next edge is failed and visibly so, in
     (arrival round, id) order; routes are looked up once per failure state
  8. queue total and the packet-conservation check

A phase runs only in rounds where it has work: faults and notifications
on their scheduled rounds, the countdown when a group is due, injection
with a driver or scripted injections, transmission when a queue holds a
packet, re-routing while a failure is visible. Steps 2 and 8 run every
round. The trace records what happened, not the rounds: there is no
per-round marker event. The engine writes only the events and the queue
totals; per-edge queue lengths and the per-packet records are derived
from the events on demand.

The fault schedule is the config's ``failures`` and ``recoveries``, those
``promote_after_tau`` adds included. ``ScenarioConfig.validate`` pairs
them and refuses every scripted injection over a link with a notified
failure, so step 1 raises nothing and step 5 refuses only a driver's
injection.

Feedback (steps 3/4) precedes injection so constraints bind the same round
the feedback arrives. Permanently failed edges transmit nothing and
produce no stalls. Re-routed packets bypass token accounting and receive
no special scheduling treatment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple

from .buckets import AdversaryType, BucketSystem
from .errors import ModelViolation, ScenarioError
from .netmodel import Network, Packet, shortest_path_avoiding, validate_path
# select_packet is imported, though unused here, so that perfbench's tracer
# finds it where it looks for it (aqsim.engine.select_packet).
from .policies import POLICY_NAMES, Prioritized, packet_key, select_packet  # noqa: F401

HIGH_ID_BASE = 10 ** 9  # explicit ids at or above this never collide with auto ids


class Injection(NamedTuple):
    round: int
    path: tuple[str, ...]
    priority: int = 0
    id: int | None = None


@dataclass(frozen=True)
class FailureEvent:
    edge: str
    round: int
    notify_delay: int = 0


@dataclass(frozen=True)
class RecoveryEvent:
    edge: str
    round: int


@dataclass
class ScenarioConfig:
    """A complete, reproducible experiment description."""

    network: Network
    adversary: AdversaryType
    policy: object  # policy name or Prioritized
    horizon: int
    injections: tuple[Injection, ...] = ()
    stalls: dict = field(default_factory=dict)  # edge -> set of rounds
    annihilation_delays: dict = field(default_factory=dict)  # (edge, round) -> delay
    failures: tuple[FailureEvent, ...] = ()
    recoveries: tuple[RecoveryEvent, ...] = ()
    tau: int = 1
    tau_prime: int = 1
    seed: int | None = None
    promote_after_tau: InitVar[bool] = False
    enforce_buckets: bool = True

    def __post_init__(self, promote_after_tau):
        """With ``promote_after_tau``, the first run of tau consecutive stall
        rounds per edge, ending in round t, adds a failure in round t + 1 <=
        horizon, notified after tau_prime rounds, behind the scripted ones."""
        if not promote_after_tau:
            return
        promoted = []
        for edge, rounds in sorted(self.stalls.items()):
            rounds = sorted(rounds)
            # Distinct rounds tau - 1 places apart are consecutive when they
            # differ by tau - 1.
            end = next((t for s, t in zip(rounds, rounds[self.tau - 1:])
                        if t - s == self.tau - 1), self.horizon)
            if end < self.horizon:
                promoted.append(FailureEvent(edge, end + 1, self.tau_prime))
        self.failures = (*self.failures, *promoted)

    @property
    def last_round(self) -> int:
        """The last round on record: the horizon, then the drain rounds in
        which groups created near it still annihilate."""
        return self.horizon + self.adversary.delay

    def validate(self):
        net = self.network
        if self.horizon < 0:
            raise ScenarioError("horizon must be >= 0")
        if self.tau < 1 or self.tau_prime < 1:
            raise ScenarioError("tau and tau_prime must be positive")
        if isinstance(self.policy, Prioritized):
            levels = self.policy.levels
        else:
            if self.policy not in POLICY_NAMES:
                raise ScenarioError(f"unknown policy {self.policy!r}")
            levels = 1
        explicit = [inj.id for inj in self.injections if inj.id is not None]
        if explicit and len(explicit) != len(self.injections):
            raise ScenarioError("either all injections carry ids or none do")
        if len(set(explicit)) != len(explicit):
            raise ScenarioError("explicit packet ids must be unique")
        valid_paths = set()  # each distinct path is checked once
        for inj in self.injections:
            if not 1 <= inj.round <= self.horizon:
                raise ScenarioError(f"injection round {inj.round} outside horizon")
            if inj.path not in valid_paths:
                verdict = validate_path(net, inj.path)
                if not verdict:
                    raise ScenarioError(
                        f"invalid injection path {inj.path}: {verdict.kind} at {verdict.index}")
                valid_paths.add(inj.path)
            if not 0 <= inj.priority < levels:
                raise ScenarioError(
                    f"injection priority {inj.priority} outside policy's {levels} level(s)")
        for edge, rounds in self.stalls.items():
            if edge not in net.edges:
                raise ScenarioError(f"stall schedule references unknown edge {edge!r}")
            if any(t < 1 for t in rounds):
                raise ScenarioError("stall rounds must be >= 1")
        for (edge, rnd), delay in self.annihilation_delays.items():
            if edge not in net.edges:
                raise ScenarioError(f"annihilation delay references unknown edge {edge!r}")
            if rnd not in self.stalls.get(edge, ()):
                raise ScenarioError(
                    f"annihilation delay for ({edge}, {rnd}), which is not a stall round")
            if not 0 <= delay <= self.adversary.delay:
                raise ScenarioError(
                    f"annihilation delay {delay} for ({edge}, {rnd}) outside "
                    f"[0, {self.adversary.delay}]")
        for ev in self.failures:
            if ev.edge not in net.edges:
                raise ScenarioError(f"failure references unknown edge {ev.edge!r}")
            if not 0 <= ev.notify_delay <= self.tau_prime:
                raise ScenarioError("failure notification delay must be in [0, tau_prime]")
            if not 1 <= ev.round <= self.horizon:
                raise ScenarioError("failure round outside horizon")
        for ev in self.recoveries:
            if ev.edge not in net.edges:
                raise ScenarioError(f"recovery references unknown edge {ev.edge!r}")
            if not 1 <= ev.round <= self.horizon:
                raise ScenarioError("recovery round outside horizon")
        pairs = self.fault_pairs()
        # Per edge, in order, the windows [notification, recovery) refusing injections.
        notified: dict[str, list[tuple[int, int]]] = {}
        for ev in sorted(self.failures, key=lambda ev: ev.round):
            start, end = ev.round + ev.notify_delay, pairs[ev.edge, ev.round] or self.horizon + 1
            if start < end:
                notified.setdefault(ev.edge, []).append((start, end))
        if notified:
            # Each distinct path's edges that have windows, in path order.
            crossing = {path: [edge for edge in path if edge in notified]
                        for path in valid_paths}
            for rnd, path in dict.fromkeys((inj.round, inj.path) for inj in self.injections):
                for edge in crossing[path]:
                    windows = notified[edge]
                    at = bisect_left(windows, (rnd + 1,)) - 1
                    if at >= 0 and rnd < windows[at][1]:
                        raise ScenarioError(
                            f"round {rnd}: injection routed over {edge!r} after its "
                            "failure notification", round=rnd, edge=edge)
        return self

    def fault_pairs(self) -> dict[tuple[str, int], int | None]:
        """``{(edge, failure round): its recovery round, or None}``. Per edge,
        failures and recoveries alternate, a failure first, one a round."""
        per_edge: dict[str, list[tuple[int, int]]] = {}
        for ev in self.failures:
            per_edge.setdefault(ev.edge, []).append((ev.round, 0))
        for ev in self.recoveries:
            per_edge.setdefault(ev.edge, []).append((ev.round, 1))
        pairs = {}
        for edge, marks in per_edge.items():
            marks.sort()
            for i, (rnd, kind) in enumerate(marks):
                if i + 1 < len(marks) and marks[i + 1][0] == rnd:
                    raise ScenarioError(
                        f"edge {edge!r} has two fault events in round {rnd}")
                if kind != i % 2:
                    raise ScenarioError(
                        f"edge {edge!r} fault events must alternate failure/recovery")
                if not kind:
                    pairs[edge, rnd] = marks[i + 1][0] if i + 1 < len(marks) else None
        return pairs


@dataclass
class PacketRecord:
    """Audit summary of one packet over a whole run."""

    id: int
    injected_at: int
    priority: int
    original_path: tuple[str, ...]
    final_path: tuple[str, ...]
    absorbed_round: int | None = None
    rerouted: bool = False


class ExecutionTrace:
    """Full event log of a run plus the total queued after each round.

    Every event is a tuple ``(kind, round, ...)``, appended in round order.
    The packet records and the per-edge queue lengths are derived from the
    events on demand.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.horizon = config.horizon
        self.events: list[tuple] = []
        self.q_totals: list[int] = []
        self._records: dict[int, PacketRecord] = {}
        self._folded: tuple[list | None, int] = (None, 0)  # the events list folded, how far

    @property
    def packets(self) -> dict[int, PacketRecord]:
        """Per packet id, its record, folded from the inject, reroute and
        absorb events.

        A read folds only the events appended since the last one, so the
        records stay current between engine steps; when ``events`` is
        replaced by another list (or shrinks), the fold starts over.
        """
        events = self.events
        folded, start = self._folded
        if folded is not events or start > len(events):
            self._records, start = {}, 0
        records = self._records
        for ev in events[start:]:
            kind = ev[0]
            if kind == "inject":
                _, rnd, pid, path, priority = ev
                records[pid] = PacketRecord(pid, rnd, priority, path, path)
            elif kind == "absorb":
                records[ev[2]].absorbed_round = ev[1]
            elif kind == "reroute":
                _, _, pid, old_suffix, new_suffix, _edge, _fail = ev
                rec = records[pid]
                kept = len(rec.final_path) - len(old_suffix)
                rec.final_path = rec.final_path[:kept] + new_suffix
                rec.rerouted = True
        self._folded = events, len(events)
        return records

    def events_of(self, kind: str):
        return [ev for ev in self.events if ev[0] == kind]

    def _fold_queues(self):
        """Yield the non-empty queue lengths after each round 1..horizon.

        Folds the inject, transmit and reroute events, tracking the edges
        each packet has still to cross. The yielded dict is updated in
        place from one round to the next.
        """
        sizes: dict[str, int] = {}
        ahead: dict[int, tuple[str, ...]] = {}

        def move(pid, edge, rest):
            left = sizes[edge] - 1
            if left:
                sizes[edge] = left
            else:
                del sizes[edge]
            if rest:
                ahead[pid] = rest
                sizes[rest[0]] = sizes.get(rest[0], 0) + 1
            else:
                del ahead[pid]

        rnd = 1
        for ev in self.events:
            if ev[1] > rnd:
                if ev[1] > self.horizon:
                    break
                while rnd < ev[1]:
                    yield sizes
                    rnd += 1
            kind = ev[0]
            if kind == "transmit":
                _, _, edge, pid = ev
                move(pid, edge, ahead[pid][1:])
            elif kind == "inject":
                _, _, pid, path, _pri = ev
                ahead[pid] = path
                sizes[path[0]] = sizes.get(path[0], 0) + 1
            elif kind == "reroute":
                _, _, pid, _old, new_suffix, edge, _fail = ev
                move(pid, edge, new_suffix)
        while rnd <= self.horizon:
            yield sizes
            rnd += 1

    def queue_sizes(self) -> list[dict[str, int]]:
        """Per round, the length of every non-empty queue after the round."""
        return [dict(sizes) for sizes in self._fold_queues()]

    def queue_series(self, edge: str) -> list[int]:
        return [sizes.get(edge, 0) for sizes in self._fold_queues()]

    def digest(self) -> str:
        from .scenario_io import trace_digest

        return trace_digest(self)


class Engine:
    """One deterministic execution; single-threaded by contract.

    ``run`` drives the round pipeline over the whole horizon and the drain
    rounds. ``step`` is the public per-round entry: it runs the next round
    and returns the events that round appended. A driver, called as
    ``driver(engine, rnd)`` in the injection phase, returns the round's
    extra injections, after the scripted ones.
    """

    def __init__(self, config: ScenarioConfig, driver=None):
        config.validate()
        self.config = config
        self.net = config.network
        self.driver = driver
        self.buckets = BucketSystem(config.adversary, self.net.edges)
        self.trace = ExecutionTrace(config)
        self.queues: dict[str, list[tuple[tuple, Packet]]] = {}  # heaps of (key, packet)
        self._key = packet_key(config.policy)
        self._slowness = {eid: e.slowness for eid, e in self.net.edges.items()}
        self._routes: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self.failed: set[str] = set()
        self.visible_failed: set[str] = set()
        self._active_failure: dict[str, int] = {}
        self._packets: dict[int, Packet] = {}
        self._next_pid = 0
        self._injected = 0
        self._absorbed = 0

        self._injections_by_round: dict[int, list[Injection]] = {}
        for inj in config.injections:
            self._injections_by_round.setdefault(inj.round, []).append(inj)
        self._stalls_by_round: dict[int, set[str]] = {}
        for edge, rounds in config.stalls.items():
            for t in rounds:
                self._stalls_by_round.setdefault(t, set()).add(edge)
        self._failures_by_round: dict[int, list[FailureEvent]] = {}
        self._notify_by_round: dict[int, list[tuple[str, int]]] = {}
        for ev in config.failures:
            self._failures_by_round.setdefault(ev.round, []).append(ev)
            self._notify_by_round.setdefault(
                ev.round + ev.notify_delay, []).append((ev.edge, ev.round))
        self._recoveries_by_round: dict[int, list[RecoveryEvent]] = {}
        for rec in config.recoveries:
            self._recoveries_by_round.setdefault(rec.round, []).append(rec)
        self._fault_rounds = set(self._failures_by_round) | set(self._recoveries_by_round)

    # -- plumbing ------------------------------------------------------------

    def _emit(self, *ev):
        self.trace.events.append(ev)

    def _enqueue(self, pkt: Packet):
        """Queue a packet at its next edge; its key fields hold until it leaves."""
        heappush(self.queues.setdefault(pkt.path[pkt.idx], []), (self._key(pkt), pkt))

    def waiting(self, edge: str) -> list[Packet]:
        """The packets queued at edge, in (arrival round, id) order."""
        return sorted((pkt for _, pkt in self.queues.get(edge, ())),
                      key=lambda p: (p.arrival_round, p.id))

    def _destination(self, pkt: Packet) -> str:
        return self.net.edges[pkt.path[-1]].head

    # -- the round pipeline ----------------------------------------------------

    def _apply_faults(self, rnd: int):
        for rec in self._recoveries_by_round.get(rnd, ()):
            self.failed.discard(rec.edge)
            self._routes.clear()
            self.visible_failed.discard(rec.edge)
            self._active_failure.pop(rec.edge, None)
            self._emit("recover", rnd, rec.edge)
        for ev in self._failures_by_round.get(rnd, ()):
            self.failed.add(ev.edge)
            self._routes.clear()
            self._active_failure[ev.edge] = ev.round
            self._emit("fail", rnd, ev.edge)

    def _deliver_notifications(self, rnd: int):
        for edge, fail_round in self._notify_by_round.get(rnd, ()):
            self._emit("fail_notify", rnd, edge, fail_round)
            # A notification for an already recovered edge is delivered but
            # imposes no constraint.
            if edge in self.failed and self._active_failure.get(edge) == fail_round:
                self.visible_failed.add(edge)

    def _inject(self, rnd: int):
        requests = self._injections_by_round.get(rnd, ())
        if self.driver is not None:
            driven = self.driver(self, rnd)
            if driven:
                requests = [*requests, *driven]
        if not requests:
            return
        visible = self.visible_failed
        if visible:
            for inj in requests:
                for edge in inj.path:
                    if edge in visible:
                        raise ScenarioError(
                            f"round {rnd}: injection routed over {edge!r} after its "
                            "failure notification", round=rnd, edge=edge)
        if self.config.enforce_buckets:
            result = self.buckets.inject([inj.path for inj in requests])
            if not result:
                raise ScenarioError(
                    f"round {rnd}: buckets cannot afford the scripted injections, "
                    f"edge {result.insufficient_edge!r} is short",
                    round=rnd, edge=result.insufficient_edge)
        packets, queues, key = self._packets, self.queues, self._key
        append = self.trace.events.append
        for inj in requests:
            pid = inj.id
            if pid is None:
                pid = self._next_pid
                self._next_pid += 1
            pkt = Packet(pid, rnd, inj.path, inj.priority)
            if pid in packets:
                raise ScenarioError(f"duplicate packet id {pid}")
            packets[pid] = pkt
            path = pkt.path
            heappush(queues.setdefault(path[0], []), (key(pkt), pkt))
            append(("inject", rnd, pid, path, inj.priority))
        self._injected += len(requests)

    def _transmit(self, rnd: int):
        queues, failed, append = self.queues, self.failed, self.trace.events.append
        stalled_edges = self._stalls_by_round.get(rnd, ())
        slowness = self._slowness
        staged: list[Packet] = []
        absorbed = 0
        for edge in sorted(queues):
            if edge in failed:
                continue
            queue = queues[edge]
            pkt = queue[0][1]
            if edge in stalled_edges:
                group, inline = self.buckets.register_stall(
                    edge, pkt.path[pkt.idx:], pkt.id,
                    self.config.annihilation_delays.get((edge, rnd)))
                append(("stall", rnd, edge, pkt.id, group.gid))
                append(("group", rnd, group.gid, edge, pkt.id, group.edges))
                for how, g in inline:
                    append(("annihilate", rnd, g.gid, how))
                continue
            heappop(queue)
            if not queue:
                del queues[edge]
            # A queued packet has an edge left, so this cannot overrun.
            pkt.idx += 1
            pkt.prev_slowness = slowness[edge]
            append(("transmit", rnd, edge, pkt.id))
            if pkt.idx == len(pkt.path):
                absorbed += 1
                append(("absorb", rnd, pkt.id))
            else:
                pkt.arrival_round = rnd
                staged.append(pkt)
        self._absorbed += absorbed
        # Arrivals join their next queue only now, so that no packet crosses
        # two links in one round.
        key = self._key
        for pkt in staged:
            heappush(queues.setdefault(pkt.path[pkt.idx], []), (key(pkt), pkt))

    def _reroute_blocked(self, rnd: int):
        for edge in sorted(self.visible_failed):
            if edge not in self.queues:
                continue
            fail_round = self._active_failure[edge]
            node = self.net.edges[edge].tail
            for pkt in self.waiting(edge):
                dest = self._destination(pkt)
                if (node, dest) not in self._routes:
                    self._routes[node, dest] = shortest_path_avoiding(
                        self.net, node, dest, self.failed)
                suffix = self._routes[node, dest]
                if suffix is None:
                    raise ScenarioError(
                        f"round {rnd}: packet {pkt.id} at {edge!r} cannot reach "
                        f"{dest!r} avoiding failed links {sorted(self.failed)}",
                        round=rnd, edge=edge)
                old_suffix = pkt.path[pkt.idx:]
                pkt.path = pkt.path[: pkt.idx] + suffix
                pkt.rerouted = True
                self._emit("reroute", rnd, pkt.id, old_suffix, suffix, edge, fail_round)
                if pkt.absorbed:
                    # Remaining path was a detour back to the current node.
                    self._absorbed += 1
                    self._emit("absorb", rnd, pkt.id)
                else:
                    pkt.arrival_round = rnd
                    self._enqueue(pkt)
            del self.queues[edge]

    def _round(self, rnd: int):
        """Run one round's pipeline, appending its events to the trace.

        Phases are looked up on the engine each round, so an instance
        attribute can stand in for one.
        """
        if rnd in self._fault_rounds:
            self._apply_faults(rnd)
        buckets = self.buckets
        buckets.tick()
        if buckets.is_due(rnd):
            append = self.trace.events.append
            for how, group in buckets.tick_antitokens():
                append(("annihilate", rnd, group.gid, how))
        if rnd in self._notify_by_round:
            self._deliver_notifications(rnd)
        if self.driver is not None or rnd in self._injections_by_round:
            self._inject(rnd)
        queues = self.queues
        if queues:
            self._transmit(rnd)
        if self.visible_failed:
            self._reroute_blocked(rnd)
        total = sum(map(len, queues.values()))
        self.trace.q_totals.append(total)
        if self._injected != self._absorbed + total:
            raise ModelViolation(
                f"round {rnd}: packet conservation broken "
                f"({self._injected} injected, {self._absorbed} absorbed, {total} queued)")

    def step(self, rnd: int):
        """Run one round; returns the events it appended to the trace.

        Rounds must be stepped in order from 1; the queues stay non-empty
        heaps between rounds, so an empty dict means nothing is queued.
        """
        events = self.trace.events
        start = len(events)
        self._round(rnd)
        return events[start:]

    def run(self) -> ExecutionTrace:
        round_ = self._round
        for rnd in range(1, self.config.horizon + 1):
            round_(rnd)
        # Drain phase: groups created near the horizon still annihilate so
        # every stall's feedback round is on record.
        for rnd in range(self.config.horizon + 1, self.config.last_round + 1):
            self.buckets.tick()
            for how, group in self.buckets.tick_antitokens():
                self._emit("annihilate", rnd, group.gid, how)
        return self.trace


def run(config: ScenarioConfig, driver=None) -> ExecutionTrace:
    """Execute a scenario start to finish."""
    return Engine(config, driver=driver).run()


@dataclass(frozen=True)
class RecoveryViolation:
    edge: str
    recovery_round: int
    packet_id: int
    absorbed_round: int | None


@dataclass(frozen=True)
class RecoveryVerdict:
    ok: bool
    violations: tuple[RecoveryViolation, ...] = ()


def validate_recovery(trace: ExecutionTrace) -> RecoveryVerdict:
    """Check each recovery happened only after its re-routed packets drained.

    A recovery of edge e pairs with the latest failure of e before it
    (``ScenarioConfig.fault_pairs``); every packet re-routed because of
    that failure must have been absorbed strictly before the recovery round.
    """
    reroutes: dict[tuple[str, int], list[int]] = {}
    for ev in trace.events_of("reroute"):
        _, _, pid, _, _, edge, fail_round = ev
        reroutes.setdefault((edge, fail_round), []).append(pid)
    failure_of = {(edge, rec): fail
                  for (edge, fail), rec in trace.config.fault_pairs().items() if rec}
    packets = trace.packets
    violations = []
    for rec in trace.config.recoveries:
        for pid in reroutes.get((rec.edge, failure_of[rec.edge, rec.round]), ()):
            absorbed = packets[pid].absorbed_round
            if absorbed is None or absorbed >= rec.round:
                violations.append(
                    RecoveryViolation(rec.edge, rec.round, pid, absorbed))
    return RecoveryVerdict(not violations, tuple(violations))
