"""Round-synchronous executor: injection, scheduling, stalling, failures.

Every round runs a fixed pipeline; the order is part of the model
contract and tests depend on it:

  1. bucket tick (every level gains the rate, clamps at burst)
  2. antitoken countdown: scheduled and forced group annihilations
  3. delivery of due permanent-failure notifications
  4. adversary injections (joint bucket feasibility, applied atomically)
  5. per live edge with a waiting packet: policy selection, then either a
     stall (antitoken group created) or a transmission; transit arrivals
     are staged so no packet crosses two links in one round. Each queue
     is a heap on the policy's key, computed when the packet enters it,
     so selection reads the top and a transmission pops it
  6. re-routing of packets whose next edge is failed and visibly so, in
     (arrival round, id) order; routes are looked up once per failure state
  7. queue-size snapshot

Feedback (step 2/3) precedes injection so constraints bind the same round
the feedback arrives. Permanently failed edges transmit nothing and
produce no stalls. Re-routed packets bypass token accounting and receive
no special scheduling treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .buckets import AdversaryType, BucketSystem
from .errors import ModelViolation, ScenarioError
from .netmodel import Network, Packet, shortest_path_avoiding, validate_path
# select_packet is imported, though unused here, so that perfbench's tracer
# finds it where it looks for it (aqsim.engine.select_packet).
from .policies import POLICY_NAMES, Prioritized, packet_key, select_packet  # noqa: F401

HIGH_ID_BASE = 10 ** 9  # explicit ids at or above this never collide with auto ids


@dataclass(frozen=True)
class Injection:
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
    promote_after_tau: bool = False
    enforce_buckets: bool = True

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
        for inj in self.injections:
            if not 1 <= inj.round <= self.horizon:
                raise ScenarioError(f"injection round {inj.round} outside horizon")
            verdict = validate_path(net, inj.path)
            if not verdict:
                raise ScenarioError(
                    f"invalid injection path {inj.path}: {verdict.kind} at {verdict.index}")
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
        self._check_fault_alternation()
        return self

    def _check_fault_alternation(self):
        per_edge: dict[str, list[tuple[int, int]]] = {}
        for ev in self.failures:
            per_edge.setdefault(ev.edge, []).append((ev.round, 0))
        for ev in self.recoveries:
            per_edge.setdefault(ev.edge, []).append((ev.round, 1))
        for edge, marks in per_edge.items():
            marks.sort()
            for i, (rnd, kind) in enumerate(marks):
                if i + 1 < len(marks) and marks[i + 1][0] == rnd:
                    raise ScenarioError(
                        f"edge {edge!r} has two fault events in round {rnd}")
                if kind != i % 2:
                    raise ScenarioError(
                        f"edge {edge!r} fault events must alternate failure/recovery")


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
    """Full per-round event log of a run, replayable bit for bit."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.horizon = config.horizon
        self.events: list[tuple] = []
        self.q_totals: list[int] = []
        self.queue_sizes: list[dict[str, int]] = []
        self.packets: dict[int, PacketRecord] = {}

    def events_of(self, kind: str):
        return [ev for ev in self.events if ev[0] == kind]

    def queue_series(self, edge: str) -> list[int]:
        return [sizes.get(edge, 0) for sizes in self.queue_sizes]

    def digest(self) -> str:
        from .scenario_io import trace_digest

        return trace_digest(self)


class Engine:
    """One deterministic execution; single-threaded by contract."""

    def __init__(self, config: ScenarioConfig, driver=None):
        config.validate()
        self.config = config
        self.net = config.network
        self.driver = driver
        self.buckets = BucketSystem(config.adversary, self.net.edges)
        self.trace = ExecutionTrace(config)
        self.queues: dict[str, list[tuple[tuple, Packet]]] = {}  # heaps of (key, packet)
        self._key = packet_key(config.policy)
        self._routes: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self.failed: set[str] = set()
        self.visible_failed: set[str] = set()
        self._active_failure: dict[str, int] = {}
        self._packets: dict[int, Packet] = {}
        self._next_pid = 0
        self._injected = 0
        self._absorbed = 0
        self.accepted_injections: list[Injection] = []

        self._injections_by_round: dict[int, list[Injection]] = {}
        for inj in config.injections:
            self._injections_by_round.setdefault(inj.round, []).append(inj)
        self._stalls_by_round: dict[int, set[str]] = {}
        for edge, rounds in config.stalls.items():
            for t in rounds:
                self._stalls_by_round.setdefault(t, set()).add(edge)
        failures = list(config.failures)
        if config.promote_after_tau:
            failures.extend(self._promotions())
        self._failures_by_round: dict[int, list[FailureEvent]] = {}
        self._notify_by_round: dict[int, list[tuple[str, int]]] = {}
        for ev in failures:
            self._failures_by_round.setdefault(ev.round, []).append(ev)
            self._notify_by_round.setdefault(
                ev.round + ev.notify_delay, []).append((ev.edge, ev.round))
        self._recoveries_by_round: dict[int, list[RecoveryEvent]] = {}
        for rec in config.recoveries:
            self._recoveries_by_round.setdefault(rec.round, []).append(rec)

    def _promotions(self):
        """A transient fault lasting tau consecutive rounds becomes permanent.

        Derived statically from the stall schedule; the promoted failure
        starts the round after the run completes and is notified with the
        maximum delay tau_prime.
        """
        promoted = []
        for edge, rounds in sorted(self.config.stalls.items()):
            run = 0
            prev = None
            for t in sorted(rounds):
                run = run + 1 if prev is not None and t == prev + 1 else 1
                prev = t
                if run == self.config.tau and t + 1 <= self.config.horizon:
                    promoted.append(FailureEvent(edge, t + 1, self.config.tau_prime))
                    break
        return promoted

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
            if rec.edge not in self.failed:
                raise ScenarioError(
                    f"recovery of {rec.edge!r} in round {rnd} but it is not failed",
                    round=rnd, edge=rec.edge)
            self.failed.discard(rec.edge)
            self._routes.clear()
            self.visible_failed.discard(rec.edge)
            self._active_failure.pop(rec.edge, None)
            self._emit("recover", rnd, rec.edge)
        for ev in self._failures_by_round.get(rnd, ()):
            if ev.edge in self.failed:
                raise ScenarioError(
                    f"edge {ev.edge!r} fails in round {rnd} while already failed",
                    round=rnd, edge=ev.edge)
            self.failed.add(ev.edge)
            self._routes.clear()
            self._active_failure[ev.edge] = ev.round

    def _deliver_notifications(self, rnd: int):
        for edge, fail_round in self._notify_by_round.get(rnd, ()):
            self._emit("fail_notify", rnd, edge, fail_round)
            # A notification for an already recovered edge is delivered but
            # imposes no constraint.
            if edge in self.failed and self._active_failure.get(edge) == fail_round:
                self.visible_failed.add(edge)

    def _inject(self, rnd: int):
        requests = list(self._injections_by_round.get(rnd, ()))
        if self.driver is not None:
            requests.extend(self.driver(self, rnd))
        if not requests:
            return
        for inj in requests:
            for edge in inj.path:
                if edge in self.visible_failed:
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
        for inj in requests:
            if inj.id is not None:
                pid = inj.id
            else:
                pid = self._next_pid
                self._next_pid += 1
            pkt = Packet(pid, rnd, inj.path, inj.priority)
            if pid in self._packets:
                raise ScenarioError(f"duplicate packet id {pid}")
            self._packets[pid] = pkt
            self.trace.packets[pid] = PacketRecord(
                pid, rnd, inj.priority, pkt.path, pkt.path)
            self._enqueue(pkt)
            self._injected += 1
            self._emit("inject", rnd, pid, pkt.path, inj.priority)
            self.accepted_injections.append(
                Injection(rnd, pkt.path, inj.priority, pid))

    def _transmit(self, rnd: int):
        stalled_edges = self._stalls_by_round.get(rnd, ())
        staged: list[Packet] = []
        for edge in sorted(self.queues):
            queue = self.queues[edge]
            if not queue or edge in self.failed:
                continue
            pkt = queue[0][1]
            self._emit("select", rnd, edge, pkt.id)
            if edge in stalled_edges:
                group, inline = self.buckets.register_stall(
                    edge, pkt.path[pkt.idx:], pkt.id,
                    self.config.annihilation_delays.get((edge, rnd)))
                self._emit("stall", rnd, edge, pkt.id, group.gid)
                self._emit("group", rnd, group.gid, edge, pkt.id, group.edges)
                for how, g in inline:
                    self._emit("annihilate", rnd, g.gid, how)
            else:
                heappop(queue)
                if not queue:
                    del self.queues[edge]
                pkt.advance()
                pkt.prev_slowness = self.net.edges[edge].slowness
                self._emit("transmit", rnd, edge, pkt.id)
                if pkt.absorbed:
                    self._absorbed += 1
                    rec = self.trace.packets[pkt.id]
                    rec.absorbed_round = rnd
                    rec.final_path = pkt.path
                    self._emit("absorb", rnd, pkt.id)
                else:
                    pkt.arrival_round = rnd
                    staged.append(pkt)
        for pkt in staged:
            self._enqueue(pkt)

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
                rec = self.trace.packets[pkt.id]
                rec.rerouted = True
                rec.final_path = pkt.path
                self._emit("reroute", rnd, pkt.id, old_suffix, suffix, edge, fail_round)
                if pkt.absorbed:
                    # Remaining path was a detour back to the current node.
                    self._absorbed += 1
                    rec.absorbed_round = rnd
                    self._emit("absorb", rnd, pkt.id)
                else:
                    pkt.arrival_round = rnd
                    self._enqueue(pkt)
            del self.queues[edge]

    def _snapshot(self, rnd: int):
        sizes = {e: len(q) for e, q in self.queues.items() if q}
        total = sum(sizes.values())
        self.trace.queue_sizes.append(sizes)
        self.trace.q_totals.append(total)
        if self._injected != self._absorbed + total:
            raise ModelViolation(
                f"round {rnd}: packet conservation broken "
                f"({self._injected} injected, {self._absorbed} absorbed, {total} queued)")

    def step(self, rnd: int):
        """Run one round; returns the events it appended to the trace."""
        start = len(self.trace.events)
        self._apply_faults(rnd)
        self.buckets.tick()
        self._emit("tick", rnd)
        for how, group in self.buckets.tick_antitokens():
            self._emit("annihilate", rnd, group.gid, how)
        self._deliver_notifications(rnd)
        self._inject(rnd)
        self._transmit(rnd)
        self._reroute_blocked(rnd)
        self._snapshot(rnd)
        return self.trace.events[start:]

    def run(self) -> ExecutionTrace:
        for rnd in range(1, self.config.horizon + 1):
            self.step(rnd)
        # Drain phase: groups created near the horizon still annihilate so
        # every stall's feedback round is on record.
        for rnd in range(self.config.horizon + 1,
                         self.config.horizon + self.config.adversary.delay + 1):
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

    A recovery of edge e pairs with the latest failure of e before it;
    every packet re-routed because of that failure must have been absorbed
    strictly before the recovery round.
    """
    reroutes: dict[tuple[str, int], list[int]] = {}
    for ev in trace.events_of("reroute"):
        _, _, pid, _, _, edge, fail_round = ev
        reroutes.setdefault((edge, fail_round), []).append(pid)
    failures_per_edge: dict[str, list[int]] = {}
    for ev in trace.config.failures:
        failures_per_edge.setdefault(ev.edge, []).append(ev.round)
    violations = []
    for rec in trace.config.recoveries:
        paired = max((r for r in failures_per_edge.get(rec.edge, ()) if r < rec.round),
                     default=None)
        if paired is None:
            continue
        for pid in reroutes.get((rec.edge, paired), ()):
            absorbed = trace.packets[pid].absorbed_round
            if absorbed is None or absorbed >= rec.round:
                violations.append(
                    RecoveryViolation(rec.edge, rec.round, pid, absorbed))
    return RecoveryVerdict(not violations, tuple(violations))
