"""Round-synchronous executor: injection, scheduling, stalling, failures.

Every round runs a fixed pipeline; the order is part of the model
contract and tests depend on it:

  1. failures and recoveries scheduled for the round
  2. bucket tick (every level gains the rate, clamps at burst)
  3. antitoken countdown: scheduled and forced group annihilations
  4. delivery of due permanent-failure notifications
  5. adversary injections, the scripted ones first: a driver's pass the
     injection gate, once per burst (one object returned again and
     again), then all are bought from the buckets jointly, in one pass
     over their links, and applied atomically
  6. per live edge with a waiting packet: policy selection, then either a
     stall (its event names the antitoken group it creates, whose
     annihilation round and manner ``buckets.annihilation`` fixes) or a
     transmission; transit arrivals
     are staged so no packet crosses two links in one round. Each queue
     is a heap of the policy's keys (``packet_key``), each computed when
     its packet enters the queue and ending in the packet itself, so
     selection reads the packet at the top and a transmission pops it
  7. re-routing of packets whose next edge is failed and visibly so, in
     (arrival round, id) order. Each (node, destination) route is computed
     once per set of failed links and kept for the whole run, so a failed
     set that recurs reuses the routes found for it before
  8. queue total and the packet-conservation check

A phase runs only in rounds where it has work: faults and notifications
on their scheduled rounds, the countdown when a group is due, injection
with a driver or scripted injections, transmission when a queue holds a
packet, re-routing while a failure is visible. Steps 2 and 8 run every
round. The trace records what happened, not the rounds: there is no
per-round marker event. The engine writes only the events and the queue
totals; per-edge queue lengths and the per-packet records are derived
from the events on demand.

One loop, ``Engine._rounds``, runs the pipeline over a span of rounds. It
binds the run's state to locals once per call and runs steps 2, 3, 5, 6
and 8 inline; steps 1, 4 and 7 are methods it calls in the rounds they
have work. The engine owns the next round: ``step`` runs exactly that
round, and ``run`` runs from it to the horizon, then the drain rounds.

A ``ScenarioConfig`` is frozen, and checked once: the first read of its
``schedule`` runs every check (``validate`` is that read) and, in the same
pass, builds the ``Schedule`` that the engine and the checkers then read,
whoever reads it first. It holds everything fixed before round 1,
the per-round tables the pipeline reads included, so ``Engine.__init__``
builds none. ``dataclasses.replace`` makes a new config, which is checked
on its own first use. A trace file holds no events: its load runs the
scenario in its header, so every trace a checker reads is a run of this
pipeline.

Every injection passes one gate, ``Schedule.admit``: its path is a tuple
that ``validate_path`` accepts, its priority one of the policy's levels,
and no link of its path has a failure visible in its round (a notified
window of ``Schedule.edge_windows``). The gate remembers the (path,
priority) pairs that passed the first two rules, so each is checked once
per config; the window rule is checked for each injection the gate sees.
The scenario's checks run the gate over the script, in script order, once
per burst: an injection whose round, path and int priority equal the
previous one's passes as that one did. Step 5 runs the gate only over a
driver's injections, which must also be for the round they are returned
in, once per burst too: an injection that is the very object just checked
passes as it did. That skip is by identity alone, so an equal injection
built apart is checked on its own. A refusal reads "round R: injection
..." whichever brought the injection.

Packet ids are fixed before the run: a script either gives every
injection its id or none, and the engine numbers the others 0, 1, ... in
the order they enter. A driver's injection carries no id, and a driver
may not add to a script whose injections carry ids, so no id is ever
given twice.

The fault schedule is the config's ``failures`` and ``recoveries``, those
``promote_after_tau`` adds included. The fail, recover and fail_notify
events they make are filed once, per round, in the order a run writes
them (``Schedule.faults`` and ``Schedule.notifications``): steps 1 and 4
append those tuples.

Feedback (steps 3/4) precedes injection so constraints bind the same round
the feedback arrives. Permanently failed edges transmit nothing and
produce no stalls. Re-routed packets bypass token accounting and receive
no special scheduling treatment.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from heapq import heappop, heappush
from typing import NamedTuple

from .buckets import _AFFORDED, AdversaryType, BucketSystem
from .errors import ContractViolation, ModelViolation, ScenarioError
from .netmodel import Network, Packet, shortest_path_avoiding, validate_path
# select_packet is imported, though unused here, so that perfbench's tracer
# finds it where it looks for it (aqsim.engine.select_packet).
from .policies import POLICY_NAMES, Prioritized, packet_key, select_packet  # noqa: F401

def _arrival_order(entry):
    """Sort key of a queue entry (``packet_key``'s tuple, the packet last):
    arrival round, id."""
    pkt = entry[-1]
    return pkt.arrival_round, pkt.id


class Injection(NamedTuple):
    round: int
    path: tuple[str, ...]
    priority: int = 0
    id: int | None = None


# Builds an Injection in C from a tuple of exactly its four fields
# (round, path, priority, id), without the Python-level ``Injection.__new__``.
_injection = partial(tuple.__new__, Injection)


@dataclass(frozen=True)
class FailureEvent:
    edge: str
    round: int
    notify_delay: int = 0


@dataclass(frozen=True)
class RecoveryEvent:
    edge: str
    round: int


@dataclass(frozen=True)
class Schedule:
    """What a valid scenario fixes before its run, built once per config
    by ``ScenarioConfig.schedule`` in the pass that checks the scenario.
    The engine reads nothing else of the config before round 1.

    ``network`` and ``levels`` (the policy's priority levels) are what the
    injection gate, ``admit``, checks paths and priorities against;
    ``injectable`` remembers the (path, priority) pairs that passed it, the
    script's and those a driver adds. The scenario's checks call ``admit``
    once per burst of equal scripted injections, not once per copy.
    ``fault_pairs`` pairs each failure with its recovery, and
    ``edge_windows`` gives, per edge, the rounds in which its failures are
    visible.

    The other four are the round loop's tables, each a tuple per round:
    the scripted injections (step 5), in script order; the stalled edges
    (step 6), in edge order; the recover, then the fail events (step 1);
    and the fail_notify events due (step 4), of the failures in config
    order. A notification due after the horizon is never delivered, so no
    table holds it. They live as long as the config, and a tuple holds a
    round's few entries in less memory than a list or a set.
    """

    network: Network
    levels: int
    fault_pairs: dict[tuple[str, int], int | None]
    edge_windows: dict[str, list[tuple[int, int]]]
    scripted: dict[int, tuple[Injection, ...]]
    stalled: dict[int, tuple[str, ...]]
    faults: dict[int, tuple[tuple, ...]]
    notifications: dict[int, tuple[tuple, ...]]
    injectable: set[tuple] = field(default_factory=set)

    def admit(self, rnd: int, path, priority) -> None:
        """Refuse an injection in round ``rnd`` on ``path`` at ``priority``
        with a ScenarioError that names the round, and the link for a
        notified one: the path must be a tuple that ``validate_path``
        accepts, the priority an int below ``levels``, and no link of the
        path notified as failed in round ``rnd``."""
        # False == 0 and 1.0 == 1 and hash alike, and a list is no key: only
        # a tuple path and an int priority may pass by the memo.
        if (type(path) is not tuple or type(priority) is not int
                or (path, priority) not in self.injectable):
            if type(path) is not tuple:
                fault = f"on path {path!r}, which is not a tuple of edge ids"
            elif not (verdict := validate_path(self.network, path)):
                fault = (f"on a path not in the network, path {path}: "
                         f"{verdict.kind} at {verdict.index}")
            elif not (type(priority) is int and 0 <= priority < self.levels):
                fault = (f"with priority {priority!r}, not one of the policy's "
                         f"{self.levels} level(s)")
            else:
                fault = None
            if fault:
                raise ScenarioError(f"round {rnd}: injection {fault}", round=rnd)
            self.injectable.add((path, priority))
        windows = self.edge_windows
        if windows:
            for edge in path:
                spans = windows.get(edge)
                if spans is not None:
                    # The last window that opens by round rnd: is it still open?
                    at = bisect_left(spans, (rnd + 1,)) - 1
                    if at >= 0 and rnd < spans[at][1]:
                        raise ScenarioError(f"round {rnd}: injection routed over {edge!r} "
                                            "after its failure notification", round=rnd, edge=edge)


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete, reproducible experiment description.

    A config never changes: ``stalls`` and ``annihilation_delays`` are
    copied when it is made, so nothing a caller still holds can change it.
    It is checked once, on its first use (``schedule``), which also runs the
    injection gate, ``Schedule.admit``, over the script in script order,
    once per burst of equal injections, and builds the round loop's tables;
    a config derived with ``dataclasses.replace`` is a new object, checked
    on its own first use. The script's injections all carry packet ids, or
    none do. Two configs of the same scenario compare equal, but
    ``hash(config)`` is unsupported: the ``stalls`` and
    ``annihilation_delays`` fields are dicts.
    """

    network: Network
    adversary: AdversaryType
    policy: object  # policy name or Prioritized
    horizon: int
    injections: tuple[Injection, ...] = ()
    stalls: dict = field(default_factory=dict)  # edge -> frozenset of rounds
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
        stalls = {edge: frozenset(rounds) for edge, rounds in self.stalls.items()}
        object.__setattr__(self, "stalls", stalls)
        object.__setattr__(self, "annihilation_delays", dict(self.annihilation_delays))
        if not promote_after_tau:
            return
        promoted = []
        for edge, rounds in sorted(stalls.items()):
            rounds = sorted(rounds)
            # Distinct rounds tau - 1 places apart are consecutive when they
            # differ by tau - 1.
            end = next((t for s, t in zip(rounds, rounds[self.tau - 1:])
                        if t - s == self.tau - 1), self.horizon)
            if end < self.horizon:
                promoted.append(FailureEvent(edge, end + 1, self.tau_prime))
        object.__setattr__(self, "failures", (*self.failures, *promoted))

    @property
    def last_round(self) -> int:
        """The last round on record: the horizon, then the drain rounds in
        which groups created near it still annihilate."""
        return self.horizon + self.adversary.delay

    def validate(self):
        """Check the scenario, the first time only (see ``schedule``);
        returns the config."""
        self.schedule  # noqa: B018
        return self

    @cached_property
    def schedule(self) -> Schedule:
        """The config's ``Schedule``, built once, by the first read, which
        checks the scenario first: a ScenarioError names what is wrong, and
        a config that fails is checked afresh on its next read."""
        net, horizon = self.network, self.horizon
        if horizon < 0:
            raise ScenarioError("horizon must be >= 0")
        if self.tau < 1 or self.tau_prime < 1:
            raise ScenarioError("tau and tau_prime must be positive")
        if not isinstance(self.policy, Prioritized) and self.policy not in POLICY_NAMES:
            raise ScenarioError(f"unknown policy {self.policy!r}")
        explicit = [inj.id for inj in self.injections if inj.id is not None]
        if explicit and len(explicit) != len(self.injections):
            raise ScenarioError("either all injections carry ids or none do")
        if len(set(explicit)) != len(explicit):
            raise ScenarioError("explicit packet ids must be unique")
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
            if not 1 <= ev.round <= horizon:
                raise ScenarioError("failure round outside horizon")
        # The round loop's tables. Step 1's events, per round: the
        # recoveries, then the failures, each in config order, as a run
        # writes them. A notification due after the horizon is never
        # delivered, so none is filed.
        tables: tuple[dict, ...] = ({}, {}, {}, {})
        scripted, stalled, faults, notifications = tables
        for ev in self.recoveries:
            if ev.edge not in net.edges:
                raise ScenarioError(f"recovery references unknown edge {ev.edge!r}")
            if not 1 <= ev.round <= horizon:
                raise ScenarioError("recovery round outside horizon")
            faults.setdefault(ev.round, []).append(("recover", ev.round, ev.edge))
        for ev in self.failures:
            faults.setdefault(ev.round, []).append(("fail", ev.round, ev.edge))
            notified = ev.round + ev.notify_delay
            if notified <= horizon:
                notifications.setdefault(notified, []).append(
                    ("fail_notify", notified, ev.edge, ev.round))
        for edge in sorted(self.stalls):
            for t in self.stalls[edge]:
                stalled.setdefault(t, []).append(edge)
        schedule = Schedule(net, self.policy.levels if isinstance(self.policy, Prioritized) else 1,
                            *_fault_pairs(self.failures, self.recoveries, horizon), *tables)
        last = None
        for inj in self.injections:
            rnd, path, priority, _ = inj
            scripted.setdefault(rnd, []).append(inj)
            # A copy of the injection just checked passes as it did; its
            # priority must be an int, as False == 0 and 1.0 == 1.
            if (rnd, path, priority) == last and type(priority) is int:
                continue
            if not 1 <= rnd <= horizon:
                raise ScenarioError(f"injection round {rnd} outside horizon")
            schedule.admit(rnd, path, priority)
            last = rnd, path, priority
        for table in tables:
            for rnd, entries in table.items():
                table[rnd] = tuple(entries)
        return schedule


def _fault_pairs(failures, recoveries, horizon: int):
    """``{(edge, failure round): its recovery round, or None}``, and per
    edge, in round order, the rounds [first, end) from each failure's
    notification to its recovery, or to horizon + 1 without one, in which
    the failure is visible. Only non-empty windows are listed: a failure
    recovered by its notification is never seen. Per edge, failures and
    recoveries alternate, a failure first, one a round."""
    per_edge: dict[str, list[tuple[int, int, int]]] = {}
    for ev in failures:
        per_edge.setdefault(ev.edge, []).append((ev.round, 0, ev.notify_delay))
    for ev in recoveries:
        per_edge.setdefault(ev.edge, []).append((ev.round, 1, 0))
    pairs, windows = {}, {}
    for edge, marks in per_edge.items():
        marks.sort()
        for i, (rnd, kind, delay) in enumerate(marks):
            if i + 1 < len(marks) and marks[i + 1][0] == rnd:
                raise ScenarioError(
                    f"edge {edge!r} has two fault events in round {rnd}")
            if kind != i % 2:
                raise ScenarioError(
                    f"edge {edge!r} fault events must alternate failure/recovery")
            if not kind:
                recovered = marks[i + 1][0] if i + 1 < len(marks) else None
                pairs[edge, rnd] = recovered
                first, end = rnd + delay, recovered or horizon + 1
                if first < end:
                    windows.setdefault(edge, []).append((first, end))
    return pairs, windows


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
        """Per round 1..horizon, the length of ``edge``'s queue after it.

        Folds one count, as ``_fold_queues`` folds every queue: a packet
        joins the queue when it is injected or re-routed with ``edge`` first,
        or when it crosses the edge just before ``edge`` on its path (paths
        repeat no edge), and leaves it when it crosses or is re-routed away.
        """
        size = 0
        series: list[int] = []
        feeds: dict[int, str] = {}  # pid -> the edge it crosses into edge's queue
        rnd, horizon = 1, self.horizon
        for ev in self.events:
            if ev[1] > rnd:
                if ev[1] > horizon:
                    break
                series += [size] * (ev[1] - rnd)
                rnd = ev[1]
            kind = ev[0]
            if kind == "transmit":
                if ev[2] == edge:
                    size -= 1
                elif ev[3] in feeds and feeds[ev[3]] == ev[2]:
                    del feeds[ev[3]]
                    size += 1
                continue
            if kind == "inject":
                pid, ahead = ev[2], ev[3]
            elif kind == "reroute":
                _, _, pid, _old, ahead, left, _fail = ev
                if left == edge:
                    size -= 1
                feeds.pop(pid, None)
            else:
                continue
            if edge in ahead:
                at = ahead.index(edge)
                if at:
                    feeds[pid] = ahead[at - 1]
                else:
                    size += 1
        series += [size] * (horizon - rnd + 1)
        return series

    def digest(self) -> str:
        from .scenario_io import trace_digest

        return trace_digest(self)


class Engine:
    """One deterministic execution; single-threaded by contract.

    ``run`` drives the round pipeline from the next round to the horizon,
    then the drain rounds. ``step`` is the public per-round entry: it runs
    the next round, and only that one, and returns the events that round
    appended. A driver, called as
    ``driver(engine, rnd)`` in the injection phase, returns the round's
    extra injections, after the scripted ones.
    """

    def __init__(self, config: ScenarioConfig, driver=None):
        self.config = config
        self._schedule = config.schedule  # the first read checks the config
        if driver is not None and config.injections and config.injections[0].id is not None:
            raise ScenarioError("a driver cannot add to a script whose injections carry ids")
        self.net = config.network
        self.driver = driver
        self.buckets = BucketSystem(config.adversary, self.net.edges)
        self.trace = ExecutionTrace(config)
        self.queues: dict[str, list[tuple]] = {}  # heaps of packet_key tuples, packet last
        self._key = packet_key(config.policy)
        self._slowness = {eid: e.slowness for eid, e in self.net.edges.items()}
        # Per set of failed links, the live route suffix of each (node,
        # destination) asked for so far; ``_routes`` is the current set's.
        self._routes: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self._routes_by_failed: dict[frozenset[str], dict] = {frozenset(): self._routes}
        self.failed: dict[str, int] = {}  # failed link -> the round it failed
        self.visible_failed: set[str] = set()
        self._next_round = 1
        self._next_pid = 0
        self._injected = 0
        self._absorbed = 0

    # -- the round pipeline ----------------------------------------------------

    def _apply_faults(self, rnd: int, events: list[tuple]):
        append = self.trace.events.append
        for ev in events:
            kind, _, edge = ev
            if kind == "recover":
                del self.failed[edge]
                self.visible_failed.discard(edge)
            else:
                self.failed[edge] = rnd
            append(ev)
        # A route depends only on the network and the failed set, so the
        # routes found for a set stay valid whenever that set recurs.
        self._routes = self._routes_by_failed.setdefault(frozenset(self.failed), {})

    def _deliver_notifications(self, events: list[tuple]):
        for ev in events:
            _, _, edge, fail_round = ev
            self.trace.events.append(ev)
            # A notification for an already recovered edge is delivered but
            # imposes no constraint.
            if self.failed.get(edge) == fail_round:
                self.visible_failed.add(edge)

    def _reroute_blocked(self, rnd: int) -> int:
        """Step 7; returns the number of packets it absorbed."""
        queues, edges, routes = self.queues, self.net.edges, self._routes
        key, append = self._key, self.trace.events.append
        absorbed = 0
        for edge in sorted(self.visible_failed):
            queue = queues.pop(edge, None)
            if queue is None:
                continue
            if len(queue) > 1:
                queue.sort(key=_arrival_order)
            fail_round = self.failed[edge]
            node = edges[edge].tail
            for entry in queue:
                pkt = entry[-1]
                path, idx = pkt.path, pkt.idx
                dest = edges[path[-1]].head
                try:
                    suffix = routes[node, dest]
                except KeyError:
                    # Looked up at call time, where perfbench's tracer patches it.
                    suffix = routes[node, dest] = shortest_path_avoiding(
                        self.net, node, dest, self.failed)
                if suffix is None:
                    raise ScenarioError(
                        f"round {rnd}: packet {pkt.id} at {edge!r} cannot reach "
                        f"{dest!r} avoiding failed links {sorted(self.failed)}",
                        round=rnd, edge=edge)
                pkt.path = path[:idx] + suffix
                append(("reroute", rnd, pkt.id, path[idx:], suffix, edge, fail_round))
                if suffix:
                    pkt.arrival_round = rnd
                    heappush(queues.setdefault(suffix[0], []), key(pkt))
                else:
                    # Remaining path was a detour back to the current node.
                    absorbed += 1
                    append(("absorb", rnd, pkt.id))
        return absorbed

    def _rounds(self, first: int, last: int):
        """Run rounds first..last of the horizon, each through the pipeline.

        The run's state is bound to locals once per call; the packet-id,
        injection and absorption counters live in locals too and are written
        back when the call ends, also when a round raises (that round then
        counts as run).

        Automatic cyclic garbage collection is off for the call: a run makes
        no reference cycles, so the collector's passes over the growing event
        list would free nothing. It is turned back on when the call ends, if
        the caller had it on.
        """
        buckets, queues = self.buckets, self.queues
        tick, tick_antitokens, buy = buckets.tick, buckets.tick_antitokens, buckets.inject
        register_stall = buckets.register_stall
        append, total_of = self.trace.events.append, self.trace.q_totals.append
        schedule = self._schedule
        scripted, stalls = schedule.scripted, schedule.stalled
        faults, notifications = schedule.faults, schedule.notifications
        driver, admit = self.driver, schedule.admit
        delays = self.config.annihilation_delays
        failed, visible, slowness = self.failed, self.visible_failed, self._slowness
        key = self._key
        enforce_buckets = self.config.enforce_buckets
        next_pid, injected, absorbed = self._next_pid, self._injected, self._absorbed
        rnd = first - 1
        collecting = gc.isenabled()
        gc.disable()
        try:
            for rnd in range(first, last + 1):
                # 1-4: faults, bucket tick, antitoken countdown, notifications.
                if rnd in faults:
                    self._apply_faults(rnd, faults[rnd])
                if tick():
                    for how, group in tick_antitokens():
                        append(("annihilate", rnd, group.gid, how))
                if rnd in notifications:
                    self._deliver_notifications(notifications[rnd])
                # 5: injections, the scripted ones first, bought atomically.
                # The config's checks passed the scripted ones; a driver's
                # pass the same gate, and must be for this round and carry
                # no packet id. The object just checked, returned again
                # (a burst), passes as it did.
                requests = scripted.get(rnd)
                if driver is not None:
                    driven = driver(self, rnd)
                    if driven:
                        checked = None
                        for inj in driven:
                            if inj is checked:
                                continue
                            checked = inj
                            inj_round, path, priority, pid = inj
                            if inj_round != rnd:
                                raise ScenarioError(
                                    f"round {rnd}: a driver's injection is for round "
                                    f"{inj_round!r}", round=rnd)
                            if pid is not None:
                                raise ScenarioError(
                                    f"round {rnd}: a driver's injection carries packet id "
                                    f"{pid!r}", round=rnd)
                            admit(rnd, path, priority)
                        requests = [*requests, *driven] if requests else driven
                if requests:
                    if enforce_buckets:
                        result = buy([inj.path for inj in requests])
                        if result is not _AFFORDED:
                            raise ScenarioError(
                                f"round {rnd}: buckets cannot afford the scripted "
                                f"injections, edge {result.insufficient_edge!r} is short",
                                round=rnd, edge=result.insufficient_edge)
                    for _, path, priority, pid in requests:
                        if pid is None:
                            pid = next_pid
                            next_pid += 1
                        pkt = Packet(pid, rnd, path, priority)
                        path = pkt.path
                        queue = queues.get(path[0])
                        if queue is None:
                            queues[path[0]] = [key(pkt)]
                        else:
                            heappush(queue, key(pkt))
                        append(("inject", rnd, pid, path, priority))
                    injected += len(requests)
                # 6: per live link with a queued packet, in link order, the
                # top of its heap stalls or crosses the link.
                if queues:
                    stalled = stalls.get(rnd, ())
                    staged = []
                    for edge in sorted(queues) if len(queues) > 1 else [*queues]:
                        if edge in failed:
                            continue
                        queue = queues[edge]
                        pkt = queue[0][-1]
                        if edge in stalled:
                            group, inline = register_stall(pkt.path[pkt.idx:],
                                                           delays.get((edge, rnd)))
                            append(("stall", rnd, edge, pkt.id, group.gid))
                            for how, g in inline:
                                append(("annihilate", rnd, g.gid, how))
                            continue
                        if len(queue) == 1:
                            del queues[edge]
                        else:
                            heappop(queue)
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
                    # Arrivals join their next queue only now, so that no
                    # packet crosses two links in one round.
                    for pkt in staged:
                        edge = pkt.path[pkt.idx]
                        queue = queues.get(edge)
                        if queue is None:
                            queues[edge] = [key(pkt)]
                        else:
                            heappush(queue, key(pkt))
                # 7: re-routing.
                if visible:
                    absorbed += self._reroute_blocked(rnd)
                # 8: the queue total and packet conservation.
                total = sum(map(len, queues.values())) if queues else 0
                total_of(total)
                if injected != absorbed + total:
                    raise ModelViolation(
                        f"round {rnd}: packet conservation broken ({injected} injected, "
                        f"{absorbed} absorbed, {total} queued)")
        finally:
            if collecting:
                gc.enable()
            self._next_pid, self._injected, self._absorbed = next_pid, injected, absorbed
            self._next_round = rnd + 1

    def step(self, rnd: int):
        """Run round ``rnd``, which must be the next one of the horizon;
        returns the events it appended to the trace.

        Rounds run once each, in order from 1; the queues stay non-empty
        heaps between rounds, so an empty dict means nothing is queued.
        """
        expected = self._next_round
        if rnd != expected or rnd > self.config.horizon:
            raise ContractViolation(
                f"cannot step round {rnd}: the next round is {expected}, "
                f"and the horizon is {self.config.horizon}")
        events = self.trace.events
        start = len(events)
        self._rounds(rnd, rnd)
        return events[start:]

    def run(self) -> ExecutionTrace:
        """Run from the next round to the horizon, then the drain rounds."""
        horizon, last = self.config.horizon, self.config.last_round
        self._rounds(self._next_round, horizon)
        # Drain phase: groups created near the horizon still annihilate so
        # every stall's feedback round is on record.
        append, buckets = self.trace.events.append, self.buckets
        for rnd in range(self._next_round, last + 1):
            buckets.tick()
            for how, group in buckets.tick_antitokens():
                append(("annihilate", rnd, group.gid, how))
        self._next_round = last + 1
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
    (``Schedule.fault_pairs``); every packet re-routed because of
    that failure must have been absorbed strictly before the recovery round.
    """
    reroutes: dict[tuple[str, int], list[int]] = {}
    for ev in trace.events_of("reroute"):
        _, _, pid, _, _, edge, fail_round = ev
        reroutes.setdefault((edge, fail_round), []).append(pid)
    failure_of = {(edge, rec): fail
                  for (edge, fail), rec in trace.config.schedule.fault_pairs.items() if rec}
    packets = trace.packets
    violations = []
    for rec in trace.config.recoveries:
        for pid in reroutes.get((rec.edge, failure_of[rec.edge, rec.round]), ()):
            absorbed = packets[pid].absorbed_round
            if absorbed is None or absorbed >= rec.round:
                violations.append(
                    RecoveryViolation(rec.edge, rec.round, pid, absorbed))
    return RecoveryVerdict(not violations, tuple(violations))
