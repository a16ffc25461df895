"""Stability probing, the re-routing overload gadget, random scenarios.

Boundedness is not decidable from a finite trace; the probe reports
growth heuristics over fixed windows and says so in its verdict names.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

from .buckets import AdversaryType
from .engine import Engine, ExecutionTrace, FailureEvent, Injection, RecoveryEvent, ScenarioConfig
from .errors import ModelViolation, ScenarioError
from .netmodel import Edge, Network

BOUNDED = "bounded-within-horizon"
GROWTH = "growth-detected"


@dataclass(frozen=True)
class StabilityReport:
    window: int
    k: int
    g: int
    maxima: tuple[int, ...]  # max total queued per window
    overall_max: int
    verdict: str
    witness: tuple[int, ...] = ()  # window indices of the growth run


def probe_stability(trace: ExecutionTrace, window: int = 50, k: int = 4,
                    g: int = 1) -> StabilityReport:
    """Growth heuristic: k consecutive windows each raising the max by >= g."""
    if window < 1 or k < 1 or g < 1:
        raise ScenarioError("window, k and g must be positive")
    if trace.horizon < 2 * window * k:
        raise ScenarioError(
            f"horizon {trace.horizon} too short to probe with window={window}, k={k}")
    totals = trace.q_totals
    maxima = tuple(
        max(totals[i: i + window])
        for i in range(0, len(totals) - window + 1, window))
    run = 0
    for i in range(1, len(maxima)):
        run = run + 1 if maxima[i] - maxima[i - 1] >= g else 0
        if run >= k:
            witness = tuple(range(i - k, i + 1))
            return StabilityReport(window, k, g, maxima, max(totals),
                                   GROWTH, witness)
    return StabilityReport(window, k, g, maxima, max(totals) if totals else 0,
                           BOUNDED)


def sweep(fn, items, workers: int = 1) -> list:
    """``[fn(item) for item in items]``, in item order, on worker processes.

    Runs on ``min(workers, len(items))`` processes of the platform's
    default start method, or in this process when that is one. ``fn`` and
    the items travel to the workers pickled, so ``fn`` is a module-level
    function or a ``functools.partial`` of one. The first item to raise, in
    item order, raises here; items not yet started are cancelled.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here, not with the module: it costs every process that
    # imports aqsim memory and start-up time, and most never sweep.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


# -- re-routing overload gadget ------------------------------------------------


@dataclass(frozen=True)
class ReroutingGadget:
    """Branching topology whose cyclic fail/recover schedule overloads a hub.

    Per branch i: src_i -> mid_i (a_i), mid_i -> dst_i (b_i, the failing
    link), mid_i -> hub (c_i), hub -> hub2 (g_i, parallel per branch) and
    hub2 -> dst_i (d_i). Bursts injected at src_i toward dst_i get cut off
    by b_i failing the same round, re-route through the hub, and the hub
    link serves one packet a round while every cycle delivers a burst per
    branch. Recoveries happen right after the re-routes, before the
    re-routed packets drain, which is exactly the recovery discipline the
    recovery validator rejects.
    """

    branches: int
    burst: int
    fail_duration: int
    cycles: int
    warmup: int
    cycle_length: int
    bottleneck_edge: str
    config: ScenarioConfig

    def cycle_end_rounds(self):
        return [self.warmup + (c + 1) * self.cycle_length - 1
                for c in range(self.cycles)]


def rerouting_gadget(branches: int = 2, burst: int = 10, fail_duration: int = 10,
                     cycles: int = 200) -> ReroutingGadget:
    if branches < 1 or burst < 1 or fail_duration < 1 or cycles < 1:
        raise ScenarioError("gadget parameters must be positive")
    rate = Fraction(9, 10)
    # A cycle must refill the burst's tokens and outlast the failure.
    cycle = max(fail_duration + 2, math.ceil(burst / rate))
    warmup = math.ceil(burst / rate)
    horizon = warmup + cycles * cycle - 1

    nodes = ["hub", "hub2"]
    edges = []
    for i in range(1, branches + 1):
        nodes += [f"src{i}", f"mid{i}", f"dst{i}"]
        edges += [
            Edge(f"a{i}", f"src{i}", f"mid{i}"),
            Edge(f"b{i}", f"mid{i}", f"dst{i}"),
            Edge(f"c{i}", f"mid{i}", "hub"),
            Edge(f"g{i}", "hub", "hub2"),
            Edge(f"d{i}", "hub2", f"dst{i}"),
        ]
    net = Network(nodes, edges)

    injections = []
    failures = []
    recoveries = []
    for c in range(cycles):
        start = warmup + c * cycle
        for i in range(1, branches + 1):
            injections.extend(
                Injection(start, (f"a{i}", f"b{i}")) for _ in range(burst))
            failures.append(FailureEvent(f"b{i}", start, notify_delay=1))
            if start + fail_duration <= horizon:
                recoveries.append(RecoveryEvent(f"b{i}", start + fail_duration))
    config = ScenarioConfig(
        network=net,
        adversary=AdversaryType(rate, burst, 1),
        policy="FIFO",
        horizon=horizon,
        injections=tuple(injections),
        failures=tuple(failures),
        recoveries=tuple(recoveries),
        tau=1,
        tau_prime=1,
    )
    # All parallel hub links share tail and head; shortest-path tie-breaks
    # send every re-route over the lexicographically first one.
    return ReroutingGadget(branches, burst, fail_duration, cycles, warmup,
                           cycle, "g1", config)


# -- re-route accounting -------------------------------------------------------


@dataclass(frozen=True)
class RerouteCount:
    per_failure: dict  # (edge, failure round) -> packets re-routed because of it
    total: int
    last_round: int | None  # round of the last re-route, None if none


def count_rerouted(trace: ExecutionTrace) -> RerouteCount:
    per_failure: dict[tuple[str, int], int] = {}
    last = None
    total = 0
    for _, rnd, _pid, _old, _new, edge, fail_round in trace.events_of("reroute"):
        key = (edge, fail_round)
        per_failure[key] = per_failure.get(key, 0) + 1
        total += 1
        last = rnd if last is None else max(last, rnd)
    return RerouteCount(per_failure, total, last)


def injections_after_notification(trace: ExecutionTrace):
    """Injections routed over a link while its failure was known.

    The engine refuses these outright; this checker exists for imported
    traces. Returns a list of (round, packet id, edge).
    """
    notified_at: dict[tuple[str, int], int] = {}
    for _, rnd, edge, fail_round in trace.events_of("fail_notify"):
        notified_at[(edge, fail_round)] = rnd
    recovered_at = trace.config.fault_pairs()
    bad = []
    for _, rnd, pid, path, _pri in trace.events_of("inject"):
        for edge in path:
            for (e, fail_round), note in notified_at.items():
                until = recovered_at.get((e, fail_round)) or rnd + 1
                if e == edge and note <= rnd < until:
                    bad.append((rnd, pid, edge))
    return bad


# -- random scenario generation ------------------------------------------------


def random_network(rng: random.Random, lo: int = 4, hi: int = 12) -> Network:
    """Strongly connected digraph: a node cycle plus random chords."""
    n = rng.randint(lo, hi)
    names = [f"n{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    used = set(pairs)
    extra = rng.randint(n // 2, 2 * n)
    for _ in range(extra):
        tail, head = rng.choice(names), rng.choice(names)
        if tail == head or (tail, head) in used:
            continue
        used.add((tail, head))
        pairs.append((tail, head))
    edges = [Edge(f"e{i:03d}", tail, head, rng.choice((1, 1, 1, 2, 3)))
             for i, (tail, head) in enumerate(pairs)]
    return Network(names, edges)


def strongly_connected(net: Network, removed=frozenset()) -> bool:
    alive = [e for e in net.edges.values() if e.id not in removed]
    fwd: dict[str, list[str]] = {n: [] for n in net.nodes}
    rev: dict[str, list[str]] = {n: [] for n in net.nodes}
    for e in alive:
        fwd[e.tail].append(e.head)
        rev[e.head].append(e.tail)
    start = net.sorted_nodes[0]
    for adj in (fwd, rev):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) != len(net.nodes):
            return False
    return True


def random_simple_path(rng: random.Random, net: Network, avoid, max_len: int):
    """Edge-distinct random walk of 1..max_len hops, or None if stuck."""
    node = rng.choice(net.sorted_nodes)
    target = rng.randint(1, max_len)
    path = []
    used = set()
    for _ in range(target):
        options = [e for e in net.out_edges[node]
                   if e not in used and e not in avoid]
        if not options:
            break
        eid = rng.choice(options)
        path.append(eid)
        used.add(eid)
        node = net.edges[eid].head
    return tuple(path) if path else None


class GreedyDriver:
    """Injects whenever the buckets can afford it, on random simple paths.

    Deterministic given its seed. Respects refusals by probing levels
    before submitting, and never routes over a link with a delivered
    failure notification. Beside a scripted run it leaves on each edge the
    tokens the script still needs (``_ScriptReserve``), so its injections
    do not leave a scripted one short, antitoken annihilations aside.
    """

    def __init__(self, seed: int, inject_prob: float = 0.9, max_path_len: int = 4,
                 max_burst: int = 1):
        self.rng = random.Random(seed)
        self.inject_prob = inject_prob
        self.max_path_len = max_path_len
        self.max_burst = max_burst
        self._reserve = None

    def __call__(self, engine: Engine, rnd: int):
        if self.rng.random() >= self.inject_prob:
            return []
        path = random_simple_path(self.rng, engine.net, engine.visible_failed,
                                  self.max_path_len)
        if path is None:
            return []
        want = self.rng.randint(1, self.max_burst) if self.max_burst > 1 else 1
        config = engine.config
        if config.enforce_buckets:
            # Whole tokens floor the level where int() of the Fraction would
            # truncate it; the two differ only below zero, and max(0, ...)
            # clamps both to 0.
            whole_tokens = engine.buckets.whole_tokens
            if config.injections:
                reserve = self._reserve
                if reserve is None or reserve.script is not config.injections:
                    reserve = self._reserve = _ScriptReserve(config)
                afford = min(whole_tokens(edge) - reserve.tokens(edge, rnd)
                             for edge in path)
            else:
                afford = min((whole_tokens(edge) for edge in path), default=0)
            want = min(want, max(0, afford))
        if want < 1:
            return []
        return [Injection(rnd, path) for _ in range(want)]


class _ScriptReserve:
    """The tokens a scripted run must keep on each edge, round by round.

    An edge's level before the injection phase of a scripted round must
    cover that round's scripted demand. Between phases the level gains the
    rate and clamps at the burst, so the level kept after round t's
    purchases serves every later scripted round when it is at least
    max(0, cover(n) - (n - t) * rate), with n the next scripted round on
    the edge and cover(n) its demand plus what it must keep in turn.
    Levels are scaled by the rate denominator, as in ``BucketSystem``.
    Antitoken annihilations are not foreseen: they depend on the run.
    """

    def __init__(self, config: ScenarioConfig):
        self.script = config.injections
        self._num = config.adversary.rate.numerator
        self._den = config.adversary.rate.denominator
        demand: dict[str, dict[int, int]] = {}
        for inj in config.injections:
            for edge in inj.path:
                per_round = demand.setdefault(edge, {})
                per_round[inj.round] = per_round.get(inj.round, 0) + 1
        # edge -> (its scripted rounds in order, their covers, demand per round)
        self._edges: dict[str, tuple[list[int], list[int], dict[int, int]]] = {}
        for edge, per_round in demand.items():
            rounds = sorted(per_round)
            covers = [0] * len(rounds)
            for i in range(len(rounds) - 1, -1, -1):
                covers[i] = (per_round[rounds[i]] * self._den
                             + self._kept(rounds, covers, i + 1, rounds[i]))
            self._edges[edge] = rounds, covers, per_round

    def _kept(self, rounds, covers, i, rnd) -> int:
        """The scaled level to keep after round ``rnd``, whose next scripted
        round is ``rounds[i]``."""
        if i == len(rounds):
            return 0
        return max(0, covers[i] - (rounds[i] - rnd) * self._num)

    def tokens(self, edge: str, rnd: int) -> int:
        """Whole tokens the script needs on ``edge`` in round ``rnd``."""
        entry = self._edges.get(edge)
        if entry is None:
            return 0
        rounds, covers, per_round = entry
        kept = self._kept(rounds, covers, bisect_right(rounds, rnd), rnd)
        return per_round.get(rnd, 0) - (-kept // self._den)


def _stall_rounds(rng: random.Random, horizon: int, tau: int, density: float):
    """Runs of at most tau consecutive stalls separated by random gaps."""
    if density <= 0:
        return frozenset()
    mean_run = (1 + tau) / 2
    mean_gap = max(1.0, mean_run * (1 - density) / density)
    rounds = []
    t = 1 + int(rng.expovariate(1.0 / mean_gap))
    while t <= horizon:
        run = rng.randint(1, tau)
        rounds.extend(range(t, min(t + run, horizon + 1)))
        t += run + 1 + int(rng.expovariate(1.0 / mean_gap))
    return frozenset(rounds)


def gen_random_scenario(seed: int, *, rate: Fraction, burst: int, delay: int,
                        tau: int, policy, horizon: int, nodes=(4, 12),
                        stall_density: float = 0.08, inject_prob: float = 0.9,
                        max_path_len: int = 4, max_burst: int | None = None,
                        failures: int = 0, tau_prime: int = 2,
                        with_trace: bool = False):
    """A complete random scenario, fully determined by the seed.

    Injections are decided by running the engine once with a greedy
    driver, so the recorded script is feasible by construction: replaying
    it reproduces the co-run bit for bit.
    """
    rng = random.Random(seed)
    net = random_network(rng, *nodes)
    stalls = {}
    for edge in net.edge_ids():
        rounds = _stall_rounds(rng, horizon, tau, stall_density)
        if rounds:
            stalls[edge] = rounds
    delays = {(edge, rnd): rng.randint(0, delay)
              for edge in sorted(stalls) for rnd in sorted(stalls[edge])}

    fail_events = []
    if failures:
        chosen = []
        for eid in sorted(net.edges, key=lambda e: rng.random()):
            if len(chosen) == failures:
                break
            if strongly_connected(net, frozenset(chosen + [eid])):
                chosen.append(eid)
        shortfall = failures - len(chosen)
        if shortfall:
            # Not enough individually removable edges: give the remaining
            # victims a parallel twin so a one-edge detour always exists.
            edge_list = [net.edges[e] for e in sorted(net.edges)]
            pickable = [e for e in sorted(net.edges) if e not in chosen]
            for eid in rng.sample(pickable, shortfall):
                orig = net.edges[eid]
                edge_list.append(Edge(f"e{len(edge_list):03d}", orig.tail,
                                      orig.head, orig.slowness))
                chosen.append(eid)
            net = Network(net.nodes, edge_list)
            if not strongly_connected(net, frozenset(chosen)):
                raise ModelViolation("twinned failure victims left the network "
                                     "not strongly connected")
        lo, hi = max(1, horizon // 4), max(1, horizon // 2)
        for eid in sorted(chosen):
            fail_events.append(
                FailureEvent(eid, rng.randint(lo, hi), rng.randint(0, tau_prime)))
        fail_events.sort(key=lambda ev: (ev.round, ev.edge))

    config = ScenarioConfig(
        network=net,
        adversary=AdversaryType(rate, burst, delay),
        policy=policy,
        horizon=horizon,
        stalls=stalls,
        annihilation_delays=delays,
        failures=tuple(fail_events),
        tau=tau,
        tau_prime=tau_prime,
        seed=seed,
    )
    driver = GreedyDriver(seed ^ 0x9E3779B9, inject_prob, max_path_len,
                          max_burst or burst)
    trace = Engine(config, driver=driver).run()
    script = tuple(Injection(ev[1], ev[3], ev[4])
                   for ev in trace.events if ev[0] == "inject")
    final = replace(config, injections=script)
    if with_trace:
        return final, trace
    return final
