"""Stability probing, the re-routing overload gadget, random scenarios.

Boundedness is not decidable from a finite trace; the probe reports
growth heuristics over fixed windows and says so in its verdict names.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .buckets import AdversaryType
from .engine import (Engine, ExecutionTrace, FailureEvent, Injection, RecoveryEvent,
                     ScenarioConfig, _injection)
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

    The engine refuses these outright; this scan of every window is the
    oracle of its check. Returns a list of (round, packet id, edge).
    """
    windows = trace.config.schedule.edge_windows
    bad = []
    for _, rnd, pid, path, _pri in trace.events_of("inject"):
        for edge in path:
            for first, end in windows.get(edge, ()):
                if first <= rnd < end:
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


class GreedyDriver:
    """Injects whenever the buckets can afford it, on random simple paths.

    Deterministic given its seed. Respects refusals by probing levels
    before submitting, and never routes over a link with a delivered
    failure notification. It drives scriptless scenarios: its injections
    are the run's only ones, as in the co-run of ``gen_random_scenario``.

    ``script`` lists the injections it has returned, in order, a burst's
    one object once per copy. It accumulates across runs of one driver, so
    after a single run it is that run's script. Paths of at most
    ``max_path_len`` links and bursts of at most ``max_burst`` copies are
    drawn, so each must be at least 1.
    """

    def __init__(self, seed: int, inject_prob: float = 0.9, max_path_len: int = 4,
                 max_burst: int = 1):
        if max_path_len < 1 or max_burst < 1:
            raise ScenarioError("max_path_len and max_burst must be positive")
        self.rng = random.Random(seed)
        self.inject_prob = inject_prob
        self.max_path_len = max_path_len
        self.max_burst = max_burst
        self.script: list[Injection] = []
        # The walk's successor table of the last network driven: per link,
        # the links out of its head.
        self._net = None
        self._next: dict[str, tuple[str, ...]] = {}

    def __call__(self, engine: Engine, rnd: int):
        rng = self.rng
        if rng.random() >= self.inject_prob:
            return []
        # A random walk of 1..max_path_len hops from a random node, over
        # distinct links with no visible failure; it stops where none is left.
        net, avoid, bits = engine.net, engine.visible_failed, rng.getrandbits
        if net is not self._net:
            self._next = {eid: net.out_edges[e.head] for eid, e in net.edges.items()}
            self._net = net
        out_edges, successors, nodes = net.out_edges, self._next, net.sorted_nodes
        node = nodes[_below(bits, len(nodes))]
        hops = 1 + _below(bits, self.max_path_len)
        options = [e for e in out_edges[node] if e not in avoid] if avoid else out_edges[node]
        if not options:
            return []
        eid = options[_below(bits, len(options))]
        path = [eid]
        for _ in range(hops - 1):
            options = [e for e in successors[eid] if e not in path and e not in avoid]
            if not options:
                break
            eid = options[_below(bits, len(options))]
            path.append(eid)
        path = tuple(path)
        max_burst = self.max_burst
        want = 1 + _below(bits, max_burst) if max_burst > 1 else 1
        if engine.config.enforce_buckets:
            # Whole tokens floor the level where int() of the Fraction would
            # truncate it; the two differ only below zero, and max(0, ...)
            # clamps both to 0.
            want = min(want, max(0, engine.buckets.whole_tokens(path)))
        if want < 1:
            return []
        # An Injection is immutable, so one object serves the whole burst.
        batch = [_injection((rnd, path, 0, None))] * want
        self.script += batch
        return batch


def _below(getrandbits, n: int) -> int:
    """A uniform draw from range(n), n >= 1, by the rejection loop that
    ``random.Random._randbelow`` runs on Python 3.10 to 3.13: on one seed,
    ``seq[_below(rng.getrandbits, len(seq))]`` draws what ``rng.choice(seq)``
    draws, and ``a + _below(rng.getrandbits, b - a + 1)`` what
    ``rng.randint(a, b)`` draws. It skips the method lookups of those calls."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _stall_rounds(rng: random.Random, horizon: int, tau: int, density: float):
    """Runs of at most tau consecutive stalls separated by random gaps."""
    if density <= 0:
        return frozenset()
    mean_run = (1 + tau) / 2
    mean_gap = max(1.0, mean_run * (1 - density) / density)
    rounds = []
    bits = rng.getrandbits
    t = 1 + int(rng.expovariate(1.0 / mean_gap))
    while t <= horizon:
        run = 1 + _below(bits, tau)
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
    driver, and the driver's ``script`` is the recorded script, so it is
    feasible by construction: replaying it reproduces the co-run bit for
    bit. With ``with_trace``, the co-run is returned too, bound to the
    returned scenario. Parameters no scenario can have (``max_burst`` of
    None means ``burst``) are refused before the first draw.
    """
    adversary = AdversaryType(rate, burst, delay)
    if tau < 1 or tau_prime < 1:
        raise ScenarioError("tau and tau_prime must be positive")
    if horizon < 0:
        raise ScenarioError("horizon must be >= 0")
    if failures < 0:
        raise ScenarioError("failures must be >= 0")
    if max_path_len < 1 or (max_burst is not None and max_burst < 1):
        raise ScenarioError("max_path_len and max_burst must be positive")
    rng = random.Random(seed)
    net = random_network(rng, *nodes)
    stalls = {}
    for edge in net.edge_ids():
        rounds = _stall_rounds(rng, horizon, tau, stall_density)
        if rounds:
            stalls[edge] = rounds
    bits = rng.getrandbits
    delays = {(edge, rnd): _below(bits, delay + 1)
              for edge in sorted(stalls) for rnd in sorted(stalls[edge])}

    fail_events = []
    if failures > len(net.edges):
        raise ScenarioError(
            f"{failures} failures asked of a network of {len(net.edges)} edges")
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
            fail_events.append(FailureEvent(eid, lo + _below(bits, hi - lo + 1),
                                            _below(bits, tau_prime + 1)))
        fail_events.sort(key=lambda ev: (ev.round, ev.edge))

    config = ScenarioConfig(
        network=net,
        adversary=adversary,
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
                          burst if max_burst is None else max_burst)
    trace = Engine(config, driver=driver).run()
    final = replace(config, injections=tuple(driver.script))
    if with_trace:
        trace.config = final  # the co-run is the run of the recorded script
        return final, trace
    return final
