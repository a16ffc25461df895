"""Directed network, routes, packets and per-edge queues.

The state space every other module operates on. Networks are directed
multigraphs (several edges between the same node pair are allowed, each
with its own id). A path is a tuple of edge ids; packet paths must be
consecutive and must not use any edge twice, though they may revisit
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScenarioError


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    slowness: int = 1  # static per-edge weight, only SPL-NFS ordering reads it


class Network:
    """Immutable directed multigraph with stable, sorted adjacency."""

    def __init__(self, nodes, edges):
        self.nodes = frozenset(nodes)
        if not self.nodes:
            raise ScenarioError("network needs at least one node")
        self.sorted_nodes: tuple[str, ...] = tuple(sorted(self.nodes))
        self.edges: dict[str, Edge] = {}
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in edges:
            if e.id in self.edges:
                raise ScenarioError(f"duplicate edge id {e.id!r}")
            if e.tail not in self.nodes or e.head not in self.nodes:
                raise ScenarioError(f"edge {e.id!r} references unknown node")
            if e.slowness < 1:
                raise ScenarioError(f"edge {e.id!r} slowness must be >= 1")
            self.edges[e.id] = e
            out[e.tail].append(e.id)
        self.out_edges: dict[str, tuple[str, ...]] = {
            n: tuple(sorted(ids)) for n, ids in out.items()
        }

    def edge_ids(self):
        return sorted(self.edges)


# Error categories reported by validate_path.
UNKNOWN_EDGE = "unknown_edge"
DISCONTINUITY = "discontinuity"
REPEATED_EDGE = "repeated_edge"
EMPTY_PATH = "empty_path"


@dataclass(frozen=True)
class PathVerdict:
    ok: bool
    kind: str | None = None
    index: int | None = None

    def __bool__(self):
        return self.ok


def validate_path(net: Network, path) -> PathVerdict:
    """Check a path is consecutive and uses no edge twice.

    Reports the first violated constraint and its index. Unknown edge ids
    are a distinct category from structural violations.
    """
    if not path:
        return PathVerdict(False, EMPTY_PATH, 0)
    seen = set()
    prev_head = None
    for i, eid in enumerate(path):
        edge = net.edges.get(eid)
        if edge is None:
            return PathVerdict(False, UNKNOWN_EDGE, i)
        if prev_head is not None and edge.tail != prev_head:
            return PathVerdict(False, DISCONTINUITY, i)
        if eid in seen:
            return PathVerdict(False, REPEATED_EDGE, i)
        seen.add(eid)
        prev_head = edge.head
    return PathVerdict(True)


class Packet:
    """A unit of traffic with its traversal state.

    ``idx`` is the 0-based position of the next edge to traverse;
    ``idx == len(path)`` means the packet has been absorbed. While in
    transit the packet physically waits at the tail node of
    ``path[idx]``, i.e. in that edge's queue. The path is one that
    ``validate_path`` accepts, so it is never empty.
    """

    __slots__ = ("id", "injected_at", "path", "idx", "priority", "arrival_round",
                 "prev_slowness")

    def __init__(self, pid, injected_at, path, priority=0):
        self.id = pid
        self.injected_at = injected_at
        self.path = tuple(path)
        self.idx = 0
        self.priority = priority
        self.arrival_round = injected_at
        self.prev_slowness = 0  # no previous link before the first hop

    def __repr__(self):
        return f"<Packet {self.id} idx={self.idx} path={'/'.join(self.path)}>"


def shortest_path_avoiding(net: Network, src: str, dst: str, avoid) -> tuple[str, ...] | None:
    """Fewest-edges path from src to dst skipping ``avoid`` edges.

    Among equal-length paths returns the lexicographically smallest edge-id
    sequence, which keeps re-routing deterministic. Returns None when dst
    is unreachable. BFS paths never repeat a node, so they never repeat an
    edge either.
    """
    if src == dst:
        return ()
    # Distance-to-destination over reversed edges.
    dist = {dst: 0}
    frontier = [dst]
    incoming: dict[str, list[Edge]] = {n: [] for n in net.nodes}
    for e in net.edges.values():
        if e.id not in avoid:
            incoming[e.head].append(e)
    while frontier:
        nxt = []
        for node in frontier:
            for e in incoming[node]:
                if e.tail not in dist:
                    dist[e.tail] = dist[node] + 1
                    nxt.append(e.tail)
        frontier = nxt
    if src not in dist:
        return None
    # Greedy forward walk: smallest edge id that stays on a shortest path.
    path = []
    node = src
    while node != dst:
        step = None
        for eid in net.out_edges[node]:
            if eid in avoid:
                continue
            head = net.edges[eid].head
            if dist.get(head) == dist[node] - 1:
                step = eid
                break  # out_edges sorted, first hit is lexicographic min
        if step is None:  # pragma: no cover - dist guarantees a step exists
            return None
        path.append(step)
        node = net.edges[step].head
    return tuple(path)
