import pytest
from hypothesis import given, strategies as st

from aqsim.errors import ScenarioError
from aqsim.netmodel import (DISCONTINUITY, EMPTY_PATH, REPEATED_EDGE,
                            UNKNOWN_EDGE, Edge, Network,
                            shortest_path_avoiding, validate_path)


@pytest.fixture
def triangle():
    return Network(
        ["a", "b", "c"],
        [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ca", "c", "a")],
    )


def test_network_rejects_duplicate_edge_ids():
    with pytest.raises(ScenarioError):
        Network(["a", "b"], [Edge("e", "a", "b"), Edge("e", "b", "a")])


def test_network_rejects_unknown_endpoint():
    with pytest.raises(ScenarioError):
        Network(["a"], [Edge("e", "a", "zzz")])


def test_network_needs_a_node():
    with pytest.raises(ScenarioError):
        Network([], [])


def test_multigraph_edges_allowed():
    net = Network(["a", "b"], [Edge("e1", "a", "b"), Edge("e2", "a", "b")])
    assert net.out_edges["a"] == ("e1", "e2")


def test_single_edge_path_valid(triangle):
    assert validate_path(triangle, ("ab",)).ok


def test_repeated_edge_reported_at_index_3(triangle):
    verdict = validate_path(triangle, ("ab", "bc", "ca", "ab"))
    assert not verdict
    assert verdict.kind == REPEATED_EDGE
    assert verdict.index == 3


def test_discontinuity_reported_at_index_1():
    net = Network(["a", "b", "c", "d"],
                  [Edge("ab", "a", "b"), Edge("cd", "c", "d")])
    verdict = validate_path(net, ("ab", "cd"))
    assert verdict.kind == DISCONTINUITY
    assert verdict.index == 1


def test_unknown_edge_is_its_own_category(triangle):
    verdict = validate_path(triangle, ("ab", "nope"))
    assert verdict.kind == UNKNOWN_EDGE
    assert verdict.index == 1


def test_empty_path_rejected(triangle):
    assert validate_path(triangle, ()).kind == EMPTY_PATH


def test_node_revisits_are_fine(triangle):
    # Edge-distinct paths may pass through a node twice.
    net = Network(
        ["a", "b", "c"],
        [Edge("ab", "a", "b"), Edge("ba", "b", "a"), Edge("ab2", "a", "b"),
         Edge("bc", "b", "c")],
    )
    assert validate_path(net, ("ab", "ba", "ab2", "bc")).ok


@st.composite
def small_net_and_walk(draw):
    n = draw(st.integers(3, 6))
    nodes = [f"n{i}" for i in range(n)]
    edges = [Edge(f"e{i}", nodes[i], nodes[(i + 1) % n]) for i in range(n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=6))
    for j, (a, b) in enumerate(extra):
        if a != b:
            edges.append(Edge(f"x{j}", nodes[a], nodes[b]))
    net = Network(nodes, edges)
    path = draw(st.lists(st.sampled_from(sorted(net.edges)), min_size=1, max_size=6))
    return net, tuple(path)


@given(small_net_and_walk())
def test_validate_path_matches_direct_definition(net_and_path):
    net, path = net_and_path
    verdict = validate_path(net, path)
    consecutive = all(
        net.edges[path[i]].head == net.edges[path[i + 1]].tail
        for i in range(len(path) - 1))
    distinct = len(set(path)) == len(path)
    assert verdict.ok == (consecutive and distinct)


def test_shortest_path_prefers_fewest_edges():
    net = Network(
        ["a", "b", "c"],
        [Edge("ab", "a", "b"), Edge("bc", "b", "c"), Edge("ac", "a", "c")],
    )
    assert shortest_path_avoiding(net, "a", "c", set()) == ("ac",)
    assert shortest_path_avoiding(net, "a", "c", {"ac"}) == ("ab", "bc")


def test_shortest_path_breaks_ties_lexicographically():
    net = Network(
        ["a", "b"],
        [Edge("p2", "a", "b"), Edge("p1", "a", "b"), Edge("p3", "a", "b")],
    )
    assert shortest_path_avoiding(net, "a", "b", set()) == ("p1",)
    assert shortest_path_avoiding(net, "a", "b", {"p1"}) == ("p2",)


def test_shortest_path_unreachable_returns_none():
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    assert shortest_path_avoiding(net, "b", "a", set()) is None
    assert shortest_path_avoiding(net, "a", "b", {"ab"}) is None


def test_shortest_path_same_node_is_empty():
    net = Network(["a", "b"], [Edge("ab", "a", "b")])
    assert shortest_path_avoiding(net, "a", "a", set()) == ()
