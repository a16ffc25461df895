import heapq
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from aqsim.errors import ContractViolation
from aqsim.policies import (FFS, FIFO, FTG, LIS, NFS, NTG, POLICY_NAMES,
                            SIS, SPL_NFS, Prioritized, packet_key,
                            parse_policy, select_packet)


@dataclass(frozen=True)
class PacketView:
    """The metadata a policy may key on, detached from engine state."""

    id: int
    arrival_round: int
    injected_at: int
    traversed: int
    remaining: int
    prev_slowness: int = 0
    priority: int = 0

    # The keys read a packet's position on its path, as the engine's
    # packets hold it: idx edges crossed, len(path) - idx left.
    @property
    def idx(self):
        return self.traversed

    @property
    def path(self):
        return ("edge",) * (self.traversed + self.remaining)


def view(pid, arrival=1, injected=1, traversed=0, remaining=1, slowness=0, pri=0):
    return PacketView(pid, arrival, injected, traversed, remaining, slowness, pri)


def test_distance_policies():
    a = view(1, remaining=3)
    b = view(2, remaining=1)
    assert select_packet(NTG, [a, b]).id == 2
    assert select_packet(FTG, [a, b]).id == 1


def test_system_time_policies():
    a = view(1, injected=2)
    b = view(2, injected=7)
    assert select_packet(SIS, [a, b]).id == 2
    assert select_packet(LIS, [a, b]).id == 1


def test_source_distance_policies():
    a = view(1, traversed=4)
    b = view(2, traversed=1)
    assert select_packet(NFS, [a, b]).id == 2
    assert select_packet(FFS, [a, b]).id == 1


def test_fifo_prefers_earliest_arrival():
    assert select_packet(FIFO, [view(5, arrival=9), view(9, arrival=2)]).id == 9


def test_priority_wrapper_overrides_base_order():
    low_early = view(1, arrival=1, pri=0)
    high_late = view(2, arrival=8, pri=1)
    assert select_packet(Prioritized(FIFO), [low_early, high_late]).id == 2


def test_priority_wrapper_falls_back_to_base_within_level():
    a = view(1, arrival=3, pri=1)
    b = view(2, arrival=2, pri=1)
    c = view(3, arrival=1, pri=0)
    assert select_packet(Prioritized(FIFO), [a, b, c]).id == 2


def test_spl_prefers_slowest_previous_link_then_nfs():
    a = view(1, traversed=5, slowness=2)
    b = view(2, traversed=1, slowness=3)
    c = view(3, traversed=0, slowness=3)
    assert select_packet(SPL_NFS, [a, b, c]).id == 3  # slowest link, then fewest traversed


def test_spl_degenerates_to_nfs_on_equal_slowness():
    views = [view(1, traversed=2, slowness=1), view(2, traversed=0, slowness=1)]
    assert select_packet(SPL_NFS, views).id == select_packet(NFS, views).id


def test_residual_tie_breaks_on_min_id():
    views = [view(7), view(3), view(5)]
    for name in POLICY_NAMES:
        assert select_packet(name, views).id == 3


def test_empty_candidates_is_a_contract_error():
    with pytest.raises(ContractViolation):
        select_packet(FIFO, [])


def test_parse_policy():
    assert parse_policy("FTG") == FTG
    assert parse_policy("FTG", 2) == Prioritized(FTG, 2)
    with pytest.raises(ContractViolation):
        parse_policy("bogus")
    with pytest.raises(ContractViolation):
        parse_policy("FTG", 1)


views_strategy = st.lists(
    st.builds(
        PacketView,
        id=st.integers(0, 50),
        arrival_round=st.integers(1, 9),
        injected_at=st.integers(1, 9),
        traversed=st.integers(0, 5),
        remaining=st.integers(1, 5),
        prev_slowness=st.integers(0, 3),
        priority=st.integers(0, 1),
    ),
    min_size=1, max_size=8, unique_by=lambda v: v.id)

any_policy = st.one_of(
    st.sampled_from(POLICY_NAMES),
    st.sampled_from(POLICY_NAMES).map(lambda n: Prioritized(n, 2)))


@given(any_policy, views_strategy, st.randoms())
def test_choice_is_permutation_invariant(policy, views, rng):
    shuffled = views[:]
    rng.shuffle(shuffled)
    assert select_packet(policy, views).id == select_packet(policy, shuffled).id


@given(any_policy, views_strategy)
def test_heap_on_packet_key_pops_in_selection_order(policy, views):
    key = packet_key(policy)
    heap = []
    for v in views:
        heapq.heappush(heap, (key(v), v))
    popped = [heapq.heappop(heap)[1].id for _ in views]
    left, picked = list(views), []
    while left:
        pick = select_packet(policy, left)
        picked.append(pick.id)
        left.remove(pick)
    assert popped == picked


@given(st.sampled_from(POLICY_NAMES), views_strategy)
def test_priority_dominance(name, views):
    chosen = select_packet(Prioritized(name, 2), views).id
    top = max(v.priority for v in views)
    picked = next(v for v in views if v.id == chosen)
    assert picked.priority == top
