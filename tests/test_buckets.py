from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aqsim.buckets import FORCED, VOLUNTARY, AdversaryType, BucketSystem
from aqsim.errors import ContractViolation, ScenarioError

HALF = Fraction(1, 2)


def make(rate=HALF, burst=3, delay=2, edges=("e1", "e2", "e3")):
    return BucketSystem(AdversaryType(rate, burst, delay), edges)


def test_adversary_type_bounds():
    AdversaryType(Fraction(1), 1, 1)  # rate 1 allowed
    with pytest.raises(ScenarioError):
        AdversaryType(Fraction(0), 1, 1)
    with pytest.raises(ScenarioError):
        AdversaryType(Fraction(3, 2), 1, 1)
    with pytest.raises(ScenarioError):
        AdversaryType(HALF, 0, 1)
    with pytest.raises(ScenarioError):
        AdversaryType(HALF, 1, 0)


def test_first_tick_from_zero():
    sys = make()
    sys.tick()
    assert sys.level("e1") == HALF


def test_overflow_clamps_at_burstiness():
    # With rate 2/5 the level passes through exactly 14/5 before clamping.
    sys = make(rate=Fraction(2, 5))
    for _ in range(7):
        sys.tick()
    assert sys.level("e1") == Fraction(14, 5)
    sys.tick()
    assert sys.level("e1") == 3  # 16/5 overflowed the capacity


def test_negative_levels_keep_accruing():
    sys = make(burst=1)
    sys.tick()
    sys.tick()  # level 1
    assert sys.inject([("e1",)])
    g1, _ = sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=1)
    g2, _ = sys.register_stall("e1", ("e1",), packet_id=1, delay_choice=1)
    sys.annihilate_group(g1.gid)
    sys.annihilate_group(g2.gid)
    assert sys.level("e1") == -1
    sys.tick()
    assert sys.level("e1") == -HALF


def test_inject_removes_one_token_per_path_edge():
    sys = make()
    sys.tick()
    sys.tick()  # all levels 1
    assert sys.inject([("e1", "e2")])
    assert sys.level("e1") == 0
    assert sys.level("e2") == 0
    assert sys.level("e3") == 1


def test_inject_needs_a_whole_token():
    sys = make()
    sys.tick()  # level 1/2
    result = sys.inject([("e1",)])
    assert not result
    assert result.insufficient_edge == "e1"
    assert sys.level("e1") == HALF  # refusal left state untouched


def test_joint_demand_counts_shared_edges():
    sys = make()
    sys.tick()
    sys.tick()  # level 1
    result = sys.inject([("e1",), ("e1", "e2")])
    assert not result and result.insufficient_edge == "e1"
    # Cross-check: applying the same requests one at a time, the second
    # injection is the one that fails.
    seq = make()
    seq.tick()
    seq.tick()
    assert seq.inject([("e1",)])
    assert not seq.inject([("e1", "e2")])


def test_stall_group_covers_unfinished_edges():
    sys = make()
    sys.tick()
    group, _ = sys.register_stall("e2", ("e2", "e3"), packet_id=7)
    assert group.edges == ("e2", "e3")
    assert group.value(sys.round, sys.adversary.delay) == 2


def test_stall_on_last_edge_gives_singleton_group():
    sys = make()
    sys.tick()
    group, _ = sys.register_stall("e3", ("e3",), packet_id=7)
    assert group.edges == ("e3",)


def test_same_round_stalls_make_independent_groups():
    sys = make()
    sys.tick()
    g1, _ = sys.register_stall("e1", ("e1",), packet_id=1)
    g2, _ = sys.register_stall("e1", ("e1",), packet_id=2)
    assert g1.gid != g2.gid
    assert {g.gid for g in sys.live_groups()} == {g1.gid, g2.gid}


def test_annihilation_subtracts_rate_from_each_member():
    sys = make()
    for _ in range(4):
        sys.tick()  # levels 2
    sys.tick()  # 5/2
    assert sys.inject([("e3",), ("e3",)])  # pull e3 to 1/2
    group, _ = sys.register_stall("e2", ("e2", "e3"), packet_id=0, delay_choice=1)
    before_e2, before_e3 = sys.level("e2"), sys.level("e3")
    sys.annihilate_group(group.gid)
    assert sys.level("e2") == before_e2 - HALF
    assert sys.level("e3") == before_e3 - HALF


def test_annihilation_is_unconditional_subtraction():
    sys = make(burst=1)
    sys.tick()
    sys.tick()
    assert sys.inject([("e1",)])  # level 0
    group, _ = sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=1)
    sys.annihilate_group(group.gid)
    assert sys.level("e1") == -HALF


def test_annihilating_dead_group_is_a_contract_error():
    sys = make()
    sys.tick()
    group, _ = sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=1)
    sys.annihilate_group(group.gid)
    with pytest.raises(ContractViolation):
        sys.annihilate_group(group.gid)


def test_zero_delay_annihilates_at_creation():
    sys = make()
    sys.tick()
    group, events = sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=0)
    assert not group.alive
    assert events and events[0][0] == VOLUNTARY
    assert sys.level("e1") == 0  # 1/2 tick minus 1/2 annihilation


def test_forced_expiry_lands_delay_rounds_later():
    sys = make(delay=3)
    sys.tick()  # round 1
    group, _ = sys.register_stall("e1", ("e1", "e2"), packet_id=0)
    fired = []
    for _ in range(3):
        sys.tick()
        fired += sys.tick_antitokens()
    assert sys.round == 4
    assert [(how, g.gid) for how, g in fired] == [(FORCED, group.gid)]
    assert group.annihilated_at == 4


def test_tick_antitokens_without_groups_is_noop():
    sys = make()
    sys.tick()
    assert sys.tick_antitokens() == []


def test_same_round_expiries_commute():
    def final_levels(order):
        sys = make(delay=2)
        sys.tick()
        for edges in order:
            sys.register_stall(edges[0], edges, packet_id=0)
        sys.tick()
        sys.tick()
        sys.tick_antitokens()
        return sys.levels()

    a = final_levels([("e1", "e2"), ("e2", "e3")])
    b = final_levels([("e2", "e3"), ("e1", "e2")])
    assert a == b


def test_scheduled_voluntary_fires_before_expiry():
    sys = make(delay=3)
    sys.tick()
    group, _ = sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=1)
    sys.tick()
    fired = sys.tick_antitokens()
    assert [(how, g.gid) for how, g in fired] == [(VOLUNTARY, group.gid)]
    assert group.annihilated_at == 2
    sys.tick()
    sys.tick()
    assert sys.tick_antitokens() == []  # nothing left to expire


def test_delay_choice_outside_window_rejected():
    sys = make(delay=2)
    sys.tick()
    with pytest.raises(ScenarioError):
        sys.register_stall("e1", ("e1",), packet_id=0, delay_choice=3)


class EagerBuckets:
    """Straightforward per-round reference: no laziness, plain Fractions."""

    def __init__(self, adv, edges):
        self.adv = adv
        self.K = {e: Fraction(0) for e in edges}

    def tick(self):
        for e in self.K:
            self.K[e] = min(self.K[e] + self.adv.rate, Fraction(self.adv.burst))

    def inject(self, paths):
        demand = {}
        for path in paths:
            for e in path:
                demand[e] = demand.get(e, 0) + 1
        if any(self.K[e] < c for e, c in demand.items()):
            return False
        for e, c in demand.items():
            self.K[e] -= c
        return True

    def annihilate(self, edges):
        for e in edges:
            self.K[e] -= self.adv.rate


ops_strategy = st.lists(
    st.one_of(
        st.just(("tick",)),
        st.tuples(st.just("inject"), st.lists(
            st.lists(st.sampled_from(["e1", "e2", "e3"]), min_size=1, max_size=3,
                     unique=True),
            min_size=1, max_size=2)),
        st.tuples(st.just("annihilate"), st.lists(
            st.sampled_from(["e1", "e2", "e3"]), min_size=1, max_size=3,
            unique=True)),
    ),
    min_size=1, max_size=40)


@settings(deadline=None)
@given(ops_strategy, st.sampled_from([Fraction(1, 3), HALF, Fraction(9, 10)]),
       st.integers(1, 4))
def test_lazy_levels_match_eager_reference(ops, rate, burst):
    adv = AdversaryType(rate, burst, 2)
    lazy = BucketSystem(adv, ["e1", "e2", "e3"])
    eager = EagerBuckets(adv, ["e1", "e2", "e3"])
    lazy.tick()
    eager.tick()
    for op in ops:
        if op[0] == "tick":
            lazy.tick()
            eager.tick()
        elif op[0] == "inject":
            got = bool(lazy.inject([tuple(p) for p in op[1]]))
            want = eager.inject(op[1])
            assert got == want
        else:
            group, _ = lazy.register_stall(op[1][0], tuple(op[1]), 0, delay_choice=1)
            lazy.annihilate_group(group.gid)
            eager.annihilate(op[1])
        levels = lazy.levels()
        assert levels == eager.K
        assert all(v <= burst for v in levels.values())


@settings(deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=20))
def test_group_atomicity(plan):
    sys = make(delay=2)
    sys.tick()
    for delay_choice in plan:
        sys.register_stall("e1", ("e1", "e2"), 0, delay_choice=delay_choice)
        sys.tick()
        sys.tick_antitokens()
    for group in sys.groups.values():
        # All-or-nothing: a group is either fully alive or fully dead,
        # and dead groups have their annihilation round on record.
        assert group.alive == (group.annihilated_at is None)


def test_whole_tokens_floor_the_level():
    sys = BucketSystem(AdversaryType(HALF, 2, 2), ["e1"])
    sys.tick()
    sys.tick()
    sys.tick()
    assert sys.level("e1") == Fraction(3, 2) and sys.whole_tokens("e1") == 1
    for pid in range(4):  # each zero-delay group annihilates 1/2 at once
        sys.register_stall("e1", ("e1",), pid, 0)
    # Below zero, flooring and truncation part: -1/2 floors to -1.
    assert sys.level("e1") == -HALF
    assert sys.whole_tokens("e1") == -1 and int(sys.level("e1")) == 0
