import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.partitions import LinkOutage, PartitionSchedule

from histgen import partition_span_oracle, random_schedule, reachable_oracle


def make(node_count, *outages):
    return PartitionSchedule(
        node_count, tuple(LinkOutage(a, b, s, e) for a, b, s, e in outages)
    )


class TestLinkUp:
    # on two nodes the direct link is the only path, so reachable is the link
    def test_empty_schedule_always_up(self):
        sched = make(2)
        assert all(sched.reachable(t, 0, 1) for t in range(50))

    def test_half_open_boundaries(self):
        sched = make(2, (0, 1, 10, 25))
        assert not sched.reachable(10, 0, 1)
        assert not sched.reachable(24, 0, 1)
        assert sched.reachable(25, 0, 1)
        assert sched.reachable(9, 0, 1)

    def test_overlapping_outages_union(self):
        sched = make(2, (0, 1, 5, 10), (0, 1, 8, 15))
        assert not sched.reachable(9, 0, 1)
        assert not sched.reachable(12, 0, 1)
        assert sched.reachable(15, 0, 1)

    def test_same_node_rejected(self):
        sched = make(2)
        with pytest.raises(ValueError):
            sched.reachable(0, 1, 1)


class TestReachable:
    def test_relay_path_survives_direct_cut(self):
        sched = make(3, (0, 1, 10, 25))
        assert sched.reachable(12, 0, 1)
        assert not make(2, (0, 1, 10, 25)).reachable(12, 0, 1)

    def test_full_bipartition_severs(self):
        sched = make(3, (0, 1, 10, 25), (0, 2, 10, 25))
        assert not sched.reachable(12, 0, 1)
        assert sched.reachable(12, 1, 2)
        assert sched.reachable(25, 0, 1)

    def test_no_outages_always_reachable(self):
        sched = make(4)
        assert all(sched.reachable(t, a, 3) for t in range(20) for a in range(3))

    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            make(2).reachable(0, 0, 0)


class TestMaxPartitionSpan:
    def test_empty_schedule_is_zero(self):
        assert make(3).max_partition_span(100) == 0

    def test_two_nodes_single_outage(self):
        assert make(2, (0, 1, 10, 25)).max_partition_span(100) == 15

    def test_relay_keeps_span_zero(self):
        assert make(3, (0, 1, 10, 25)).max_partition_span(100) == 0

    def test_adjacent_outages_concatenate_per_pair(self):
        sched = make(2, (0, 1, 10, 20), (0, 1, 20, 30))
        assert sched.max_partition_span(100) == 20

    def test_reconnection_resets_the_run(self):
        sched = make(2, (0, 1, 0, 10), (0, 1, 12, 20))
        assert sched.max_partition_span(100) == 10

    def test_node_crash_modeled_as_all_links_down(self):
        sched = make(3, (0, 1, 5, 12), (0, 2, 5, 12))
        assert sched.max_partition_span(50) == 7

    def test_outage_clamped_at_horizon(self):
        sched = make(2, (0, 1, 10, 25))
        assert sched.max_partition_span(20) == 10


def test_a_cut_can_leave_every_node_alone():
    # the rest of a split component need not stay connected: at tick 2 the
    # last two live links of {0, 1, 2} go down together
    sched = make(3, (1, 2, 0, 6), (1, 2, 1, 8), (1, 2, 2, 8), (0, 2, 2, 8), (0, 1, 2, 28))
    for t in range(-1, 30):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert sched.reachable(t, a, b) == (not 2 <= t < 8) == reachable_oracle(sched, t, a, b)
    assert sched.max_partition_span(30) == 6 == partition_span_oracle(sched, 30)


def _components_oracle(node_count, down):
    """A component id per node over the live links, built from scratch with
    disjoint sets: each node in turn merges every set it has a live link
    into, that is every set not wholly among its down links."""
    sets = []
    for x in range(node_count):
        blocked = down.get(x, set())
        linked = [s for s in sets if not s <= blocked]
        sets = [s for s in sets if s <= blocked]
        joined = max(linked, key=len, default=set())  # union by size
        for s in linked:
            if s is not joined:
                joined |= s
        joined.add(x)
        sets.append(joined)
    return {x: i for i, s in enumerate(sets) for x in s}


def test_node_cap_schedule_matches_a_disjoint_set_oracle():
    # 1024 nodes: two whole-node isolations in disjoint slots, 200 single links
    rng = random.Random(1024)
    n, horizon, iso_len = 1024, 2000, 100
    outages, isolated = [], []
    for slot_start in (0, 1000):
        node, start = rng.randrange(n), slot_start + rng.randrange(800)
        outages += [LinkOutage(node, x, start, start + iso_len) for x in range(n) if x != node]
        isolated.append(node)
    for _ in range(200):
        a, b = rng.sample(range(n), 2)
        start = rng.randrange(horizon - 100)
        outages.append(LinkOutage(a, b, start, start + 100))
    sched = PartitionSchedule(n, tuple(outages))
    pairs = [rng.sample(range(n), 2) for _ in range(60)]
    pairs += [(v, (v + step) % n) for v in isolated for step in (1, 500)]
    for t in sorted({o.start for o in outages} | {o.end for o in outages}):
        down = {}
        for o in outages:
            if o.start <= t < o.end:
                down.setdefault(o.a, set()).add(o.b)
                down.setdefault(o.b, set()).add(o.a)
        component = _components_oracle(n, down)
        for a, b in pairs:
            assert sched.reachable(t, a, b) == (component[a] == component[b]), (t, a, b)
    assert sched.max_partition_span(horizon) == iso_len


@st.composite
def schedules(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    horizon = draw(st.integers(min_value=1, max_value=120))
    sched, _ = random_schedule(seed, max_nodes=4, horizon=max(horizon, 2))
    return sched, horizon


@given(schedules(), st.integers(min_value=0, max_value=119))
@settings(max_examples=60, deadline=None)
def test_symmetry(sched_horizon, t):
    sched, _ = sched_horizon
    for a in range(sched.node_count):
        for b in range(a + 1, sched.node_count):
            assert sched.reachable(t, a, b) == sched.reachable(t, b, a)


@given(schedules(), st.integers(min_value=0, max_value=5_000))
@settings(max_examples=60, deadline=None)
def test_monotone_union(sched_horizon, extra_seed):
    sched, horizon = sched_horizon
    if sched.node_count < 2:
        return
    import random as _random

    rng = _random.Random(extra_seed)
    a = rng.randrange(sched.node_count)
    b = (a + 1 + rng.randrange(sched.node_count - 1)) % sched.node_count
    start = rng.randint(0, max(horizon - 1, 0))
    end = start + rng.randint(1, 40)
    bigger = PartitionSchedule(
        sched.node_count, sched.outages + (LinkOutage(a, b, start, end),)
    )
    for t in range(0, horizon, 7):
        for x in range(sched.node_count):
            for y in range(x + 1, sched.node_count):
                if bigger.reachable(t, x, y):
                    assert sched.reachable(t, x, y)
    assert bigger.max_partition_span(horizon) >= sched.max_partition_span(horizon)


@given(st.integers(min_value=0, max_value=50_000), st.data())
@settings(max_examples=60, deadline=None)
def test_reachable_matches_per_tick_oracle(seed, data):
    sched, horizon = random_schedule(seed, max_nodes=8, horizon=60)
    if sched.outages:
        # a second interval overlapping one outage on the same pair
        o = data.draw(st.sampled_from(sched.outages))
        start = data.draw(st.integers(min_value=o.start, max_value=o.end - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=horizon))
        sched = PartitionSchedule(
            sched.node_count, sched.outages + (LinkOutage(o.a, o.b, start, end),)
        )
    # every outage ends by the horizon, so this covers each start, end - 1 and end
    for t in range(-1, horizon + 2):
        for a in range(sched.node_count):
            for b in range(a + 1, sched.node_count):
                assert sched.reachable(t, a, b) == reachable_oracle(sched, t, a, b)


@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=80, deadline=None)
def test_span_matches_per_tick_oracle(seed):
    sched, horizon = random_schedule(seed, max_nodes=8, horizon=120)
    assert sched.max_partition_span(horizon) == partition_span_oracle(sched, horizon)


def test_outage_validation():
    with pytest.raises(ValueError):
        LinkOutage(1, 1, 0, 5)
    with pytest.raises(ValueError):
        LinkOutage(0, 1, 5, 5)


def test_outage_pair_is_canonical():
    assert LinkOutage(3, 1, 0, 5).a == 1
