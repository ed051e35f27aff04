import pytest

from cutfair.graph import Graph
from cutfair.instances import SplitMix64, gen_random_graph
from cutfair.valuation import BundleStats, cut_value


def path(k):
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def test_cut_value_basic():
    g = path(4)
    assert cut_value(g, set()) == 0
    assert cut_value(g, {0}) == 1
    assert cut_value(g, {1}) == 2
    assert cut_value(g, {0, 1}) == 1
    assert cut_value(g, {0, 2}) == 3
    assert cut_value(g, {0, 1, 2, 3}) == 0


def test_cut_value_rejects_bad_vertex():
    with pytest.raises(ValueError, match="out of range"):
        cut_value(path(3), {5})


def test_cut_value_complement_symmetry():
    rng = SplitMix64(7)
    for _ in range(50):
        m = 2 + rng.below(10)
        g = gen_random_graph(m, 0.4, rng.next_u64()).graph
        s = {v for v in range(m) if rng.chance(0.5)}
        comp = set(range(m)) - s
        assert cut_value(g, s) == cut_value(g, comp)


def test_from_bundles_matches_cut_value():
    g = path(5)
    bundles = [{0, 3}, {1}, {2, 4}]
    stats = BundleStats.from_bundles(g, bundles)
    assert stats.bundle_value == [cut_value(g, b) for b in bundles]
    assert stats.members == [set(b) for b in bundles]


def test_marginals_match_recompute():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    stats = BundleStats.from_bundles(g, [{0, 1}, {2, 3}])
    for o, src in enumerate(stats.assignment):
        for i in range(2):
            members = {v for v, b in enumerate(stats.assignment) if b == i}
            if src == i:
                expect = cut_value(g, members - {o}) - cut_value(g, members)
                assert stats.marginal_remove(i, o) == expect
            else:
                expect = cut_value(g, members | {o}) - cut_value(g, members)
                assert stats.marginal_add(i, o) == expect


def test_marginal_guards():
    g = path(3)
    stats = BundleStats.from_bundles(g, [{0}, {1, 2}])
    with pytest.raises(ValueError):
        stats.marginal_add(0, 0)
    with pytest.raises(ValueError):
        stats.marginal_remove(1, 0)


def test_apply_move_guards():
    g = path(3)
    stats = BundleStats.from_bundles(g, [{0}, {1, 2}])
    with pytest.raises(ValueError, match="no-op"):
        stats.apply_move(0, 0, 0)
    with pytest.raises(ValueError, match="is in bundle"):
        stats.apply_move(0, 1, 0)


def test_random_moves_stay_consistent():
    rng = SplitMix64(11)
    for _ in range(20):
        m = 3 + rng.below(9)
        n = 2 + rng.below(3)
        g = gen_random_graph(m, 0.5, rng.next_u64()).graph
        stats = BundleStats(g, n)
        for _ in range(60):
            o = rng.below(m)
            src = stats.assignment[o]
            dst = rng.below(n + 1)
            dst = None if dst == n else dst
            if src == dst:
                continue
            stats.apply_move(o, src, dst)
        stats.check_consistency()


def test_min_removal_value_tie_breaks_low_index():
    g = Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)])
    stats = BundleStats.from_bundles(g, [{0, 1}, {2, 3}])
    # removing 0 or 1 both leave value 1; least index wins
    assert stats.min_removal_value(0) == (0, 1)
    assert BundleStats.from_bundles(g, [set(), {2}]).min_removal_value(0) is None


def test_rejects_zero_bundles():
    with pytest.raises(ValueError):
        BundleStats(path(2), 0)


def test_chore_heaps_stay_small_under_repeated_moves():
    """A vertex that leaves and re-enters a bundle's chores leaves a stale
    heap entry each time (least_chore pops them, but it is not asked here);
    the heap is rebuilt from its set once it holds more than twice the set
    plus 16, so it stays O(V)."""
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    stats = BundleStats.from_bundles(g, [{0, 1, 2}, {3}])
    strict = stats.chores()[1]
    assert strict[0] == {0, 1}  # each round trip below re-files both
    longest = 0
    for _ in range(100):
        stats.apply_move(0, 0, 1)
        stats.apply_move(0, 1, 0)
        longest = max(longest, len(stats._heaps[1][0]))
    assert 2 < longest <= 2 * len(strict[0]) + 16  # not 200
    stats.check_consistency()
    assert stats.least_chore(0, True) == 0
