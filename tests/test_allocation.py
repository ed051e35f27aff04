from fractions import Fraction

import pytest

from cutfair.allocation import (
    Allocation,
    FairnessReport,
    Potential,
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
    monochromatic_edges,
    potential_from_values,
    social_welfare,
)
from cutfair.graph import Graph
from cutfair.instances import SplitMix64, gen_cycle, gen_fig1, gen_path, gen_random_graph
from cutfair.valuation import BundleStats


def random_state(rng, m, n):
    g = gen_random_graph(m, 0.5, rng.next_u64()).graph
    bundles = [set() for _ in range(n)]
    for v in range(m):
        bundles[rng.below(n)].add(v)
    return g, Allocation.of(bundles)


def test_allocation_of_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        Allocation.of([{0, 1}, {1, 2}])


def test_allocation_accessors():
    a = Allocation.of([{2, 0}, set(), {1}])
    assert a.n == 3
    assert a.assigned() == {0, 1, 2}
    assert a.to_lists() == [[0, 2], [], [1]]
    assert not a.all_nonempty()
    g = Graph.from_edges(3, [(0, 1)])
    assert a.is_complete(g)
    assert not Allocation.of([{0}]).is_complete(g)
    # as many vertices as g has, but vertex 2 unassigned and vertex 7 not in g
    assert not Allocation.of([{0, 1}, {7}]).is_complete(gen_path(3).graph)


def test_bundle_values_and_welfare_on_joined_stars():
    g = gen_fig1().graph
    a = Allocation.of([{0, 5}, {1}, {2}, {3}, {4}, {6}, {7}])
    assert bundle_values(a, g) == [5, 1, 1, 1, 4, 1, 1]
    assert social_welfare(a, g) == 14 == 2 * g.num_edges


def test_check_ef():
    g = gen_fig1().graph
    assert check_ef(Allocation.of([{0, 1, 2, 3}, {4, 5, 6, 7}]), g).holds
    rep = check_ef(Allocation.of([{1}, {2}, {0, 3, 4, 5, 6, 7}]), g)
    assert rep.holds is False
    # both singleton leaves (value 1) envy the value-2 remainder
    assert rep.violations == [
        {"i": 0, "j": 2, "item": None, "values": [1, 2]},
        {"i": 1, "j": 2, "item": None, "values": [1, 2]},
    ]


def test_check_ef1_pairwise():
    g = gen_fig1().graph
    # values (2, 3, 1): dropping one item from each envied bundle reaches 1
    assert check_ef1(Allocation.of([{1, 2}, {0, 3}, {4, 5, 6, 7}]), g).holds
    # against an empty bundle no single removal from {4,...} reaches 0
    bad = check_ef1(Allocation.of([set(), {1}, {2, 3}, {0}, {4, 5, 6, 7}]), g)
    assert bad.holds is False
    assert any(v["j"] == 4 for v in bad.violations)


def test_alpha_ef1_matches_ef1_at_one_and_relaxes_below():
    rng = SplitMix64(29)
    for _ in range(100):
        g, a = random_state(rng, 2 + rng.below(8), 2 + rng.below(3))
        full = check_ef1(a, g).holds
        assert check_alpha_ef1(a, g, Fraction(1)).holds == full
        if full:
            assert check_alpha_ef1(a, g, Fraction(1, 3)).holds


def test_alpha_ef1_exact_threshold():
    # one lone edge against two 3-leaf hubs: values 1 vs 6, and every single
    # removal from the big bundle leaves at least 3, so the scaled comparison
    # flips exactly at alpha = 1/3
    edges = [(0, 1)]
    edges += [(2, v) for v in (4, 5, 6)]
    edges += [(3, v) for v in (7, 8, 9)]
    g = Graph.from_edges(10, edges)
    a = Allocation.of([{0}, {2, 3}])
    assert bundle_values(a, g) == [1, 6]
    assert check_alpha_ef1(a, g, Fraction(1)).holds is False
    # the witness is the least item whose removal reaches the floor, as for EF1
    assert check_alpha_ef1(a, g, Fraction(1, 2)).violations == [
        {"i": 0, "j": 1, "item": 2, "values": [1, 3]}
    ]
    assert check_alpha_ef1(a, g, Fraction(1, 3)).holds is True


def test_alpha_ef1_rejects_bad_alpha():
    g = Graph.from_edges(2, [(0, 1)])
    a = Allocation.of([{0}, {1}])
    for bad in (Fraction(0), Fraction(3, 2), Fraction(-1)):
        with pytest.raises(ValueError):
            check_alpha_ef1(a, g, bad)


def test_ts_and_wts_require_complete():
    g = Graph.from_edges(3, [(0, 1)])
    a = Allocation.of([{0}, {1}])
    with pytest.raises(ValueError, match="complete"):
        check_ts(a, g)
    with pytest.raises(ValueError, match="complete"):
        check_wts(a, g)
    with pytest.raises(ValueError, match="SO requires a complete"):
        check_so(a, g)


def test_ts_wts_on_six_cycle():
    """The exact violations: a transfer to a bundle holding none of the
    item's neighbours weakly helps (TS), and one out of a bundle holding both
    of them strictly helps both sides (wTS)."""
    g = gen_cycle(6).graph

    def moves(report):
        assert all(v["values"] == [2, 2] for v in report.violations)
        return [(v["item"], v["i"], v["j"]) for v in report.violations]

    a = Allocation.of([{0, 1}, {2, 3}, {4, 5}])
    assert check_wts(a, g).holds
    rep = check_ts(a, g)
    assert rep.holds is False
    assert moves(rep) == [(0, 0, 1), (1, 0, 2), (2, 1, 2), (3, 1, 0), (4, 2, 0), (5, 2, 1)]
    b = Allocation.of([{0, 1, 2}, {3}, {4, 5}])
    assert moves(check_ts(b, g)) == [(0, 0, 1), (1, 0, 1), (1, 0, 2), (2, 0, 2), (4, 2, 0), (5, 2, 1)]
    rep = check_wts(b, g)
    assert rep.holds is False
    assert moves(rep) == [(1, 0, 1), (1, 0, 2)]  # item 1 out of the bundle holding both its neighbours


def test_ts_implies_wts_on_random_states():
    rng = SplitMix64(31)
    for _ in range(200):
        g, a = random_state(rng, 2 + rng.below(8), 2 + rng.below(3))
        if check_ts(a, g).holds:
            assert check_wts(a, g).holds


def test_check_so_full_welfare_tier():
    g = Graph.from_edges(2, [(0, 1)])
    assert check_so(Allocation.of([{0}, {1}]), g).holds is True


def test_check_so_forest_tier():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    good = Allocation.of([{0, 2}, {1, 3}])
    bad = Allocation.of([{0, 1}, {2, 3}])
    assert check_so(good, g).holds is True
    rep = check_so(bad, g)
    assert rep.holds is False
    assert rep.violations == [
        {"i": 0, "j": 0, "item": [0, 1], "values": [2, 6]},
        {"i": 1, "j": 1, "item": [2, 3], "values": [2, 6]},
    ]
    assert monochromatic_edges(bad, g) == [(0, 1), (2, 3)]


def test_check_so_oracle_tier_and_cap():
    g = gen_cycle(5).graph
    a = Allocation.of([{0, 1, 2}, {3, 4}])
    assert check_so(a, g).holds is False
    assert check_so(a, g, max_states=4).holds is None


def fresh_values(a, g):
    return BundleStats.from_bundles(g, a.bundles).bundle_value


def reports(a, g):
    """Every checker that reads a's BundleStats, run back to back on one pair."""
    return [bundle_values(a, g), check_ef(a, g), check_ef1(a, g), check_ts(a, g), check_wts(a, g)]


def fresh_reports(a, g):
    """reports() on equal but distinct copies, which no earlier check has built."""
    return reports(Allocation(a.bundles), Graph(g.num_vertices, g.adjacency, g.num_edges))


def test_checks_of_one_allocation_on_two_graphs_do_not_share_a_build():
    rng = SplitMix64(37)
    g1 = gen_random_graph(9, 0.5, rng.next_u64()).graph
    g2 = gen_random_graph(9, 0.5, rng.next_u64()).graph
    a = Allocation.of([{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])
    want1, want2 = fresh_reports(a, g1), fresh_reports(a, g2)
    assert want1 != want2
    assert [reports(a, g1), reports(a, g2), reports(a, g1)] == [want1, want2, want1]
    assert bundle_values(a, g2) == fresh_values(a, g2)


def test_equal_but_distinct_allocations_check_alike():
    g = gen_fig1().graph
    a = Allocation.of([{0, 5}, {1, 2}, {3, 4, 6, 7}])
    b = Allocation.of([{0, 5}, {1, 2}, {3, 4, 6, 7}])
    assert a == b and a is not b
    want = fresh_reports(a, g)
    assert [reports(a, g), reports(b, g), reports(a, g)] == [want, want, want]
    assert bundle_values(b, g) == fresh_values(b, g)


def test_checks_interleaved_across_two_allocations():
    g = gen_fig1().graph
    a = Allocation.of([{0, 1, 2}, {3, 4}, {5, 6, 7}])
    b = Allocation.of([{0}, {1, 2, 3, 4}, {5, 6, 7}])
    wa, wb = fresh_reports(a, g), fresh_reports(b, g)
    assert wa != wb
    got = [check_ef1(a, g), check_ts(b, g), bundle_values(a, g), check_wts(b, g),
           check_ef(a, g), bundle_values(b, g), check_ts(a, g), check_ef1(b, g)]
    assert got == [wa[2], wb[3], wa[0], wb[4], wa[1], wb[0], wa[3], wb[2]]
    assert bundle_values(a, g) == fresh_values(a, g)


def test_bundle_values_returns_a_copy():
    g = gen_fig1().graph
    a = Allocation.of([{0, 1, 2}, {3, 4}, {5, 6, 7}])
    want = fresh_reports(a, g)
    values = bundle_values(a, g)
    values[0] += 100
    values.append(5)
    assert bundle_values(a, g) == fresh_values(a, g)
    assert reports(a, g) == want


def test_allocation_freezes_bundles_built_directly():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    sets = [{0, 1}, {2}]
    a = Allocation(sets)
    assert type(a.bundles) is tuple and all(type(b) is frozenset for b in a.bundles)
    assert bundle_values(a, g) == fresh_values(a, g) == [1, 2]
    sets[0].add(3)
    sets.append({3})
    assert a.bundles == (frozenset({0, 1}), frozenset({2}))
    assert bundle_values(a, g) == fresh_values(a, g) == [1, 2]


def test_potential_ordering_and_guard():
    assert potential_from_values([2, 2, 5]) == Potential(2, -2)
    assert Potential(2, -2) < Potential(2, -1) < Potential(3, -4)


def test_fairness_report_guards_and_json():
    with pytest.raises(ValueError):
        FairnessReport("EF", True, [{"i": 0}])
    rep = FairnessReport("EF", False, [{"i": 0, "j": 1, "item": None, "values": [0, 1]}])
    assert '"holds": false' in rep.to_json()
