import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfair import algorithms
from cutfair.algorithms import (
    GoalInfeasibleError,
    SolveGoal,
    dispatch_solve,
    equitable_cut,
    greedy_two_agents,
    solve_ef1_ts_n4,
    solve_ef1_wts,
    solve_forest_ef1_so,
    ts_subroutine,
    wts_subroutine,
)
from cutfair.allocation import (
    Allocation,
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
    monochromatic_edges,
    social_welfare,
)
from cutfair.graph import Graph
from cutfair.instances import (
    SplitMix64,
    gen_fig1,
    gen_fig3,
    gen_path,
    gen_random_forest,
    gen_random_graph,
    gen_star,
)
from cutfair.valuation import BundleStats


def with_isolated(g, extra):
    """The same graph plus `extra` isolated vertices appended at the end."""
    return Graph.from_edges(g.num_vertices + extra, g.edges)


def start_from(monkeypatch, bundles):
    """Make the general solvers start from `bundles` instead of round-robin.
    No start state the solvers reach on their own runs case II of the n >= 4
    solver or case 2 of the general-n solver."""
    monkeypatch.setattr(
        algorithms, "_round_robin", lambda g, keep, n: BundleStats.from_bundles(g, bundles)
    )


def monotone_as_criterion_8(trace, tag):
    """Criterion 8's potential rules, applied to a whole solver trace: the
    potential never falls from one recorded state to the next, and a snapshot
    of case `tag` that directly follows another one lies strictly above it."""
    phis = trace.potential_history
    assert all(phis[k] <= phis[k + 1] for k in range(len(phis) - 1))
    last = None
    for snap_tag, phi in trace.snapshots:
        assert snap_tag != tag or last is None or phi > last
        last = phi if snap_tag == tag else None


# -- two agents --------------------------------------------------------------


def test_greedy_two_agents_path():
    g = gen_path(4).graph
    a, trace = greedy_two_agents(g)
    assert bundle_values(a, g) == [3, 3]
    assert check_ef(a, g).holds and check_ts(a, g).holds
    assert trace.guarantee == "EF+TS"
    assert trace.iterations == len(trace.welfare_history)


def test_greedy_two_agents_needs_two_vertices():
    with pytest.raises(ValueError):
        greedy_two_agents(Graph.from_edges(1, []))


def test_greedy_two_agents_random_sweep():
    rng = SplitMix64(51)
    for _ in range(60):
        g = gen_random_graph(2 + rng.below(12), 0.5, rng.next_u64()).graph
        a, _ = greedy_two_agents(g)
        assert a.is_complete(g)
        assert check_ef(a, g).holds and check_ts(a, g).holds


# -- stability subroutines ---------------------------------------------------


def test_ts_subroutine_worked_example():
    # hub 0 is a weak chore inside {0,1,2,3,4} and moves to the least bundle;
    # afterwards no transfer weakly helps both sides
    g = gen_fig1().graph
    a = Allocation.of([{0, 1, 2, 3, 4}, {5}, {6}, {7}])
    out, trace = ts_subroutine(a, g)
    assert sorted(bundle_values(out, g)) == [1, 1, 5, 7]
    assert trace.iterations == 1
    sws = trace.welfare_history
    assert all(sws[i + 1] > sws[i] for i in range(len(sws) - 1))
    assert check_ts(out, g).holds
    assert {0, 5} in out.bundles
    # a special bundle never receives: with {5} special, hub 0 goes to {6}
    out, _ = ts_subroutine(a, g, special=1)
    assert sorted(map(sorted, out.bundles)) == [[0, 6], [1, 2, 3, 4], [5], [7]]


def test_ts_subroutine_fixed_point():
    g = gen_fig1().graph
    a = Allocation.of([{0, 4}, {1}, {2, 3}, {5, 6, 7}])
    out, trace = ts_subroutine(a, g)
    assert trace.iterations == 0
    assert sorted(bundle_values(out, g)) == [1, 2, 3, 6]


def test_ts_subroutine_validation():
    g = gen_path(4).graph
    with pytest.raises(ValueError, match="at least 4"):
        ts_subroutine(Allocation.of([{0, 1}, {2, 3}]), g)
    with pytest.raises(ValueError, match="complete"):
        ts_subroutine(Allocation.of([{0}, {1}, {2}, set()]), g)


def test_wts_subroutine_drains_strict_chores():
    g = gen_path(3).graph
    out, trace = wts_subroutine(Allocation.of([{0, 1, 2}, set()]), g)
    assert sorted(bundle_values(out, g)) == [2, 2]
    phis = trace.potential_history
    assert all(phis[i + 1] > phis[i] for i in range(len(phis) - 1))


# -- n >= 4 solver -----------------------------------------------------------


def test_ef1_ts_solver_on_two_hub_instance():
    g = gen_fig3(3).graph
    a, trace = solve_ef1_ts_n4(g, 4)
    assert check_ef1(a, g).holds and check_ts(a, g).holds
    assert trace.guarantee == "EF1+TS"


def test_ef1_ts_solver_validation():
    g = gen_path(5).graph
    with pytest.raises(ValueError, match="n >= 4"):
        solve_ef1_ts_n4(g, 3)
    with pytest.raises(ValueError, match="as many vertices"):
        solve_ef1_ts_n4(g, 6)


def test_ef1_ts_solver_handles_isolated_vertices():
    rng = SplitMix64(52)
    for _ in range(30):
        base = gen_random_graph(5 + rng.below(6), 0.5, rng.next_u64()).graph
        g = with_isolated(base, 1 + rng.below(3))
        a, _ = solve_ef1_ts_n4(g, 4)
        assert a.is_complete(g)
        assert check_ef1(a, g).holds and check_ts(a, g).holds


def test_ef1_ts_solver_case_ii_parks_the_violator(monkeypatch):
    g = Graph.from_edges(
        7, [(0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (2, 3), (2, 5), (3, 4)]
    )
    start_from(monkeypatch, [{5, 6}, {0, 4}, {3}, {1, 2}])
    a, trace = solve_ef1_ts_n4(g, 4)
    assert trace.case_history == ["II", "I"]
    assert check_ef1(a, g).holds and check_ts(a, g).holds
    assert a.to_lists() == [[3], [5, 6], [2, 4], [0, 1]]
    monotone_as_criterion_8(trace, "II")


# -- general-n solver --------------------------------------------------------


def test_ef1_wts_solver_single_bundle():
    g = gen_path(3).graph
    a, trace = solve_ef1_wts(g, 1)
    assert a.bundles == (frozenset({0, 1, 2}),)
    assert trace.guarantee == "EF1+wTS"


def test_ef1_wts_solver_on_two_hub_instance():
    g = gen_fig3(3).graph
    a, _ = solve_ef1_wts(g, 3)
    assert check_ef1(a, g).holds and check_wts(a, g).holds
    assert a.all_nonempty()
    # the known-good certificate: both hubs with one spoke, spokes split
    marked = Allocation.of([{0, 4}, {1}, {2, 3}])
    assert check_ef1(marked, g).holds and check_wts(marked, g).holds


def test_ef1_wts_solver_case_2_carves_the_violator(monkeypatch):
    cases = [
        (
            Graph.from_edges(
                11, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 5), (3, 5), (4, 6), (6, 10), (7, 9), (8, 9)]
            ),
            [{0, 1, 3, 6, 9, 10}, {4, 7}, {2, 5, 8}],
            [[2, 5, 7, 8, 10], [3, 4, 9], [0, 1, 6]],
        ),
        # here the carved subset's value passes through exactly the minimum
        # value, so the carve must go on until it is strictly above it
        (
            Graph.from_edges(
                9, [(0, 2), (0, 5), (1, 4), (1, 8), (2, 3), (3, 4), (3, 7), (4, 6), (5, 6), (5, 7)]
            ),
            [{1, 2, 6, 7, 8}, {0, 5}, {3, 4}],
            [[4, 7], [1, 2, 6], [0, 3, 5, 8]],
        ),
    ]
    for g, start, expect in cases:
        start_from(monkeypatch, start)
        a, trace = solve_ef1_wts(g, 3)
        assert trace.case_history == ["2"]
        assert check_ef1(a, g).holds and check_wts(a, g).holds
        assert a.all_nonempty()
        assert a.to_lists() == expect
        monotone_as_criterion_8(trace, "2")


def test_ef1_wts_solver_three_bundles_sweep():
    rng = SplitMix64(53)
    for _ in range(60):
        n = 2 + rng.below(4)
        g = gen_random_graph(n + rng.below(10), 0.5, rng.next_u64()).graph
        a, _ = solve_ef1_wts(g, n)
        assert check_ef1(a, g).holds and check_wts(a, g).holds
        assert a.all_nonempty()


# -- forest solver -----------------------------------------------------------


def test_forest_solver_path_three_ways():
    g = gen_path(6).graph
    a, trace = solve_forest_ef1_so(g, 3)
    assert sorted(bundle_values(a, g)) == [3, 3, 4]
    assert social_welfare(a, g) == 2 * g.num_edges
    assert not monochromatic_edges(a, g)
    assert check_ef1(a, g).holds
    assert trace.guarantee == "EF1+SO+TS"


def test_forest_solver_two_bundles_is_two_coloring():
    g = gen_fig1().graph
    a, _ = solve_forest_ef1_so(g, 2)
    assert not monochromatic_edges(a, g)
    assert social_welfare(a, g) == 2 * g.num_edges


def test_forest_solver_star():
    g = gen_star(6).graph
    a, _ = solve_forest_ef1_so(g, 3)
    assert sorted(bundle_values(a, g)) == [3, 3, 6]
    assert check_ef1(a, g).holds
    assert check_so(a, g).holds


def test_forest_solver_joined_stars_three_bundles():
    g = gen_fig1().graph
    a, _ = solve_forest_ef1_so(g, 3)
    assert sorted(bundle_values(a, g)) == [4, 5, 5]
    assert not monochromatic_edges(a, g)
    assert check_ef1(a, g).holds
    assert check_ts(a, g).holds


def test_forest_solver_validation():
    from cutfair.instances import gen_cycle

    with pytest.raises(ValueError, match="acyclic"):
        solve_forest_ef1_so(gen_cycle(4).graph, 2)
    with pytest.raises(ValueError, match="n >= 2"):
        solve_forest_ef1_so(gen_path(4).graph, 1)
    # acyclicity is checked before the bundle count and the vertex count
    for n in (1, 5):
        with pytest.raises(ValueError, match="acyclic"):
            solve_forest_ef1_so(gen_cycle(4).graph, n)


def test_forest_solver_all_isolated_is_round_robin():
    a, trace = solve_forest_ef1_so(Graph.from_edges(7, []), 3)
    assert a.to_lists() == [[0, 3, 6], [1, 4], [2, 5]]
    assert trace.iterations == 0
    assert trace.case_history == trace.potential_history == []
    assert trace.welfare_history == trace.snapshots == trace.bundle_snapshots() == []


def test_forest_solver_finds_the_components_once(monkeypatch):
    calls = []
    components = Graph.connected_components

    def counting(self):
        calls.append(self)
        return components(self)

    monkeypatch.setattr(Graph, "connected_components", counting)
    g = with_isolated(gen_fig1().graph, 2)
    for n in (2, 3, 4):
        calls.clear()
        solve_forest_ef1_so(g, n)
        assert len(calls) == 1, n
    # dispatch_solve routes fig1, a forest, to the same solver
    for n, goal in ((3, SolveGoal.EF1_SO_FOREST), (3, SolveGoal.EF1_WTS), (4, SolveGoal.EF1_TS)):
        calls.clear()
        _, trace = dispatch_solve(gen_fig1().graph, n, goal)
        assert (trace.guarantee, len(calls)) == ("EF1+SO+TS", 1), goal


def test_forest_solver_isolated_and_tiny_components():
    # a K2 component, a lone edge plus isolated vertices
    g = Graph.from_edges(7, [(0, 1), (2, 3), (3, 4)])
    a, _ = solve_forest_ef1_so(g, 3)
    assert a.is_complete(g)
    assert not monochromatic_edges(a, g)
    assert check_ef1(a, g).holds


def peel(g, n):
    """Forest peeling on g, checked: EF1, no monochromatic edge and an EF1
    snapshot after every step.  Returns the sorted bundles and the trace."""
    a, trace = solve_forest_ef1_so(g, n)
    assert not monochromatic_edges(a, g)
    assert check_ef1(a, g).holds
    for _, bundles in trace.bundle_snapshots():
        assert check_ef1(Allocation.of(bundles), g).holds
    return a.to_lists(), trace


def test_forest_solver_case_three():
    """The smallest input known to reach case 3 of forest peeling: n = 3 on
    two trees of 13 vertices.  Single trees up to m = 8 never reach it."""
    g = Graph.from_edges(
        13,
        [(5, 1), (5, 7), (1, 12), (1, 6), (12, 4), (0, 2), (2, 11), (0, 3), (2, 9), (2, 10), (2, 8)],
    )
    bundles, trace = peel(g, 3)
    assert trace.case_history == ["1", "1", "1", "2", "3"]
    assert bundles == [[1, 4, 7, 10], [0, 5, 8, 9, 11], [2, 3, 6, 12]]


def test_forest_solver_case_two_compensates():
    """Case 2 hands vertex 2 to the second-poorest bundle, then its first
    unallocated child, 3, to the poorest one until EF1 holds again."""
    g = Graph.from_edges(
        14,
        [(0, 1), (0, 2), (1, 5), (1, 9), (1, 10), (1, 12), (1, 13)]
        + [(2, 3), (2, 4), (3, 6), (3, 11), (4, 7), (7, 8)],
    )
    bundles, trace = peel(g, 3)
    assert trace.case_history == ["1", "1", "2", "1", "1", "1", "1"]
    assert trace.bundle_snapshots()[2] == ("2", [[0, 3, 12], [2, 5, 9, 10, 13], [1]])
    assert bundles == [[0, 3, 4, 12], [2, 5, 8, 9, 10, 11, 13], [1, 6, 7]]


def test_forest_solver_random_sweep_with_snapshots():
    rng = SplitMix64(54)
    for _ in range(40):
        n = 2 + rng.below(4)
        trees = 1 + rng.below(3)
        m = max(n, 2 * trees) + rng.below(12)
        peel(gen_random_forest(m, trees, rng.next_u64()).graph, n)


def frontier_scan_peeling(g, n):
    """Forest peeling's placements and case tags for n >= 3, with the frontier
    searched by full scans, as before it was indexed by heaps: feasible_roots
    lists every root whose parent is not in a bundle, case 1 takes the least
    of them and cases 2 and 3 the best by (-degree, index)."""
    _, trees = algorithms._forest_parts(g)
    stats = BundleStats(g, n)
    adj, deg = g.adjacency, stats.degree
    order = list(range(n))
    frontier = {
        (min(v for v in comp if deg[v] >= 2) if len(comp) >= 3 else min(comp)): None
        for comp in trees
    }
    placements, tags = [], []

    def feasible_roots(b):
        return [r for r, blocker in frontier.items() if blocker != b]

    def best_root(candidates):
        return min(candidates, key=lambda r: (-deg[r], r))

    def allocate(v, b):
        stats.apply_move(v, None, b)
        placements.append((v, b))
        del frontier[v]
        for c in adj[v]:
            if stats.assignment[c] is None:
                frontier[c] = b

    def leaf_children(o_t):
        return [c for c in adj[o_t] if stats.assignment[c] is None and deg[c] == 1]

    def compensate(o_t, a1, bound):
        rest = (c for c in adj[o_t] if stats.assignment[c] is None)
        while stats.bundle_value[a1] < bound():
            allocate(next(rest), a1)

    while frontier:
        order.sort(key=stats.bundle_value.__getitem__)
        a1, a2 = order[0], order[1]
        f1 = feasible_roots(a1)
        if f1:
            o_t = min(f1)
            allocate(o_t, a1)
            for leaf in leaf_children(o_t):
                allocate(leaf, min(order[1:], key=stats.bundle_value.__getitem__))
            tags.append("1")
            continue
        best2 = stats.min_removal_value(a2)
        deg2 = 0 if best2 is None else deg[best2[0]]
        f2 = feasible_roots(a2)
        if f2 and (stats.bundle_value[a1] > stats.removal_floor(a2) or deg[best_root(f2)] > deg2):
            o_t = best_root(f2)
            allocate(o_t, a2)
            h2 = stats.min_removal_value(a2)[0]
            for leaf in leaf_children(o_t):
                allocate(leaf, min([a1] + order[2:], key=stats.bundle_value.__getitem__))
            compensate(o_t, a1, lambda: stats.bundle_value[a2] + stats.marginal_remove(a2, h2))
            tags.append("2")
            continue
        dmin = min(stats.removal_floor(b) for b in order[2:])
        assert stats.bundle_value[a1] > dmin
        j, fj = next(
            (b, feasible_roots(b))
            for b in order[2:]
            if stats.removal_floor(b) == dmin and feasible_roots(b)
        )
        oj = stats.min_removal_value(j)[0]
        o_t = best_root(fj)
        allocate(o_t, j)
        for leaf in leaf_children(o_t):
            allocate(leaf, a1)
        compensate(o_t, a1, lambda: min(
            stats.bundle_value[a2], stats.bundle_value[j] + stats.marginal_remove(j, oj)
        ))
        tags.append("3")
    return placements, tags


@st.composite
def forests(draw):
    """A forest of 1-4 random trees of 2-12 vertices each, plus 0-2 isolated
    vertices, under a random labelling."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
    edges, base = [], 0
    for k in sizes:
        edges += [(base + draw(st.integers(min_value=0, max_value=v - 1)), base + v) for v in range(1, k)]
        base += k
    m = base + draw(st.integers(min_value=0, max_value=2))
    label = draw(st.permutations(range(m)))
    return Graph.from_edges(m, [(label[u], label[v]) for u, v in edges])


@settings(deadline=None, max_examples=150)
@given(forests(), st.integers(min_value=3, max_value=6))
def test_indexed_frontier_peels_as_the_frontier_scan(g, n):
    """Peeling with its frontier heaps places the same vertices in the same
    bundles, in the same order and by the same cases, as the full frontier
    scans of frontier_scan_peeling."""
    if g.num_vertices < n:
        return
    _, trace = solve_forest_ef1_so(g, n)
    assert (trace.placements, trace.case_history) == frontier_scan_peeling(g, n)


# (n, m, edges): forests on which peeling into n bundles reaches case 3,
# found by a random search: about 1 in 70,000 random forests of 1-4 trees
# reaches it with n from 3 to 6.  They have 4, 3, 2 and 3 trees.
CASE_THREE_FORESTS = [
    (3, 22, [(0, 18), (1, 18), (2, 4), (3, 10), (4, 12), (4, 21), (5, 10), (6, 15), (6, 16),
             (7, 19), (7, 21), (8, 20), (9, 17), (11, 14), (12, 18), (13, 18), (14, 15), (15, 20)]),
    (3, 15, [(0, 13), (1, 13), (1, 14), (2, 6), (3, 5), (4, 12), (5, 7), (5, 8), (5, 9), (5, 10),
             (5, 11), (6, 14)]),
    (3, 19, [(0, 5), (1, 4), (2, 17), (3, 11), (4, 15), (4, 16), (4, 18), (5, 11), (6, 16),
             (6, 17), (7, 11), (8, 17), (9, 15), (10, 11), (11, 12), (11, 13), (11, 14)]),
    (4, 14, [(0, 3), (0, 10), (1, 13), (2, 10), (2, 12), (3, 6), (4, 8), (4, 9), (4, 10), (5, 7),
             (7, 11)]),
]


@pytest.mark.parametrize("n, m, edges", CASE_THREE_FORESTS)
def test_indexed_frontier_reaches_case_three_as_the_frontier_scan(n, m, edges):
    g = Graph.from_edges(m, edges)
    _, trace = solve_forest_ef1_so(g, n)
    assert "3" in trace.case_history
    assert (trace.placements, trace.case_history) == frontier_scan_peeling(g, n)


def test_forest_bundle_snapshots_rebuild_the_peeling():
    """bundle_snapshots() rebuilds each step from the placement log, which
    is right only because peeling never moves a placed vertex: every bundle
    contains the same bundle of the previous step, and the last step's
    bundles are the returned ones without the isolated vertices."""
    rng = SplitMix64(56)
    for _ in range(60):
        n = 3 + rng.below(4)
        trees = 2 + rng.below(3)
        m = max(n, 2 * trees) + rng.below(40)
        g = with_isolated(gen_random_forest(m, trees, rng.next_u64()).graph, rng.below(3))
        a, trace = solve_forest_ef1_so(g, n)
        snaps = trace.bundle_snapshots()
        assert [tag for tag, _ in snaps] == trace.case_history
        before = [[] for _ in range(n)]
        for (_, order, _), (_, bundles) in zip(trace.peel_steps, snaps):
            now = [None] * n
            for b, bundle in zip(order, bundles):
                now[b] = bundle
            assert all(set(before[b]) <= set(now[b]) for b in range(n))
            before = now
        # the solver's last re-sort by value is stable
        last = snaps[-1][1]
        values = bundle_values(Allocation.of(last), g)
        isolated = {v for v in range(g.num_vertices) if not g.adjacency[v]}
        assert [last[pos] for pos in sorted(range(n), key=values.__getitem__)] == [
            [v for v in bundle if v not in isolated] for bundle in a.to_lists()
        ]


def test_forest_trace_grows_linearly():
    """The trace keeps each placement once and O(n) per iteration, not a
    copy of every bundle at every iteration (about a million entries here)."""

    def entries(x):
        return sum(map(entries, x)) if isinstance(x, (list, tuple)) else 1

    g = gen_random_forest(2000, 4, 11).graph
    n = 4
    _, trace = solve_forest_ef1_so(g, n)
    assert trace.iterations == 985
    stored = sum(entries(getattr(trace, f.name)) for f in dataclasses.fields(trace))
    assert stored <= 3 * (g.num_vertices + n * trace.iterations)


# -- equitable partitioning and dispatch -------------------------------------


def test_equitable_cut_gap_bound():
    rng = SplitMix64(55)
    for _ in range(40):
        n = 2 + rng.below(4)
        g = gen_random_graph(n + rng.below(10), 0.5, rng.next_u64()).graph
        a, trace = equitable_cut(g, n)
        values = sorted(bundle_values(a, g))
        assert values[-1] - values[0] <= g.max_degree()
        assert trace.guarantee == "EF1+wTS+gap<=maxdeg"
    with pytest.raises(ValueError):
        equitable_cut(gen_path(3).graph, 1)


def test_dispatch_routes_by_structure():
    path = gen_path(6).graph
    dense = gen_fig3(3).graph

    a, trace = dispatch_solve(path, 2, SolveGoal.EF1_WTS)
    assert trace.guarantee == "EF+TS"
    a, trace = dispatch_solve(path, 3, SolveGoal.EF1_WTS)
    assert trace.guarantee == "EF1+SO+TS"
    a, trace = dispatch_solve(dense, 4, SolveGoal.EF1_TS)
    assert trace.guarantee == "EF1+TS"
    a, trace = dispatch_solve(dense, 3, SolveGoal.EF1_WTS)
    assert trace.guarantee == "EF1+wTS"
    a, trace = dispatch_solve(dense, 3, "equitable")
    assert trace.guarantee == "EF1+wTS+gap<=maxdeg"
    a, trace = dispatch_solve(dense, 1, SolveGoal.EF1_WTS)
    assert trace.guarantee == "EF1+TS+wTS"


def test_dispatch_infeasible_goals():
    dense = gen_fig3(3).graph
    with pytest.raises(GoalInfeasibleError):
        dispatch_solve(dense, 3, SolveGoal.EF_TS_2)
    with pytest.raises(GoalInfeasibleError):
        dispatch_solve(dense, 3, SolveGoal.EF1_TS)
    with pytest.raises(GoalInfeasibleError):
        dispatch_solve(dense, 3, SolveGoal.EF1_SO_FOREST)
    with pytest.raises(ValueError):
        dispatch_solve(dense, 3, "no-such-goal")


# -- isolated vertices ---------------------------------------------------------


def insert_isolated(rng, g, extra):
    """g with `extra` isolated vertices inserted at random positions, and the
    increasing map from g's vertices to their new ids."""
    m = g.num_vertices + extra
    inserted = set()
    while len(inserted) < extra:
        inserted.add(rng.below(m))
    label = [v for v in range(m) if v not in inserted]
    return Graph.from_edges(m, [(label[u], label[v]) for u, v in g.edges]), label


def test_isolated_vertices_change_only_where_they_land(monkeypatch):
    """Inserting isolated vertices changes nothing a solver does with the other
    vertices: their bundles, mapped back, and the whole trace (potentials,
    welfare, cases, iterations and forest placements) equal the solve without
    them.  The solvers work on the given graph and build no other one."""
    rng = SplitMix64(57)
    runs = []
    for t in range(40):
        n = 2 + rng.below(5)
        if t % 2:
            base = gen_random_forest(max(n, 4) + rng.below(14), 1 + rng.below(2), rng.next_u64()).graph
            solvers = [("forest", lambda g, n=n: solve_forest_ef1_so(g, n))]
        else:
            base = gen_random_graph(n + rng.below(12), (30 + rng.below(41)) / 100, rng.next_u64()).graph
            solvers = [
                ("two", greedy_two_agents),
                ("wts", lambda g, n=n: solve_ef1_wts(g, n)),
                ("equitable", lambda g, n=n: equitable_cut(g, n)),
            ]
            if n >= 4:
                solvers.append(("ts", lambda g, n=n: solve_ef1_ts_n4(g, n)))
        g, label = insert_isolated(rng, base, 1 + rng.below(3))
        for name, solve in solvers:
            runs.append((name, base, g, label, solve, solve(base)))

    def no_second_graph(*args):
        raise AssertionError("a solver built a second graph")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(no_second_graph))
    for name, base, g, label, solve, (base_a, base_trace) in runs:
        a, trace = solve(g)
        assert a.is_complete(g), name
        assert [{v for v in b if g.adjacency[v]} for b in a.bundles] == [
            {label[v] for v in b if base.adjacency[v]} for b in base_a.bundles
        ], name
        moved = [(label[v], b) for v, b in base_trace.placements]
        assert trace == dataclasses.replace(base_trace, placements=moved), name


def test_checking_a_solver_output_builds_no_bundle_stats(monkeypatch):
    """A solver that keeps a BundleStats hands it over with its output, so
    the checks that follow build none; greedy_two_agents keeps none, so the
    first check of its output builds one."""
    builds = []
    build = BundleStats.from_bundles

    def counted(g, bundles):
        builds.append(len(bundles))
        return build(g, bundles)

    monkeypatch.setattr(BundleStats, "from_bundles", staticmethod(counted))
    rng = SplitMix64(61)
    g = with_isolated(gen_random_graph(12, 0.4, rng.next_u64()).graph, 3)
    forest = with_isolated(gen_random_forest(12, 2, rng.next_u64()).graph, 2)
    start = Allocation.of([range(k, 15, 5) for k in range(5)])
    runs = [
        ("ts", g, lambda: solve_ef1_ts_n4(g, 5)),
        ("wts", g, lambda: solve_ef1_wts(g, 3)),
        ("equitable", g, lambda: equitable_cut(g, 4)),
        ("ts_subroutine", g, lambda: ts_subroutine(start, g)),
        ("wts_subroutine", g, lambda: wts_subroutine(start, g)),
        ("forest3", forest, lambda: solve_forest_ef1_so(forest, 3)),
        ("forest4", forest, lambda: solve_forest_ef1_so(forest, 4)),
    ]

    def check_all(a, g):
        return [bundle_values(a, g), social_welfare(a, g), check_ef(a, g), check_ef1(a, g),
                check_alpha_ef1(a, g, Fraction(1, 2)), check_ts(a, g), check_wts(a, g),
                check_so(a, g, max_states=1)]

    for name, graph, solve in runs:
        a, _ = solve()
        builds.clear()
        check_all(a, graph)
        assert builds == [], name
    a, _ = greedy_two_agents(g)
    builds.clear()
    check_ef(a, g)
    check_ts(a, g)
    assert builds == [2]
