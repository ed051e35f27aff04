"""Property-based checks of structural invariants."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutfair import oracle
from cutfair.allocation import (
    Allocation,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
    social_welfare,
)
from cutfair.algorithms import solve_ef1_wts, ts_subroutine, wts_subroutine
from cutfair.graph import Graph
from cutfair.valuation import BundleStats, cut_value


@st.composite
def graphs(draw, max_vertices=7):
    m = draw(st.integers(min_value=2, max_value=max_vertices))
    pairs = list(itertools.combinations(range(m), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph.from_edges(m, picks)


@st.composite
def graph_states(draw, max_vertices=7, max_bundles=4):
    g = draw(graphs(max_vertices))
    n = draw(st.integers(min_value=2, max_value=max_bundles))
    assign = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=g.num_vertices,
            max_size=g.num_vertices,
        )
    )
    bundles = [set() for _ in range(n)]
    for v, b in enumerate(assign):
        bundles[b].add(v)
    return g, Allocation.of(bundles)


@given(graphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.num_vertices)) == 2 * g.num_edges


@given(graph_states(max_bundles=2))
def test_cut_complement_symmetry(state):
    g, a = state
    assert cut_value(g, a.bundles[0]) == cut_value(g, a.bundles[1])


@given(graph_states())
def test_welfare_counts_cut_edges_twice(state):
    g, a = state
    owner = {}
    for i, b in enumerate(a.bundles):
        for v in b:
            owner[v] = i
    crossing = sum(1 for u, v in g.edges if owner[u] != owner[v])
    assert social_welfare(a, g) == 2 * crossing


@given(graph_states())
def test_marginals_are_exact(state):
    g, a = state
    stats = BundleStats.from_bundles(g, a.bundles)
    for o in range(g.num_vertices):
        src = stats.assignment[o]
        dst = (src + 1) % a.n
        before = list(stats.bundle_value)
        gain_dst = stats.marginal_add(dst, o)
        gain_src = stats.marginal_remove(src, o)
        stats.apply_move(o, src, dst)
        assert stats.bundle_value[src] == before[src] + gain_src
        assert stats.bundle_value[dst] == before[dst] + gain_dst
        stats.apply_move(o, dst, src)
        assert stats.bundle_value == before


@given(graph_states())
def test_implication_chain(state):
    g, a = state
    if check_ef(a, g).holds:
        assert check_ef1(a, g).holds
    if check_so(a, g).holds:
        assert oracle.oracle_pareto(a, g, a.n)
        assert check_ts(a, g).holds
    if check_ts(a, g).holds:
        assert check_wts(a, g).holds


@given(graph_states())
def test_at_most_two_nonpositive_bundles_per_item(state):
    g, a = state
    stats = BundleStats.from_bundles(g, a.bundles)
    for o in range(g.num_vertices):
        if g.degree(o) == 0:
            continue
        nonpos = sum(1 for c in stats.neighbor_counts(o) if g.degree(o) - 2 * c <= 0)
        assert nonpos <= 2


@settings(deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=4))
def test_general_solver_always_delivers(g, n):
    if g.num_vertices < n:
        return
    a, _ = solve_ef1_wts(g, n)
    assert a.is_complete(g)
    assert check_ef1(a, g).holds
    if n >= 2:
        assert check_wts(a, g).holds


@settings(deadline=None)
@given(graph_states(max_bundles=5))
def test_every_stability_move_raises_the_welfare(state):
    # a wTS move raises the welfare by >= 2 and a TS move by >= 1; the
    # welfare is at most 2|E|, which is why one budget serves both passes
    g, a = state
    passes = [(wts_subroutine, 2)] + ([(ts_subroutine, 1)] if a.n >= 4 else [])
    for subroutine, least_gain in passes:
        _, trace = subroutine(a, g)
        sws = trace.welfare_history
        assert all(after - before >= least_gain for before, after in zip(sws, sws[1:]))
        assert trace.iterations <= 2 * g.num_edges // least_gain


@st.composite
def partial_states(draw, max_vertices=7, max_bundles=4):
    """A graph and a partial assignment: None leaves a vertex unassigned."""
    g = draw(graphs(max_vertices))
    n = draw(st.integers(min_value=1, max_value=max_bundles))
    assign = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)),
            min_size=g.num_vertices,
            max_size=g.num_vertices,
        )
    )
    bundles = [{v for v, b in enumerate(assign) if b == i} for i in range(n)]
    return g, bundles


STEPS = st.one_of(
    st.tuples(st.just("move"), st.integers(min_value=0), st.integers(min_value=0)),
    st.tuples(st.just("floor"), st.integers(min_value=0)),
    st.tuples(st.just("chores")),
)


@settings(deadline=None, max_examples=200)
@given(partial_states(), st.lists(STEPS, max_size=40))
def test_bundle_caches_survive_random_moves(state, steps):
    g, bundles = state
    stats = BundleStats.from_bundles(g, bundles)
    n = stats.n
    for step in steps:
        if step[0] == "move":
            o = step[1] % g.num_vertices
            dst = step[2] % (n + 1)
            dst = None if dst == n else dst
            src = stats.assignment[o]
            if src == dst:
                continue
            stats.apply_move(o, src, dst)
        elif step[0] == "floor":
            i = step[1] % n
            best = stats.min_removal_value(i)
            assert stats.removal_floor(i) == (0 if best is None else best[1])
        else:
            weak, strict = stats.chores()
            assert all(strict[i] <= weak[i] <= stats.members[i] for i in range(n))
            for i in range(n):
                for kind in (weak, strict):
                    assert stats.least_chore(i, kind is strict) == min(kind[i], default=None)
        stats.check_consistency()


@settings(deadline=None)
@given(graph_states(max_bundles=5), st.data())
def test_relabel_equals_a_build_of_the_permuted_bundles(state, data):
    """Query floors and chores, move (n means: unassign), relabel: the stats
    equal a fresh build of the bundles in their new order."""
    g, a = state
    stats = BundleStats.from_bundles(g, a.bundles)
    n = stats.n
    bundle = st.integers(min_value=0, max_value=n - 1)
    for i in data.draw(st.lists(bundle, max_size=n)):
        stats.min_removal_value(i)
    if data.draw(st.booleans()):
        stats.chores()
    moves = st.tuples(st.integers(min_value=0, max_value=g.num_vertices - 1), st.integers(0, n))
    for o, dst in data.draw(st.lists(moves, max_size=6)):
        dst = None if dst == n else dst
        if stats.assignment[o] != dst:
            stats.apply_move(o, stats.assignment[o], dst)
    for i in data.draw(st.lists(bundle, max_size=n)):
        stats.min_removal_value(i)
    order = data.draw(st.permutations(range(n)))
    bundles = [set(stats.members[b]) for b in order]
    stats.relabel(order)
    stats.check_consistency()
    fresh = BundleStats.from_bundles(g, bundles)
    for name in ("assignment", "own_neighbors", "bundle_value", "members"):
        assert getattr(stats, name) == getattr(fresh, name), name
    assert [stats.min_removal_value(i) for i in range(n)] == [
        fresh.min_removal_value(i) for i in range(n)
    ]
    assert stats.chores() == fresh.chores()
    for i, strict in itertools.product(range(n), (False, True)):
        assert stats.least_chore(i, strict) == fresh.least_chore(i, strict)
    stats.check_consistency()


@given(partial_states())
def test_from_bundles_equals_a_build_by_moves(state):
    g, bundles = state
    built = BundleStats(g, len(bundles))
    for i, bundle in enumerate(bundles):
        for o in sorted(bundle):
            built.apply_move(o, None, i)
    stats = BundleStats.from_bundles(g, bundles)
    assert stats.assignment == built.assignment
    assert stats.own_neighbors == built.own_neighbors
    for o in range(g.num_vertices):
        assert stats.neighbor_counts(o) == built.neighbor_counts(o) == [
            sum(1 for u in g.adjacency[o] if u in bundle) for bundle in bundles
        ]
    assert stats.bundle_value == built.bundle_value
    assert stats.members == built.members
    stats.check_consistency()
    taken = [o for bundle in bundles for o in bundle]
    if taken:
        with pytest.raises(ValueError, match="is in bundle"):
            BundleStats.from_bundles(g, bundles + [{taken[0]}])
