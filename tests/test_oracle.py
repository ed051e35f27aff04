import inspect
import itertools
import tracemalloc
from fractions import Fraction
from math import factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutfair import oracle
from cutfair.allocation import (
    Allocation,
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
    social_welfare,
)
from cutfair.graph import Graph
from cutfair.instances import (
    SplitMix64,
    gen_appendix_a,
    gen_appendix_b,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_fig1,
    gen_fig3,
    gen_path,
    gen_random_graph,
    gen_star,
)
from cutfair.oracle import CapExceededError, OracleQuery, _scan_py
from cutfair.oracle._kernel import (
    EF,
    EF1,
    KERNEL_NAME,
    NONEMPTY,
    SO,
    TS,
    WTS,
    scan_python,
)


def query(*preds, **kwargs):
    return OracleQuery.of(set(preds), **kwargs)


def test_query_validation():
    with pytest.raises(ValueError, match="unknown predicates"):
        OracleQuery.of({"ef2"})
    q = query("ef1", "ts")
    assert q.predicates == frozenset({"ef1", "ts"})


def test_cap_enforced():
    g = gen_random_graph(12, 0.5, 1).graph
    with pytest.raises(CapExceededError):
        oracle.oracle_exists(g, 3, query("ef1", max_states=1000))
    with pytest.raises(CapExceededError):
        oracle.max_welfare(g, 3, max_states=1000)


def test_enumerate_allocations_counts():
    g = gen_path(3).graph
    assert sum(1 for _ in oracle.enumerate_allocations(g, 2)) == 8
    with pytest.raises(CapExceededError):
        list(oracle.enumerate_allocations(g, 5, max_states=10))


def test_oracle_against_checkers_brute_force():
    """Every predicate in the table: the oracle's count equals the number of
    complete allocations its checker accepts on a handful of small instances.
    SO and PO are held to a brute force over the enumerated value vectors."""
    rng = SplitMix64(303)
    for trial in range(12):
        m = 3 + rng.below(4)
        n = 2 + trial % 2
        g = gen_random_graph(m, 0.5, rng.next_u64()).graph
        allocations = list(oracle.enumerate_allocations(g, n))
        vectors = [tuple(sorted(bundle_values(a, g))) for a in allocations]
        best = max(map(sum, vectors))
        brute = {
            "so": [sum(v) == best for v in vectors],
            "po": [not any(_dominates(w, v) for w in vectors) for v in vectors],
        }
        for name, predicate in oracle.PREDICATES.items():
            for alpha in (Fraction(1, 2), Fraction(1)) if name == "alpha_ef1" else (Fraction(1),):
                q = query(name, alpha=alpha)
                # the SO and PO checkers enumerate every allocation per call
                step = 5 if name in brute else 1
                checked = [predicate.check(a, g, q).holds is True for a in allocations[::step]]
                verdicts = brute.get(name, checked)
                assert checked == verdicts[::step], name
                assert oracle.oracle_count(g, n, q) == sum(verdicts), (name, alpha)


def _dominates(x, y):
    return all(a >= b for a, b in zip(x, y)) and x != y


def test_alpha_ef1_counts_match_checker():
    g = gen_random_graph(5, 0.6, 5).graph
    for alpha in (Fraction(1), Fraction(1, 2), Fraction(2, 3)):
        expected = sum(
            bool(check_alpha_ef1(a, g, alpha).holds)
            for a in oracle.enumerate_allocations(g, 2)
        )
        assert oracle.oracle_count(g, 2, query("alpha_ef1", alpha=alpha)) == expected


def test_witness_satisfies_query_and_is_first():
    g = gen_cycle(6).graph
    w = oracle.oracle_exists(g, 3, query("ef1", "wts", "nonempty"))
    assert w is not None
    assert check_ef1(w, g).holds and check_wts(w, g).holds and w.all_nonempty()
    # first in enumeration order: no earlier allocation qualifies
    for a in oracle.enumerate_allocations(g, 3):
        if a.bundles == w.bundles:
            break
        assert not (check_ef1(a, g).holds and check_wts(a, g).holds and a.all_nonempty())


def test_two_hub_instance_verdicts():
    g = gen_fig3(3).graph
    assert oracle.oracle_exists(g, 3, query("ef1", "ts")) is None
    w = oracle.oracle_exists(g, 3, query("ef1", "wts"))
    assert w is not None
    assert check_wts(w, g).holds


def test_pareto_and_so_queries():
    g = gen_cycle(6).graph
    w = oracle.oracle_exists(g, 3, query("ef1", "so"))
    assert w is not None
    assert social_welfare(w, g) == oracle.max_welfare(g, 3)
    po = oracle.oracle_exists(g, 3, query("ef1", "po"))
    assert po is not None
    assert oracle.oracle_pareto(po, g, 3)
    # welfare-maximal implies Pareto-undominated
    assert oracle.oracle_pareto(w, g, 3)


def test_pareto_rejects_dominated():
    g = gen_path(4).graph
    dominated = oracle.Allocation.of([{0, 1}, {2, 3}])
    assert not oracle.oracle_pareto(dominated, g, 2)
    with pytest.raises(ValueError, match="complete"):
        oracle.oracle_pareto(oracle.Allocation.of([{0}, {1}]), g, 2)


# graphs of 0 to 7 vertices into 1 to 4 bundles; on cycle:5 with n = 4 some
# matches leave a bundle empty, so a string with j < n labels stands for
# n!/(n - j)! allocations
FIND_ALL_CASES = (
    (gen_path(4).graph, 2),
    (gen_fig3(3).graph, 3),
    (gen_cycle(5).graph, 4),
    (gen_path(4).graph, 1),
    (Graph.from_edges(0, []), 3),
)


def pinned_part(allocations, g):
    """The allocations with vertex 0 in bundle 0 (all of them with no vertex)."""
    return [a for a in allocations if not g.num_vertices or 0 in a.bundles[0]]


def test_find_all_matches_count_and_filters():
    """oracle_find_all lists, in enumeration order, exactly the allocations
    whose checkers all hold, and as many as oracle_count counts; with the
    vertex-0 pin, those with vertex 0 in bundle 0."""
    for g, n in FIND_ALL_CASES:
        for preds in (
            {"ef1"}, {"ef1", "ts"}, {"ef1", "so"}, {"po"}, {"ef1", "po"}, {"so", "po"}, {"nonempty", "wts"}
        ):
            expected = [
                a
                for a in oracle.enumerate_allocations(g, n)
                if all(oracle.PREDICATES[p].check(a, g, query()).holds for p in preds)
            ]
            for symmetry in (False, True):
                q = query(*preds, symmetry=symmetry)
                found = oracle.oracle_find_all(g, n, q)
                assert len(found) == oracle.oracle_count(g, n, q)
                assert found == (pinned_part(expected, g) if symmetry else expected), (n, preds)
    g, n = FIND_ALL_CASES[2]
    assert any(not all(a.bundles) for a in oracle.oracle_find_all(g, n, query("ef1")))


def test_find_all_with_symmetry_lists_the_pinned_matches():
    """With the vertex-0 pin, oracle_find_all under a PO or an SO filter
    lists the unpinned matches that have vertex 0 in bundle 0, in the same
    order, and as many as the pinned oracle_count."""
    for g, n in FIND_ALL_CASES:
        for preds in ({"po"}, {"wts", "po"}, {"so"}, {"nonempty", "so"}):
            pinned = oracle.oracle_find_all(g, n, query(*preds, symmetry=True))
            found = oracle.oracle_find_all(g, n, query(*preds))
            assert pinned == pinned_part(found, g), (n, preds)
            assert len(pinned) == oracle.oracle_count(g, n, query(*preds, symmetry=True))
            assert pinned or "nonempty" in preds and n > g.num_vertices


def test_leximin_maximizes_sorted_vector():
    g = gen_cycle(6).graph
    best = oracle.oracle_leximin(g, 3)
    target = tuple(sorted(bundle_values(best, g)))
    for a in oracle.enumerate_allocations(g, 3):
        assert tuple(sorted(bundle_values(a, g))) <= target
    assert oracle.oracle_pareto(best, g, 3)


def test_max_cut_exact_on_known_graphs():
    for a, b in ((1, 3), (2, 3), (3, 4)):
        g = gen_complete_bipartite(a, b).graph
        _, best = oracle.oracle_max_cut(g)
        assert best == g.num_edges
    g = gen_cycle(5).graph
    alloc, best = oracle.oracle_max_cut(g)
    assert best == 4
    assert social_welfare(alloc, g) == 8


def test_completability():
    inst = gen_appendix_a()
    assert not oracle.oracle_completable_ef1(inst.partial, inst.graph, 4)
    g = gen_path(4).graph
    partial = oracle.Allocation.of([{0}, {3}])
    assert oracle.oracle_completable_ef1(partial, g, 2)
    not_ef1 = oracle.Allocation.of([set(), {1, 3}])
    with pytest.raises(ValueError, match="must itself be EF1"):
        oracle.oracle_completable_ef1(not_ef1, g, 2)


def test_symmetry_prunes_but_preserves_existence():
    g = gen_fig3(3).graph
    assert oracle.oracle_exists(g, 3, query("ef1", "ts", symmetry=True)) is None
    full = oracle.oracle_count(g, 3, query("ef1"))
    pinned = oracle.oracle_count(g, 3, query("ef1", symmetry=True))
    assert 0 < pinned < full
    assert 3 * pinned == full  # the pinned sub-count is the count divided by n
    assert oracle.oracle_exists(g, 3, query("ef1", "wts", symmetry=True)).bundles == (
        oracle.oracle_exists(g, 3, query("ef1", "wts")).bundles
    )


def test_threads_other_than_one_are_refused():
    with pytest.raises(ValueError, match="threads must be 1"):
        query("ef1", threads=2)
    with pytest.raises(ValueError, match="threads must be 1"):
        oracle.oracle_leximin(gen_path(3).graph, 2, threads=0)


def test_every_entry_point_is_one_kernel_scan(monkeypatch):
    """One kernel call per query, canonical (fixing no vertex) unless a
    partial allocation fixes a vertex (vertex 0 alone included), and
    collecting value vectors only for PO without SO, the Pareto check and
    leximin; oracle_find_all makes one canonical call, which with a PO
    filter also collects, whether or not that filter keeps a vector.  Only
    completability makes a labelled scan.  The max cut is taken on a graph
    of 17 vertices, as one of at most 16 is read off bit-slices with no
    kernel call (``test_bit_sliced_max_cut_equals_the_kernel_scan``)."""
    calls = []

    def counting(*args):
        calls.append((args[5], args[10]))  # fixed, collect_vectors
        return scan_python(*args)

    monkeypatch.setattr(oracle, "scan", counting)
    g = gen_fig3(3).graph
    witness = oracle.oracle_exists(g, 3, query("ef1", "wts"))
    free = [-1] * g.num_vertices
    canonical, collect = (free, False), (free, True)
    g17 = gen_fig3(15).graph

    def labelled(*bundles):  # the call of a partial allocation with vertex v in bundles[v]
        return list(bundles) + free[len(bundles) :], False

    for run, expected in (
        (lambda: oracle.oracle_exists(g, 3, query("ef1")), [canonical]),
        (lambda: oracle.oracle_exists(g, 3, query("ef1", "so", symmetry=True)), [canonical]),
        (lambda: oracle.oracle_exists(g, 3, query("ef1", "so", "po")), [canonical]),
        (lambda: oracle.oracle_count(g, 3, query("ef1", "ts")), [canonical]),
        (lambda: oracle.oracle_count(g, 3, query("so")), [canonical]),
        (lambda: oracle.oracle_count(g, 3, query("ef1", "po", symmetry=True)), [collect]),
        (lambda: oracle.max_welfare(g, 3), [canonical]),
        (lambda: oracle.oracle_pareto(witness, g, 3), [collect]),
        (lambda: oracle.oracle_leximin(g, 3), [collect]),
        (lambda: oracle.oracle_max_cut(g17), [([-1] * 17, False)]),
    ):
        calls.clear()
        run()
        assert calls == expected
    for run, expected in (
        (lambda: oracle.oracle_completable_ef1(Allocation.of([{0}, {1}, set()]), g, 3), [labelled(0, 1)]),
        (lambda: oracle.oracle_completable_ef1(Allocation.of([{0}, set(), set()]), g, 3), [labelled(0)]),
        (lambda: oracle.oracle_find_all(g, 3, query("ef1", "wts")), [canonical]),
        (lambda: oracle.oracle_find_all(g, 3, query("ef1", "wts", symmetry=True)), [canonical]),
        (lambda: oracle.oracle_find_all(g, 3, query("so")), [canonical]),
        (lambda: oracle.oracle_find_all(g, 3, query("so", "po")), [canonical]),
        (lambda: oracle.oracle_find_all(g, 3, query("wts", "po")), [collect]),
    ):
        calls.clear()
        assert run()
        assert calls == expected
    calls.clear()
    assert oracle.oracle_find_all(g, 3, query("ef1", "ts", "po")) == []
    assert calls == [collect]


@pytest.mark.parametrize("kernel", ["python", "compiled"])
def test_overflowing_queries_are_refused_before_any_kernel_call(kernel, request, monkeypatch):
    """n**free at or above 2**63 does not fit the kernel's indices: the query
    raises CapExceededError, whatever its cap, and never reaches the kernel."""
    scan = scan_python if kernel == "python" else request.getfixturevalue("compiled_scan")
    calls = []
    monkeypatch.setattr(oracle, "scan", lambda *args: calls.append(args) or scan(*args))
    cap = 2**70
    for call in (
        lambda: oracle.oracle_exists(gen_path(64).graph, 2, query("ef1", max_states=cap)),
        lambda: oracle.oracle_exists(gen_path(64).graph, 2, query("ef1", max_states=cap, symmetry=True)),
        lambda: oracle.oracle_find_all(gen_path(63).graph, 2, query("ef1", "ts", max_states=cap)),
        lambda: oracle.oracle_max_cut(gen_path(64).graph, max_states=cap),
        lambda: oracle.oracle_max_cut(gen_path(65).graph, max_states=cap),
    ):
        with pytest.raises(CapExceededError, match="64-bit"):
            call()
    assert calls == []


@pytest.mark.parametrize("n", [21, 22])
def test_po_answers_on_value_vectors_wider_than_63_bits(n):
    """On K4 with 21 or 22 bundles a sorted value vector would take 63 or 66
    bits packed: PO, the Pareto check and leximin answer all the same.  The
    EF1+PO allocations are those with one vertex per bundle, the EF1+SO
    ones."""
    g = gen_complete(4).graph
    spread = Allocation.of([{0}, {1}, {2}, {3}] + [set()] * (n - 4))
    assert oracle.oracle_exists(g, n, query("ef1")) is not None
    assert oracle.oracle_exists(g, n, query("ef1", "po")) == spread
    assert oracle.oracle_count(g, n, query("ef1", "po")) == perm(n, 4)
    assert oracle.oracle_count(g, n, query("ef1", "so")) == perm(n, 4)
    assert check_so(spread, g).holds is True
    assert oracle.oracle_pareto(spread, g, n) is True
    assert oracle.oracle_leximin(g, n) == spread


KERNEL_PREDICATES = sorted(name for name, p in oracle.PREDICATES.items() if p.bit)
LABELLED_LIMIT = 4096  # largest n^m the equivalence test scans label by label


@st.composite
def labelled_queries(draw):
    """A graph with 0-7 vertices, 1-5 bundles (n > m included, n^m at most
    LABELLED_LIMIT), any set of the seven kernel predicates, alpha and
    symmetry."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=max(k for k in range(8) if n**k <= LABELLED_LIMIT)))
    pairs = list(itertools.combinations(range(m), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    preds = draw(st.sets(st.sampled_from(KERNEL_PREDICATES)))
    alpha = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)]))
    return Graph.from_edges(m, edges), n, preds, alpha, draw(st.booleans())


@settings(deadline=None, max_examples=200)
@given(labelled_queries())
def test_canonical_oracle_equals_the_labelled_enumeration(case):
    """Counts, witnesses and value vectors of the canonical enumeration equal
    those of the exact checkers over every labelled state (with symmetry,
    those of one Python-kernel scan over the vertex-0-pinned ones), and the
    value vectors those built from the exact checkers, one restricted growth
    string at a time.  A collect scan refuses SO, so the value vectors are
    compared at the mask without it.  Which vectors a scan collects depends
    on the mask only through its TS and WTS bits."""
    g, n, preds, alpha, symmetry = case
    q = query(*preds, alpha=alpha, symmetry=symmetry)
    m = g.num_vertices
    mask, alpha = oracle._kernel_query(q)
    unso = mask & ~SO
    if symmetry and m:
        fixed = [0] + [-1] * (m - 1)
        ref = scan_python(*oracle._kernel_args(g, n, fixed, mask, alpha))
        vectors = scan_python(*oracle._kernel_args(g, n, fixed, unso, alpha, collect=True))["vectors"]
    else:
        fixed = [-1] * m
        ref = unpruned_reference(g, n, fixed, mask, alpha, False, False)[0]
        vectors = unpruned_reference(g, n, fixed, unso, alpha, False, False)[0]["vectors"]
    assert oracle.oracle_count(g, n, q) == ref["matched"]
    witness = oracle.oracle_exists(g, n, q)
    index = ref["first_index"]
    assert witness == (oracle._decoder(g, n, fixed)(index) if index >= 0 else None)
    expected = unpruned_reference(g, n, [-1] * m, unso, alpha, True, False)[0]["vectors"]
    if symmetry and m:  # vertex 0 is in bundle 0 in one labelling of every n
        for entry in expected.values():
            entry[1] //= n
    assert vectors == expected
    canonical = oracle._scan(g, n, q.max_states, unso, pin=symmetry, alpha=alpha, collect=True)
    assert canonical["vectors"] == expected
    stable = oracle._scan(g, n, q.max_states, mask & (TS | WTS), pin=symmetry, collect=True)
    assert stable["vectors"].keys() == expected.keys()


@st.composite
def welfare_queries(draw):
    """A graph with 0-6 vertices, 1-4 bundles, any set of the seven kernel
    predicates and alpha."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.combinations(range(m), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    preds = draw(st.sets(st.sampled_from(KERNEL_PREDICATES)))
    alpha = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 3)]))
    return Graph.from_edges(m, edges), n, preds, alpha


@settings(deadline=None, max_examples=100)
@given(welfare_queries())
@example((Graph.from_edges(0, []), 1, {"nonempty"}, Fraction(1)))
def test_welfare_fields_equal_brute_force(case):
    """Canonical and vertex-0-pinned scans at a query's mask with the SO bit
    return as top_welfare, first_index and matched the maximum welfare and
    the first and the number of the matches at it, over the allocations of
    enumerate_allocations that the exact checkers accept, and the pinned
    labelled scan lists those matches.  The pinned states are the first
    n**(m - 1).  SO is the maximum welfare itself, not check_so.  With
    nonempty the canonical scans walk only the allocations with no empty
    bundle, so their top welfare is the largest of those, or the scan's
    floor when there is none."""
    g, n, preds, alpha = case
    q = query(*preds, alpha=alpha)
    mask, alpha = oracle._kernel_query(q)
    mask |= SO
    m = g.num_vertices
    allocations = list(oracle.enumerate_allocations(g, n))
    welfare = [sum(bundle_values(a, g)) for a in allocations]
    ok = [all(oracle.PREDICATES[p].check(a, g, q).holds for p in preds - {"so"}) for a in allocations]
    pinned = [0] + [-1] * (m - 1) if m else []
    in_pin = n ** len(pinned[1:])
    full = [a.all_nonempty() or not mask & NONEMPTY for a in allocations]
    local = oracle._local_optimum(g, n)[0]
    # the floor of each canonical scan (the pinned one is canonical when m = 0)
    for result, states, floor in (
        (scan_python(*oracle._kernel_args(g, n, [-1] * m, mask, alpha)), n**m, -1),
        (scan_python(*oracle._kernel_args(g, n, pinned, mask, alpha, list_matches=True)), in_pin, None if m else -1),
        (oracle._scan(g, n, q.max_states, mask, pin=True, alpha=alpha), in_pin, local),
    ):
        seen = welfare[:states] if floor is None else [w for w, f in zip(welfare[:states], full) if f]
        top = max(seen, default=floor)
        at_top = [i for i in range(states) if ok[i] and welfare[i] == top]
        assert (result["top_welfare"], result["first_index"], result["matched"]) == (
            top,
            min(at_top, default=-1),
            len(at_top),
        )
        assert result["matches"] in (None, at_top)


PRUNED_LIMIT = 1024  # largest n**free the pruning test checks state by state


@st.composite
def pruned_scans(draw, so=False):
    """A kernel scan whose mask has TS or WTS, maybe with other bits, on a
    graph with 0-6 vertices and 1-4 bundles: canonical (fixing no vertex),
    vertex-0-pinned or with random fixed vertices, with or without
    first_only and the list of matches, and with a floor of -1.  With so, the
    mask has SO and any other bits, the scan collects no table, and when no
    vertex but vertex 0 is fixed the floor may also be the brute-force top
    welfare or the welfare of a random allocation."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=max(k for k in range(7) if n**k <= PRUNED_LIMIT)))
    pairs = list(itertools.combinations(range(m), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    mask = SO if so else draw(st.sampled_from([TS, WTS, TS | WTS]))
    others = [NONEMPTY, EF, EF1] + ([TS, WTS] if so else [])
    for bit in draw(st.sets(st.sampled_from(others))):
        mask |= bit
    alpha = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3)]))
    mode = draw(st.sampled_from(["canonical", "pinned", "fixed"]))
    fixed = [-1] * m
    if mode == "pinned" and m:
        fixed[0] = 0
    if mode == "fixed":
        fixed = draw(st.lists(st.integers(min_value=-1, max_value=n - 1), min_size=m, max_size=m))
    first_only, list_matches, collect = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    g = Graph.from_edges(m, edges)
    floor = -1
    canonical = fixed.count(-1) == m
    if so:
        collect = False
        if max(fixed[1:], default=-1) < 0:
            walk = canonical and mask & NONEMPTY  # then the floor is a full allocation's welfare
            allocations = oracle.enumerate_allocations(g, n)
            welfare = [sum(bundle_values(a, g)) for a in allocations if a.all_nonempty() or not walk]
            if welfare:
                floor = draw(st.sampled_from([-1, max(welfare), draw(st.sampled_from(welfare))]))
    return g, n, fixed, mask, alpha, canonical, first_only, list_matches, collect, floor


def unpruned_reference(g, n, fixed, mask, alpha, canonical, first_only, walk=False):
    """The fields of a scan from the exact checkers, state by state: every
    labelled index in range, decoded, in order (in canonical mode only the
    restricted growth strings, each matching one counting its labellings,
    and with walk only the strings that use all n labels, those a canonical
    NONEMPTY scan that collects no table walks), up to the first match if
    first_only.  With SO in the mask a state
    matches only at the top welfare of the range, the largest over every
    labelled index in it.  ``vectors`` maps the sorted value vector of each
    state that passes the mask's TS and WTS bits to the least matching index
    with it (-1 if none) and its weighted number of matches.  Also the number
    of states."""
    q = query(alpha=alpha)
    # the EF1 bit is alpha-EF1 at the scan's alpha: ef1's own checker would test EF1;
    # the SO bit is the range's top welfare, which check_so's over every allocation need not be
    checks = [p.check for name, p in oracle.PREDICATES.items() if p.bit & mask and name not in ("ef1", "so")]
    stable = [p.check for p in oracle.PREDICATES.values() if p.bit & mask & (TS | WTS)]
    free = fixed.count(-1)
    decode = oracle._decoder(g, n, fixed)
    walked = [i for i in range(n**free) if not walk or decode(i).all_nonempty()]
    top = max((sum(bundle_values(decode(i), g)) for i in walked), default=-1) if mask & SO else -1
    ref = {"matched": 0, "first_index": -1, "matches": [], "top_welfare": -1, "vectors": {}}
    states = 0
    for index in walked:
        digits = [index // n ** (free - 1 - k) % n for k in range(free)]
        if canonical and any(d > max(digits[:k], default=-1) + 1 for k, d in enumerate(digits)):
            continue
        states += 1
        a = decode(index)
        values = bundle_values(a, g)
        welfare = sum(values)
        ref["top_welfare"] = max(ref["top_welfare"], welfare)
        if not all(check(a, g, q).holds for check in stable):
            continue
        entry = ref["vectors"].setdefault(tuple(sorted(values)), [-1, 0])
        if welfare < top or not all(check(a, g, q).holds for check in checks):
            continue
        weight = perm(n, len(set(digits))) if canonical else 1
        if entry[0] < 0:
            entry[0] = index
        entry[1] += weight
        ref["matched"] += weight
        ref["matches"].append(index)
        if ref["first_index"] < 0:
            ref["first_index"] = index
        if first_only:
            break
    return ref, states


@settings(deadline=None, max_examples=150)
@given(case=pruned_scans())
def test_pruned_scans_equal_brute_force(compiled_scan, case):
    """Both kernels, which skip the completions of a prefix that breaks TS or
    wTS, return the matches, counts, witnesses, top welfare and value
    vectors of the unpruned scan, and visit no more states.
    top_welfare is compared where it is defined: not first_only, and no
    vertex fixed but vertex 0.  A canonical NONEMPTY scan that collects no
    table walks only the strings that use all n labels."""
    g, n, fixed, mask, alpha, canonical, first_only, list_matches, collect, _ = case
    walk = canonical and mask & NONEMPTY and not collect
    ref, states = unpruned_reference(g, n, fixed, mask, alpha, canonical, first_only, walk)
    fields = ["matched", "first_index"]
    if list_matches:
        fields.append("matches")
    if collect:
        fields.append("vectors")
    if not first_only and max(fixed[1:], default=-1) < 0:
        fields.append("top_welfare")
    call = oracle._kernel_args(g, n, fixed, mask, alpha, first_only, collect, list_matches)
    for kernel in (scan_python, compiled_scan):
        result = kernel(*call)
        assert {k: result[k] for k in fields} == {k: ref[k] for k in fields}
        assert result["states"] <= states


@settings(deadline=None, max_examples=150)
@given(case=pruned_scans(so=True))
def test_so_scans_equal_brute_force(compiled_scan, case):
    """Both kernels' SO scans, which also skip every completion of a prefix
    whose cut bound is below the top welfare (or equal to it, once a
    first_only scan has a match there), visit the same states in the same
    steps, and return the unpruned scan's top welfare and its first match
    at that welfare and, unless first_only, its number of matches there and
    their list.  They are compared where top_welfare is defined: the mask
    has no TS or WTS bit, or no vertex but vertex 0 is fixed.  A canonical
    NONEMPTY scan walks only the strings that use all n labels."""
    g, n, fixed, mask, alpha, canonical, first_only, list_matches, _, floor = case
    walk = canonical and mask & NONEMPTY
    ref, states = unpruned_reference(g, n, fixed, mask, alpha, canonical, False, walk)
    call = oracle._kernel_args(g, n, fixed, mask, alpha, first_only, False, list_matches, floor)
    result = scan_python(*call)
    assert compiled_scan(*call) == result
    assert result["states"] <= states
    if mask & (TS | WTS) and max(fixed[1:], default=-1) >= 0:
        return
    fields = ["top_welfare", "first_index"]
    if not first_only:
        fields.append("matched")
        if list_matches:
            fields.append("matches")
    assert {k: result[k] for k in fields} == {k: ref[k] for k in fields}


def test_drop_cache_overflow_keeps_ef1_scans_exact(monkeypatch):
    """With the Python kernel's EF1 drop cache capped at two bundles, so that
    it is cleared over and over, canonical and labelled EF1 and EF1|SO scans
    at alpha 1, 1/2 and 2/3 still return the brute force's matches and
    counts, those of EF1|SO at the top welfare."""
    monkeypatch.setattr(_scan_py, "DROP_CACHE_CAP", 2)
    fields = ["matched", "first_index", "top_welfare", "matches"]
    for g, n in ((gen_random_graph(7, 0.5, 3).graph, 3), (gen_random_graph(6, 0.7, 4).graph, 4)):
        free = [-1] * g.num_vertices
        scans = (free, free[1:] + [n - 1])  # canonical, and labelled with the last vertex fixed
        alphas = (Fraction(1), Fraction(1, 2), Fraction(2, 3))
        for fixed, alpha, mask in itertools.product(scans, alphas, (EF1, EF1 | SO)):
            ref, _ = unpruned_reference(g, n, fixed, mask, alpha, fixed == free, False)
            result = scan_python(*oracle._kernel_args(g, n, fixed, mask, alpha, list_matches=True))
            assert {k: result[k] for k in fields} == {k: ref[k] for k in fields}, (n, alpha, mask)
            assert ref["matched"] > 0


@pytest.mark.parametrize("kernel", ["python", "compiled"])
def test_pruning_cuts_the_visited_states(kernel, request, monkeypatch):
    """The TS-pruned scans of ef1+ts on fig3 with d = 9 and n = 3, which no
    allocation satisfies, of the collect scans of the criterion-10 Pareto
    check (fig1, n = 7) and of an ef1+po count, and the TS- and
    cut-bound-pruned first_only scans of the max cut of G(16, 0.3) (made
    directly, at the mask and floor of ``oracle_max_cut``, which reads
    a max cut of at most 16 vertices off bit-slices instead), of
    max_welfare on G(12, 0.4) with n = 4 and of the ef1+so witness on
    appendixB with n = 4, the canonical listing scan of the ef1+wts
    matches on fig3 with d = 5 and n = 3 (which a labelled scan made in
    1,647 states), and the ef1+ts witness scan on G(7, 0.5) with n = 5, as
    the n >= 4 sweep makes them, visit these many states, against every
    restricted growth string unpruned and, for the max cut and max_welfare,
    against the scan pruned by TS alone, which finds the same top welfare.
    The max cut and max_welfare start at a floor that is already their top
    welfare, so each visits the first state at the top alone; the appendixB
    scan, with 840 allocations at the top welfare, visited 1,246 states when
    every tie was visited and the top started at -1, and 16 before its
    scan walked only the strings that use all 4 labels.  The ef1+ts witness
    scan walks only those too, and visits 318 states when it tests NONEMPTY
    state by state.  The three cut-bound-pruned scans take these many
    prefix steps, the others none: a bound tested against the top welfare
    instead of the bar, which is above the top once a first_only scan has a
    match, visits the same states in more steps.  The max cut took 257 steps
    before the bound subtracted the clique packing."""
    scan = scan_python if kernel == "python" else request.getfixturevalue("compiled_scan")
    g = gen_fig3(9).graph
    visited = [
        scan(*oracle._kernel_args(g, 3, [-1] * 11, mask))["states"]
        for mask in (EF1 | TS, EF1)
    ]
    assert visited == [531, 29_525]
    cases = [
        (gen_random_graph(16, 0.3, 5).graph, 2),
        (gen_fig1().graph, 7),
        (gen_random_graph(10, 0.4, 3).graph, 3),
        (gen_random_graph(12, 0.4, 7).graph, 4),
    ]
    g16 = cases[0][0]
    floor = oracle._local_optimum(g16, 2)[0]
    results = [scan(*oracle._kernel_args(g16, 2, [-1] * 16, TS | SO, first_only=True, floor=floor))]
    assert oracle.oracle_max_cut(g16)[1] == results[0]["top_welfare"] // 2
    monkeypatch.setattr(oracle, "scan", lambda *args: results.append(scan(*args)) or results[-1])
    oracle.oracle_pareto(Allocation.of([{0, 4}, {1}, {2}, {3}, {5}, {6}, {7}]), *cases[1])
    oracle.oracle_count(*cases[2], query("ef1", "po"))
    oracle.max_welfare(*cases[3])
    oracle.oracle_exists(gen_appendix_b(4).graph, 4, query("ef1", "so", symmetry=True))
    oracle.oracle_find_all(gen_fig3(5).graph, 3, query("ef1", "wts"))
    g5 = gen_random_graph(7, 0.5, 3).graph
    oracle.oracle_exists(g5, 5, query("ef1", "ts"))
    tested = scan(*oracle._kernel_args(g5, 5, [-1] * 7, EF1 | TS, first_only=True))
    assert results[-1]["first_index"] == tested["first_index"] >= 0
    assert (results[-1]["states"], tested["states"]) == (52, 318)
    full = [scan(*oracle._kernel_args(g, n, [-1] * g.num_vertices)) for g, n in cases[:3]]
    assert [r["states"] for r in results] == [1, 1_425, 3_222, 1, 15, 275, 52]
    assert [r["steps"] for r in results] == [159, 0, 0, 38, 46, 0, 0]
    assert [r["states"] for r in full] == [32_768, 4_139, 9_842]
    stable = [
        scan(*oracle._kernel_args(g, n, [-1] * g.num_vertices, TS)) for g, n in cases[::3]
    ]
    assert [r["states"] for r in stable] == [3_880, 188_138]
    assert [r["top_welfare"] for r in stable] == [r["top_welfare"] for r in results[:4:3]]


def least_uncut(g, vertices, n):
    """The fewest edges among the vertices that an n-partition of them leaves
    uncut, by brute force over their partitions into at most n blocks."""
    nbr = [sum(1 << u for u in nbrs) for nbrs in g.adjacency]

    def least(i, blocks):
        if i == len(vertices):
            return 0
        v = vertices[i]
        best = least(i + 1, blocks + [1 << v]) if len(blocks) < n else float("inf")
        for k, b in enumerate(blocks):
            blocks[k] = b | 1 << v
            best = min(best, (nbr[v] & b).bit_count() + least(i + 1, blocks))
            blocks[k] = b
        return best

    return least(0, [])


def test_clique_slack_is_a_valid_packing():
    """On seeded random graphs and complete graphs with 1-8 vertices and 1-4
    bundles, with and without fixed vertices, slack[p] / 2 (n + 1)-cliques
    fit edge-disjointly in the edges among free[p:], and their number is at
    most the fewest of those edges that an n-partition of free[p:] leaves
    uncut (the edge count with n = 1, where the cliques are the edges);
    slack never rises with p, and is 0 at p = f."""
    rng = SplitMix64(2027)
    cases = [(gen_complete(m).graph, n) for m in range(4, 9) for n in range(1, 5)]
    for trial in range(60):
        m = 1 + rng.below(8)
        g = gen_random_graph(m, 0.3 + 0.6 * rng.below(100) / 100, rng.next_u64()).graph
        cases.append((g, 1 + trial % 4))
    packed = 0
    for trial, (g, n) in enumerate(cases):
        m = g.num_vertices
        fixed = [-1] * m
        if trial % 3 == 2:
            fixed = [rng.below(n) if rng.below(3) == 0 else -1 for _ in range(m)]
        free = [v for v in range(m) if fixed[v] < 0]
        slack = oracle._clique_slack(g, n, fixed)
        assert len(slack) == len(free) + 1 and slack[-1] == 0
        assert all(a >= b for a, b in zip(slack, slack[1:])), (trial, slack)
        for p in range(len(free)):
            rest = set(free[p:])
            edges = sum(u in rest for v in rest for u in g.adjacency[v]) // 2
            cliques = slack[p] // 2
            assert slack[p] % 2 == 0 and cliques * (n + 1) * n // 2 <= edges, (trial, p)
            assert cliques <= least_uncut(g, free[p:], n), (trial, p)
            if n == 1:
                assert cliques == edges
        packed += slack[0] > 0 and n > 1
    assert packed >= 10  # the packings are not all empty


def test_the_slack_changes_only_states_and_steps(compiled_scan):
    """Both kernels' SO scans (alone and with TS, EF1 or NONEMPTY, first_only
    or counting, listing their matches, from no floor or a local optimum's,
    canonical or with a fixed vertex) return the same with the clique slack
    as with an all-zero one, apart from ``states`` and ``steps``, which are
    no larger; the kernels agree with each other, and the slack saves steps
    in all."""
    rng = SplitMix64(77)
    saved = 0
    masks = (SO, TS | SO, EF1 | TS | SO, NONEMPTY | SO)
    for trial in range(16):
        n = 1 + trial % 4
        m = (9, 9, 8, 7)[n - 1]
        g = gen_random_graph(m, 0.4 + 0.4 * rng.below(100) / 100, rng.next_u64()).graph
        for fixed, mask, first_only in itertools.product(
            ([-1] * m, [-1] * (m - 1) + [n - 1]), masks, (False, True)
        ):
            floor = oracle._local_optimum(g, n)[0] if fixed.count(-1) == m and trial % 2 else -1
            call = oracle._kernel_args(g, n, fixed, mask, 1, first_only, False, True, floor)
            zero = call[:12] + ([0] * len(call[12]),) + call[13:]
            results = [kernel(*args) for args in (call, zero) for kernel in (scan_python, compiled_scan)]
            assert results[0] == results[1] and results[2] == results[3], (trial, mask, first_only)
            slacked, plain = results[0], results[2]
            assert slacked["states"] <= plain["states"] and slacked["steps"] <= plain["steps"]
            saved += plain["steps"] - slacked["steps"]
            for result in (slacked, plain):
                del result["states"], result["steps"]
            assert slacked == plain, (trial, mask, first_only)
    assert saved > 0


def test_welfare_scans_add_the_ts_bit(monkeypatch):
    """oracle_max_cut, max_welfare, the scans of SO and PO queries, the
    Pareto check and leximin add TS to their mask, so that the kernel prunes
    them: every allocation at the top welfare or with an undominated value
    vector is TS.  The scans of SO queries, max_welfare and oracle_max_cut
    carry the SO bit too, which prunes them by the cut bound.  The max cut
    is taken on a graph of 17 vertices, as one of at most 16 makes no kernel
    call."""
    masks = []
    monkeypatch.setattr(oracle, "scan", lambda *args: masks.append(args[6]) or scan_python(*args))
    g = gen_fig3(3).graph
    oracle.oracle_max_cut(gen_fig3(15).graph)
    oracle.max_welfare(g, 3)
    oracle.oracle_count(g, 3, query("ef1", "so"))
    oracle.oracle_find_all(g, 3, query("so"))
    oracle.oracle_count(g, 3, query("ef1", "po"))
    oracle.oracle_pareto(oracle.oracle_leximin(g, 3), g, 3)
    assert masks == [TS | SO, TS | SO, EF1 | TS | SO, TS | SO, EF1 | TS, TS, TS]


def two_bundle_cases():
    """Seeded random graphs with 0-17 vertices at four densities, then
    complete graphs, paths, stars and complete bipartite graphs."""
    rng = SplitMix64(3030)
    yield Graph.from_edges(0, [])
    for m in range(1, 18):
        for p in (0.1, 0.3, 0.6, 0.9):
            yield gen_random_graph(m, p, rng.next_u64()).graph
    for m in (2, 3, 8, 15, 16, 17):
        yield from (gen_complete(m).graph, gen_path(m).graph, gen_star(m - 1).graph)
    for a, b in ((1, 1), (3, 5), (8, 8), (8, 9)):
        yield gen_complete_bipartite(a, b).graph


@pytest.mark.parametrize("kernel", ["python", "compiled"])
def test_bit_sliced_max_cut_equals_the_kernel_scan(kernel, request, monkeypatch):
    """oracle_max_cut, max_welfare with n = 2 and the SO witness with n = 2,
    with and without symmetry, return the witness and value of the kernel's
    own max-cut scan (first_only TS|SO from a local optimum's floor).  A
    graph of at most 16 vertices is read off bit-slices with no kernel call,
    one of 17 makes one kernel call per query.  Up to 10 vertices the
    bit-sliced ``matched`` is the pinned count of the SO allocations.  A
    scan that fixes a vertex is always the kernel's."""
    scan = scan_python if kernel == "python" else request.getfixturevalue("compiled_scan")
    calls = []
    monkeypatch.setattr(oracle, "scan", lambda *args: calls.append(args) or scan(*args))
    sizes = set()
    for g in two_bundle_cases():
        m = g.num_vertices
        floor = oracle._local_optimum(g, 2)[0]
        ref = scan(*oracle._kernel_args(g, 2, [-1] * m, TS | SO, first_only=True, floor=floor))
        witness = oracle._decoder(g, 2)(ref["first_index"])
        calls.clear()
        answers = (
            oracle.oracle_max_cut(g),
            oracle.max_welfare(g, 2),
            oracle.oracle_exists(g, 2, query("so")),
            oracle.oracle_exists(g, 2, query("so", symmetry=True)),
        )
        assert answers == ((witness, ref["top_welfare"] // 2), ref["top_welfare"], witness, witness), m
        assert len(calls) == (4 if m > oracle._BIT_CUT_VERTICES else 0), m
        if m <= 10:
            pinned = oracle._scan(g, 2, 2**m, TS | SO, pin=True, first_only=True)["matched"]
            assert pinned == oracle.oracle_count(g, 2, query("so", symmetry=True)), m
        if m:
            fixed = [-1] * (m - 1) + [1]
            calls.clear()
            result = oracle._scan(g, 2, 2**m, TS | SO, fixed, first_only=True)
            assert result == scan(*oracle._kernel_args(g, 2, fixed, TS | SO, first_only=True))
            assert len(calls) == 1
        sizes.add(m)
    assert sizes == set(range(18)) and oracle._BIT_CUT_VERTICES == 16


def test_bit_sliced_max_cut_keeps_the_caps():
    """A max cut of at most 16 vertices is refused one state under its cap,
    2**(m - 1) pinned states for oracle_max_cut and 2**m labelled ones for
    max_welfare with n = 2, and answers at exactly its cap."""
    for m in (1, 2, 9, 16):
        g = gen_random_graph(m, 0.5, m).graph
        with pytest.raises(CapExceededError):
            oracle.oracle_max_cut(g, max_states=2 ** (m - 1) - 1)
        with pytest.raises(CapExceededError):
            oracle.max_welfare(g, 2, max_states=2**m - 1)
        best = oracle.oracle_max_cut(g, max_states=2 ** (m - 1))[1]
        assert oracle.max_welfare(g, 2, max_states=2**m) == 2 * best == oracle.max_welfare(g, 2)


def test_local_optimum_is_a_floor_no_move_improves():
    """The floor of an SO scan is the welfare of its own allocation, at most
    the brute-force maximum welfare, and no single vertex moving to another
    bundle raises it, on random graphs with 1-7 vertices and 1-4 bundles."""
    rng = SplitMix64(505)
    for trial in range(40):
        n = 1 + trial % 4
        m = 1 + rng.below(7 if n < 3 else 6)
        g = gen_random_graph(m, 0.2 + 0.6 * rng.below(100) / 100, rng.next_u64()).graph
        welfare, assign = oracle._local_optimum(g, n)
        bundles = [{v for v in range(m) if assign[v] == b} for b in range(n)]
        assert welfare == sum(bundle_values(Allocation.of(bundles), g))
        assert welfare <= max(sum(bundle_values(a, g)) for a in oracle.enumerate_allocations(g, n))
        for v, nbrs in enumerate(g.adjacency):
            own = sum(u in bundles[assign[v]] for u in nbrs)
            assert all(sum(u in bundle for u in nbrs) >= own for bundle in bundles), (trial, v)


def test_the_floor_changes_only_the_visited_states(monkeypatch):
    """With every scan's floor forced to -1, every oracle entry point returns
    the same, and the SO scans visit more states in all."""
    graphs = [
        (gen_fig3(3).graph, 3),
        (gen_cycle(7).graph, 2),
        (gen_random_graph(9, 0.4, 11).graph, 3),
        (gen_random_graph(8, 0.5, 12).graph, 4),
        (gen_appendix_b(4).graph, 4),
    ]
    states = []

    def answers():
        states.clear()
        out = []
        for g, n in graphs:
            so = query("ef1", "so")
            witness = oracle.oracle_exists(g, n, so)
            out += [
                witness,
                oracle.oracle_exists(g, n, query("so", symmetry=True)),
                oracle.oracle_count(g, n, so),
                oracle.oracle_count(g, n, query("nonempty", "so", "po", symmetry=True)),
                oracle.oracle_find_all(g, n, query("ef1", "so")),
                oracle.oracle_find_all(g, n, query("so", symmetry=True)),
                oracle.max_welfare(g, n),
                oracle.oracle_max_cut(g),
                oracle.oracle_exists(g, n, query("ef1", "ts")),
                oracle.oracle_count(g, n, query("ef1", "po")),
                oracle.oracle_leximin(g, n),
                witness is None or oracle.oracle_pareto(witness, g, n),
                oracle.oracle_completable_ef1(Allocation.of([{0}] + [set()] * (n - 1)), g, n),
            ]
        return out, sum(states)

    kernel = oracle.scan

    def counting(*args):
        result = kernel(*args)
        states.append(result["states"])
        return result

    monkeypatch.setattr(oracle, "scan", counting)
    with_floor = answers()
    kernel_args = oracle._kernel_args
    monkeypatch.setattr(oracle, "_kernel_args", lambda *args, **kwargs: kernel_args(*args, **kwargs)[:-1] + (-1,))
    without_floor = answers()
    assert with_floor[0] == without_floor[0]
    assert with_floor[1] < without_floor[1]


def parity_cases():
    """(graph, n, fixed): random graphs with and without fixed vertices, then
    the edge cases: no vertices, no arcs, n = 1, n > m, isolated vertices,
    n = 4 and n = 5."""
    rng = SplitMix64(404)
    for trial in range(10):
        m = 3 + rng.below(4)
        n = 2 + trial % 2
        g = gen_random_graph(m, 0.5, rng.next_u64()).graph
        fixed = [-1] * m
        if trial % 3 == 0:
            fixed[0] = 0
        if trial % 3 == 1:
            fixed[m - 1] = n - 1
        yield g, n, fixed
    for g, n in (
        (Graph.from_edges(0, []), 2),
        (Graph.from_edges(3, []), 2),
        (gen_random_graph(5, 0.5, 1).graph, 1),
        (Graph.from_edges(2, [(0, 1)]), 4),
        (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2)]), 3),
        (gen_random_graph(5, 0.6, 2).graph, 4),
        (gen_random_graph(4, 0.6, 3).graph, 5),
    ):
        yield g, n, [-1] * g.num_vertices


def test_kernel_parity_compiled_vs_python(compiled_scan):
    """Both kernels return identical result dictionaries, states included, for
    each mask bit and their union, with and without SO, on every parity case,
    with its fixed vertices and canonical with them freed, with and
    without the list of matches, in every scan mode an SO scan allows, and
    SO scans with no floor and with a local optimum's welfare as the floor.
    The cases take alpha 1, 1/2 and 2/3 in turn, so EF1 runs at and below 1."""
    predicates = [NONEMPTY, EF, EF1, TS, WTS, NONEMPTY | EF | EF1 | TS | WTS]
    masks = predicates + [SO] + [mask | SO for mask in predicates]
    for case, (g, n, fixed) in enumerate(parity_cases()):
        alpha = (Fraction(1), Fraction(1, 2), Fraction(2, 3))[case % 3]
        scans = (fixed, [-1] * len(fixed))
        floors = (-1, oracle._local_optimum(g, n)[0])
        for mask in masks:
            if mask & SO:
                modes = itertools.product((False, True), (False,), floors)
            else:
                modes = itertools.product((False, True), (False, True), (-1,))
            for first_only, collect, floor in modes:
                for free, list_matches in itertools.product(scans, (False, True)):
                    call = oracle._kernel_args(
                        g, n, free, mask, alpha, first_only, collect, list_matches, floor
                    )
                    assert compiled_scan(*call) == scan_python(*call), (case, mask, call[7:])


def test_canonical_scan_visits_one_labelling_per_partition():
    """A canonical scan of m vertices into n bundles visits one state per
    partition into at most n blocks, and its count of every state is n**m."""
    g = gen_path(5).graph
    for n, partitions in ((1, 1), (2, 16), (3, 41), (5, 52), (7, 52)):
        result = scan_python(*oracle._kernel_args(g, n, [-1] * 5))
        assert (result["states"], result["matched"]) == (partitions, n**5)


def stirling2(m, n):
    """The number of partitions of m items into exactly n blocks."""
    row = [1] + [0] * n  # row[k]: the partitions of the items so far into k blocks
    for _ in range(m):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n + 1)]
    return row[n]


def restricted_growth_strings(m, n):
    """Every restricted growth string of length m with labels below n."""
    if m == 0:
        yield ()
        return
    for head in restricted_growth_strings(m - 1, n):
        for d in range(min(n, max(head, default=-1) + 2)):
            yield head + (d,)


def test_nonempty_walk_visits_only_the_full_strings(compiled_scan):
    """A canonical NONEMPTY scan that collects no table walks only the
    restricted growth strings that use all n labels.  With NONEMPTY alone
    both kernels visit S(m, n) states, the partitions into exactly n blocks,
    each matching for its n! labellings, and none when m < n.  With TS, WTS,
    EF1 and SO bits, first_only or not, listing the matches or not, they
    return the same as each other and as the per-state NONEMPTY test: without
    SO, the same scan collecting the value vectors, which tests NONEMPTY state
    by state and visits at least as many states; with SO, which refuses a
    table, the brute force.  top_welfare is compared unless first_only
    without SO, where it depends on the states visited.  Collect scans and
    scans with a fixed vertex visit the same states with NONEMPTY as
    without.  The first full string of the path 2-3-4-5 and the edge 0-1 in
    4 bundles, 0 0 0 1 2 3, is EF1 but breaks TS at vertices 0 and 1, which
    close before its forced suffix 1 2 3: the walk tests them all the same."""
    kernels = (scan_python, compiled_scan)
    for m, n in itertools.product(range(9), range(1, 6)):
        call = oracle._kernel_args(Graph.from_edges(m, []), n, [-1] * m, NONEMPTY)
        for kernel in kernels:
            result = kernel(*call)
            assert (result["states"], result["matched"]) == (stirling2(m, n), factorial(n) * stirling2(m, n))
    assert (stirling2(7, 3), factorial(3) * stirling2(7, 3), stirling2(3, 4)) == (301, 1_806, 0)

    rng = SplitMix64(2028)
    path = Graph.from_edges(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    cases = [(path, 4)]
    for trial in range(24):
        n = 2 + trial % 4
        m = n + rng.below(max(k for k in range(9) if n**k <= LABELLED_LIMIT) - n + 1)
        p, seed, isolated = 0.2 + 0.6 * rng.below(100) / 100, rng.next_u64(), rng.below(3)
        edges = gen_random_graph(m - isolated, p, seed).graph.edges if m > isolated else ()
        cases.append((Graph.from_edges(m, edges), n))  # with 0-2 isolated vertices last
    extras = (TS, WTS, EF1 | TS, EF1 | WTS, EF1 | TS | WTS, SO, TS | SO, EF1 | TS | SO, EF1 | SO)
    for case, (g, n) in enumerate(cases):
        m = g.num_vertices
        alpha = (Fraction(1), Fraction(1, 2), Fraction(2, 3))[case % 3]
        for extra in extras:
            mask = NONEMPTY | extra
            floor = oracle._local_optimum(g, n)[0] if extra & SO and case % 2 else -1
            if extra & SO:
                brute = unpruned_reference(g, n, [-1] * m, mask, alpha, True, False)[0]
            for first_only, list_matches in itertools.product((False, True), (False, True)):
                call = oracle._kernel_args(
                    g, n, [-1] * m, mask, alpha, first_only, False, list_matches, floor
                )
                result = scan_python(*call)
                assert compiled_scan(*call) == result, (case, mask, first_only)
                fields = ["matched", "first_index"] + ["matches"] * list_matches
                if extra & SO:
                    ref = brute
                    fields = ["top_welfare", "first_index"] + (fields if not first_only else [])
                else:
                    collect = oracle._kernel_args(g, n, [-1] * m, mask, alpha, first_only, True, list_matches)
                    ref = scan_python(*collect)
                    assert compiled_scan(*collect) == ref
                    assert result["states"] <= ref["states"]
                    fields += ["top_welfare"] * (not first_only)
                assert {k: result[k] for k in fields} == {k: ref[k] for k in fields}, (case, mask, first_only)
                if case == 0 and extra == EF1 | TS:
                    assert 0 <= result["first_index"] != _scan_py._index([0, 0, 0, 1, 2, 3], 4)
        for extra, kernel in itertools.product((TS, EF1 | WTS), kernels):
            for fixed, collect in (([-1] * m, True), ([-1] * (m - 1) + [n - 1], False)):
                states = [
                    kernel(*oracle._kernel_args(g, n, fixed, mask, alpha, collect=collect))["states"]
                    for mask in (NONEMPTY | extra, extra)
                ]
                assert states[0] == states[1], (case, extra, fixed)


def test_no_ef1_ts_or_wts_allocation_leaves_a_bundle_empty():
    """The lemma behind the oracle's NONEMPTY walk, by brute force over every
    graph with at most 4 vertices and seeded random ones with 5-7, some with
    isolated vertices, n = 2..5 and alpha 1, 1/2 and 2/3: on a graph with at
    least n non-isolated vertices no alpha-EF1 allocation that is TS or wTS
    leaves a bundle empty.  (With an empty bundle vmin = 0, so each bundle B
    of positive value holds a vertex o with no edge leaving B - o, and a
    vertex whose neighbours all share its bundle breaks TS and wTS; so each
    bundle holds at most one non-isolated vertex, and the empty one none.)
    Below that precondition it fails: one edge and an isolated vertex in 3
    bundles, and a triangle and 2 isolated vertices in 4, have ef1+ts
    allocations with an empty bundle, so nonempty changes their counts and
    witnesses."""
    graphs = []
    for m in range(5):
        pairs = list(itertools.combinations(range(m), 2))
        for bits in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(m, [e for i, e in enumerate(pairs) if bits >> i & 1]))
    rng = SplitMix64(1234)
    for trial in range(30):
        m, p, seed, isolated = 5 + trial % 3, 0.2 + 0.6 * rng.below(100) / 100, rng.next_u64(), rng.below(3)
        graphs.append(Graph.from_edges(m, gen_random_graph(m - isolated, p, seed).graph.edges))
    alphas = (Fraction(1), Fraction(1, 2), Fraction(2, 3))
    stable = 0
    for g, n in itertools.product(graphs, range(2, 6)):
        m = g.num_vertices
        if sum(map(bool, g.adjacency)) < n:
            continue
        # every allocation with an empty bundle, up to relabelling the bundles
        for string in restricted_growth_strings(m, n - 1):
            a = Allocation.of([{v for v in range(m) if string[v] == b} for b in range(n)])
            if check_ts(a, g).holds or check_wts(a, g).holds:
                stable += 1
                assert not any(check_alpha_ef1(a, g, alpha).holds for alpha in alphas), (g, n, string)
    assert stable > 1000  # the EF1 checks ran

    edge = Graph.from_edges(3, [(0, 1)])
    triangle = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
    for g, n, counts in ((edge, 3, (18, 6)), (triangle, 4, (384, 168))):
        queries = (query("ef1", "ts"), query("ef1", "ts", "nonempty"))
        assert tuple(oracle.oracle_count(g, n, q) for q in queries) == counts
        witness, full = (oracle.oracle_exists(g, n, q) for q in queries)
        assert not witness.all_nonempty() and full.all_nonempty()


def test_ef1_stable_queries_add_the_nonempty_bit(monkeypatch):
    """A query scan adds NONEMPTY where the lemma holds and n >= 4: the mask
    has EF1 and TS or WTS, the scan collects no Pareto table, and at least n
    vertices have a neighbour."""
    masks = []
    monkeypatch.setattr(oracle, "scan", lambda *args: masks.append(args[6]) or scan_python(*args))
    g = gen_random_graph(7, 0.5, 3).graph
    star = Graph.from_edges(7, [(0, v) for v in range(1, 4)])  # 4 non-isolated vertices
    oracle.oracle_exists(g, 5, query("ef1", "ts"))
    oracle.oracle_count(g, 4, query("alpha_ef1", "wts", alpha=Fraction(1, 2), symmetry=True))
    oracle.oracle_exists(g, 4, query("ef1", "so"))
    oracle.oracle_exists(star, 4, query("ef1", "ts"))
    oracle.oracle_exists(star, 5, query("ef1", "ts"))
    oracle.oracle_exists(g, 3, query("ef1", "ts"))
    oracle.oracle_count(g, 4, query("ef1", "po"))
    oracle.oracle_count(g, 4, query("ts"))
    assert masks == [
        NONEMPTY | EF1 | TS, NONEMPTY | EF1 | WTS, NONEMPTY | EF1 | TS | SO, NONEMPTY | EF1 | TS,
        EF1 | TS, EF1 | TS, EF1 | TS, TS,
    ]


def test_kernels_reject_bad_scans_and_sizes(compiled_scan):
    """Both kernels refuse an SO scan that collects value vectors, a mask bit
    they do not know (8, the old ALPHA_EF1, or 128 and up) and a scan into no
    bundle, so an oracle query with n = 0 raises ValueError (``_scan`` checks
    it first, so an SO query or max_welfare gets the same message), and a slack
    that is not f + 1 non-negative ints; the compiled one refuses a short
    ``fixed`` list instead of reading past it.  A labelled scan, which fixes
    a vertex, visits the whole range."""
    g = gen_random_graph(4, 0.5, 5).graph

    def args(fixed, n=3):
        return oracle._kernel_args(g, n, fixed, EF1)

    for kernel in (compiled_scan, scan_python):
        for first_only in (False, True):
            with pytest.raises(ValueError, match="SO scan"):
                kernel(*oracle._kernel_args(g, 3, [-1] * 4, TS | SO, first_only=first_only, collect=True))
        with pytest.raises(ValueError, match="n >= 1"):
            kernel(*args([-1] * 4, n=0))
        for bad in (8, 128, 1 << 20):
            with pytest.raises(ValueError, match=f"unknown require_mask bits {bad}"):
                kernel(*oracle._kernel_args(g, 3, [-1] * 4, EF1 | bad))
        assert kernel(*args([0, -1, -1, -1]))["states"] == 3**3
        assert kernel(*args([0, 1, 2, 0]))["states"] == 1
        so = oracle._kernel_args(g, 3, [0, -1, -1, -1], TS | SO)
        for slack in ([0] * 3, [0] * 5, [], [2, 2, -2, 0], [0, 0, 0, -1]):
            with pytest.raises(ValueError, match="slack"):
                kernel(*so[:12], slack, *so[13:])
    for no_bundle in (
        lambda: oracle.oracle_exists(gen_path(3).graph, 0, query("ef1")),
        lambda: oracle.oracle_exists(gen_path(3).graph, 0, query("so")),
        lambda: oracle.max_welfare(gen_path(3).graph, 0),
    ):
        with pytest.raises(ValueError, match="n >= 1"):
            no_bundle()
    with pytest.raises(ValueError, match="fixed"):
        compiled_scan(*args([-1] * 3))


def test_oracle_entry_points_on_the_compiled_kernel(compiled_scan, monkeypatch):
    """Every oracle entry point returns the same through the compiled kernel
    as through the Python one."""
    g = gen_fig3(3).graph
    partial = Allocation.of([{0}, {1}, set()])

    def answers():
        witness = oracle.oracle_exists(g, 3, query("ef1", "wts"))
        return (
            witness.bundles,
            oracle.oracle_exists(g, 3, query("ef1", "ts")),
            oracle.oracle_count(g, 3, query("ef1", "po", symmetry=True)),
            [a.bundles for a in oracle.oracle_find_all(g, 3, query("ef1", "so"))],
            oracle.max_welfare(g, 3),
            oracle.oracle_leximin(g, 3).bundles,
            oracle.oracle_max_cut(g),
            oracle.oracle_pareto(witness, g, 3),
            oracle.oracle_completable_ef1(partial, g, 3),
        )

    expected = answers()
    monkeypatch.setattr(oracle, "scan", compiled_scan)
    assert answers() == expected


def test_both_kernels_share_one_signature(compiled_scan):
    """The compiled kernel's text signature, from its docstring, names the
    Python kernel's parameters in the same order, the SO bound's slack
    before the floor, last."""
    names = [list(inspect.signature(kernel).parameters) for kernel in (compiled_scan, scan_python)]
    assert names[0] == names[1]
    assert names[0][-2:] == ["slack", "floor"]


def test_compiled_collect_scans_do_not_leak(compiled_scan):
    """200 compiled scans that collect value vectors and list their matches,
    and 200 EF1|TS|SO scans that list theirs, leave the traced memory where
    it was: every key tuple, entry list and int the kernel makes is freed
    with its result or when the SO scan clears its list.  It does clear it:
    the first EF1|TS match has a welfare below the top and at least that of
    every earlier state, so the SO scan lists it, and then rises above it."""
    g = gen_random_graph(7, 0.5, 3).graph
    call = oracle._kernel_args(g, 3, [-1] * 7, EF1 | TS, collect=True, list_matches=True)
    so = oracle._kernel_args(g, 3, [-1] * 7, EF1 | TS | SO, list_matches=True)
    assert compiled_scan(*call)["vectors"]
    first = compiled_scan(*oracle._kernel_args(g, 3, [-1] * 7, EF1 | TS, first_only=True))["first_index"]
    decode = oracle._decoder(g, 3)
    welfare = [sum(bundle_values(decode(i), g)) for i in range(first + 1)]
    assert max(welfare) == welfare[first] < compiled_scan(*so)["top_welfare"]
    for args in (call, so):
        tracemalloc.start()
        try:
            compiled_scan(*args)
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                compiled_scan(*args)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 0


def test_kernel_name_is_reported():
    assert KERNEL_NAME in ("compiled", "python")
