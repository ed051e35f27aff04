"""Exhaustive enumeration over n-partitions of small instances.

Ground truth for existence questions, Pareto optimality, leximin, max-cut,
and EF1-completability.  The hot loop lives in a kernel (compiled when the
extension is available, pure Python otherwise); this module owns caps,
predicate wiring, witness decoding, and the global predicates.  The kernel
keeps the welfare as it walks, so its SO bit decides SO like any other
predicate, and the maximum welfare and the maximum cut are its top welfare,
``top_welfare``, with no table; PO, the Pareto check and leximin are built
on the one table of a collect scan, ``vectors``, which maps each sorted value
vector to its least matching index and its matching count.

A scan with TS or wTS skips every completion of a prefix whose closed
vertices already break them (see ``_scan_py``), so every scan that reads the
welfare optimum or value vectors carries the TS bit: the SO and PO scans,
``max_welfare``, ``oracle_max_cut``, ``oracle_pareto`` and
``oracle_leximin``.  A vertex that breaks TS has fewer neighbours in some
other bundle than in its own, and moving it there raises that bundle's value
without lowering its own, so the move is a Pareto improvement that strictly
raises the welfare.  Every welfare maximum is TS (with n = 2, where the
kernel's TS is wTS, a locally maximal cut), and so is every allocation whose
value vector no other one dominates, the leximin ones included.  So the TS
bit drops no allocation at the top welfare or with an undominated vector:
the kernel still returns the top welfare as ``top_welfare``, and its
``vectors``, which holds only the TS allocations' vectors, keeps every
undominated vector.

With the SO bit a state matches only at the scan's top welfare: the
kernel prunes by a cut bound every prefix that no completion lifts to the
top welfare seen so far (see ``_scan_py``), and resets its matches when the
top rises.  The bound counts every edge among the unplaced vertices as cut
but one per clique of an edge-disjoint packing of (n + 1)-cliques among
them (``_clique_slack``, the kernels' ``slack``): n bundles leave an edge of
each uncut.  The test is strict, so ``top_welfare`` stays exact, and so do
``matched``, ``first_index`` and the listed matches; an SO scan collects no
table.  The scans of SO queries, ``max_welfare`` and ``oracle_max_cut``
carry the SO bit.  ``oracle_exists``, ``max_welfare`` and ``oracle_max_cut``
read no count, so their SO scans are ``first_only``: once a match sits at
the top welfare, the kernel also skips every tie after it, which has a
larger index.  An SO scan
that fixes no vertex starts its top welfare at a floor, the welfare of a
local optimum (``_local_optimum``), so the bound prunes from the first
prefix on.  Every other scan starts at -1: with TS and a fixed vertex, the
top the scan visits may lie below a free local optimum.

An alpha-EF1 allocation that is TS or wTS leaves no bundle empty on a graph
with at least n non-isolated vertices.  With an empty bundle the poorest
value is 0, so every bundle B of positive value needs a vertex o with no edge
leaving B - o, and a vertex whose neighbours all share its bundle breaks TS
and wTS: every bundle holds at most one non-isolated vertex, and the empty
one none.  So ``_query_scan`` adds the NONEMPTY bit to a scan whose mask has
EF1 and TS or WTS, that collects no PO table and whose graph has at least n
non-isolated vertices, which changes no match, count, witness or top welfare
(a welfare maximum with an empty bundle cuts every edge, and moving a vertex
that shares its bundle into the empty one keeps it so); the kernel then walks
only the restricted growth strings that use all n labels (see ``_scan_py``).
It does so only for n >= 4: the strings it skips number 1 for n = 2 and
2**(m - 1) for n = 3, about 5% of them at m = 10, which does not pay for the
walk's bookkeeping, while for n >= 4 they are most of them (31,077 of the
37,510 states of the benchmark sweep's n >= 4 ef1+ts witness scans).

Pareto dominance between allocations is compared sorted-vector to
sorted-vector: agents are interchangeable under a shared valuation, so bundle
identities carry no information.

For the same reason every predicate is invariant under relabelling the
bundles, and a kernel scan that fixes no vertex is canonical: it visits one
labelling per bundle partition of all m vertices, the restricted growth
string (Knuth, TAOCP 4A, 7.2.1.5).  A string using j labels stands for
n!/(n - j)! labelled allocations, so weighted counts equal labelled counts,
and the lex-least labelled index of any relabelling-invariant set is itself
canonical, so witnesses and least indices are the labelled ones.
``oracle_find_all`` expands each matching string into its relabellings and
sorts them by labelled index.  The vertex-0 pin of ``symmetry`` and
``oracle_max_cut`` runs the same scan with the cap at n**(m - 1) and counts
divided by n; every restricted growth string starts with bundle 0, so its
indices are those of the pinned enumeration, and ``oracle_find_all`` keeps
the relabellings that keep label 0.  Only a vertex fixed by a partial
allocation (completability), even vertex 0 alone, breaks the symmetry, and
that query is the one labelled scan.  Indices, counts and the state cap are
all in labelled terms.

A two-bundle max cut of at most ``_BIT_CUT_VERTICES`` = 16 vertices makes no
kernel scan.  ``_scan`` reads a first_only TS|SO scan with n = 2 that fixes
no vertex (``oracle_max_cut``, ``max_welfare(g, 2)`` and the witness of an SO
query with n = 2, alone or with ts or po) off bit-slices, ``_max_cut_bits``:
every one of the 2**(m - 1) allocations with vertex 0 in bundle 0 at once,
one bit of a Python int each.  It returns the scan's ``top_welfare`` and
``first_index``.  Its cost doubles with every vertex, while the pruned
scan's grows about 1.6x per vertex, so larger graphs keep the scan: at 16
vertices the bits are several times faster than the Python kernel and about
level with the compiled one, and at 22 slower than either.

Every query is one call of ``_scan``, which holds the refusals: more
labelled states than the cap, and n**free at or above 2**63 (the kernels'
64-bit indices).  It refuses n < 1 up front with the kernels' ValueError,
before any set-up.  A query reaches it through ``_query_scan``, at the mask and
alpha of ``_kernel_query``: ef1 and alpha_ef1 share the kernels' EF1 bit,
and alpha is 1 with ef1, as EF1 implies alpha-EF1 for every alpha <= 1.
``_query_scan`` also holds the one rule for PO (a PO query without SO
collects the value vectors, and with SO it is the SO query) and the one rule
for the NONEMPTY walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import mul
from typing import Callable, Iterator, NamedTuple, Optional

from ..allocation import (
    Allocation,
    FairnessReport,
    _require_alpha,
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
)
from ..graph import Graph
from ._kernel import EF, EF1, KERNEL_NAME, NONEMPTY, SO, TS, WTS, scan

DEFAULT_MAX_STATES = 20_000_000
_BIT_CUT_VERTICES = 16  # the most vertices of a max cut read off bit-slices instead of a kernel scan


def _dominates(x, y) -> bool:
    """x, y ascending-sorted value vectors; bundle-by-bundle after sorting."""
    return all(a >= b for a, b in zip(x, y)) and any(a > b for a, b in zip(x, y))


def _undominated(vectors) -> set[tuple[int, ...]]:
    """The vectors no other one dominates, in one sweep by descending sum: a
    dominator has the larger sum, so it is seen first, and a dominated
    dominator is itself dominated by a kept vector (dominance is transitive)."""
    kept: list[tuple[int, ...]] = []
    for v in sorted(vectors, key=sum, reverse=True):
        if not any(_dominates(w, v) for w in kept):
            kept.append(v)
    return set(kept)


class _Predicate(NamedTuple):
    """A kernel ``bit`` decides the predicate state by state.  PO has none:
    the undominated value vectors of a collect scan decide it.  ``check`` is
    the exact checker for one allocation, which needs every vertex assigned
    if ``complete``."""

    check: Callable[[Allocation, Graph, "OracleQuery"], FairnessReport]
    bit: int = 0
    complete: bool = False


# The one list of predicate names that queries and the CLI accept.
PREDICATES = {
    "ef": _Predicate(lambda a, g, q: check_ef(a, g), EF),
    "ef1": _Predicate(lambda a, g, q: check_ef1(a, g), EF1),
    "alpha_ef1": _Predicate(lambda a, g, q: check_alpha_ef1(a, g, q.alpha), EF1),
    "ts": _Predicate(lambda a, g, q: check_ts(a, g), TS, complete=True),
    "wts": _Predicate(lambda a, g, q: check_wts(a, g), WTS, complete=True),
    "so": _Predicate(lambda a, g, q: check_so(a, g, max_states=q.max_states), SO, complete=True),
    "po": _Predicate(
        lambda a, g, q: FairnessReport("PO", oracle_pareto(a, g, a.n, max_states=q.max_states)),
        complete=True,
    ),
    "nonempty": _Predicate(lambda a, g, q: FairnessReport("non-empty", a.all_nonempty()), NONEMPTY),
}


class CapExceededError(RuntimeError):
    """The query would enumerate more states than its cap allows."""


@dataclass(frozen=True)
class OracleQuery:
    predicates: frozenset[str]
    alpha: Fraction = Fraction(1)
    max_states: int = DEFAULT_MAX_STATES
    symmetry: bool = False
    threads: int = 1  # accepted as 1 only: a query is one kernel scan

    def __post_init__(self):
        unknown = self.predicates - PREDICATES.keys()
        if unknown:
            raise ValueError(f"unknown predicates: {sorted(unknown)}")
        _require_alpha(self.alpha)
        _require_one_thread(self.threads)

    @staticmethod
    def of(predicates, **kwargs) -> "OracleQuery":
        return OracleQuery(predicates=frozenset(predicates), **kwargs)


def _require_one_thread(threads: int) -> None:
    if threads != 1:
        raise ValueError(f"threads must be 1, not {threads}: an oracle query is one kernel scan")


def _check_cap(states: int, max_states: int) -> None:
    if states > max_states:
        raise CapExceededError(f"{states} states exceed the cap of {max_states}")


def _decoder(g: Graph, n: int, fixed=None) -> Callable[[int], Allocation]:
    """The allocation of each labelled index of a scan with these fixed
    vertices (none by default), the last free vertex the least significant
    digit."""
    fixed = [-1] * g.num_vertices if fixed is None else fixed
    free = [v for v in reversed(range(g.num_vertices)) if fixed[v] < 0]

    def decode(index: int) -> Allocation:
        assign = list(fixed)
        for v in free:
            assign[v] = index % n
            index //= n
        bundles: list[set[int]] = [set() for _ in range(n)]
        for v, b in enumerate(assign):
            bundles[b].add(v)
        return Allocation(tuple(map(frozenset, bundles)))  # disjoint by construction

    return decode


def _local_optimum(g: Graph, n: int) -> tuple[int, list[int]]:
    """The welfare and the bundle of each vertex of an allocation that no
    single move improves: each vertex in index order goes to the bundle with
    fewest of its neighbours so far (the least one on ties), then sweeps in
    index order move a vertex to the least bundle with fewest of its
    neighbours when that strictly raises the welfare, until a sweep moves
    none.  Its welfare is the floor of an SO scan."""
    adjacency = g.adjacency
    assign = []
    counts = [[0] * n for _ in adjacency]  # counts[v][b]: v's neighbours in bundle b
    for nbrs, row in zip(adjacency, counts):
        b = row.index(min(row))
        assign.append(b)
        for u in nbrs:
            counts[u][b] += 1
    moved = True
    while moved:
        moved = False
        for v, row in enumerate(counts):
            b, fewest = assign[v], min(row)
            if fewest < row[b]:
                nb = row.index(fewest)
                assign[v] = nb
                for u in adjacency[v]:
                    counts[u][b] -= 1
                    counts[u][nb] += 1
                moved = True
    return sum(len(nbrs) - row[b] for nbrs, row, b in zip(adjacency, counts, assign)), assign


def _clique(k: int, cand: int, joined: list[int]) -> int:
    """The bitmask of the lex-least k >= 1 vertices of the bitmask cand that
    ``joined`` joins pairwise (joined[u]: a bitmask of later vertices), or 0."""
    while cand.bit_count() >= k:
        low = cand & -cand
        if k == 1:
            return low
        cand ^= low
        rest = _clique(k - 1, cand & joined[low.bit_length() - 1], joined)
        if rest:
            return low | rest
    return 0


def _clique_slack(g: Graph, n: int, fixed) -> list[int]:
    """slack[p]: twice the number of edge-disjoint (n + 1)-cliques of a
    greedy packing among the free vertices free[p:], 0 at p = f.  It is
    built from the last free vertex backwards, so each suffix's packing
    holds the next one's: each vertex adds, least vertices first, the
    cliques through it and its later neighbours that use no edge taken
    before.  n + 1 pairwise adjacent vertices in n bundles leave an edge
    uncut, and edge-disjoint cliques leave distinct ones, so no allocation
    cuts more than |E(free[p:])| - slack[p] / 2 of the edges among free[p:].
    With n = 1 the cliques are the edges, so the SO bound becomes exact."""
    free = [v for v in range(g.num_vertices) if fixed[v] < 0]
    slack = [0] * (len(free) + 1)
    joined = [0] * g.num_vertices  # joined[u]: u's later neighbours by an edge no clique took
    later = 0  # the bitmask of free[p + 1:]
    for p in reversed(range(len(free))):
        v = free[p]
        cand = 0
        for u in g.adjacency[v]:
            cand |= 1 << u
        cand &= later
        packed = 0
        while clique := _clique(n, cand, joined):
            packed += 1
            cand &= ~clique  # v's edges to the clique are taken
            rest = clique
            while rest:  # and so are the edges among it
                low = rest & -rest
                rest ^= low
                joined[low.bit_length() - 1] &= ~clique
        joined[v] = cand
        slack[p] = slack[p + 1] + 2 * packed
        later |= 1 << v
    return slack


@cache
def _sides(m: int) -> tuple[int, ...]:
    """sides[v]: bit i is vertex v's bundle in the allocation of pinned index
    i < 2**(m - 1), vertex m - 1 the least significant digit, as in
    ``_decoder``; so vertex 0's is 0."""
    size = 1 << max(m - 1, 0)
    sides = [0] * m
    for v in range(1, m):
        width = 1 << (m - 1 - v)  # v's digit holds for runs of this many indices
        x, period = ((1 << width) - 1) << width, 2 * width
        while period < size:
            x |= x << period
            period *= 2
        sides[v] = x
    return tuple(sides)


def _max_cut_bits(g: Graph) -> dict:
    """The result of a first_only TS|SO scan with n = 2 that fixes no vertex,
    from every one of its 2**(m - 1) allocations with vertex 0 in bundle 0 at
    once, bit-sliced (Biham, "A fast new DES implementation in software", FSE
    1997): bit i of each int belongs to pinned index i.  Each edge's
    indicator ``sides[u] ^ sides[v]`` is set where it is cut, and a
    carry-save adder tree sums the indicators into bit-planes of every
    index's cut size, least significant first.  Read from the top plane down,
    a candidate mask keeps the indices at the largest cut, and the least of
    them is its lowest set bit.  ``matched`` is the labelled count at the
    largest cut, each pinned allocation and its mirror; ``states`` is the
    number of cuts evaluated."""
    m = g.num_vertices
    sides = _sides(m)
    column = [sides[u] ^ sides[v] for u, v in g.edges]  # the bits of weight 2**len(planes)
    planes = []
    while column:
        carries = []
        while len(column) > 2:  # a full adder: three bits of a weight to one, and a carry
            a, b, c = column.pop(), column.pop(), column.pop()
            t = a ^ b
            column.append(t ^ c)
            carries.append(a & b | t & c)
        if len(column) == 2:
            a, b = column
            column = [a ^ b]
            carries.append(a & b)
        planes.append(column[0])
        column = carries
    states = 1 << max(m - 1, 0)
    top = (1 << states) - 1
    cut = 0
    for w in reversed(range(len(planes))):
        if hit := top & planes[w]:
            top = hit
            cut |= 1 << w
    return dict(
        states=states, steps=0, matched=top.bit_count() * (2 if m else 1),
        first_index=(top & -top).bit_length() - 1, top_welfare=2 * cut, matches=None, vectors=None,
    )


def _kernel_args(
    g, n, fixed, mask=0, alpha=1, first_only=False, collect=False, list_matches=False, floor=-1
):
    """The positional arguments of a kernel scan on g; an SO scan's slack is
    the clique packing of ``_clique_slack``, any other's all zeros."""
    indptr = [0]
    indices = []
    for nbrs in g.adjacency:
        indices.extend(nbrs)
        indptr.append(len(indices))
    degrees = [len(nbrs) for nbrs in g.adjacency]
    fixed = list(fixed)
    slack = _clique_slack(g, n, fixed) if mask & SO else [0] * (fixed.count(-1) + 1)
    return (
        g.num_vertices, n, indptr, indices, degrees, fixed,
        mask, alpha.numerator, alpha.denominator,
        first_only, collect, list_matches, slack, floor,
    )


def _scan(
    g, n, max_states, mask=0, fixed=None, pin=False, alpha=1,
    first_only=False, collect=False, list_matches=False,
):
    """One kernel scan over the allocations that keep the fixed vertices in
    place, canonical when it fixes none (an SO one then starts its top welfare
    at a local optimum's): its result in labelled indices and counts, with
    the ``vectors`` table if collect.  The cap counts the labelled states in
    range.  pin, with no fixed vertex, counts only the allocations with vertex
    0 in bundle 0, one labelling of every n: the cap is n**(m - 1), and the
    counts are divided by n.  A two-bundle max cut of at most
    ``_BIT_CUT_VERTICES`` vertices, a first_only TS|SO scan with n = 2 that
    fixes no vertex, is read off bit-slices instead (``_max_cut_bits``)."""
    if n < 1:
        raise ValueError("num_vertices must be >= 0 and n >= 1")
    m = g.num_vertices
    fixed = [-1] * m if fixed is None else list(fixed)
    free = fixed.count(-1)
    pinned = pin and m > 0
    _check_cap(n ** (free - pinned), max_states)
    if n**free >= 1 << 63:
        raise CapExceededError(f"{n**free} states overflow the kernel's 64-bit indices")
    if (n, mask, first_only, collect, list_matches) == (2, TS | SO, True, False, False) and (
        free == m <= _BIT_CUT_VERTICES
    ):
        result = _max_cut_bits(g)
    else:
        floor = _local_optimum(g, n)[0] if mask & SO and free == m else -1
        result = scan(*_kernel_args(g, n, fixed, mask, alpha, first_only, collect, list_matches, floor))
    if pinned:
        result["matched"] //= n
        if collect:
            for entry in result["vectors"].values():
                entry[1] //= n
    return result


def _relabellings(index: int, m: int, n: int, pin: bool) -> Iterator[int]:
    """The labelled indices of the relabellings of the restricted growth
    string at this index: the injective maps of its j labels into the n
    bundles, with pin only those that keep label 0."""
    places = [0] * n  # places[b]: the sum of the digit places of label b
    for k in range(m):
        index, b = divmod(index, n)
        places[b] += n**k
    used = places[: n - places.count(0)]  # the string uses labels 0 to j - 1
    kept = 1 if pin and used else 0  # label 0 kept in bundle 0 adds nothing to an index
    maps = permutations(range(kept, n), len(used) - kept)
    return (sum(map(mul, labels, used[kept:])) for labels in maps)


def _kernel_query(query: OracleQuery) -> tuple[int, Fraction]:
    """The kernel mask and alpha of a query: its predicates' bits OR'd, and
    TS with SO or PO, as every allocation at the top welfare or with an
    undominated value vector is TS.  alpha is 1 with ef1, which implies
    alpha-EF1 for every alpha <= 1."""
    mask = 0
    for name in query.predicates:
        mask |= PREDICATES[name].bit
    if mask & SO or "po" in query.predicates:
        mask |= TS
    return mask, Fraction(1) if "ef1" in query.predicates else query.alpha


def _query_scan(g, n, query: OracleQuery, first_only=False, list_matches=False):
    """The one kernel scan of a query, at its mask, alpha, cap and vertex-0
    pin, and its PO filter.  With PO but not SO, the scan, never first_only,
    also collects the value vectors, and the filter maps each matched
    ascending vector that no allocation in range dominates to [least index,
    count]; otherwise it is None.  SO+PO is SO, as every SO vector is
    undominated: a dominator has the larger sum.  With n >= 4, EF1 and TS or
    WTS, no PO table and at least n non-isolated vertices, the mask gains
    NONEMPTY, which no match lacks (see the module docstring)."""
    mask, alpha = _kernel_query(query)
    po = "po" in query.predicates and not mask & SO
    if n >= 4 and mask & EF1 and mask & (TS | WTS) and not po and sum(map(bool, g.adjacency)) >= n:
        mask |= NONEMPTY  # no match leaves a bundle empty: the kernel walks only the full strings
    result = _scan(
        g, n, query.max_states, mask, pin=query.symmetry, alpha=alpha,
        first_only=first_only and not po, collect=po, list_matches=list_matches,
    )
    if not po:
        return result, None
    vectors = result["vectors"]
    return result, {v: vectors[v] for v in _undominated(vectors) if vectors[v][0] >= 0}


def _answer(g, n, query: OracleQuery, first_only: bool):
    """The least matching index of a query (-1 if none) and its number of
    matches, exact unless first_only."""
    result, kept = _query_scan(g, n, query, first_only)
    if kept is None:
        return result["first_index"], result["matched"]
    return min((i for i, _ in kept.values()), default=-1), sum(c for _, c in kept.values())


def enumerate_allocations(
    g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[Allocation]:
    """Every complete allocation exactly once, in lexicographic order of the
    assignment function."""
    _check_cap(n**g.num_vertices, max_states)
    yield from map(_decoder(g, n), range(n**g.num_vertices))


def oracle_exists(g: Graph, n: int, query: OracleQuery) -> Optional[Allocation]:
    """A witness satisfying every predicate in the query, or None if none exists."""
    index = _answer(g, n, query, first_only=True)[0]
    return _decoder(g, n)(index) if index >= 0 else None


def oracle_count(g: Graph, n: int, query: OracleQuery) -> int:
    """Number of allocations satisfying the query.  With ``query.symmetry``
    vertex 0 is pinned to bundle 0, so this is the pinned sub-count (the
    number of allocations divided by n); the pin leaves witnesses unchanged
    and makes no query cheaper, since enumeration is canonical anyway."""
    return _answer(g, n, query, first_only=False)[1]


def oracle_find_all(g: Graph, n: int, query: OracleQuery) -> list[Allocation]:
    """All matching allocations in labelled enumeration order (desk-scale
    only): one canonical scan lists the matching restricted growth strings,
    and each that uses j labels expands into its relabellings, the injective
    maps of its labels into the n bundles (with ``symmetry`` only those that
    keep label 0), sorted by labelled index.  With PO that scan also collects
    the value vectors, and a listed string is kept when its vector is
    undominated."""
    result, kept = _query_scan(g, n, query, list_matches=True)
    decode = _decoder(g, n)
    matches = result["matches"]
    if kept is not None:  # PO keeps every relabelling or none
        matches = [i for i in matches if tuple(sorted(bundle_values(decode(i), g))) in kept]
    m, pin = g.num_vertices, query.symmetry
    return [decode(j) for j in sorted(j for i in matches for j in _relabellings(i, m, n, pin))]


def max_welfare(g: Graph, n: int, max_states: Optional[int] = None) -> int:
    """Exact maximum utilitarian welfare over all complete n-partitions."""
    max_states = max_states if max_states is not None else DEFAULT_MAX_STATES
    return _scan(g, n, max_states, TS | SO, first_only=True)["top_welfare"]


def oracle_pareto(a: Allocation, g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff no complete allocation Pareto dominates a (sorted-vector order)."""
    if a.n != n:
        raise ValueError("allocation size mismatch")
    if not a.is_complete(g):
        raise ValueError("Pareto check requires a complete allocation")
    mine = tuple(sorted(bundle_values(a, g)))
    vectors = _scan(g, n, max_states, TS, collect=True)["vectors"]
    return not any(_dominates(v, mine) for v in vectors)


def oracle_leximin(g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES, threads: int = 1) -> Allocation:
    """Allocation whose sorted value vector is lexicographically maximal; first
    in enumeration order on ties.  ``threads`` must be 1."""
    _require_one_thread(threads)
    vectors = _scan(g, n, max_states, TS, collect=True)["vectors"]  # with TS alone all match
    return _decoder(g, n)(vectors[max(vectors)][0])


def oracle_max_cut(g: Graph, max_states: int = DEFAULT_MAX_STATES) -> tuple[Allocation, int]:
    """Optimal bipartition with vertex 0 pinned to bundle 0 by symmetry: the
    least index at the largest cut, and the cut.  Up to 16 vertices every
    pinned bipartition is evaluated at once on bit-slices
    (``_max_cut_bits``); a larger graph is one pruned kernel scan, whose top
    welfare is twice the cut."""
    result = _scan(g, 2, max_states, TS | SO, pin=True, first_only=True)
    return _decoder(g, 2)(result["first_index"]), result["top_welfare"] // 2


def oracle_completable_ef1(
    partial: Allocation, g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES
) -> bool:
    """Can the partial EF1 allocation be extended to a complete EF1 one?"""
    if partial.n != n:
        raise ValueError("allocation size mismatch")
    if not check_ef1(partial, g).holds:
        raise ValueError("the partial allocation must itself be EF1")
    fixed = [-1] * g.num_vertices
    for i, bundle in enumerate(partial.bundles):
        for o in bundle:
            fixed[o] = i
    return _scan(g, n, max_states, EF1, fixed, first_only=True)["first_index"] >= 0


__all__ = [
    "CapExceededError",
    "DEFAULT_MAX_STATES",
    "KERNEL_NAME",
    "OracleQuery",
    "PREDICATES",
    "enumerate_allocations",
    "max_welfare",
    "oracle_completable_ef1",
    "oracle_count",
    "oracle_exists",
    "oracle_find_all",
    "oracle_leximin",
    "oracle_max_cut",
    "oracle_pareto",
]
