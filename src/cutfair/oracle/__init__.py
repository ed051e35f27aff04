"""Exhaustive enumeration over n-partitions of small instances.

Ground truth for existence questions, Pareto optimality, leximin, max-cut,
and EF1-completability.  The hot loop lives in a kernel (compiled when the
extension is available, pure Python otherwise); this module owns caps,
predicate wiring, witness decoding, and the global predicates.  The kernel
keeps the welfare as it walks, so SO, the maximum welfare and the maximum cut
come from its welfare optimum (``top_welfare`` and the ``best_*`` fields of
the matching states) with no table; PO, the Pareto check and leximin are
built on the kernel's sorted-value-vector tables.

Pareto dominance between allocations is compared sorted-vector to
sorted-vector: agents are interchangeable under a shared valuation, so bundle
identities carry no information.

For the same reason every predicate is invariant under relabelling the
bundles, so a query with no fixed vertex is one canonical kernel scan: it
visits one labelling per bundle partition of all m vertices, the restricted
growth string (Knuth, TAOCP 4A, 7.2.1.5).  A string using j labels stands for
n!/(n - j)! labelled allocations, so weighted counts equal labelled counts,
and the lex-least labelled index of any relabelling-invariant set is itself
canonical, so witnesses and least indices are the labelled ones.  The
vertex-0 pin of ``symmetry`` and ``oracle_max_cut`` runs the same scan with
counts divided by n; every restricted growth string starts with bundle 0, so
its indices are those of the pinned enumeration.  Any other fixed vertex
(completability) breaks the symmetry, and that query is one labelled scan.
``oracle_find_all`` lists every labelled match, so it is one labelled scan
too (after the canonical one of a PO filter, which ends the query when it
keeps nothing).  Indices, counts and the state cap are all in labelled
terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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
from ._kernel import ALPHA_EF1, EF, EF1, KERNEL_NAME, NONEMPTY, TS, WTS, scan

DEFAULT_MAX_STATES = 20_000_000


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
    """A kernel ``bit`` decides the predicate state by state; ``keep`` picks
    from the ascending value vectors of every allocation in the query's range
    those a match may have.  SO has neither: the kernel's welfare optimum
    decides it.  ``check`` is the exact checker for one allocation, which
    needs every vertex assigned if ``complete``."""

    check: Callable[[Allocation, Graph, "OracleQuery"], FairnessReport]
    bit: int = 0
    keep: Optional[Callable[[dict], set]] = None
    complete: bool = False


# The one list of predicate names that queries and the CLI accept.
PREDICATES = {
    "ef": _Predicate(lambda a, g, q: check_ef(a, g), EF),
    "ef1": _Predicate(lambda a, g, q: check_ef1(a, g), EF1),
    "alpha_ef1": _Predicate(lambda a, g, q: check_alpha_ef1(a, g, q.alpha), ALPHA_EF1),
    "ts": _Predicate(lambda a, g, q: check_ts(a, g), TS, complete=True),
    "wts": _Predicate(lambda a, g, q: check_wts(a, g), WTS, complete=True),
    "so": _Predicate(lambda a, g, q: check_so(a, g, max_states=q.max_states), complete=True),
    "po": _Predicate(
        lambda a, g, q: FairnessReport("PO", oracle_pareto(a, g, a.n, max_states=q.max_states)),
        keep=_undominated,
        complete=True,
    ),
    "nonempty": _Predicate(lambda a, g, q: FairnessReport("non-empty", a.all_nonempty()), NONEMPTY),
}
KNOWN_PREDICATES = frozenset(PREDICATES)


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
        unknown = self.predicates - KNOWN_PREDICATES
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


def _csr(g: Graph):
    indptr = [0]
    indices = []
    for v in range(g.num_vertices):
        indices.extend(g.adjacency[v])
        indptr.append(len(indices))
    degrees = [len(a) for a in g.adjacency]
    return indptr, indices, degrees


def _shift(g: Graph) -> int:
    return max(1, g.num_edges).bit_length()


def _num_states(n: int, fixed) -> int:
    f = sum(1 for b in fixed if b < 0)
    return n**f


def _check_cap(n: int, fixed, max_states: int) -> None:
    states = _num_states(n, fixed)
    if states > max_states:
        raise CapExceededError(f"{states} states exceed the cap of {max_states}")


def _decode(g: Graph, n: int, fixed, index: int) -> Allocation:
    free = [v for v in range(g.num_vertices) if fixed[v] < 0]
    assign = list(fixed)
    rem = index
    for v in reversed(free):
        assign[v] = rem % n
        rem //= n
    bundles: list[set[int]] = [set() for _ in range(n)]
    for v, b in enumerate(assign):
        bundles[b].add(v)
    return Allocation.of(bundles)


def _scan_args(g, n, mask, alpha, first_only, collect):
    """The kernel arguments of a scan on g, as a function of its fixed
    vertices, whether it is canonical and whether it lists its matches."""
    indptr, indices, degrees = _csr(g)
    shift = _shift(g)
    if n * shift > 62:
        raise CapExceededError("value vector does not pack into 64 bits")

    def args(fixed, canonical=False, list_matches=False):
        states = _num_states(n, fixed)
        if states >= 1 << 63:
            raise CapExceededError(f"{states} states overflow the kernel's 64-bit indices")
        return (
            g.num_vertices, n, indptr, indices, degrees, list(fixed),
            mask, alpha.numerator, alpha.denominator,
            first_only, collect, list_matches, canonical, shift,
        )

    return args


def _run(g, n, fixed, mask, alpha=Fraction(1), first_only=False, collect=False):
    """The kernel result of one scan over the allocations that keep the fixed
    vertices in place, in labelled indices and counts."""
    args = _scan_args(g, n, mask, alpha, first_only, collect)
    m = g.num_vertices
    pinned = m > 0 and fixed[0] == 0
    if any(b >= 0 for b in fixed[1 if pinned else 0 :]):
        return scan(*args(fixed))
    result = scan(*args([-1] * m, canonical=True))
    if pinned:  # vertex 0 is in bundle 0 in one labelling of every n
        result["matched"] //= n
        result["best_count"] //= n
        if collect:
            result["matched_count"] = {key: c // n for key, c in result["matched_count"].items()}
    return result


def _unpack(key: int, n: int, shift: int) -> tuple[int, ...]:
    """The ascending value vector the kernel packed into key."""
    mask = (1 << shift) - 1
    return tuple([(key >> s) & mask for s in range(shift * (n - 1), -1, -shift)])


def _tables(result, g, n, names) -> list[dict]:
    """The named vector tables of a collect-mode scan result, keyed by
    ascending value tuples."""
    shift = _shift(g)
    return [{_unpack(key, n, shift): v for key, v in result[name].items()} for name in names]


def _value_vectors(g, n, fixed, max_states) -> dict[tuple[int, ...], int]:
    """{ascending value vector: least index} over every allocation that keeps
    the fixed vertices in place."""
    _check_cap(n, fixed, max_states)
    return _tables(_run(g, n, fixed, 0, collect=True), g, n, ["all_vectors"])[0]


def _prepare(g, n, query: OracleQuery):
    """The kernel mask, the fixed vertices and the table filters of a query.
    Only PO needs the value vector of every allocation, and not with SO:
    every SO vector is undominated, as a dominator has the larger sum, so
    SO+PO is SO."""
    entries = [PREDICATES[name] for name in query.predicates]
    mask = sum(p.bit for p in entries)  # distinct bits
    fixed = [-1] * g.num_vertices
    if query.symmetry and g.num_vertices > 0 and n > 0:
        fixed[0] = 0
    _check_cap(n, fixed, query.max_states)
    if "so" in query.predicates:
        return mask, fixed, []
    return mask, fixed, [p.keep for p in entries if p.keep is not None]


def _qualifying(g, n, fixed, mask, query, filters):
    """The least index and the count of each matched vector, and the matched
    vectors that pass every global filter."""
    result = _run(g, n, fixed, mask, query.alpha, collect=True)
    tables = ["all_vectors", "matched_first", "matched_count"]
    vectors, first, count = _tables(result, g, n, tables)
    keys = set(first)
    for keep in filters:
        keys &= keep(vectors)
    return first, count, keys


def _answer(g, n, query: OracleQuery, first_only: bool):
    """The fixed vertices of a query, its least matching index (-1 if none)
    and its number of matches, exact unless first_only.  SO reads the
    welfare optimum of the matches off one scan: they are SO when it is the
    top welfare of every allocation in range."""
    mask, fixed, filters = _prepare(g, n, query)
    if filters:
        first, count, keys = _qualifying(g, n, fixed, mask, query, filters)
        return fixed, min((first[k] for k in keys), default=-1), sum(count[k] for k in keys)
    if "so" in query.predicates:
        result = _run(g, n, fixed, mask, query.alpha)
        if result["best_welfare"] < result["top_welfare"]:
            return fixed, -1, 0
        return fixed, result["best_index"], result["best_count"]
    result = _run(g, n, fixed, mask, query.alpha, first_only=first_only)
    return fixed, result["first_index"], result["matched"]


def enumerate_allocations(
    g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES
) -> Iterator[Allocation]:
    """Every complete allocation exactly once, in lexicographic order of the
    assignment function."""
    _check_cap(n, [-1] * g.num_vertices, max_states)
    for assign in itertools.product(range(n), repeat=g.num_vertices):
        bundles: list[set[int]] = [set() for _ in range(n)]
        for v, b in enumerate(assign):
            bundles[b].add(v)
        yield Allocation.of(bundles)


def oracle_exists(g: Graph, n: int, query: OracleQuery) -> Optional[Allocation]:
    """A witness satisfying every predicate in the query, or None if none exists."""
    fixed, index, _ = _answer(g, n, query, first_only=True)
    return _decode(g, n, fixed, index) if index >= 0 else None


def oracle_count(g: Graph, n: int, query: OracleQuery) -> int:
    """Number of allocations satisfying the query.  With ``query.symmetry``
    vertex 0 is pinned to bundle 0, so this is the pinned sub-count (the
    number of allocations divided by n); the pin leaves witnesses unchanged
    and makes no query cheaper, since enumeration is canonical anyway."""
    return _answer(g, n, query, first_only=False)[2]


def oracle_find_all(g: Graph, n: int, query: OracleQuery) -> list[Allocation]:
    """All matching allocations in labelled enumeration order (desk-scale
    only): one labelled scan that lists every match.  With PO the canonical
    collect scan comes first and ends the query when no vector qualifies;
    SO keeps the matches at the listing scan's top welfare."""
    mask, fixed, filters = _prepare(g, n, query)
    keys = None
    if filters:
        keys = _qualifying(g, n, fixed, mask, query, filters)[2]
        if not keys:
            return []
    args = _scan_args(g, n, mask, query.alpha, False, False)
    result = scan(*args(fixed, list_matches=True))
    found = [_decode(g, n, fixed, i) for i in result["matches"]]
    if keys is not None:
        return [a for a in found if tuple(sorted(bundle_values(a, g))) in keys]
    if "so" in query.predicates:
        return [a for a in found if sum(bundle_values(a, g)) == result["top_welfare"]]
    return found


def max_welfare(g: Graph, n: int, max_states: Optional[int] = None) -> int:
    """Exact maximum utilitarian welfare over all complete n-partitions."""
    fixed = [-1] * g.num_vertices
    _check_cap(n, fixed, max_states if max_states is not None else DEFAULT_MAX_STATES)
    return _run(g, n, fixed, 0)["top_welfare"]


def oracle_pareto(a: Allocation, g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff no complete allocation Pareto dominates a (sorted-vector order)."""
    if a.n != n:
        raise ValueError("allocation size mismatch")
    if not a.is_complete(g):
        raise ValueError("Pareto check requires a complete allocation")
    mine = tuple(sorted(bundle_values(a, g)))
    vectors = _value_vectors(g, n, [-1] * g.num_vertices, max_states)
    return not any(_dominates(v, mine) for v in vectors)


def oracle_leximin(g: Graph, n: int, max_states: int = DEFAULT_MAX_STATES, threads: int = 1) -> Allocation:
    """Allocation whose sorted value vector is lexicographically maximal; first
    in enumeration order on ties.  ``threads`` must be 1."""
    _require_one_thread(threads)
    fixed = [-1] * g.num_vertices
    vectors = _value_vectors(g, n, fixed, max_states)
    return _decode(g, n, fixed, vectors[max(vectors)])


def oracle_max_cut(g: Graph, max_states: int = DEFAULT_MAX_STATES) -> tuple[Allocation, int]:
    """Optimal bipartition by exhaustive scan (vertex 0 pinned by symmetry):
    the first state of the scan to reach its top welfare, twice the cut."""
    fixed = [-1] * g.num_vertices
    if g.num_vertices > 0:
        fixed[0] = 0
    _check_cap(2, fixed, max_states)
    result = _run(g, 2, fixed, 0)
    return _decode(g, 2, fixed, result["best_index"]), result["best_welfare"] // 2


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
    _check_cap(n, fixed, max_states)
    result = _run(g, n, fixed, EF1, first_only=True)
    return result["first_index"] >= 0


__all__ = [
    "CapExceededError",
    "DEFAULT_MAX_STATES",
    "KERNEL_NAME",
    "KNOWN_PREDICATES",
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
