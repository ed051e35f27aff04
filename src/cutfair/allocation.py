"""Allocations and exact fairness/efficiency checkers.

Agents share one cut-valuation, so envy-freeness degenerates to "all bundle
values equal" and EF1 checks reduce (after sorting) to checks against the
minimum-value bundle.  EF1 and alpha-EF1 share one test that reads each
bundle's cached removal floor: beyond the BundleStats build, O(V + n) when it
holds, since a violation exists exactly when the poorest bundle has one, and
O(V + n^2) to list every violating pair when it fails.  The checkers keep the
BundleStats of the last allocation and graph they checked, so consecutive
checks of one allocation share one O(V + n + E) build.  The solvers that
keep a BundleStats hand their final one to that slot with the allocation
they return, so checking a solver's output builds nothing at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .graph import Graph
from .valuation import BundleStats


@dataclass(frozen=True)
class Allocation:
    """Ordered partition of (a subset of) the vertices into n bundles."""

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self):
        # frozen all the way down, so a bundle cannot change under the
        # checkers' shared BundleStats
        bundles = self.bundles
        frozen = type(bundles) is tuple
        for b in bundles:
            if type(b) is not frozenset:
                frozen = False
                break
        if not frozen:
            object.__setattr__(self, "bundles", tuple(map(frozenset, bundles)))

    @staticmethod
    def of(bundles: Sequence[Iterable[int]]) -> "Allocation":
        frozen = tuple(frozenset(b) for b in bundles)
        assigned: set[int] = set()
        for b in frozen:
            if assigned & b:
                raise ValueError(f"bundles overlap on {sorted(assigned & b)}")
            assigned |= b
        return Allocation(frozen)

    @property
    def n(self) -> int:
        return len(self.bundles)

    def assigned(self) -> frozenset[int]:
        return frozenset().union(*self.bundles) if self.bundles else frozenset()

    def is_complete(self, g: Graph) -> bool:
        """True iff the bundles hold exactly g's vertices."""
        return self.assigned() == frozenset(range(g.num_vertices))

    def all_nonempty(self) -> bool:
        return all(self.bundles)

    def to_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.bundles]


@dataclass
class FairnessReport:
    """Checker verdict.  holds is None for a deferred (unknown) SO verdict."""

    predicate: str
    holds: Optional[bool]
    violations: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if self.holds is True and self.violations:
            raise ValueError("holds=True with non-empty violations")

    def to_json(self) -> str:
        return json.dumps(
            {"predicate": self.predicate, "holds": self.holds, "violations": self.violations}
        )


class Potential(NamedTuple):
    """Lexicographic termination measure: (min bundle value, -count of minima)."""

    min_value: int
    neg_min_count: int


_last: tuple = (None, None, None)  # the last (allocation, graph, BundleStats) built


def _stats(a: Allocation, g: Graph) -> BundleStats:
    """a's BundleStats on g, shared by consecutive checks of the same pair.

    One slot, matched by identity: both objects are immutable, and the
    checkers only read the stats (a removal floor fills its own cache), so
    a hit equals a fresh build.  A solver's output arrives with its slot
    already filled (_adopt), so checking it builds nothing.  Threads may
    share the slot: it is replaced as one tuple, and a race costs at most
    one more build.
    """
    global _last
    last_a, last_g, stats = _last
    if a is not last_a or g is not last_g:
        stats = BundleStats.from_bundles(g, a.bundles)
        _last = (a, g, stats)
    return stats


def _adopt(stats: BundleStats) -> Allocation:
    """The Allocation of stats' bundles, with stats put in the checkers' slot.

    The solvers return their results through this.  The caller hands stats
    over: they must be exact for these bundles on stats.graph, and the
    caller never touches them again, so the checks that follow read them
    as they would a fresh build.
    """
    global _last
    a = Allocation(tuple(map(frozenset, stats.members)))
    _last = (a, stats.graph, stats)
    return a


def bundle_values(a: Allocation, g: Graph) -> list[int]:
    return _stats(a, g).bundle_value[:]


def social_welfare(a: Allocation, g: Graph) -> int:
    return sum(_stats(a, g).bundle_value)


def potential_from_values(values: Sequence[int]) -> Potential:
    vmin = min(values)
    return Potential(vmin, -values.count(vmin))


def check_ef(a: Allocation, g: Graph) -> FairnessReport:
    values = _stats(a, g).bundle_value
    violations = []
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            if vj > vi:
                violations.append({"i": i, "j": j, "item": None, "values": [vi, vj]})
    return FairnessReport("EF", not violations, violations)


def _ef1(a: Allocation, g: Graph, name: str, num: int, den: int) -> FairnessReport:
    """Pairwise (num/den)-scaled EF1: every envy i -> j must vanish, after
    scaling, once the best single item leaves A_j.  Exact integer comparisons;
    the witness item is the least one reaching A_j's removal floor.

    If i -> j violates, so does the poorest bundle's envy of j (den > 0), so
    the pairs are listed only when some bundle fails against the minimum.
    """
    stats = _stats(a, g)
    values = stats.bundle_value
    vmin = min(values)
    for j, vj in enumerate(values):
        if vj > vmin and num * stats.removal_floor(j) > den * vmin:
            break
    else:
        return FairnessReport(name, True)
    violations = []
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            if vj <= vi:
                continue
            item, floor = stats.min_removal_value(j)  # A_j is non-empty: it is envied
            if num * floor > den * vi:
                violations.append({"i": i, "j": j, "item": item, "values": [vi, floor]})
    return FairnessReport(name, not violations, violations)


def check_ef1(a: Allocation, g: Graph) -> FairnessReport:
    """Pairwise EF1: every envy is removable by deleting one item from the envied bundle."""
    return _ef1(a, g, "EF1", 1, 1)


def _require_alpha(alpha) -> Fraction:
    """alpha as a Fraction; alpha-EF1 is defined for alpha in (0, 1]."""
    alpha = Fraction(alpha)
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def check_alpha_ef1(a: Allocation, g: Graph, alpha: Fraction) -> FairnessReport:
    """alpha-scaled EF1; comparisons by exact cross-multiplication."""
    alpha = _require_alpha(alpha)
    return _ef1(a, g, f"{alpha}-EF1", alpha.numerator, alpha.denominator)


def _complete_stats(a: Allocation, g: Graph, predicate: str) -> BundleStats:
    """a's shared BundleStats on g; raises unless a assigns every vertex."""
    stats = _stats(a, g)
    if None in stats.assignment:
        raise ValueError(f"{predicate} requires a complete allocation")
    return stats


def _transfers(a: Allocation, g: Graph, name: str, least: int) -> FairnessReport:
    """Violations are the single-item transfers o: i -> j that raise each
    endpoint's value by at least ``least`` and their sum above 0: TS with
    least 0 (both weakly better, one strictly), wTS with least 1 (both
    strictly better)."""
    stats = _complete_stats(a, g, name)
    violations = []
    for o, i in enumerate(stats.assignment):
        drop = stats.marginal_remove(i, o)
        if drop < least:
            continue
        deg = stats.degree[o]
        for j, inside in enumerate(stats.neighbor_counts(o)):
            if j == i:
                continue
            gain = deg - 2 * inside  # marginal_add(j, o)
            if gain >= least and drop + gain > 0:
                violations.append(
                    {"i": i, "j": j, "item": o, "values": [stats.bundle_value[i], stats.bundle_value[j]]}
                )
    return FairnessReport(name, not violations, violations)


def check_ts(a: Allocation, g: Graph) -> FairnessReport:
    """Transfer stability: no single-item transfer leaves both endpoints weakly
    better with at least one strictly better."""
    return _transfers(a, g, "TS", 0)


def check_wts(a: Allocation, g: Graph) -> FairnessReport:
    """Weak transfer stability: no transfer makes both endpoints strictly better."""
    return _transfers(a, g, "wTS", 1)


def check_so(a: Allocation, g: Graph, max_states: Optional[int] = None) -> FairnessReport:
    """Social optimality, three tiers:

    1. welfare == 2|E| is always sufficient;
    2. on forests with n >= 2 it is equivalent to "no edge monochromatic";
    3. otherwise defer to exhaustive welfare maximization when the instance
       fits the oracle cap, else report unknown (holds=None).
    """
    stats = _complete_stats(a, g, "SO")
    sw = sum(stats.bundle_value)
    top = 2 * g.num_edges
    if sw == top:
        return FairnessReport("SO", True)
    if g.is_forest() and a.n >= 2:
        owner = stats.assignment
        violations = [
            {"i": owner[u], "j": owner[u], "item": [u, v], "values": [sw, top]}
            for u, v in g.edges
            if owner[u] == owner[v]
        ]
        return FairnessReport("SO", not violations, violations)
    from . import oracle  # deferred: oracle depends on this module

    try:
        best = oracle.max_welfare(g, a.n, max_states=max_states)
    except oracle.CapExceededError:
        return FairnessReport("SO", None)
    if sw == best:
        return FairnessReport("SO", True)
    return FairnessReport("SO", False, [{"i": None, "j": None, "item": None, "values": [sw, best]}])


def monochromatic_edges(a: Allocation, g: Graph) -> list[tuple[int, int]]:
    owner: dict[int, int] = {}
    for i, b in enumerate(a.bundles):
        for o in b:
            owner[o] = i
    return [(u, v) for (u, v) in g.edges if owner.get(u) is not None and owner.get(u) == owner.get(v)]
