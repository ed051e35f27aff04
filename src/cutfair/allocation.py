"""Allocations and exact fairness/efficiency checkers.

Agents share one cut-valuation, so envy-freeness degenerates to "all bundle
values equal" and EF1 checks reduce (after sorting) to checks against the
minimum-value bundle.  EF1 and alpha-EF1 share one pairwise scan that reads
each envied bundle's cached removal floor: O(V + n^2).
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
        return len(self.assigned()) == g.num_vertices

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


def _stats(a: Allocation, g: Graph) -> BundleStats:
    return BundleStats.from_bundles(g, a.bundles)


def bundle_values(a: Allocation, g: Graph) -> list[int]:
    return _stats(a, g).bundle_value


def social_welfare(a: Allocation, g: Graph) -> int:
    return sum(bundle_values(a, g))


def potential_from_values(values: Sequence[int]) -> Potential:
    vmin = min(values)
    return Potential(vmin, -sum(1 for v in values if v == vmin))


def check_ef(a: Allocation, g: Graph) -> FairnessReport:
    values = bundle_values(a, g)
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
    """
    stats = _stats(a, g)
    values = stats.bundle_value
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


def _require_complete(a: Allocation, g: Graph, predicate: str) -> None:
    if not a.is_complete(g):
        raise ValueError(f"{predicate} requires a complete allocation")


def _transfers(a: Allocation, g: Graph, name: str, least: int) -> FairnessReport:
    """Violations are the single-item transfers o: i -> j that raise each
    endpoint's value by at least ``least`` and their sum above 0: TS with
    least 0 (both weakly better, one strictly), wTS with least 1 (both
    strictly better)."""
    _require_complete(a, g, name)
    stats = _stats(a, g)
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
    _require_complete(a, g, "SO")
    sw = social_welfare(a, g)
    top = 2 * g.num_edges
    if sw == top:
        return FairnessReport("SO", True)
    if g.is_forest() and a.n >= 2:
        violations = [
            {"i": i, "j": i, "item": [u, v], "values": [sw, top]}
            for u, v in monochromatic_edges(a, g)
            for i, bundle in enumerate(a.bundles)
            if u in bundle
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
