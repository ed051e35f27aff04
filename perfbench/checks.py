"""Verifiers that share no code with cutfair's checkers.

Every function works on a graph given as ``(num_vertices, edges)`` and an
allocation given as a sequence of vertex sets, recomputes cut values from the
edge list, and returns a plain bool.  With one shared valuation, EF1 reduces
to a comparison against the minimum bundle value, and each vertex's best
transfer target is the bundle holding the fewest of its neighbours; both
facts keep these checks linear in the graph size.
"""

from __future__ import annotations

from array import array
from itertools import product


def owners(m: int, bundles):
    """owner[v] = bundle index, -1 when unassigned; None on overlap or bad vertex."""
    owner = [-1] * m
    for i, bundle in enumerate(bundles):
        for v in bundle:
            if not 0 <= v < m or owner[v] != -1:
                return None
            owner[v] = i
    return owner


class Cut:
    """Bundle values and per-vertex neighbour counts of one allocation."""

    def __init__(self, graph, bundles):
        m, edges = graph
        self.m = m
        self.n = len(bundles)
        self.num_edges = len(edges)
        self.nonempty = all(bundles)
        self.owner = owners(m, bundles)
        if self.owner is None:
            raise ValueError("bundles overlap or name a vertex outside the graph")
        owner = self.owner
        self.values = [0] * self.n
        self.degree = [0] * m
        self.same = [0] * m  # neighbours in the vertex's own bundle
        self.nbr_bundles = [dict() for _ in range(m)]
        for u, v in edges:
            bu, bv = owner[u], owner[v]
            self.degree[u] += 1
            self.degree[v] += 1
            if bu != bv:
                if bu >= 0:
                    self.values[bu] += 1
                if bv >= 0:
                    self.values[bv] += 1
            elif bu >= 0:
                self.same[u] += 1
                self.same[v] += 1
            if bv >= 0:
                self.nbr_bundles[u][bv] = self.nbr_bundles[u].get(bv, 0) + 1
            if bu >= 0:
                self.nbr_bundles[v][bu] = self.nbr_bundles[v].get(bu, 0) + 1

    @property
    def complete(self) -> bool:
        return -1 not in self.owner

    @property
    def welfare(self) -> int:
        return sum(self.values)

    def removal_gain(self, v: int) -> int:
        """Change in v's bundle value when v leaves it."""
        return 2 * self.same[v] - self.degree[v]

    def best_gain(self, v: int) -> int:
        """Largest change in another bundle's value when v joins it."""
        own = self.owner[v]
        others = [c for b, c in self.nbr_bundles[v].items() if b != own]
        fewest = min(others) if len(others) == self.n - 1 else 0
        return self.degree[v] - 2 * fewest

    def ef1(self) -> bool:
        if self.n == 0:
            return True
        floor = list(self.values)  # min over items of v(A_j - item); 0 when empty
        sizes = [0] * self.n
        for v, b in enumerate(self.owner):
            if b >= 0:
                sizes[b] += 1
                floor[b] = min(floor[b], self.values[b] + self.removal_gain(v))
        vmin = min(self.values)
        return all(
            not (self.values[j] > vmin and (floor[j] if sizes[j] else 0) > vmin)
            for j in range(self.n)
        )

    def ts(self) -> bool:
        """No transfer weakly helps both sides and strictly helps one."""
        if not self.complete or self.n < 2:
            return self.complete
        for v in range(self.m):
            drop = self.removal_gain(v)
            if drop < 0:
                continue
            gain = self.best_gain(v)
            if gain > 0 or (gain == 0 and drop > 0):
                return False
        return True

    def wts(self) -> bool:
        """No transfer strictly helps both sides."""
        if not self.complete or self.n < 2:
            return self.complete
        return not any(self.removal_gain(v) > 0 and self.best_gain(v) > 0 for v in range(self.m))

    def ef(self) -> bool:
        return min(self.values, default=0) == max(self.values, default=0)

    def cuts_every_edge(self) -> bool:
        """Welfare 2|E|.  Social optimality wherever some allocation cuts every
        edge, as on forests with n >= 2; sufficient for it on any graph."""
        return self.welfare == 2 * self.num_edges

    def verdict(self, predicate: str) -> bool:
        """nonempty, ef, ef1, ts, wts, or so (as ``cuts_every_edge``)."""
        if predicate == "nonempty":
            return self.nonempty
        if predicate == "so":
            return self.cuts_every_edge()
        return getattr(self, predicate)()


def satisfies(graph, bundles, predicates) -> bool:
    """The allocation is complete and every named predicate holds."""
    cut = Cut(graph, bundles)
    return cut.complete and all(cut.verdict(p) for p in predicates)


def sorted_values(graph, bundles) -> list[int]:
    return sorted(Cut(graph, bundles).values)


def dominates(x, y) -> bool:
    """Sorted value vector x is at least y everywhere and above it somewhere."""
    return all(a >= b for a, b in zip(x, y)) and any(a > b for a, b in zip(x, y))


class Exhaustive:
    """Every complete n-allocation of a graph, enumerated once in the oracle's
    order (assignment tuples in lexicographic order, vertex 0 most
    significant), with each one's sorted value vector and the verdicts of the
    named predicates.  Desk-scale only: n^m Cut constructions."""

    def __init__(self, graph, n: int, predicates):
        m, _ = graph
        self.n, self.m = n, m
        self.vectors: list[tuple[int, ...]] = []  # distinct sorted value vectors
        self.first: list[int] = []  # index of the first assignment with each vector
        self.vector_of = array("I")  # assignment index -> position in vectors
        self.holds = {p: bytearray() for p in predicates}
        position: dict = {}
        for index, assign in enumerate(product(range(n), repeat=m)):
            cut = Cut(graph, self.bundles(assign))
            vec = tuple(sorted(cut.values))
            if vec not in position:
                position[vec] = len(self.vectors)
                self.vectors.append(vec)
                self.first.append(index)
            self.vector_of.append(position[vec])
            for p, verdicts in self.holds.items():
                verdicts.append(cut.verdict(p))

    def bundles(self, assign) -> list[set[int]]:
        out = [set() for _ in range(self.n)]
        for v, b in enumerate(assign):
            out[b].add(v)
        return out

    def allocation(self, index: int) -> list[set[int]]:
        assign = []
        for _ in range(self.m):
            index, b = divmod(index, self.n)
            assign.append(b)
        return self.bundles(reversed(assign))

    def matching(self, predicates) -> list[int]:
        """Indices of the assignments satisfying every predicate; ``po`` means
        that no allocation's sorted vector dominates the assignment's."""
        keep = None
        if "po" in predicates:
            keep = {i for i, v in enumerate(self.vectors) if not any(dominates(w, v) for w in self.vectors)}
        verdicts = [self.holds[p] for p in predicates if p != "po"]
        return [
            index
            for index, vec in enumerate(self.vector_of)
            if (keep is None or vec in keep) and all(h[index] for h in verdicts)
        ]

    def max_welfare(self) -> int:
        return max(sum(v) for v in self.vectors)

    def leximin(self) -> list[set[int]]:
        """The first allocation whose sorted value vector is lexicographically largest."""
        return self.allocation(self.first[self.vectors.index(max(self.vectors))])


def max_cut(graph) -> int:
    """Largest cut over all bipartitions with vertex 0 fixed, visited in Gray
    code order so each step moves one vertex and updates the cut by its edges."""
    m, edges = graph
    nbrs = [[] for _ in range(m)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [0] * m
    cut = best = 0
    for k in range(1, 1 << max(0, m - 1)):
        v = (k & -k).bit_length()  # vertex 1 + the index of k's lowest set bit
        same = sum(1 for u in nbrs[v] if side[u] == side[v])
        cut += 2 * same - len(nbrs[v])
        side[v] ^= 1
        best = max(best, cut)
    return best
