"""Cut-values and incremental per-bundle state.

The value of a bundle S is the number of edges with exactly one endpoint in S.
Unassigned vertices count as "outside" every bundle, which is what partial
allocations need.  BundleStats caches, for every vertex o, the count of o's
neighbors inside its own bundle (0 while o is unassigned).  With
|N_{A_i}(o)| the count of o's neighbors in A_i, the marginals are:

    add    o to A_i:     deg(o) - 2 * |N_{A_i}(o)|         O(deg(o)): counted
    remove o from A_i:   2 * |N_{A_i \\ {o}}(o)| - deg(o)   O(1): cached

neighbor_counts(o) counts o's neighbors in every bundle at once, in
O(deg(o) + n).  On top of the counts BundleStats keeps the per-bundle state
that solvers and checkers query over and over, each maintained by
apply_move(o, src, dst):

- member sets, one per bundle: O(1) per move;
- the removal floor min over o in A_i of v(A_i - o), cached per bundle and
  marked stale only for src and dst: O(1) per move, O(|A_i|) to recompute
  on the next query of a stale bundle;
- chore indexes, built on their first query: per bundle, the weak chores
  (degree > 0 and removal marginal >= 0) and the strict chores (removal
  marginal > 0), each a set plus a least-index heap with lazy deletion for
  least_chore.  Once built, a move re-classifies o and those neighbors of
  o that sit in src or dst: O(deg(o) log V) per move.

A move therefore costs O(deg(o)) (times log V once the chore indexes are
built), plus O(|A_src| + |A_dst|) when the floors of both bundles are
queried afterwards.  No structure has n * V entries: BundleStats(g, n) is
O(V + n) and from_bundles O(V + n + E).  All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .graph import Graph

_STALE = object()  # marks a cached removal floor that must be recomputed


def cut_value(g: Graph, s: Iterable[int]) -> int:
    """Number of boundary edges of the vertex set s."""
    inside = set(s)
    for v in inside:
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"vertex {v} out of range")
    total = 0
    for v in inside:
        for u in g.adjacency[v]:
            if u not in inside:
                total += 1
    return total


class BundleStats:
    """Mutable own-bundle neighbor counts with cached bundle state.

    Public state: ``assignment`` (bundle of each vertex, or None),
    ``own_neighbors`` (each vertex's neighbors in its own bundle, 0 while it
    is unassigned), ``bundle_value``, ``members`` (one vertex set per bundle)
    and ``degree`` (a plain list, for hot loops).  Removal floors and chore
    indexes are read through min_removal_value, removal_floor, chores and
    least_chore.  Mutable, with a single owner.
    """

    def __init__(self, g: Graph, n: int):
        if n < 1:
            raise ValueError("need at least one bundle")
        self.graph = g
        self.n = n
        self.degree = list(map(len, g.adjacency))
        self.assignment: list[Optional[int]] = [None] * g.num_vertices
        self.own_neighbors = [0] * g.num_vertices
        self.bundle_value = [0] * n
        self.members: list[set[int]] = [set() for _ in range(n)]
        self._floor: list = [_STALE] * n
        # (weak, strict), per bundle: the chore set, and a least-index heap
        # holding every member of that set plus stale entries
        self._chores: Optional[tuple[list[set[int]], list[set[int]]]] = None
        self._heaps: Optional[tuple[list[list[int]], list[list[int]]]] = None

    @staticmethod
    def from_bundles(g: Graph, bundles: Sequence[Iterable[int]]) -> "BundleStats":
        """Build without apply_move: the assignment and member sets first, then
        one pass over the assigned vertices' adjacency lists for the own-bundle
        counts and the values, v(A_i) = sum over o in A_i of deg(o) - |N_{A_i}(o)|.
        """
        stats = BundleStats(g, len(bundles))
        assignment, num_vertices = stats.assignment, g.num_vertices
        for i, bundle in enumerate(bundles):
            members = stats.members[i]
            for o in bundle:
                if not 0 <= o < num_vertices:
                    raise ValueError(f"vertex {o} out of range")
                if assignment[o] is not None:
                    raise ValueError(f"vertex {o} is in bundle {assignment[o]}, not None")
                assignment[o] = i
                members.add(o)
        own, adj, deg, value = stats.own_neighbors, g.adjacency, stats.degree, stats.bundle_value
        for o, b in enumerate(assignment):
            if b is not None:
                inside = 0
                for u in adj[o]:
                    if assignment[u] == b:
                        inside += 1
                own[o] = inside
                value[b] += deg[o] - inside
        return stats

    def neighbor_counts(self, o: int) -> list[int]:
        """Per bundle, the number of o's neighbors in it: O(deg(o) + n)."""
        row = [0] * self.n
        assignment = self.assignment
        for u in self.graph.adjacency[o]:
            b = assignment[u]
            if b is not None:
                row[b] += 1
        return row

    def marginal_add(self, i: int, o: int) -> int:
        """v(A_i + o) - v(A_i), in O(deg(o)).  o must not already be in bundle i."""
        assignment = self.assignment
        if assignment[o] == i:
            raise ValueError(f"vertex {o} already in bundle {i}")
        inside = 0
        for u in self.graph.adjacency[o]:
            if assignment[u] == i:
                inside += 1
        return self.degree[o] - 2 * inside

    def marginal_remove(self, i: int, o: int) -> int:
        """v(A_i - o) - v(A_i).  o must be in bundle i."""
        if self.assignment[o] != i:
            raise ValueError(f"vertex {o} not in bundle {i}")
        return 2 * self.own_neighbors[o] - self.degree[o]

    def apply_move(self, o: int, src: Optional[int], dst: Optional[int]) -> None:
        """Move o from bundle src to bundle dst (None means unassigned).

        O(deg(o)); marks the removal floors of src and dst stale.
        """
        assignment = self.assignment
        if assignment[o] != src:
            raise ValueError(f"vertex {o} is in bundle {assignment[o]}, not {src}")
        if src == dst:
            raise ValueError("no-op move")
        deg = self.degree[o]
        own = self.own_neighbors
        adj = self.graph.adjacency[o]
        if src is not None:
            self.bundle_value[src] += 2 * own[o] - deg
            self.members[src].discard(o)
            self._floor[src] = _STALE
        inside = 0  # o's neighbors in dst
        for u in adj:
            b = assignment[u]
            if b is None:
                continue
            if b == src:
                own[u] -= 1
            elif b == dst:
                own[u] += 1
                inside += 1
        own[o] = inside
        assignment[o] = dst
        if dst is not None:
            self.bundle_value[dst] += deg - 2 * inside
            self.members[dst].add(o)
            self._floor[dst] = _STALE
        if self._chores is not None:
            weak, strict = self._chores
            if src is not None:
                weak[src].discard(o)
                strict[src].discard(o)
            if dst is not None:
                self._classify_chore(o, dst)
            for u in adj:
                b = assignment[u]
                if b is not None and (b == src or b == dst):
                    self._classify_chore(u, b)

    def _classify_chore(self, o: int, b: int) -> None:
        """File o, a member of bundle b, in b's chore indexes."""
        weak, strict = self._chores
        deg = self.degree[o]
        margin = 2 * self.own_neighbors[o] - deg
        if margin > 0:
            _file(weak[b], self._heaps[0][b], o)
            _file(strict[b], self._heaps[1][b], o)
        else:
            strict[b].discard(o)
            if margin == 0 and deg > 0:
                _file(weak[b], self._heaps[0][b], o)
            else:
                weak[b].discard(o)

    def min_removal_value(self, i: int) -> Optional[tuple[int, int]]:
        """(item, v(A_i - item)) minimizing the post-removal value; None if empty.

        Ties broken by least vertex index.  Cached until a move touches A_i.
        """
        best = self._floor[i]
        if best is _STALE:
            own, deg = self.own_neighbors, self.degree
            best = None
            if self.members[i]:
                margin, o = min((2 * own[o] - deg[o], o) for o in self.members[i])
                best = (o, self.bundle_value[i] + margin)
            self._floor[i] = best
        return best

    def removal_floor(self, i: int) -> int:
        """min over o in A_i of v(A_i - o); 0 for an empty bundle."""
        best = self._floor[i]
        if best is _STALE:
            best = self.min_removal_value(i)
        return 0 if best is None else best[1]

    def chores(self) -> tuple[list[set[int]], list[set[int]]]:
        """(weak, strict): per bundle, the members whose removal does not hurt
        it (degree-0 members excluded) and those whose removal strictly helps.

        Built in O(V) on the first call and kept up to date by apply_move.
        """
        if self._chores is None:
            self._chores = ([set() for _ in range(self.n)], [set() for _ in range(self.n)])
            self._heaps = ([[] for _ in range(self.n)], [[] for _ in range(self.n)])
            for o, b in enumerate(self.assignment):
                if b is not None:
                    self._classify_chore(o, b)
        return self._chores

    def least_chore(self, b: int, strict: bool) -> Optional[int]:
        """The least member of chores()[strict][b], or None if it is empty.

        Pops the stale entries off the top of the bundle's heap first:
        amortised O(log V) per entry ever pushed.
        """
        members = self.chores()[strict][b]
        heap = self._heaps[strict][b]
        while heap and heap[0] not in members:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def check_consistency(self) -> None:
        """Recompute everything from scratch and compare against the caches."""
        g = self.graph
        if self.degree != [g.degree(o) for o in range(g.num_vertices)]:
            raise AssertionError("stale degree list")
        for o, b in enumerate(self.assignment):
            actual = 0 if b is None else sum(1 for u in g.adjacency[o] if self.assignment[u] == b)
            if actual != self.own_neighbors[o]:
                raise AssertionError(f"stale own-bundle neighbor count at {o}")
        for i in range(self.n):
            members = {o for o in range(g.num_vertices) if self.assignment[o] == i}
            if members != self.members[i]:
                raise AssertionError(f"stale member set for bundle {i}")
            if cut_value(g, members) != self.bundle_value[i]:
                raise AssertionError(f"stale value for bundle {i}")
            if self._floor[i] is not _STALE:
                fresh = None
                for o in sorted(members):
                    val = cut_value(g, members - {o})
                    if fresh is None or val < fresh[1]:
                        fresh = (o, val)
                if fresh != self._floor[i]:
                    raise AssertionError(f"stale removal floor for bundle {i}")
            if self._chores is not None:
                margins = {o: cut_value(g, members - {o}) - self.bundle_value[i] for o in members}
                weak = {o for o, x in margins.items() if x >= 0 and g.degree(o) > 0}
                strict = {o for o, x in margins.items() if x > 0}
                if (weak, strict) != (self._chores[0][i], self._chores[1][i]):
                    raise AssertionError(f"stale chore index for bundle {i}")
                for chores, heap in zip((weak, strict), (self._heaps[0][i], self._heaps[1][i])):
                    ordered = all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
                    if not (ordered and chores <= set(heap)):
                        raise AssertionError(f"stale chore heap for bundle {i}")


def _file(chores: set[int], heap: list[int], o: int) -> None:
    """Add o to a chore set and, if it was not in it, to the set's heap.  A
    heap grown past twice the set (plus slack) is rebuilt from the set."""
    if o not in chores:
        chores.add(o)
        heapq.heappush(heap, o)
        if len(heap) > 2 * len(chores) + 16:
            heap[:] = sorted(chores)
