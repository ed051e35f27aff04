"""Simple undirected graphs over dense 0-indexed vertices.

All valuations in this package are derived from graph cuts, so the graph
representation is deliberately minimal: sorted adjacency lists and the edge
count, with strict validation (no self-loops, no duplicate edges); the edge
list is derived from the adjacency on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class GraphError(ValueError):
    """Raised for malformed graph input (self-loop, duplicate edge, bad vertex)."""


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    num_edges: int = field(compare=False)  # counted once, by from_edges

    @staticmethod
    def from_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        num_edges = 0
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise GraphError(f"duplicate edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            num_edges += 1
        return Graph(num_vertices, tuple(tuple(sorted(nbrs)) for nbrs in adj), num_edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (u, v) with u < v, in lexicographic order."""
        return tuple((u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v)

    def degree(self, o: int) -> int:
        if not 0 <= o < self.num_vertices:
            raise GraphError(f"vertex {o} out of range")
        return len(self.adjacency[o])

    def max_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return max(len(a) for a in self.adjacency)

    def connected_components(self) -> list[set[int]]:
        """Maximal connected vertex sets, ordered by least vertex."""
        seen = [False] * self.num_vertices
        comps = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            comp = {start}
            seen[start] = True
            stack = [start]
            while stack:
                v = stack.pop()
                for u in self.adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        comp.add(u)
                        stack.append(u)
            comps.append(comp)
        return comps

    def is_forest(self) -> bool:
        """True iff acyclic: a simple graph is a forest iff |E| = |V| - #components."""
        return self.num_edges == self.num_vertices - len(self.connected_components())

