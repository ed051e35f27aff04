"""Simple undirected graphs over dense 0-indexed vertices.

All valuations in this package are derived from graph cuts, so the graph
representation is deliberately minimal: an immutable edge list plus sorted
adjacency lists, with strict validation (no self-loops, no duplicate edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


class GraphError(ValueError):
    """Raised for malformed graph input (self-loop, duplicate edge, bad vertex)."""


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(compare=False)

    @staticmethod
    def from_edges(num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        seen = set()
        norm = []
        adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise GraphError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            norm.append(key)
            adj[u].append(v)
            adj[v].append(u)
        return Graph(
            num_vertices=num_vertices,
            edges=tuple(sorted(norm)),
            adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj),
        )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

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

