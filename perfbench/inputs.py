"""Benchmark inputs, generated here rather than by ``cutfair.instances``.

Owning the generators keeps every workload's inputs fixed when the library's
own generators change, and keeps the library's O(m^2) pair scan out of the
set-up time.  All randomness is a splitmix64 stream, integer-only, so a seed
gives bit-identical edge lists on every platform.  Graphs are returned as
``(num_vertices, edges)``; the caller builds ``cutfair.Graph`` objects from
them, which is part of the timed set-up.
"""

from __future__ import annotations

import hashlib

MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def fork(self) -> "SplitMix64":
        """An independent stream, so adding draws to one family leaves the others alone."""
        return SplitMix64(self.next_u64())


def random_graph(rng: SplitMix64, m: int, num_edges: int):
    """Uniform simple graph with m vertices and exactly num_edges edges.

    Rejection sampling of endpoint pairs: O(m + E) expected while the graph
    stays below about half of all pairs, which holds for every caller.
    """
    pairs = m * (m - 1) // 2
    if not 0 <= num_edges <= pairs:
        raise ValueError(f"{num_edges} edges do not fit on {m} vertices")
    seen = set()
    while len(seen) < num_edges:
        u, v = rng.below(m), rng.below(m)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return m, sorted(seen)


def random_density_graph(rng: SplitMix64, m: int):
    """Small graph with a random density in [0.2, 0.8], as the repro sweeps use."""
    pairs = m * (m - 1) // 2
    return random_graph(rng, m, (pairs * (20 + rng.below(61)) + 50) // 100)


def random_forest(rng: SplitMix64, m: int, trees: int):
    """Random recursive trees on contiguous vertex ranges, each of at least 2 vertices."""
    if trees < 1 or m < 2 * trees:
        raise ValueError("need m >= 2 * trees")
    sizes = [2] * trees
    for _ in range(m - 2 * trees):
        sizes[rng.below(trees)] += 1
    edges = []
    lo = 0
    for size in sizes:
        for v in range(lo + 1, lo + size):
            edges.append((lo + rng.below(v - lo), v))
        lo += size
    return m, edges


# Named constructions from the paper, written out so the known answers the
# checks compare against stay tied to these exact graphs.


def fig1():
    """Two stars joined at their hubs: hub 0 over 1..3, hub 4 over 5..7."""
    return 8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)]


def fig3(d: int):
    """Hubs 0 and 1, each adjacent to the d spokes 2..d+1."""
    return d + 2, [(h, 2 + t) for t in range(d) for h in (0, 1)]


def appendix_a():
    """Three disjoint stars and a partial EF1 allocation that cannot be completed."""
    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(4, v) for v in (5, 6, 7, 8, 9)]
    edges += [(10, v) for v in (11, 12, 13)]
    partial = [{0}, {2, 3, 5, 6}, {4, 11, 12, 13}, {7, 8, 9, 10}]
    return (14, edges), partial


def appendix_b(n: int):
    """n-2 universal singleton parts plus one independent part of 2n vertices."""
    hubs = list(range(n - 2))
    rest = list(range(n - 2, 3 * n - 2))
    edges = [(a, b) for i, a in enumerate(hubs) for b in hubs[i + 1 :]]
    edges += [(a, b) for a in hubs for b in rest]
    return 3 * n - 2, edges


def digest(graph) -> str:
    """Short content hash of (num_vertices, sorted edge list)."""
    m, edges = graph
    text = f"{m};" + ",".join(f"{min(e)}-{max(e)}" for e in sorted(edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
