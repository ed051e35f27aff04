"""Named and random instance generators plus file I/O.

Named instances reproduce the constructions used by the non-existence and
non-completability arguments; random families back the statistical test
sweeps.  Randomness comes from an explicit splitmix64 generator so instances
are bit-reproducible across platforms and Python versions.

Instance file format (text, line-oriented, 1-indexed vertices):

    c  optional comments
    p fairdiv <num_vertices> <num_edges> <num_agents>
    e <u> <v>
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .allocation import Allocation
from .graph import Graph, GraphError


class ParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


@dataclass(frozen=True)
class Instance:
    graph: Graph
    num_agents: int
    label: str = ""
    partial: Optional[Allocation] = None


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 update rule)."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def chance(self, probability: float) -> bool:
        return self.next_u64() < probability * (1 << 64)


def gen_fig1() -> Instance:
    """Two joined stars on 8 vertices: hub 0 over 1..3, hub 4 over 5..7, edge 0-4."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)]
    return Instance(Graph.from_edges(8, edges), num_agents=4, label="fig1")


def gen_fig3(d: int) -> Instance:
    """Two hubs 0, 1 each adjacent to d spoke vertices 2..d+1; 3 agents.

    d must be odd and >= 3; no EF1 allocation of this instance is TS when n=3.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be odd and at least 3")
    edges = [(h, 2 + t) for t in range(d) for h in (0, 1)]
    return Instance(Graph.from_edges(d + 2, edges), num_agents=3, label=f"fig3:d={d}")


def gen_appendix_a() -> Instance:
    """Three disjoint stars on 14 vertices with a partial EF1 allocation that
    cannot be completed: vertex 1 breaks EF1 wherever it goes.

    Vertices map the construction's o1..o14 to 0..13.
    """
    edges = [(0, 1), (0, 2), (0, 3)]
    edges += [(4, v) for v in (5, 6, 7, 8, 9)]
    edges += [(10, v) for v in (11, 12, 13)]
    partial = Allocation.of([{0}, {2, 3, 5, 6}, {4, 11, 12, 13}, {7, 8, 9, 10}])
    return Instance(Graph.from_edges(14, edges), num_agents=4, label="appendixA", partial=partial)


def gen_appendix_b(n: int) -> Instance:
    """(n-1)-partite family: n-2 universal singleton parts plus one part of 2n
    mutually non-adjacent vertices."""
    if n < 3:
        raise ValueError("need n >= 3")
    hubs = list(range(n - 2))
    rest = list(range(n - 2, n - 2 + 2 * n))
    edges = [(a, b) for i, a in enumerate(hubs) for b in hubs[i + 1 :]]
    edges += [(a, b) for a in hubs for b in rest]
    return Instance(Graph.from_edges(n - 2 + 2 * n, edges), num_agents=n, label=f"appendixB:n={n}")


def gen_cycle(k: int) -> Instance:
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Instance(Graph.from_edges(k, edges), num_agents=2, label=f"cycle:{k}")


def gen_path(k: int) -> Instance:
    if k < 2:
        raise ValueError("path needs k >= 2")
    edges = [(i, i + 1) for i in range(k - 1)]
    return Instance(Graph.from_edges(k, edges), num_agents=2, label=f"path:{k}")


def gen_star(k: int) -> Instance:
    """Hub 0 with k leaves."""
    if k < 1:
        raise ValueError("star needs k >= 1 leaves")
    edges = [(0, i) for i in range(1, k + 1)]
    return Instance(Graph.from_edges(k + 1, edges), num_agents=2, label=f"star:{k}")


def gen_complete(k: int) -> Instance:
    if k < 2:
        raise ValueError("complete graph needs k >= 2")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Instance(Graph.from_edges(k, edges), num_agents=2, label=f"complete:{k}")


def gen_complete_bipartite(a: int, b: int) -> Instance:
    if a < 1 or b < 1:
        raise ValueError("both sides must be non-empty")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Instance(Graph.from_edges(a + b, edges), num_agents=2, label=f"biclique:{a},{b}")


def gen_random_graph(m: int, edge_probability: float, seed: int) -> Instance:
    """G(m, p) with splitmix64 randomness; pairs scanned in lexicographic order."""
    if m < 1 or not 0.0 <= edge_probability <= 1.0:
        raise ValueError("need m >= 1 and probability in [0, 1]")
    rng = SplitMix64(seed)
    edges = [
        (u, v)
        for u in range(m)
        for v in range(u + 1, m)
        if edge_probability >= 1.0 or rng.chance(edge_probability)
    ]
    return Instance(Graph.from_edges(m, edges), num_agents=2, label=f"random:{m},{edge_probability},{seed}")


def gen_random_forest(m: int, trees: int, seed: int) -> Instance:
    """Random forest: contiguous vertex ranges, random parent attachment inside
    each range.  Every tree has at least 2 vertices, so no isolated vertices."""
    if trees < 1 or m < 2 * trees:
        raise ValueError("need m >= 2 * trees")
    rng = SplitMix64(seed)
    sizes = [2] * trees
    for _ in range(m - 2 * trees):
        sizes[rng.below(trees)] += 1
    edges = []
    lo = 0
    for size in sizes:
        for v in range(lo + 1, lo + size):
            edges.append((lo + rng.below(v - lo), v))
        lo += size
    return Instance(Graph.from_edges(m, edges), num_agents=2, label=f"forest:{m},{trees},{seed}")


_LABELS = {
    "fig1": lambda args: gen_fig1(),
    "fig3": lambda args: gen_fig3(int(args["d"])),
    "appendixA": lambda args: gen_appendix_a(),
    "appendixB": lambda args: gen_appendix_b(int(args["n"])),
    "cycle": lambda args: gen_cycle(int(args["_"])),
    "path": lambda args: gen_path(int(args["_"])),
    "star": lambda args: gen_star(int(args["_"])),
    "complete": lambda args: gen_complete(int(args["_"])),
}


def from_label(label: str) -> Instance:
    """Fetch a named instance: 'fig1', 'fig3:d=5', 'appendixB:n=4', 'cycle:6', ..."""
    name, _, arg = label.partition(":")
    if name not in _LABELS:
        raise ValueError(f"unknown instance label {label!r}")
    args: dict[str, str] = {}
    if arg:
        for part in arg.split(","):
            key, eq, val = part.partition("=")
            args[key if eq else "_"] = val if eq else key
    try:
        return _LABELS[name](args)
    except KeyError as exc:
        raise ValueError(f"label {label!r} is missing parameter {exc}") from None


def read_instance(path) -> Instance:
    m = num_edges = n = None
    edges = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            parts = raw.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                if m is not None:
                    raise ParseError(path, lineno, "second 'p fairdiv' header")
                if len(parts) != 5 or parts[1] != "fairdiv":
                    raise ParseError(path, lineno, "expected 'p fairdiv <m> <edges> <n>'")
                try:
                    m, num_edges, n = int(parts[2]), int(parts[3]), int(parts[4])
                except ValueError:
                    raise ParseError(path, lineno, "non-integer header field") from None
                if n < 1:
                    raise ParseError(path, lineno, f"agent count {n} is below 1")
            elif parts[0] == "e":
                if m is None:
                    raise ParseError(path, lineno, "edge before header")
                if len(parts) != 3:
                    raise ParseError(path, lineno, "expected 'e <u> <v>'")
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError(path, lineno, "non-integer endpoint") from None
                if not (1 <= u <= m and 1 <= v <= m):
                    raise ParseError(path, lineno, f"vertex out of range 1..{m}")
                edges.append((u - 1, v - 1))
            else:
                raise ParseError(path, lineno, f"unknown line type {parts[0]!r}")
    if m is None:
        raise ParseError(path, 0, "missing 'p fairdiv' header")
    if num_edges != len(edges):
        raise ParseError(path, 0, f"header promises {num_edges} edges, file has {len(edges)}")
    try:
        graph = Graph.from_edges(m, edges)
    except GraphError as exc:
        raise ParseError(path, 0, str(exc)) from None
    return Instance(graph, num_agents=n, label=str(path))


def format_instance(inst: Instance) -> str:
    """The text format that read_instance parses: the label as a comment,
    the header and one 1-based line per edge."""
    g = inst.graph
    lines = [f"c {inst.label}"] if inst.label else []
    lines.append(f"p fairdiv {g.num_vertices} {g.num_edges} {inst.num_agents}")
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_instance(inst: Instance, path) -> None:
    with open(path, "w") as handle:
        handle.write(format_instance(inst))


def write_allocation(a: Allocation, path) -> None:
    import json

    with open(path, "w") as handle:
        json.dump({"n": a.n, "bundles": a.to_lists()}, handle)
        handle.write("\n")


def read_allocation(path) -> Allocation:
    import json

    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise ParseError(path, 0, "allocation file needs a 'bundles' field")
    bundles = doc["bundles"]
    if not isinstance(bundles, list) or not all(
        isinstance(b, list) and all(type(o) is int for o in b) for b in bundles
    ):
        raise ParseError(path, 0, "'bundles' must be a list of lists of vertex ids")
    for i, b in enumerate(bundles):
        if len(set(b)) < len(b):
            raise ParseError(path, 0, f"bundle {i} lists a vertex twice")
    if "n" in doc and doc["n"] != len(bundles):
        raise ParseError(path, 0, f"'n' is {doc['n']!r} but there are {len(bundles)} bundles")
    return Allocation.of(bundles)
