"""Write the solver golden corpus, tests/golden/solvers.json.

Every solver runs on a fixed set of seeded inputs, and the corpus records
what it returned: the bundles, ``iterations``, ``case_counts()``, the
potential and welfare histories, the guarantee string and a sha256 of
``repr(trace.snapshots)``.  Each input graph is stored as its edge list, so
the corpus does not depend on the generators staying unchanged.
``tests/test_golden.py`` re-runs every case and asserts exact equality.

Regenerating the corpus is a deliberate act: do it only when a change is
meant to alter solver outputs, and say why in CHANGES.md.

Usage: PYTHONPATH=src python3 benchmarks/make_golden.py [--out PATH]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
from pathlib import Path

from cutfair import algorithms
from cutfair.allocation import Allocation
from cutfair.graph import Graph
from cutfair.instances import SplitMix64, gen_fig3, gen_random_forest, gen_random_graph

SEED = 0x601DE7
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "solvers.json"


def run_case(graph: Graph, case: dict):
    """Call the case's solver and return its (Allocation, SolveTrace)."""
    solver = case["solver"]
    if solver == "greedy_two_agents":
        return algorithms.greedy_two_agents(graph)
    if solver in ("ts_subroutine", "wts_subroutine"):
        start = Allocation.of(case["start"])
        if solver == "ts_subroutine":
            return algorithms.ts_subroutine(start, graph, case.get("special"))
        return algorithms.wts_subroutine(start, graph)
    return getattr(algorithms, solver)(graph, case["n"])


def record(graph: Graph, case: dict) -> dict:
    """What the corpus keeps of one solver call."""
    a, trace = run_case(graph, case)
    return {
        "bundles": a.to_lists(),
        "iterations": trace.iterations,
        "case_counts": dict(sorted(trace.case_counts().items())),
        "potential_history": [list(p) for p in trace.potential_history],
        "welfare_history": list(trace.welfare_history),
        "guarantee": trace.guarantee,
        "snapshots_sha256": hashlib.sha256(repr(trace.snapshots).encode()).hexdigest(),
    }


def _random_start(rng: SplitMix64, m: int, n: int) -> list[list[int]]:
    bundles: list[list[int]] = [[] for _ in range(n)]
    for v in range(m):
        bundles[rng.below(n)].append(v)
    return bundles


def inputs() -> tuple[dict[str, Graph], list[dict]]:
    """The corpus graphs by name, and the cases that run on them."""
    rng = SplitMix64(SEED)
    graphs: dict[str, Graph] = {}
    cases: list[dict] = []

    def case(graph, solver, n, **extra):
        cases.append({"graph": graph, "solver": solver, "n": n, **extra})

    # small members of the scaling families
    for m in (200, 350, 500):
        name = f"R{m}"
        graphs[name] = gen_random_graph(m, 8 / (m - 1), rng.next_u64()).graph
        case(name, "greedy_two_agents", 2)
        for n in (4, 20, 50):
            case(name, "solve_ef1_ts_n4", n)
            case(name, "solve_ef1_wts", n)
    graphs["fig3:d=101"] = gen_fig3(101).graph
    case("fig3:d=101", "greedy_two_agents", 2)
    case("fig3:d=101", "solve_ef1_wts", 3)
    case("fig3:d=101", "solve_ef1_ts_n4", 4)
    for trees in (1, 4):
        name = f"F300x{trees}"
        graphs[name] = gen_random_forest(300, trees, rng.next_u64()).graph
        for n in (2, 3, 4, 9):
            case(name, "solve_forest_ef1_so", n)

    # repro-style instances: at most 14 vertices, density in [0.2, 0.8]
    for t in range(300):
        kind = t % 6
        name = f"s{t}"
        if kind == 5:
            trees = 1 + rng.below(3)
            m = 2 * trees + rng.below(15 - 2 * trees)
            graphs[name] = gen_random_forest(m, trees, rng.next_u64()).graph
            case(name, "solve_forest_ef1_so", 2 + rng.below(min(4, m - 1)))
            continue
        m = 2 + rng.below(13)
        p = (20 + rng.below(61)) / 100.0
        graphs[name] = g = gen_random_graph(m, p, rng.next_u64()).graph
        if kind == 0 and m >= 4:
            case(name, "solve_ef1_ts_n4", 4 + rng.below(min(3, m - 3)))
        elif kind == 1:
            case(name, "solve_ef1_wts", 1 + rng.below(min(6, m)))
        elif kind == 2:
            case(name, "greedy_two_agents", 2)
            if g.is_forest():
                case(name, "solve_forest_ef1_so", 2 + rng.below(m - 1))
        elif kind == 3:
            case(name, "equitable_cut", 2 + rng.below(min(5, m - 1)))
        elif kind == 4 and m >= 4:
            n = 4 + rng.below(min(3, m - 3))
            case(name, "ts_subroutine", n, start=_random_start(rng, m, n),
                 special=rng.below(n) if t % 12 == 4 else None)
        else:
            n = 2 + rng.below(min(4, m - 1))
            case(name, "wts_subroutine", n, start=_random_start(rng, m, n))
    return graphs, cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    graphs, cases = inputs()
    for c in cases:
        c["expect"] = record(graphs[c["graph"]], c)
    # one graph or case per line, so a regenerated corpus diffs line by line
    compact = functools.partial(json.dumps, separators=(",", ":"))
    graph_lines = [f"{compact(k)}:{compact([g.num_vertices, g.edges])}" for k, g in graphs.items()]
    text = (
        f'{{"seed":{SEED},\n"graphs":{{\n' + ",\n".join(graph_lines) + '\n},\n"cases":[\n'
        + ",\n".join(compact(c) for c in cases) + "\n]}\n"
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(f"wrote {len(cases)} cases on {len(graphs)} graphs to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
