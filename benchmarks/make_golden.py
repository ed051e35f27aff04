"""Write the golden corpora, tests/golden/{solvers,oracle,checkers}.json.

Every solver runs on a fixed set of seeded inputs, and the solver corpus
records what it returned: the bundles, ``iterations``, ``case_counts()``, the
potential and welfare histories, the guarantee string and a sha256 of
``repr(trace.snapshots + trace.bundle_snapshots())``: the general solvers'
(tag, potential) pairs or forest peeling's (tag, bundles) pairs, as one
of the two is always empty.  The oracle corpus records the witnesses and
counts of every predicate pair (symmetry off and on), ``oracle_find_all``,
``max_welfare``, ``oracle_leximin``, ``oracle_max_cut``, ``oracle_pareto``
and ``oracle_completable_ef1`` on the oracle instances of repro criteria 1,
9, 10 and 11 and on seeded small graphs, two-bundle max cuts and welfare on
graphs of 9 to 17 vertices, and which calls exceed their state cap.  The
checker corpus records the full report (predicate, holds and violations in
order) of check_ef, check_ef1, check_alpha_ef1 at 1/2 and 2/3,
check_ts, check_wts and check_so, or the error it raised, on every solver
output of the solver corpus and on seeded random complete and partial
allocations with up to 12 bundles.  Each input graph is stored as its edge
list, so the corpora do not depend on the generators staying unchanged.  ``tests/test_golden.py`` re-runs
every case and asserts exact equality.

Regenerating a corpus is a deliberate act: do it only when a change is meant
to alter its outputs, and say why in CHANGES.md.

Usage: PYTHONPATH=src python3 benchmarks/make_golden.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

from cutfair import algorithms, allocation, oracle
from cutfair.allocation import Allocation
from cutfair.graph import Graph
from cutfair.instances import (
    SplitMix64,
    gen_appendix_a,
    gen_appendix_b,
    gen_cycle,
    gen_fig1,
    gen_fig3,
    gen_random_forest,
    gen_random_graph,
)

SEED = 0x601DE7
ORACLE_SEED = 0x0AC1E
CHECKERS_SEED = 0xC4EC5
CHECKERS_SO_CAP = 20_000  # check_so's oracle tier: small enough to keep the corpus test fast
ORACLE_LABELLED_LIMIT = 1024  # largest n^m of a seeded oracle graph
BOTH = (False, True)  # the symmetry settings of a query case unless it names them
DEFAULT_OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


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
        "snapshots_sha256": hashlib.sha256(
            repr(trace.snapshots + trace.bundle_snapshots()).encode()
        ).hexdigest(),
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


def _oracle_call(g: Graph, case: dict):
    call, n = case["call"], case["n"]
    cap = case.get("max_states", oracle.DEFAULT_MAX_STATES)
    if call in ("query", "find_all"):
        def q(symmetry):
            return oracle.OracleQuery.of(
                case["preds"], alpha=Fraction(case.get("alpha", "1")), max_states=cap, symmetry=symmetry
            )

        if call == "find_all":
            return [a.to_lists() for a in oracle.oracle_find_all(g, n, q(False))]
        symmetry = case.get("symmetry", BOTH)
        witnesses = [oracle.oracle_exists(g, n, q(s)) for s in symmetry]
        return {
            "exists": [w.to_lists() if w is not None else None for w in witnesses],
            "count": [oracle.oracle_count(g, n, q(s)) for s in symmetry],
        }
    if call == "max_welfare":
        return oracle.max_welfare(g, n, cap)
    if call == "leximin":
        return oracle.oracle_leximin(g, n, cap).to_lists()
    if call == "max_cut":
        a, best = oracle.oracle_max_cut(g, cap)
        return [a.to_lists(), best]
    if call == "pareto":
        return oracle.oracle_pareto(Allocation.of(case["alloc"]), g, n, cap)
    if call == "completable":
        return oracle.oracle_completable_ef1(Allocation.of(case["alloc"]), g, n, cap)
    raise ValueError(f"unknown oracle call {call!r}")


def oracle_record(graph: Graph, case: dict):
    """What the corpus keeps of one oracle call: its result as JSON values,
    or the name of the input error or cap error it raised."""
    try:
        return _oracle_call(graph, case)
    except (oracle.CapExceededError, ValueError) as exc:
        return {"raises": type(exc).__name__}


def oracle_inputs() -> tuple[dict[str, Graph], list[dict]]:
    """The oracle corpus graphs by name, and the calls made on them."""
    rng = SplitMix64(ORACLE_SEED)
    graphs: dict[str, Graph] = {}
    cases: list[dict] = []

    def case(graph, call, n, **extra):
        cases.append({"graph": graph, "call": call, "n": n, **extra})

    def query(graph, n, preds, alpha="1", symmetry=BOTH, **extra):
        if alpha != "1":
            extra["alpha"] = alpha
        if symmetry != BOTH:
            extra["symmetry"] = list(symmetry)
        case(graph, "query", n, preds=sorted(preds), **extra)

    # criterion 1: no EF1+TS with three bundles on the two-hub graphs
    for d in (3, 5):
        graphs[f"fig3:d={d}"] = gen_fig3(d).graph
        for preds in (("ef1", "ts"), ("ef1", "wts"), ("ef1", "so")):
            query(f"fig3:d={d}", 3, preds)
    # criterion 9: the stuck partial allocation on three stars
    inst = gen_appendix_a()
    graphs["appendixA"] = inst.graph
    case("appendixA", "completable", 4, alloc=inst.partial.to_lists())
    # criterion 10: the fig1 Pareto and SO examples
    graphs["fig1"] = gen_fig1().graph
    case("fig1", "pareto", 7, alloc=[[0, 4], [1], [2], [3], [5], [6], [7]])
    case("fig1", "pareto", 4, alloc=[[0, 4], [1, 5], [2, 6], [3, 7]])
    case("fig1", "pareto", 4, alloc=[[0, 5, 6], [4], [1, 2], [3, 7]])
    case("fig1", "max_welfare", 7)
    graphs["cycle:6"] = gen_cycle(6).graph
    query("cycle:6", 3, ("ef1", "so"))
    query("cycle:6", 3, ("ef1", "po"))
    # criterion 11: the near-complete multipartite family
    graphs["appendixB:n=3"] = gen_appendix_b(3).graph
    query("appendixB:n=3", 3, ("ef1", "so"))
    graphs["appendixB:n=4"] = gen_appendix_b(4).graph
    query("appendixB:n=4", 4, ("ef1", "so"), symmetry=(True,))

    # seeded graphs: every predicate pair, symmetry off and on
    names = sorted(oracle.PREDICATES)
    pairs = [sorted(set(p)) for p in itertools.combinations_with_replacement(names, 2)]
    graphs["empty"] = Graph.from_edges(0, [])
    for n in (1, 3):
        query("empty", n, ("ef1", "ts"))
        case("empty", "leximin", n)
    for t in range(150):
        n = 2 + t % 4
        top = min(8, max(m for m in range(1, 9) if n**m <= ORACLE_LABELLED_LIMIT))
        m = 1 + rng.below(top)
        name = f"g{t}"
        graphs[name] = g = gen_random_graph(m, (20 + rng.below(61)) / 100.0, rng.next_u64()).graph
        alpha = ("1", "1/2", "2/3")[t % 3]
        for preds in pairs:
            query(name, n, preds, alpha if "alpha_ef1" in preds else "1")
        if m <= 5:
            first = names[t % len(names)]
            case(name, "find_all", n, preds=[first], alpha=alpha)
            case(name, "find_all", n, preds=sorted({first, names[(t + 3) % len(names)]}), alpha=alpha)
        case(name, "max_welfare", n)
        case(name, "leximin", n)
        case(name, "max_cut", 2)
        for _ in range(2):
            case(name, "pareto", n, alloc=_random_start(rng, m, n))
            assign = [rng.below(n + 1) for _ in range(m)]  # n: left unassigned
            case(name, "completable", n, alloc=[[v for v in range(m) if assign[v] == b] for b in range(n)])
        # the cap counts labelled states
        query(name, n, ("ef1",), max_states=n**m - 1)
        query(name, n, ("ef1", "po"), max_states=n**m)
        case(name, "leximin", n, max_states=n**m - 1)
    # two-bundle max cuts and welfare beyond m = 8, on graphs of fixed seeds
    # (not drawn from rng), each also one state under its cap
    for m in range(9, 18):
        for p in (0.3, 0.6):
            name = f"cut{m}:p={p}"
            graphs[name] = gen_random_graph(m, p, 10 * m + round(10 * p)).graph
            case(name, "max_cut", 2)
            case(name, "max_welfare", 2)
            case(name, "max_cut", 2, max_states=2 ** (m - 1) - 1)
            case(name, "max_welfare", 2, max_states=2**m - 1)
    return graphs, cases


CHECKERS = (
    ("ef", allocation.check_ef),
    ("ef1", allocation.check_ef1),
    ("alpha_ef1:1/2", lambda a, g: allocation.check_alpha_ef1(a, g, Fraction(1, 2))),
    ("alpha_ef1:2/3", lambda a, g: allocation.check_alpha_ef1(a, g, Fraction(2, 3))),
    ("ts", allocation.check_ts),
    ("wts", allocation.check_wts),
    ("so", lambda a, g: allocation.check_so(a, g, CHECKERS_SO_CAP)),
)


def checker_record(graph: Graph, case: dict) -> dict:
    """Each checker's full report on one allocation, or the input error it raised."""
    a = Allocation.of(case["bundles"])
    out = {}
    for name, check in CHECKERS:
        try:
            rep = check(a, graph)
        except ValueError as exc:
            out[name] = {"raises": type(exc).__name__}
            continue
        out[name] = {"predicate": rep.predicate, "holds": rep.holds, "violations": rep.violations}
    return out


def checker_inputs() -> tuple[dict[str, Graph], list[dict]]:
    """The checker corpus graphs by name, and the allocations checked on them:
    every solver output of the solver corpus, then seeded random ones."""
    graphs, solver_cases = inputs()
    cases = [
        {"graph": c["graph"], "bundles": run_case(graphs[c["graph"]], c)[0].to_lists()}
        for c in solver_cases
    ]
    rng = SplitMix64(CHECKERS_SEED)
    for t in range(120):
        n = 2 + rng.below(11)
        m = 1 + rng.below(16)
        name = f"c{t}"
        if t % 5 == 4 and m >= 2:
            graphs[name] = gen_random_forest(m, 1 + rng.below(m // 2), rng.next_u64()).graph
        else:
            graphs[name] = gen_random_graph(m, (20 + rng.below(61)) / 100.0, rng.next_u64()).graph
        # complete, partial (label n: unassigned), and one crowded bundle
        # beside near-empty ones, which fails EF1 on several pairs
        for labels in (n, n + 1):
            assign = [rng.below(labels) for _ in range(m)]
            cases.append({"graph": name, "bundles": [[v for v in range(m) if assign[v] == b] for b in range(n)]})
        big = rng.below(n)
        assign = [big if rng.below(4) else rng.below(n + 1) for _ in range(m)]
        cases.append({"graph": name, "bundles": [[v for v in range(m) if assign[v] == b] for b in range(n)]})
    return graphs, cases


def write_corpus(path: Path, seed: int, graphs: dict[str, Graph], cases: list[dict]) -> None:
    # one graph or case per line, so a regenerated corpus diffs line by line
    compact = functools.partial(json.dumps, separators=(",", ":"))
    graph_lines = [f"{compact(k)}:{compact([g.num_vertices, g.edges])}" for k, g in graphs.items()]
    text = (
        f'{{"seed":{seed},\n"graphs":{{\n' + ",\n".join(graph_lines) + '\n},\n"cases":[\n'
        + ",\n".join(compact(c) for c in cases) + "\n]}\n"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {len(cases)} cases on {len(graphs)} graphs to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT_DIR)
    args = parser.parse_args(argv)
    for name, seed, make_inputs, make_record in (
        ("solvers", SEED, inputs, record),
        ("oracle", ORACLE_SEED, oracle_inputs, oracle_record),
        ("checkers", CHECKERS_SEED, checker_inputs, checker_record),
    ):
        graphs, cases = make_inputs()
        for c in cases:
            c["expect"] = make_record(graphs[c["graph"]], c)
        write_corpus(args.out_dir / f"{name}.json", seed, graphs, cases)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
