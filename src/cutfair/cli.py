"""Command-line interface.

Exit codes: 0 success / predicate holds, 1 predicate fails or witness absent,
2 usage or input error, 3 internal assertion failure (a bug, never expected).
JSON goes to stdout (or --out); a short human summary goes to stderr unless
--quiet.  FAIRDIV_MAX_STATES overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import oracle, repro
from .algorithms import (
    BudgetExceededError,
    GoalInfeasibleError,
    SolveGoal,
    SolverInvariantError,
    dispatch_solve,
    greedy_two_agents,
    solve_ef1_ts_n4,
    solve_ef1_wts,
    solve_forest_ef1_so,
)
from .allocation import (
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
)
from .instances import (
    Instance,
    ParseError,
    from_label,
    gen_random_graph,
    read_allocation,
    read_instance,
    write_instance,
)


class UsageError(ValueError):
    pass


def _default_max_states() -> int:
    env = os.environ.get("FAIRDIV_MAX_STATES")
    return int(env) if env else oracle.DEFAULT_MAX_STATES


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--label", help="named instance, e.g. fig3:d=5 or cycle:6")
    src.add_argument("--file", help="instance file path")
    p.add_argument("-n", type=int, default=None, help="override the agent count")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.add_argument("--out", help="write the JSON document here instead of stdout")


def _load_instance(args) -> Instance:
    try:
        inst = from_label(args.label) if args.label else read_instance(args.file)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc
    if args.n is not None:
        if args.n < 1:
            raise UsageError("-n must be at least 1")
        inst = Instance(inst.graph, args.n, inst.label, inst.partial)
    return inst


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _parse_preds(csv: str) -> set[str]:
    names = {p.strip().replace("-", "_") for p in csv.split(",") if p.strip()}
    unknown = names - {"ef", "ef1", "alpha_ef1", "ts", "wts", "so", "po", "nonempty"}
    if unknown:
        raise UsageError(f"unknown predicates: {sorted(unknown)}")
    if not names:
        raise UsageError("--pred needs at least one predicate")
    return names


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    g, n = inst.graph, inst.num_agents
    try:
        a, trace = dispatch_solve(g, n, SolveGoal(args.goal))
    except GoalInfeasibleError as exc:
        print(json.dumps({"error": f"infeasible: {exc}"}), file=sys.stderr)
        return 2
    doc = {
        "instance": inst.label,
        "n": n,
        "goal": args.goal,
        "guarantee_achieved": trace.guarantee,
        "bundles": a.to_lists(),
        "bundle_values": bundle_values(a, g),
        "trace": {"iterations": trace.iterations, "case_counts": trace.case_counts()},
    }
    _emit(doc, args)
    _note(args, f"{inst.label}: {trace.guarantee} with values {doc['bundle_values']}")
    return 0


def cmd_check(args) -> int:
    inst = _load_instance(args)
    g = inst.graph
    try:
        a = read_allocation(args.alloc)
    except (ValueError, OSError) as exc:
        raise UsageError(str(exc)) from exc
    if any(o >= g.num_vertices for b in a.bundles for o in b):
        raise UsageError("allocation references vertices outside the instance")
    alpha = Fraction(args.alpha)
    reports = []
    all_hold = True
    for name in sorted(_parse_preds(args.pred)):
        if name == "ef":
            rep = check_ef(a, g)
        elif name == "ef1":
            rep = check_ef1(a, g)
        elif name == "alpha_ef1":
            rep = check_alpha_ef1(a, g, alpha)
        elif name == "ts":
            rep = check_ts(a, g)
        elif name == "wts":
            rep = check_wts(a, g)
        elif name == "so":
            rep = check_so(a, g, max_states=args.max_states)
        elif name == "nonempty":
            rep = None
            holds = a.all_nonempty()
            reports.append({"predicate": "non-empty", "holds": holds, "violations": []})
            all_hold = all_hold and holds
            continue
        else:  # po
            holds = oracle.oracle_pareto(a, g, a.n, max_states=args.max_states)
            reports.append({"predicate": "PO", "holds": holds, "violations": []})
            all_hold = all_hold and holds
            continue
        reports.append(json.loads(rep.to_json()))
        all_hold = all_hold and rep.holds is True
    _emit({"instance": inst.label, "reports": reports}, args)
    _note(args, "all hold" if all_hold else "some predicates fail")
    return 0 if all_hold else 1


def cmd_oracle(args) -> int:
    inst = _load_instance(args)
    g, n = inst.graph, inst.num_agents
    t0 = time.perf_counter()
    if args.complete_partial:
        if inst.partial is None:
            raise UsageError("this instance carries no partial allocation")
        verdict = oracle.oracle_completable_ef1(
            inst.partial, g, n, max_states=args.max_states
        )
        doc = {
            "query": "complete-partial-ef1",
            "verdict": "completable" if verdict else "not-completable",
            "elapsed_ms": round(1000 * (time.perf_counter() - t0), 1),
        }
        _emit(doc, args)
        _note(args, doc["verdict"])
        return 0 if verdict else 1
    preds = _parse_preds(args.pred)
    query = oracle.OracleQuery.of(
        preds,
        alpha=Fraction(args.alpha),
        max_states=args.max_states,
        symmetry=args.symmetry,
        threads=args.threads,
    )
    if args.count:
        count = oracle.oracle_count(g, n, query)
        doc = {
            "query": sorted(preds),
            "verdict": count,
            "elapsed_ms": round(1000 * (time.perf_counter() - t0), 1),
        }
        _emit(doc, args)
        _note(args, f"{count} matching allocations")
        return 0 if count else 1
    witness = oracle.oracle_exists(g, n, query)
    doc = {
        "query": sorted(preds),
        "verdict": "witness" if witness is not None else "absent",
        "witness": witness.to_lists() if witness is not None else None,
        "elapsed_ms": round(1000 * (time.perf_counter() - t0), 1),
    }
    _emit(doc, args)
    _note(args, doc["verdict"])
    return 0 if witness is not None else 1


def cmd_gen(args) -> int:
    inst = _load_instance(args)
    if args.out:
        write_instance(inst, args.out)
        _note(args, f"wrote {inst.label} to {args.out}")
    else:
        g = inst.graph
        print(f"c {inst.label}")
        print(f"p fairdiv {g.num_vertices} {g.num_edges} {inst.num_agents}")
        for u, v in g.edges:
            print(f"e {u + 1} {v + 1}")
    return 0


def cmd_bench(args) -> int:
    rows = [("label", "m", "edges", "n", "algorithm", "iterations", "moves", "micros")]
    rng_seed = args.seed
    for m in (10, 20, 40, 80):
        for n, solver, tag in (
            (2, lambda g: greedy_two_agents(g), "hillclimb-2"),
            (3, lambda g: solve_ef1_wts(g, 3), "ef1-wts"),
            (5, lambda g: solve_ef1_ts_n4(g, 5), "ef1-ts"),
        ):
            inst = gen_random_graph(m, 0.3, rng_seed + m * 7 + n)
            t0 = time.perf_counter()
            _, trace = solver(inst.graph)
            micros = round(1e6 * (time.perf_counter() - t0))
            rows.append(
                (
                    inst.label,
                    m,
                    inst.graph.num_edges,
                    n,
                    tag,
                    trace.iterations,
                    len(trace.welfare_history),
                    micros,
                )
            )
    for m in (10, 20, 40):
        inst = gen_random_graph(m, 0.2, rng_seed + m)
        if not inst.graph.is_forest():
            continue
        t0 = time.perf_counter()
        _, trace = solve_forest_ef1_so(inst.graph, 3)
        micros = round(1e6 * (time.perf_counter() - t0))
        rows.append(
            (inst.label, m, inst.graph.num_edges, 3, "forest-peel",
             trace.iterations, len(trace.welfare_history), micros)
        )
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def cmd_repro(args) -> int:
    results = repro.run_all(only=args.only)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutfair",
        description="fair division of graph vertices under cut-valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the strongest applicable solver")
    _add_source_flags(p)
    p.add_argument(
        "--goal",
        default="ef1-wts",
        choices=[g.value for g in SolveGoal],
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", help="run fairness/efficiency checkers")
    _add_source_flags(p)
    p.add_argument("--alloc", required=True, help="allocation JSON path")
    p.add_argument("--pred", default="ef1", help="comma-separated predicates")
    p.add_argument("--alpha", default="1", help="scale factor p/q for alpha_ef1")
    p.add_argument("--max-states", type=int, default=_default_max_states())
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive search over all allocations")
    _add_source_flags(p)
    p.add_argument("--pred", default="ef1", help="comma-separated predicates")
    p.add_argument("--alpha", default="1", help="scale factor p/q for alpha_ef1")
    p.add_argument("--count", action="store_true", help="count matches instead")
    p.add_argument(
        "--complete-partial",
        action="store_true",
        help="test whether the instance's partial allocation extends to EF1",
    )
    p.add_argument("--symmetry", action="store_true", help="pin vertex 0 to bundle 0")
    p.add_argument("--max-states", type=int, default=_default_max_states())
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="emit an instance file")
    _add_source_flags(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="solver timing sweep as CSV")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("repro", help="run the full reproduction suite")
    p.add_argument(
        "--only", default=None, help="run one criterion, by number (e.g. 1) or name (criterion_1)"
    )
    p.set_defaults(fn=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ParseError, oracle.CapExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverInvariantError, BudgetExceededError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
