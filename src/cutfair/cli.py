"""Command-line interface.

Exit codes: 0 success / predicate holds, 1 predicate fails or witness absent,
2 usage or input error (including a file that cannot be read or written),
3 internal error (a bug, never expected): a failed invariant or any
ValueError that no input check caught.
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
)
from .allocation import bundle_values
from .instances import (
    Instance,
    ParseError,
    format_instance,
    from_label,
    read_allocation,
    read_instance,
    write_instance,
)


class UsageError(ValueError):
    pass


def _max_states(args) -> int:
    """--max-states, else FAIRDIV_MAX_STATES, else the oracle's default cap."""
    if args.max_states is not None:
        source, cap = "--max-states", args.max_states
    else:
        env = os.environ.get("FAIRDIV_MAX_STATES")
        if not env:
            return oracle.DEFAULT_MAX_STATES
        try:
            source, cap = "FAIRDIV_MAX_STATES", int(env)
        except ValueError:
            raise UsageError(f"FAIRDIV_MAX_STATES must be an integer, got {env!r}") from None
    if cap < 0:
        raise UsageError(f"{source} must not be negative, got {cap}")
    return cap


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--label", help="named instance, e.g. fig3:d=5 or cycle:6")
    src.add_argument("--file", help="instance file path")
    p.add_argument("-n", type=int, default=None, help="override the agent count")
    p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p.add_argument("--out", help="write the JSON document here instead of stdout")


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pred", default="ef1", help=f"comma-separated predicates: {', '.join(oracle.PREDICATES)}"
    )
    p.add_argument("--alpha", default="1", help="scale factor p/q in (0, 1] for alpha_ef1")
    p.add_argument(
        "--max-states",
        type=int,
        help=f"state cap (default: FAIRDIV_MAX_STATES, else {oracle.DEFAULT_MAX_STATES})",
    )


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
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise UsageError(str(exc)) from exc
    else:
        print(text)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _query(args) -> oracle.OracleQuery:
    """The --pred, --alpha and --max-states flags as an oracle query, which
    validates the predicate names and alpha."""
    names = {p.strip().replace("-", "_") for p in args.pred.split(",") if p.strip()}
    if not names:
        raise UsageError("--pred needs at least one predicate")
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--alpha must be a fraction p/q, got {args.alpha!r}") from exc
    try:
        return oracle.OracleQuery.of(names, alpha=alpha, max_states=_max_states(args))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    g, n = inst.graph, inst.num_agents
    if n > g.num_vertices:
        raise UsageError(f"{n} bundles exceed the {g.num_vertices} vertices")
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
    if any(not 0 <= o < g.num_vertices for b in a.bundles for o in b):
        raise UsageError("allocation references vertices outside the instance")
    query = _query(args)
    names = sorted(query.predicates)
    need_complete = [name for name in names if oracle.PREDICATES[name].complete]
    if need_complete and not a.is_complete(g):
        raise UsageError(f"{', '.join(need_complete)} need a complete allocation")
    reports = [oracle.PREDICATES[name].check(a, g, query) for name in names]
    all_hold = all(rep.holds is True for rep in reports)
    _emit({"instance": inst.label, "reports": [json.loads(rep.to_json()) for rep in reports]}, args)
    _note(args, "all hold" if all_hold else "some predicates fail")
    return 0 if all_hold else 1


def cmd_oracle(args) -> int:
    inst = _load_instance(args)
    g, n = inst.graph, inst.num_agents
    t0 = time.perf_counter()
    if args.complete_partial:
        if inst.partial is None:
            raise UsageError("this instance carries no partial allocation")
        if inst.partial.n != n:
            raise UsageError(f"the partial allocation has {inst.partial.n} bundles, not {n}")
        found = oracle.oracle_completable_ef1(inst.partial, g, n, max_states=_max_states(args))
        note = "completable" if found else "not-completable"
        doc = {"query": "complete-partial-ef1", "verdict": note}
    else:
        query = _query(args)
        doc = {"query": sorted(query.predicates)}
        if args.count:
            found = oracle.oracle_count(g, n, query)
            doc["verdict"] = found
            note = f"{found} matching allocations"
        else:
            witness = oracle.oracle_exists(g, n, query)
            found = witness is not None
            note = "witness" if found else "absent"
            doc.update(verdict=note, witness=witness.to_lists() if found else None)
    doc["elapsed_ms"] = round(1000 * (time.perf_counter() - t0), 1)
    _emit(doc, args)
    _note(args, note)
    return 0 if found else 1


def cmd_gen(args) -> int:
    inst = _load_instance(args)
    if args.out:
        try:
            write_instance(inst, args.out)
        except OSError as exc:
            raise UsageError(str(exc)) from exc
        _note(args, f"wrote {inst.label} to {args.out}")
    else:
        print(format_instance(inst), end="")
    return 0


def cmd_repro(args) -> int:
    try:
        repro.select(args.only)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    _add_query_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("oracle", help="exhaustive search over all allocations")
    _add_source_flags(p)
    _add_query_flags(p)
    p.add_argument("--count", action="store_true", help="count matches instead")
    p.add_argument(
        "--complete-partial",
        action="store_true",
        help="test whether the instance's partial allocation extends to EF1",
    )
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("gen", help="emit an instance file")
    _add_source_flags(p)
    p.set_defaults(fn=cmd_gen)

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
    except (UsageError, ParseError, oracle.CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverInvariantError, BudgetExceededError, AssertionError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
