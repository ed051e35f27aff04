"""The three workloads: fixed op lists over seeded inputs.

An op is one solver call, one checker call or one oracle query.  Its ``call``
looks the function up on the cutfair module at call time, so the tracer's
rebinding reaches it; its ``check`` verifies the output with the benchmark's
own verifiers (``checks.py``) and runs outside the timed region.  Ops that
need an earlier output (a checker needs its solver's allocation) read it from
the pass's ``outs`` dict under the earlier op's ``key``.

Why these workloads:

- ``solve_scale``: solvers, BundleStats and checkers on graphs with thousands
  of vertices and up to 200 bundles, where per-move rescans of all vertices
  dominate.  No oracle call.
- ``oracle_exhaustive``: whole oracle queries on small graphs, covering every
  kernel path (early exit, full count, collect mode for PO/SO/leximin, fixed
  vertices, one-index rescans).  No solver call.
- ``sweep_small``: the calls the repro sweeps make, thousands of them on
  graphs of at most 30 vertices, where per-call fixed cost dominates; it
  shows set-up cost that an asymptotic speed-up adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from typing import Callable

import checks
import inputs

ORACLE_CONFIRM_CAP = 300_000  # largest n^m that the n >= 4 sweep confirms by oracle


@dataclass
class Op:
    label: str
    call: Callable[[dict], object]
    check: Callable[[object, dict], bool]
    key: str = ""
    flips: bool = False  # output is greedy_two_agents's; its trace counts the moves


@dataclass
class Workload:
    name: str
    graphs: dict[str, tuple] = field(default_factory=dict)  # label -> (m, edges)
    ops: list[Op] = field(default_factory=list)


def bundles_of(alloc):
    return [set(b) for b in alloc.bundles]


def complete_with(graph, alloc, n, predicates) -> bool:
    bundles = bundles_of(alloc)
    return len(bundles) == n and checks.satisfies(graph, bundles, predicates)


class Builder:
    """Collects graphs (built as cutfair Graphs) and ops for one workload."""

    def __init__(self, cf, name):
        self.cf = cf
        self.wl = Workload(name)

    def graph(self, label, graph):
        self.wl.graphs[label] = graph
        return self.cf.Graph.from_edges(*graph)

    def op(self, label, call, check, key="", flips=False):
        self.wl.ops.append(Op(label, call, check, key, flips))

    def solve(self, key, solver, raw, g, n, predicates, extra_check=None, label=None):
        """A solver op plus one timed op per checker of its guarantee."""
        alg, alc = self.cf.algorithms, self.cf.allocation
        args = (g,) if solver == "greedy_two_agents" else (g, n)
        label = label or key
        verified = predicates + ("nonempty",) if solver == "solve_ef1_wts" else predicates

        def check(out, outs):
            alloc = out[0]
            ok = complete_with(raw, alloc, n, verified)
            return ok and (extra_check is None or extra_check(alloc, outs))

        self.op(f"{solver}({label})", lambda outs: getattr(alg, solver)(*args), check, key,
                flips=solver == "greedy_two_agents")
        for pred in predicates:
            checker = "check_" + pred

            def verdict(out, outs, pred=pred):
                return out.holds is checks.Cut(raw, bundles_of(outs[key][0])).verdict(pred)

            self.op(f"{checker}({label})", lambda outs, c=checker: getattr(alc, c)(outs[key][0], g), verdict)


def warmup(cf) -> list[Op]:
    """One small call of each function the workloads time, on the fig1 tree."""
    raw = inputs.fig1()
    b = Builder(cf, "warmup")
    g = b.graph("fig1", raw)
    b.solve("w2", "greedy_two_agents", raw, g, 2, ("ef", "ts"))
    b.solve("w4", "solve_ef1_ts_n4", raw, g, 4, ("ef1", "ts"))
    b.solve("w3", "solve_ef1_wts", raw, g, 3, ("ef1", "wts"))
    b.solve("wf", "solve_forest_ef1_so", raw, g, 3, ("ef1",))
    o = cf.oracle
    q = o.OracleQuery.of({"ef1", "po"}, threads=1)
    for label, call in (
        ("exists", lambda outs: o.oracle_exists(g, 2, q)),
        ("count", lambda outs: o.oracle_count(g, 2, q)),
        ("find_all", lambda outs: o.oracle_find_all(g, 2, q)),
        ("pareto", lambda outs: o.oracle_pareto(outs["w2"][0], g, 2)),
        ("leximin", lambda outs: o.oracle_leximin(g, 2)),
        ("max_welfare", lambda outs: o.max_welfare(g, 2)),
        ("max_cut", lambda outs: o.oracle_max_cut(g)),
    ):
        b.op(label, call, lambda out, outs: True)
    return b.wl.ops


def solve_scale(cf, seed: int) -> Workload:
    rng = inputs.SplitMix64(seed)
    b = Builder(cf, "solve_scale")
    raw = {
        "R500": inputs.random_graph(rng.fork(), 500, 2000),
        "R1k": inputs.random_graph(rng.fork(), 1000, 4000),
        "R2k": inputs.random_graph(rng.fork(), 2000, 8000),
        "F1k": inputs.random_forest(rng.fork(), 1000, 4),
        "F2k": inputs.random_forest(rng.fork(), 2000, 4),
        "fig3:1601": inputs.fig3(1601),
    }
    g = {label: b.graph(label, graph) for label, graph in raw.items()}
    b.solve("greedy", "greedy_two_agents", raw["R2k"], g["R2k"], 2, ("ef", "ts"), label="R2k")
    for label, n in (("R2k", 4), ("R500", 50), ("R1k", 100), ("fig3:1601", 4)):
        b.solve(f"{label},{n}", "solve_ef1_ts_n4", raw[label], g[label], n, ("ef1", "ts"))
    b.solve("R2k,3", "solve_ef1_wts", raw["R2k"], g["R2k"], 3, ("ef1", "wts"))
    for label in ("F1k", "F2k"):
        b.solve(f"{label},4", "solve_forest_ef1_so", raw[label], g[label], 4, ("ef1", "so"))
    return b.wl


def _same(alloc, bundles) -> bool:
    return alloc is not None and bundles_of(alloc) == [set(x) for x in bundles]


def _first(alloc, truth, predicates) -> bool:
    """The oracle's witness is the first matching allocation, or None when none matches."""
    found = truth.matching(predicates)
    return _same(alloc, truth.allocation(found[0])) if found else alloc is None


# Known answers on the paper's named instances.
APPENDIX_B4_WITNESS = [{0}, {1}, {2, 3, 4, 5}, {6, 7, 8, 9}]  # lex-first EF1+SO, vertex 0 pinned
FIG1_TS_DOMINATED = [{0, 4}, {1, 5}, {2, 6}, {3, 7}]  # transfer-stable yet Pareto-dominated ...
FIG1_DOMINATOR = [{0, 5, 6}, {4}, {1, 2}, {3, 7}]  # ... by this allocation
FIG1_SO_FIVE = [{0, 5, 6, 7}, {1}, {2}, {3}, {4}]  # cuts every edge, so nothing dominates it


def oracle_exhaustive(cf, seed: int) -> Workload:
    rng = inputs.SplitMix64(seed)
    b = Builder(cf, "oracle_exhaustive")
    o, alc = cf.oracle, cf.allocation
    Q = o.OracleQuery.of

    # criterion 1: on the two-hub graphs EF1+TS is absent and EF1+wTS present;
    # an enumeration of all 3^(d+2) assignments, run once, gives the exact answers
    for d in (3, 5):
        raw = inputs.fig3(d)
        g = b.graph(f"fig3:d={d}", raw)
        truth = cache(lambda raw=raw: checks.Exhaustive(raw, 3, ("ef1", "ts", "wts")))
        for preds, present in ((("ef1", "ts"), False), (("ef1", "wts"), True)):
            q = Q(set(preds), threads=1)
            b.op(
                f"oracle_exists(fig3:d={d},{'+'.join(preds)})",
                lambda outs, g=g, q=q: o.oracle_exists(g, 3, q),
                lambda out, outs, truth=truth, preds=preds, present=present: (
                    _first(out, truth(), preds) and bool(truth().matching(preds)) is present
                ),
            )
    # g, q and truth are the last loop's: fig3:d=5 with ef1+wts
    b.op(
        "oracle_find_all(fig3:d=5,ef1+wts)",
        lambda outs, g=g, q=q: o.oracle_find_all(g, 3, q),
        lambda out, outs, truth=truth: [bundles_of(a) for a in out]
        == [truth().allocation(i) for i in truth().matching(("ef1", "wts"))],
    )

    raw_b = inputs.appendix_b(4)
    gb = b.graph("appendixB:n=4", raw_b)
    qb = Q({"ef1", "so"}, symmetry=True, threads=1)
    b.op(
        "oracle_exists(appendixB:n=4,ef1+so,symmetry)",
        lambda outs: o.oracle_exists(gb, 4, qb),
        lambda out, outs: (
            _same(out, APPENDIX_B4_WITNESS)
            and checks.satisfies(raw_b, APPENDIX_B4_WITNESS, ("ef1",))
            and checks.Cut(raw_b, APPENDIX_B4_WITNESS).welfare == 2 * len(raw_b[1])
        ),
    )

    raw_a, partial = inputs.appendix_a()
    ga = b.graph("appendixA", raw_a)
    pa = alc.Allocation.of(partial)

    def no_ef1_completion():
        missing = sorted(set(range(raw_a[0])) - set().union(*partial))
        for assign in product(range(4), repeat=len(missing)):
            bundles = [set(x) for x in partial]
            for v, bundle in zip(missing, assign):
                bundles[bundle].add(v)
            if checks.Cut(raw_a, bundles).ef1():
                return False
        return checks.Cut(raw_a, partial).ef1()

    b.op(
        "oracle_completable_ef1(appendixA)",
        lambda outs: o.oracle_completable_ef1(pa, ga, 4),
        lambda out, outs: out is False and no_ef1_completion(),
    )

    raw1 = inputs.fig1()
    g1 = b.graph("fig1", raw1)
    a4, a5 = alc.Allocation.of(FIG1_TS_DOMINATED), alc.Allocation.of(FIG1_SO_FIVE)
    b.op(
        "oracle_pareto(fig1,n=4)",
        lambda outs: o.oracle_pareto(a4, g1, 4),
        lambda out, outs: out is False and checks.dominates(
            checks.sorted_values(raw1, FIG1_DOMINATOR), checks.sorted_values(raw1, FIG1_TS_DOMINATED)
        ),
    )
    b.op(
        "oracle_pareto(fig1,n=5)",
        lambda outs: o.oracle_pareto(a5, g1, 5),
        lambda out, outs: out is True and checks.Cut(raw1, FIG1_SO_FIVE).cuts_every_edge(),
    )

    raw10 = inputs.random_graph(rng.fork(), 10, 18)  # G(10, 0.4) with the edge count fixed
    g10 = b.graph("G10", raw10)
    truth10 = cache(lambda: checks.Exhaustive(raw10, 3, ("ef1", "ts")))  # all 3^10, once
    b.op(
        "oracle_count(G10,ef1)",
        lambda outs: o.oracle_count(g10, 3, Q({"ef1"}, threads=1)),
        lambda out, outs: out == len(truth10().matching(("ef1",))),
    )
    b.op(
        "oracle_exists(G10,ef1+ts)",
        lambda outs: o.oracle_exists(g10, 3, Q({"ef1", "ts"}, threads=1)),
        lambda out, outs: _first(out, truth10(), ("ef1", "ts")),
    )
    b.op(
        "oracle_count(G10,ef1+po)",
        lambda outs: o.oracle_count(g10, 3, Q({"ef1", "po"}, threads=1)),
        lambda out, outs: out == len(truth10().matching(("ef1", "po"))),
    )
    b.op(
        "oracle_leximin(G10)",
        lambda outs: o.oracle_leximin(g10, 3, threads=1),
        lambda out, outs: _same(out, truth10().leximin()),
    )
    b.op(
        "max_welfare(G10)",
        lambda outs: o.max_welfare(g10, 3),
        lambda out, outs: out == truth10().max_welfare(),
    )

    raw14 = inputs.random_graph(rng.fork(), 14, 36)
    g14 = b.graph("G14", raw14)
    best14 = cache(lambda: checks.max_cut(raw14))  # brute force once, in the first check
    b.op(
        "oracle_max_cut(G14)",
        lambda outs: o.oracle_max_cut(g14),
        lambda out, outs: complete_with(raw14, out[0], 2, ())
        and 2 * out[1] == checks.Cut(raw14, bundles_of(out[0])).welfare == 2 * best14(),
    )
    return b.wl


def sweep_small(cf, seed: int) -> Workload:
    """The repro criteria 2, 3, 5 and 6 sweeps, on the benchmark's own inputs.

    Sizes cycle through the repro ranges instead of being drawn at random:
    the oracle's cost grows exponentially with the vertex count, so a random
    size mix would make a pass's cost depend on how many large graphs the
    seed happened to draw.  Edges still come from the seed.
    """
    rng = inputs.SplitMix64(seed)
    b = Builder(cf, "sweep_small")
    o = cf.oracle
    confirm = o.OracleQuery.of({"ef1", "ts"}, max_states=ORACLE_CONFIRM_CAP, threads=1)

    r = rng.fork()
    for t in range(1000):
        n = 4 + t % 3
        m = n + t // 3 % (15 - n)
        raw = inputs.random_density_graph(r, m)
        g = b.graph(f"ts{t}", raw)
        b.solve(f"ts{t}", "solve_ef1_ts_n4", raw, g, n, ("ef1", "ts"))
        if n**m <= ORACLE_CONFIRM_CAP:
            b.op(
                f"oracle_exists(ts{t},ef1+ts)",
                lambda outs, g=g, n=n: o.oracle_exists(g, n, confirm),
                lambda out, outs, raw=raw, n=n: out is not None and complete_with(raw, out, n, ("ef1", "ts")),
            )
    r = rng.fork()
    for t in range(1000):
        n = 2 + t % 5
        m = n + t // 5 % (15 - n)
        raw = inputs.random_density_graph(r, m)
        b.solve(f"wts{t}", "solve_ef1_wts", raw, b.graph(f"wts{t}", raw), n, ("ef1", "wts"))
    r = rng.fork()
    for t in range(500):
        raw = inputs.random_density_graph(r, 2 + t % 13)
        g = b.graph(f"two{t}", raw)
        key = f"two{t}"
        b.solve(key, "greedy_two_agents", raw, g, 2, ("ef", "ts"))
        b.op(
            f"oracle_max_cut({key})",
            lambda outs, g=g: o.oracle_max_cut(g),
            lambda out, outs, raw=raw: complete_with(raw, out[0], 2, ())
            and 2 * out[1] == checks.Cut(raw, bundles_of(out[0])).welfare == 2 * checks.max_cut(raw),
        )
    r = rng.fork()
    for t in range(500):
        n = 2 + t % 4
        trees = 1 + t // 4 % 3
        lo = max(n, 2 * trees)
        m = lo + t // 12 % (31 - lo)
        raw = inputs.random_forest(r, m, trees)
        b.solve(f"forest{t}", "solve_forest_ef1_so", raw, b.graph(f"forest{t}", raw), n, ("ef1",),
                extra_check=lambda alloc, outs, raw=raw: checks.Cut(raw, bundles_of(alloc)).cuts_every_edge())
    return b.wl


WORKLOADS = {w.__name__: w for w in (solve_scale, oracle_exhaustive, sweep_small)}
