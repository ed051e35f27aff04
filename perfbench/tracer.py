"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions and methods of each cutfair
layer module and rebinds every name in every cutfair module that refers to
the original object, so calls are seen where their callers resolve them (the
oracle calls ``cutfair.oracle.scan``, not ``_kernel.scan``).  A wrapped call
becomes a span ``[name, start, end, parent, info]`` kept in memory; a layer's
self time is the duration of its spans minus the durations of their direct
child spans.  Methods called millions of times per pass only count calls, so
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    ("graph", "cutfair.graph"),
    ("valuation", "cutfair.valuation"),
    ("allocation", "cutfair.allocation"),
    ("algorithms", "cutfair.algorithms"),
    ("oracle", "cutfair.oracle"),
)
KERNEL_SPAN = "kernel.scan"
COUNT_ONLY = {
    "graph.Graph.degree",
    "valuation.BundleStats.marginal_add",
    "valuation.BundleStats.marginal_remove",
    "valuation.BundleStats.classify_item",
    "valuation.BundleStats.value",
}
SOLVERS = ("greedy_two_agents", "solve_ef1_ts_n4", "solve_ef1_wts", "solve_forest_ef1_so")
ORACLE_QUERIES = (
    "oracle_exists",
    "oracle_count",
    "oracle_find_all",
    "max_welfare",
    "oracle_pareto",
    "oracle_leximin",
    "oracle_max_cut",
    "oracle_completable_ef1",
)

NAME, START, END, PARENT, INFO = range(5)


def _labelled_states(sig):
    """Hook for oracle queries: n^(vertices not fixed by a partial allocation)."""

    def info(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        g, n, partial = bound["g"], bound.get("n", 2), bound.get("partial")
        fixed = len(partial.assigned()) if partial is not None else 0
        return n ** (g.num_vertices - fixed)

    return info


def _kernel_info(args, kwargs, result):
    first_only, collect = args[9], args[10]
    mode = "collect" if collect else "first_only" if first_only else "count"
    return mode, result["states"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # the current pass; parents index into it
        self.archive: list[list[list]] = []  # spans of every finished pass
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = [0]
        self._cells[name] = cell

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        info = _labelled_states(inspect.signature(fn)) if name.split(".")[-1] in ORACLE_QUERIES else None
        return self._span(name, fn, info)

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them across cutfair."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, modname in LAYERS:
            module = sys.modules[modname]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        scan = sys.modules["cutfair.oracle._kernel"].scan
        wrapped[id(scan)] = (scan, self._span(KERNEL_SPAN, scan, _kernel_info))
        for modname, module in list(sys.modules.items()):
            if modname != "cutfair" and not modname.startswith("cutfair."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, hit[1])

    def _wrap_methods(self, layer, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(qual, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(qual, attr)
            else:
                continue
            self._undo.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Spans and call counts since the last take; both restart from empty."""
        spans = list(self.spans)
        self.spans.clear()
        self.archive.append(spans)
        counts = Counter()
        for name, cell in self._cells.items():
            counts[name], cell[0] = cell[0], 0
        return spans, counts

    # -- analysis ---------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span: pass, id, parent, name, start, end, info.
        Numbered in the order they were taken: run.py takes its traced build of
        the inputs first, as pass 0."""
        with open(path, "w") as handle:
            handle.write("pass\tid\tparent\tname\tstart_s\tend_s\tinfo\n")
            for k, spans in enumerate(self.archive):
                for i, (name, start, end, parent, info) in enumerate(spans):
                    handle.write(f"{k}\t{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{info}\n")


def pass_metrics(spans, counts, moves_outside_stats) -> dict:
    """Per-layer numbers for one traced pass.

    ``moves_outside_stats`` adds solver moves that never touch BundleStats
    (greedy_two_agents keeps its own side array and reports its flips).
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    total = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    moves = moves_outside_stats
    states = Counter()
    kernel_time = defaultdict(float)
    labelled = 0
    oracle_time = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        own = dur[i] - child[i]
        total[name] += dur[i]
        self_by_name[name] += own
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
        if name == "valuation.BundleStats.apply_move" and s[PARENT] >= 0:
            if spans[s[PARENT]][NAME].split(".")[-1] in SOLVERS:
                moves += 1
        if name == KERNEL_SPAN:
            mode, visited = s[INFO]
            states[mode] += visited
            kernel_time[mode] += dur[i]
        if s[INFO] is not None and name.startswith("oracle."):
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if not parent.startswith("oracle."):
                labelled += s[INFO]
                oracle_time += dur[i]
    calls.update(counts)
    solver_time = sum(total[f"algorithms.{s}"] for s in SOLVERS)
    out = {
        "graph.degree.calls": calls["graph.Graph.degree"],
        "graph.from_edges.s": total["graph.Graph.from_edges"],
        "graph.self_s": layer_self["graph"],
        "valuation.apply_move.calls": calls["valuation.BundleStats.apply_move"],
        "valuation.apply_move.self_s": self_by_name["valuation.BundleStats.apply_move"],
        "valuation.min_removal_value.calls": calls["valuation.BundleStats.min_removal_value"],
        "valuation.min_removal_value.self_s": self_by_name["valuation.BundleStats.min_removal_value"],
        "valuation.marginal_add.calls": calls["valuation.BundleStats.marginal_add"],
        "valuation.marginal_remove.calls": calls["valuation.BundleStats.marginal_remove"],
        "valuation.from_bundles.self_s": self_by_name["valuation.BundleStats.from_bundles"],
        "valuation.self_s": layer_self["valuation"],
        "allocation.check_ef1.s": total["allocation.check_ef1"],
        "allocation.check_ts.s": total["allocation.check_ts"],
        "allocation.check_wts.s": total["allocation.check_wts"],
        "allocation.self_s": layer_self["allocation"],
    }
    for solver in SOLVERS:
        out[f"algorithms.{solver}.s"] = total[f"algorithms.{solver}"]
    out["algorithms.self_s"] = layer_self["algorithms"]
    out["algorithms.moves"] = moves
    out["algorithms.us_per_move"] = 1e6 * solver_time / moves if moves else 0.0
    for query in ORACLE_QUERIES:
        out[f"oracle.{query}.s"] = total[f"oracle.{query}"]
    out["oracle.self_s"] = layer_self["oracle"]
    out["oracle.labelled_states_per_s"] = labelled / oracle_time if oracle_time else 0.0
    out["kernel.calls"] = calls[KERNEL_SPAN]
    out["kernel.states"] = sum(states.values())
    out["kernel.self_s"] = layer_self["kernel"]
    for mode in ("first_only", "count", "collect"):
        t = kernel_time[mode]
        out[f"kernel.states_per_s.{mode}"] = states[mode] / t if t else 0.0
    return out


def scaling_exponent(t_small: float, t_large: float) -> float:
    """log2 of the time ratio between an input and one twice its size."""
    return math.log2(t_large / t_small) if t_small > 0 and t_large > 0 else 0.0


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each time across passes; counts are kept from the first pass
    (run.py reports the run as not correct when another pass counted differently)."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return out
