"""cutfair benchmark: one workload per run, every output verified.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_scale --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed
or built.  All load comes from this one process and thread: every oracle
query runs with ``threads=1``.  A run repeats rounds while the next one
still fits in ``--seconds``, at least once.  A round sets up (fresh import
of cutfair, input generation, ``Graph.from_edges``, warm-up) and then runs
the workload's fixed op list over what it built (a pass).

Times are CPU time of this process (``CLOCK``), scaled to a reference speed
(``scales``): on a shared host the CPU speed moves by up to about 1.9x in
phases of seconds to minutes, which no run is long enough to average out.
Each pass therefore also times a yardstick, a fixed task of the benchmark's
own that calls no cutfair code, and its times are multiplied by the
yardstick's nominal time over its fastest time around that pass.
``setup_s`` is the fastest set-up, and each op's latency its fastest over
the passes: ``ops_total_s`` sums them over the op list, and
``op_p50_ms``/``op_p99_ms`` are percentiles over the ops.  A set-up per round
spreads the set-ups over the run, as the passes are, and builds each round's
inputs only after the last round's are freed.  The human-readable lines
also give the times as measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` builds the
inputs once more under the tracer, then runs each round's op list untraced
and then traced, so that both see the same drift in CPU speed, and reports the
per-layer metrics: layer times are medians over traced passes, each pass's
scaled as its ops are, except that ``graph.from_edges.s`` adds the traced
build's ``Graph.from_edges`` time to the pass median; counts are per pass,
and a run whose counts differ between passes is reported as not correct.
Units come from ``BENCHMARK.json``.  Human-readable lines come first; the
last line of standard output is one JSON object.  A record of the run
(environment, input digests, metrics) and, when traced, every span go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
# Ops and set-ups are timed in CPU time of this process (the tracer's spans in
# wall time).  The load is single-threaded and does no I/O, so this is the wall
# time the calls take less the time the process waited for a CPU: other
# processes, and the host's steal time, which the kernel leaves out of a
# task's CPU time.
CLOCK = time.process_time
# Reported times are scaled to the speed at which the yardstick (``slowness``)
# takes YARDSTICK_S: the CPU time the program needs on a machine as fast as
# the one the baseline was taken on (see baseline.json), when nothing else
# slows it.
YARDSTICK_GRAPH = inputs.fig1()
YARDSTICK_S = 0.0036  # the yardstick's fastest CPU time on the baseline's machine
YARDSTICK_REPEATS = 5  # yardstick tasks before and after each pass
MAX_CORRECTION = 1.25  # most a pass is scaled down beyond the run's median


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# op labels whose untraced latencies give the two scaling exponents (small, large)
SCALING = {
    "algorithms.ef1_ts_n4.scaling_exp": ("solve_ef1_ts_n4(R500,50)", "solve_ef1_ts_n4(R1k,100)"),
    "algorithms.forest.scaling_exp": ("solve_forest_ef1_so(F1k,4)", "solve_forest_ef1_so(F2k,4)"),
}


def slowness() -> float:
    """CPU time of the yardstick over YARDSTICK_S.

    The yardstick is a fixed task of the benchmark's own that calls no
    cutfair code: every 2-allocation of the fig1 graph, each checked for EF1
    and TS.  It runs with the collector off, so the size of the program's
    heap does not change its time.
    """
    gc.disable()
    try:
        t0 = CLOCK()
        checks.Exhaustive(YARDSTICK_GRAPH, 2, ("ef1", "ts"))
        return (CLOCK() - t0) / YARDSTICK_S
    finally:
        gc.enable()


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # CPU seconds, as measured
    slowness: list[float] = field(default_factory=list)  # of the yardstick tasks around this pass
    failed: int = 0
    flips: int = 0
    outputs: list = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.latencies)


def scales(passes) -> list[float]:
    """Per pass, the factor from measured times to times at the reference speed.

    It is one over the least slowness of the pass and of its two neighbours,
    and at least the run's median factor / MAX_CORRECTION.  Now and then the
    yardstick is slowed more than the ops are, and a pass so over-corrected
    would read too fast; a pass under-corrected reads slow, and the fastest
    reading of each op, which is what is reported, passes it over.
    """
    least = [min(p.slowness) for p in passes]
    raw = [1 / min(least[max(0, i - 1) : i + 2]) for i in range(len(passes))]
    floor = statistics.median(raw) / MAX_CORRECTION
    return [max(k, floor) for k in raw]


def canonical(out):
    """A comparable form of an op's output, for pass-to-pass equality."""
    if hasattr(out, "bundles"):
        return tuple(tuple(sorted(b)) for b in out.bundles)
    if hasattr(out, "holds"):
        return out.holds, len(out.violations)
    if hasattr(out, "case_history"):
        return out.iterations, tuple(out.case_history)
    if isinstance(out, (list, tuple)):
        return tuple(canonical(x) for x in out)
    return out


UNVERIFIED = object()  # marks an op whose output failed, so later passes check it afresh


def run_pass(ops, reference=None) -> PassResult:
    """Run every op once, timing only the call; verify each output afterwards.

    Without a reference pass, each output goes through its op's check.  With
    one, it must equal the reference's output for that op, which passed the
    check; where the reference's op failed, the output is checked afresh.
    An op fails when it raises or its output is rejected.  The yardstick
    runs before the first op and after the last.
    """
    res = PassResult()
    outs: dict = {}
    clock = CLOCK
    res.slowness.extend(slowness() for _ in range(YARDSTICK_REPEATS))
    gc.collect()
    for k, op in enumerate(ops):
        t0 = clock()
        try:
            out = op.call(outs)
        except Exception:  # a raising op is a failed op; the run goes on
            res.latencies.append(clock() - t0)
            res.failed += 1
            res.outputs.append(UNVERIFIED)
            print(f"op {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        res.latencies.append(clock() - t0)
        if op.key:
            outs[op.key] = out
        canon = canonical(out)
        if reference is not None and reference.outputs[k] is not UNVERIFIED:
            ok = reference.outputs[k] == canon
        else:
            try:
                ok = bool(op.check(out, outs))
            except Exception:
                print(f"check of {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
                ok = False
        res.outputs.append(canon if ok else UNVERIFIED)
        if not ok:
            res.failed += 1
            print(f"op {op.label}: output failed verification", file=sys.stderr)
        if op.flips:
            res.flips += out[1].iterations
    res.slowness.extend(slowness() for _ in range(YARDSTICK_REPEATS))
    return res


def measure(workload: str, seed: int, seconds: float, after_pass=None):
    """Rounds while the next one, predicted from the last, ends within ``seconds``.

    The first pass is the reference of the later ones.  ``after_pass(wl,
    passes)`` runs after each pass, on the round's workload.  Returns the
    last round's cutfair and workload, every set-up time and every pass.
    """
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        cf = wl = None  # free the last round's inputs before building the next
        cf, wl, elapsed = setup(workload, seed)
        setups.append(elapsed)
        ref = passes[0] if passes else None
        res = run_pass(wl.ops, ref)
        if ref is not None:
            res.outputs = []  # only the reference's outputs are compared against; free the rest
        passes.append(res)
        if after_pass is not None:
            after_pass(wl, passes)
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            return cf, wl, setups, passes


def fresh_import():
    """Import cutfair from the checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cutfair" or n.startswith("cutfair.")]:
        del sys.modules[name]
    cf = importlib.import_module("cutfair")
    importlib.import_module("cutfair.oracle")
    if Path(cf.__file__).resolve().parent != SRC / "cutfair":
        raise SystemExit(f"imported cutfair from {cf.__file__}, not from {SRC}")
    return cf


def setup(workload: str, seed: int):
    """Import, generate inputs, build graphs and warm up; return the workload and the time.

    The cyclic collector is off meanwhile: most of what a set-up allocates is
    the benchmark's own op list, and collections of it cost a varying share
    of the time that is not the program's.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = CLOCK()
        cf = fresh_import()
        wl = workloads.WORKLOADS[workload](cf, seed)
        warm_outs: dict = {}
        for op in workloads.warmup(cf):
            out = op.call(warm_outs)
            if op.key:
                warm_outs[op.key] = out
        return cf, wl, CLOCK() - t0
    finally:
        gc.enable()


def environment(cf, traced: bool) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "kernel": cf.oracle.KERNEL_NAME,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "traced": traced,
    }


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def best_latencies(passes) -> list[float]:
    """Each op's fastest latency over the passes, at the reference speed."""
    scaled = ([t * k for t in p.latencies] for p, k in zip(passes, scales(passes)))
    return [min(lat) for lat in zip(*scaled)]


def end_to_end(setups, passes) -> tuple[dict, dict]:
    """Every time at the reference speed; a set-up is scaled by its round's pass."""
    best = best_latencies(passes)
    factors = scales(passes)
    metrics = {
        "setup_s": min(t * k for t, k in zip(setups, factors)),
        "ops_total_s": sum(best),
        "op_p50_ms": 1000 * statistics.median(best),
        "op_p99_ms": 1000 * percentile(best, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p99 = metrics["op_p99_ms"] / 1000
    totals = [p.total for p in passes]
    notes = {
        "setup_s": f"fastest of {len(setups)} set-ups; as measured: fastest {min(setups):.4g} s, "
        f"median {statistics.median(setups):.4g} s",
        "ops_total_s": f"{len(best)} ops, each its fastest of {len(passes)} passes; as measured: "
        f"fastest pass {min(totals):.4g} s, median pass {statistics.median(totals):.4g} s; "
        f"scaled to the reference speed by {min(factors):.3f}-{max(factors):.3f}",
        "op_p50_ms": f"n={len(best)} ops, each its fastest of {len(passes)} passes",
        "op_p99_ms": f"n={len(best)} ops, {sum(1 for x in best if x > p99)} beyond it",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(ops, untraced, traced, layer_passes, setup_layer, unit) -> dict:
    """Layer times of each traced pass, scaled as its ops are, then their medians."""
    factors = scales(traced)
    for layers, k in zip(layer_passes, factors):
        for name, value in layers.items():
            if unit[name] in ("s", "us"):
                layers[name] = value * k
            elif unit[name] == "1/s":
                layers[name] = value / k
    metrics = tracing.median_metrics(layer_passes)
    metrics["graph.from_edges.s"] += setup_layer["graph.from_edges.s"] * statistics.median(factors)
    best = dict(zip((op.label for op in ops), best_latencies(untraced)))
    for name, (small, large) in SCALING.items():
        if small in best and large in best:
            metrics[name] = tracing.scaling_exponent(best[small], best[large])
        else:
            metrics[name] = 0.0
    metrics["trace.overhead_ratio"] = sum(best_latencies(traced)) / sum(best.values())
    return metrics


def op_summary(ops, passes) -> dict:
    """Fastest latency per op label, or summed per called function when the list is long."""
    best = best_latencies(passes)
    if len(ops) <= 64:
        return {op.label: t for op, t in zip(ops, best)}
    totals: dict = {}
    for op, t in zip(ops, best):
        name = op.label.split("(")[0]
        totals[name] = totals.get(name, 0.0) + t
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cutfair" / "__init__.py").is_file():
        print(f"no cutfair package under {SRC}; run from a cutfair checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    unit = units()
    if args.trace:
        tr = tracing.Tracer()
        traced, layer_passes = [], []

        def traced_pass(wl, untraced):
            """The round's op list once more, traced, checked against the first untraced pass."""
            tr.install()
            try:
                res = run_pass(wl.ops, untraced[0])
            finally:
                tr.uninstall()
            res.outputs = []
            traced.append(res)
            layer_passes.append(tracing.pass_metrics(*tr.take(), res.flips))

        cf = fresh_import()
        tr.install()
        try:
            workloads.WORKLOADS[args.workload](cf, args.seed)  # the inputs once more, traced
        finally:
            tr.uninstall()
        setup_layer = tracing.pass_metrics(*tr.take(), 0)
        cf, wl, setups, untraced = measure(args.workload, args.seed, args.seconds, traced_pass)
        passes = untraced + traced
        metrics = per_layer(wl.ops, untraced, traced, layer_passes, setup_layer, unit)
        pass_scales = scales(untraced) + scales(traced)
        notes = {}
        counts_repeat = all(
            lp[k] == layer_passes[0][k] for lp in layer_passes for k in lp if isinstance(lp[k], int)
        )
    else:
        cf, wl, setups, passes = measure(args.workload, args.seed, args.seconds)
        metrics, notes = end_to_end(setups, passes)
        pass_scales = scales(passes)
        counts_repeat = True
    env = environment(cf, bool(args.trace))
    digests = {label: inputs.digest(graph) for label, graph in wl.graphs.items()}

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    combined = hashlib.sha256(" ".join(digests.values()).encode()).hexdigest()[:16]
    shown = " ".join(f"{label}={d}" for label, d in digests.items()) if len(digests) <= 16 else "..."
    print(f"inputs {len(digests)} graphs, combined digest {combined}: {shown}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:>16.6g} {unit[name]}{note}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} 1  ({failed} of {attempted} ops failed)")
    if not counts_repeat:
        print("per-pass counts differ between traced passes: the run is not correct", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "input_digests": digests,
        "setup_s": setups,
        "pass_cpu_s": [p.total for p in passes],
        "pass_scale": pass_scales,
        "op_best_s": op_summary(wl.ops, passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tr.write(stem.with_suffix(".spans.tsv"))

    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
