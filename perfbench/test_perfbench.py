"""Tests of the benchmark itself: its checks must catch wrong outputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cf = importlib.import_module("cutfair")
importlib.import_module("cutfair.oracle")


def ops_named(wl, *labels):
    chosen = [op for op in wl.ops if op.label in labels]
    assert [op.label for op in chosen] == list(labels)
    return chosen


SOLVE_OPS = ("solve_ef1_ts_n4(ts0)", "check_ef1(ts0)", "check_ts(ts0)")
ORACLE_OPS = ("oracle_exists(fig3:d=3,ef1+wts)", "oracle_completable_ef1(appendixA)")


def test_unchanged_outputs_pass():
    sweep = ops_named(workloads.sweep_small(cf, 1), *SOLVE_OPS)
    exhaustive = ops_named(workloads.oracle_exhaustive(cf, 1), *ORACLE_OPS)
    for ops in (sweep, exhaustive):
        first = run.run_pass(ops)
        assert first.failed == 0
        assert run.run_pass(ops, reference=first).failed == 0


def test_corrupted_allocation_is_a_failure(monkeypatch):
    ops = ops_named(workloads.sweep_small(cf, 1), *SOLVE_OPS)
    solve = cf.algorithms.solve_ef1_ts_n4

    def drops_a_vertex(g, n):
        a, trace = solve(g, n)
        bundles = [set(b) for b in a.bundles]
        max(bundles, key=len).pop()
        return cf.Allocation.of(bundles), trace

    monkeypatch.setattr(cf.algorithms, "solve_ef1_ts_n4", drops_a_vertex)
    res = run.run_pass(ops)
    assert res.outputs[0] is run.UNVERIFIED
    assert res.failed >= 1


def test_output_differing_from_reference_is_a_failure(monkeypatch):
    ops = ops_named(workloads.sweep_small(cf, 1), *SOLVE_OPS)
    reference = run.run_pass(ops)
    solve = cf.algorithms.solve_ef1_ts_n4

    def relabels(g, n):  # same bundles in another order: still EF1 and TS, but not the same output
        a, trace = solve(g, n)
        return cf.Allocation.of(list(reversed(a.bundles))), trace

    monkeypatch.setattr(cf.algorithms, "solve_ef1_ts_n4", relabels)
    assert run.run_pass(ops).failed == 0
    assert run.run_pass(ops, reference=reference).failed == 1


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("oracle_completable_ef1", lambda *args, **kwargs: True),
        ("oracle_exists", lambda *args, **kwargs: None),
    ],
)
def test_wrong_oracle_verdict_is_a_failure(monkeypatch, name, wrong):
    ops = ops_named(workloads.oracle_exhaustive(cf, 1), *ORACLE_OPS)
    monkeypatch.setattr(cf.oracle, name, wrong)
    res = run.run_pass(ops)
    assert res.failed == 1


G10_OPS = ("oracle_count(G10,ef1)", "oracle_count(G10,ef1+po)", "oracle_leximin(G10)", "max_welfare(G10)")


def _off_by_factor(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) // 6


def _relabelled(fn):  # same sorted value vector, so only an exact comparison rejects it
    return lambda *args, **kwargs: cf.Allocation.of(list(reversed(fn(*args, **kwargs).bundles)))


@pytest.mark.parametrize(
    "name, wrong, expected",
    [("oracle_count", _off_by_factor, 2), ("oracle_leximin", _relabelled, 1), ("max_welfare", _off_by_factor, 1)],
)
def test_wrong_oracle_answer_on_random_graph_is_a_failure(monkeypatch, name, wrong, expected):
    ops = ops_named(workloads.oracle_exhaustive(cf, 1), *G10_OPS)
    assert run.run_pass(ops).failed == 0
    monkeypatch.setattr(cf.oracle, name, wrong(getattr(cf.oracle, name)))
    assert run.run_pass(ops).failed == expected


def test_raising_op_is_a_failure(monkeypatch):
    ops = ops_named(workloads.sweep_small(cf, 1), *SOLVE_OPS)

    def blows_budget(g, n):
        raise cf.BudgetExceededError("budget")

    monkeypatch.setattr(cf.algorithms, "solve_ef1_ts_n4", blows_budget)
    assert run.run_pass(ops).failed == 3  # the solver and both checkers of its output


def test_inputs_follow_the_seed():
    def digests(seed):
        return {k: inputs.digest(g) for k, g in workloads.solve_scale(cf, seed).graphs.items()}

    assert digests(7) == digests(7)
    changed = {k for k in digests(7) if digests(7)[k] != digests(8)[k]}
    assert changed == {"R500", "R1k", "R2k", "F1k", "F2k"}  # fig3:1601 is a fixed construction
    m, edges = inputs.random_graph(inputs.SplitMix64(3), 50, 200)
    assert len(edges) == len(set(edges)) == 200 and all(0 <= u < v < m for u, v in edges)


def test_own_checks_agree_with_known_facts():
    fig1 = inputs.fig1()
    assert checks.dominates(
        checks.sorted_values(fig1, workloads.FIG1_DOMINATOR),
        checks.sorted_values(fig1, workloads.FIG1_TS_DOMINATED),
    )
    assert checks.satisfies(fig1, workloads.FIG1_TS_DOMINATED, ("ts",))
    assert not checks.satisfies(fig1, workloads.FIG1_TS_DOMINATED, ("ef1",))
    assert not checks.Exhaustive(inputs.fig3(3), 3, ("ef1", "ts")).matching(("ef1", "ts"))
    assert checks.max_cut(inputs.fig3(3)) == 6  # bipartite: hubs on one side


def test_tracer_sees_every_layer_and_restores():
    g = cf.Graph.from_edges(*inputs.fig3(3))
    original = cf.oracle.scan
    tr = tracer.Tracer()
    tr.install()
    try:
        cf.algorithms.solve_ef1_ts_n4(g, 4)
        cf.oracle.oracle_exists(g, 3, cf.oracle.OracleQuery.of({"ef1", "ts"}))
    finally:
        tr.uninstall()
    spans, counts = tr.take()
    names = {s[tracer.NAME] for s in spans}
    assert {"algorithms.solve_ef1_ts_n4", "graph.Graph.from_edges", "valuation.BundleStats.apply_move",
            "oracle.oracle_exists", tracer.KERNEL_SPAN} <= names
    assert counts["graph.Graph.degree"] > 0
    assert cf.oracle.scan is original
    metrics = tracer.pass_metrics(spans, counts, 0)
    assert metrics["kernel.calls"] == 1 and metrics["kernel.states"] == 3**5
    assert metrics["oracle.labelled_states_per_s"] > 0


def test_scales_follow_the_yardstick_but_bound_a_lone_slow_one():
    def passes(*slowness):
        return [run.PassResult(latencies=[1.0], slowness=[x, x + 0.1]) for x in slowness]

    assert run.scales(passes(2.0, 2.0, 2.0)) == [0.5, 0.5, 0.5]  # a slow phase is scaled back
    # a neighbour's faster yardstick holds a lone slow pass at the neighbour's factor
    assert run.scales(passes(1.0, 3.0, 1.0, 1.0)) == [1.0, 1.0, 1.0, 1.0]
    # two slow passes together are scaled down by at most MAX_CORRECTION from the median
    factors = run.scales(passes(1.0, 1.0, 1.0, 1.0, 3.0, 3.0))
    assert factors[-1] == pytest.approx(1 / run.MAX_CORRECTION)
    assert run.best_latencies(passes(1.0, 1.0, 1.0, 1.0, 3.0, 3.0)) == [pytest.approx(1 / run.MAX_CORRECTION)]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end([0.1], [run.PassResult(latencies=[0.001, 0.002], slowness=[1.0])])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layer = list(tracer.pass_metrics([], {}, 0)) + list(run.SCALING) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
