"""Every solver and oracle output matches the checked-in golden corpora exactly.

The corpora are written by benchmarks/make_golden.py; each case stores its
input graph, so these tests re-run the solver and compare bundles,
iterations, case counts, histories, guarantee and the snapshot digest, and
re-run the oracle call and compare its witnesses, counts, lists, verdicts or
the error it raised, on the active kernel and on the compiled one, and
re-run every checker on each stored allocation and compare its full report.
"""

import importlib.util
import json
from pathlib import Path

from cutfair.graph import Graph

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _make_golden():
    path = ROOT / "benchmarks" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(filename):
    doc = json.loads((GOLDEN / filename).read_text())
    graphs = {
        name: Graph.from_edges(m, [tuple(e) for e in edges])
        for name, (m, edges) in doc["graphs"].items()
    }
    return graphs, doc["cases"]


def test_solvers_match_golden_corpus():
    make_golden = _make_golden()
    graphs, cases = _load("solvers.json")
    assert len(cases) > 300
    mismatches = []
    for k, case in enumerate(cases):
        got = make_golden.record(graphs[case["graph"]], case)
        if got != case["expect"]:
            diff = sorted(key for key in got if got[key] != case["expect"][key])
            mismatches.append((k, case["graph"], case["solver"], case["n"], diff))
    assert not mismatches, mismatches[:10]


def test_checkers_match_golden_corpus():
    make_golden = _make_golden()
    graphs, cases = _load("checkers.json")
    assert len(cases) > 500
    # the corpus pins the listing of several EF1 violations, not only verdicts
    assert any(len(case["expect"]["ef1"].get("violations", ())) >= 3 for case in cases)
    mismatches = [
        (k, case["graph"], sorted(key for key, rep in got.items() if rep != case["expect"][key]))
        for k, case in enumerate(cases)
        if (got := make_golden.checker_record(graphs[case["graph"]], case)) != case["expect"]
    ]
    assert not mismatches, mismatches[:10]


def test_solver_outputs_check_like_fresh_copies():
    """A solver hands its final BundleStats to the checkers with its output.
    They must be exact: consistent, equal to a fresh build, and giving every
    corpus checker the report it gives an equal but distinct copy."""
    from cutfair import allocation
    from cutfair.allocation import Allocation
    from cutfair.valuation import BundleStats

    make_golden = _make_golden()
    graphs, cases = _load("solvers.json")
    mismatches = []
    for k, case in enumerate(cases):
        g = graphs[case["graph"]]
        a, _ = make_golden.run_case(g, case)
        stats = allocation._stats(a, g)
        stats.check_consistency()  # before any query fills a stale floor
        got = [_report(check, a, g) for _, check in make_golden.CHECKERS]
        assert allocation._stats(a, g) is stats
        fresh = BundleStats.from_bundles(g, a.bundles)
        fields = ("assignment", "own_neighbors", "bundle_value", "members")
        diff = [name for name in fields if getattr(stats, name) != getattr(fresh, name)]
        if any(stats.min_removal_value(i) != fresh.min_removal_value(i) for i in range(a.n)):
            diff.append("min_removal_value")
        copy = Allocation(a.bundles), Graph(g.num_vertices, g.adjacency, g.num_edges)
        for (name, check), report in zip(make_golden.CHECKERS, got):
            if report != _report(check, *copy):
                diff.append(name)
        if diff:
            mismatches.append((k, case["graph"], case["solver"], case["n"], diff))
    assert not mismatches, mismatches[:10]


def _report(check, a, g):
    try:
        return check(a, g)
    except ValueError as exc:
        return type(exc).__name__


def test_oracle_matches_golden_corpus():
    _check_oracle_corpus()


def test_compiled_kernel_matches_oracle_golden_corpus(compiled_scan, monkeypatch):
    from cutfair import oracle

    monkeypatch.setattr(oracle, "scan", compiled_scan)
    _check_oracle_corpus()


def _check_oracle_corpus():
    make_golden = _make_golden()
    graphs, cases = _load("oracle.json")
    assert len(cases) > 5000
    mismatches = [
        (k, case["graph"], case["call"], case["n"], case.get("preds"))
        for k, case in enumerate(cases)
        if make_golden.oracle_record(graphs[case["graph"]], case) != case["expect"]
    ]
    assert not mismatches, mismatches[:10]
