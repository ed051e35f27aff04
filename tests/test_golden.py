"""Every solver output matches the checked-in golden corpus exactly.

The corpus is written by benchmarks/make_golden.py; each case stores its
input graph, so this test re-runs the solver and compares bundles,
iterations, case counts, histories, guarantee and the snapshot digest.
"""

import importlib.util
import json
from pathlib import Path

from cutfair.graph import Graph

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "solvers.json"


def _make_golden():
    path = ROOT / "benchmarks" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solvers_match_golden_corpus():
    make_golden = _make_golden()
    doc = json.loads(CORPUS.read_text())
    graphs = {
        name: Graph.from_edges(m, [tuple(e) for e in edges])
        for name, (m, edges) in doc["graphs"].items()
    }
    assert len(doc["cases"]) > 300
    mismatches = []
    for k, case in enumerate(doc["cases"]):
        got = make_golden.record(graphs[case["graph"]], case)
        if got != case["expect"]:
            diff = sorted(key for key in got if got[key] != case["expect"][key])
            mismatches.append((k, case["graph"], case["solver"], case["n"], diff))
    assert not mismatches, mismatches[:10]
