"""End-to-end acceptance gate: one test per numbered reproduction criterion.

Each test prints the criterion's one-line verdict, which ends with its
elapsed time, and asserts it passed.
Expensive sweeps are shared through a session-scoped context, so the suite
solves each random instance family once.
"""

import pytest

from cutfair import repro


@pytest.fixture(scope="session")
def ctx():
    return repro.ReproContext()


def run(fn, ctx):
    result = repro.timed(fn, ctx)
    line = result.verdict()
    print(line)
    assert result.passed, line


def test_criterion_01_no_strong_stability_with_three_bundles(ctx):
    run(repro.criterion_1, ctx)


def test_criterion_02_ef1_ts_solver_four_plus_bundles(ctx):
    run(repro.criterion_2, ctx)


def test_criterion_03_ef1_wts_solver_any_bundle_count(ctx):
    run(repro.criterion_3, ctx)


def test_criterion_04_value_gap_bounded_by_max_degree(ctx):
    run(repro.criterion_4, ctx)


def test_criterion_05_forest_peeling_ef1_no_internal_edges(ctx):
    run(repro.criterion_5, ctx)


def test_criterion_06_two_bundle_hill_climb(ctx):
    run(repro.criterion_6, ctx)


def test_criterion_07_structural_claims_on_random_states(ctx):
    run(repro.criterion_7, ctx)


def test_criterion_08_potential_and_welfare_monotonicity(ctx):
    run(repro.criterion_8, ctx)


def test_criterion_09_stuck_partial_allocation(ctx):
    run(repro.criterion_9, ctx)


def test_criterion_10_worked_examples_reproduced(ctx):
    run(repro.criterion_10, ctx)


def test_criterion_11_multipartite_family_audit(ctx):
    run(repro.criterion_11, ctx)
