"""Fair division of graph vertices under cut-valuations.

Each bundle is worth the number of edges leaving it, every agent shares that
valuation, and unassigned vertices count as outside every bundle.  The
package provides exact fairness/efficiency checkers, polynomial-time solvers
with deterministic tie-breaking, an exhaustive oracle for small instances,
instance generators, and a CLI.
"""

from .allocation import (
    Allocation,
    FairnessReport,
    Potential,
    bundle_values,
    check_alpha_ef1,
    check_ef,
    check_ef1,
    check_so,
    check_ts,
    check_wts,
    monochromatic_edges,
    social_welfare,
)
from .algorithms import (
    BudgetExceededError,
    GoalInfeasibleError,
    SolveGoal,
    SolveTrace,
    SolverInvariantError,
    dispatch_solve,
    equitable_cut,
    greedy_two_agents,
    solve_ef1_ts_n4,
    solve_ef1_wts,
    solve_forest_ef1_so,
    ts_subroutine,
    wts_subroutine,
)
from .graph import Graph, GraphError
from .instances import Instance, ParseError, SplitMix64, from_label, read_instance, write_instance
from .valuation import BundleStats, cut_value

__version__ = "0.1.0"
