"""Polynomial-time allocation procedures with deterministic tie-breaking.

Every solver is a deterministic state machine: all "choose an item/agent"
points resolve to the least-index qualifying candidate, bundles are kept in
non-decreasing value order by stable relabeling, and each loop carries a hard
iteration budget sized from the proven complexity bound.  Blowing a budget or
hitting a structurally impossible state raises an error (it means the
implementation is wrong), never a silent best-effort return.

Solvers work on the caller's graph and vertex ids.  Isolated vertices have
zero marginal value everywhere, so they stay unassigned while a solver runs
and are appended round-robin at the end (empty bundles first); this changes
no bundle's cut-value and preserves every checker verdict.

One pass, _drain, reaches TS and wTS: it moves chores (weak for TS, strict
for wTS) to the first bundle in value order that they raise.

Solver state lives in BundleStats, whose own-bundle neighbor counts, member
sets, cached removal floors and chore heaps keep a move at
O(deg + |A_src| + |A_dst|) (times log V for the heaps) instead of a rescan
of all vertices; a receiver is chosen from one neighbor_counts row, and no
state has n * V entries.  Forest peeling keeps its frontier in lazy heaps
keyed by the blocking bundle, so a step makes O(n log V) frontier queries
instead of a scan of the whole frontier.  The two-bundle hill climb keeps
its own side array and a least-index heap of vertices whose flip raises the
cut, so it flips the same vertices in the same order as a scan restarted at
vertex 0.
"""

from __future__ import annotations

import enum
import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .allocation import Allocation, Potential, bundle_values, potential_from_values
from .graph import Graph
from .valuation import BundleStats


class BudgetExceededError(RuntimeError):
    """An iteration budget was blown; signals an implementation bug."""


class SolverInvariantError(RuntimeError):
    """A state the convergence proofs rule out was reached; signals a bug."""


class GoalInfeasibleError(ValueError):
    """The requested guarantee is not available for this instance class."""


class SolveGoal(enum.Enum):
    EF_TS_2 = "ef-ts-2"
    EF1_TS = "ef1-ts"
    EF1_WTS = "ef1-wts"
    EF1_SO_FOREST = "ef1-so-forest"
    EQUITABLE = "equitable"


@dataclass
class SolveTrace:
    """What a solve did.

    - ``iterations``: the steps (moves or loop iterations) the solver took.
    - ``case_history``: the case tag of each step, for the solvers with cases.
    - ``potential_history`` and ``welfare_history``: the potential and the
      welfare of every recorded state, in order.
    - ``guarantee``: the properties the returned allocation is proved to have.
    - ``snapshots``: the general solvers' ``(tag, potential)`` pairs, one per
      case step; empty for forest peeling.
    - ``placements`` and ``peel_steps``: forest peeling's log.  Each placed
      vertex appears once in ``placements`` as ``(vertex, bundle)``; each
      iteration appends ``(tag, bundle order, number placed so far)`` to
      ``peel_steps``.  ``bundle_snapshots()`` rebuilds the bundles from them.
    """

    iterations: int = 0
    case_history: list[str] = field(default_factory=list)
    potential_history: list[Potential] = field(default_factory=list)
    welfare_history: list[int] = field(default_factory=list)
    guarantee: str = ""
    snapshots: list = field(default_factory=list)
    placements: list[tuple[int, int]] = field(default_factory=list)
    peel_steps: list[tuple[str, tuple[int, ...], int]] = field(default_factory=list)

    def case_counts(self) -> dict[str, int]:
        return dict(Counter(self.case_history))

    def bundle_snapshots(self) -> list[tuple[str, list[list[int]]]]:
        """Forest peeling's ``(tag, bundles)`` after each iteration, the
        bundles sorted and listed in that iteration's order.  Peeling only
        places vertices, so the bundles after an iteration are the
        placements made so far, grouped by bundle."""
        members: dict[int, list[int]] = {}
        out = []
        done = 0
        for tag, order, placed in self.peel_steps:
            for v, b in self.placements[done:placed]:
                members.setdefault(b, []).append(v)
            done = placed
            out.append((tag, [sorted(members.get(b, ())) for b in order]))
        return out


# ---------------------------------------------------------------------------
# shared machinery


def _split_isolated(g: Graph):
    """g's non-isolated vertices and its isolated ones, each in index order."""
    keep = [v for v, nbrs in enumerate(g.adjacency) if nbrs]
    return keep, [v for v, nbrs in enumerate(g.adjacency) if not nbrs]


def _reattach(bundles, iso, n):
    if not iso:
        return bundles
    out = [set(b) for b in bundles]
    slots = sorted(range(n), key=lambda i: (len(out[i]), i))
    for t, v in enumerate(iso):
        out[slots[t % n]].add(v)
    return out


def _round_robin(g: Graph, keep: list[int], n: int) -> BundleStats:
    """The general solvers' start: the k-th non-isolated vertex in bundle k mod n."""
    return BundleStats.from_bundles(g, [keep[i::n] for i in range(n)])


def _step(stats: BundleStats, order: list[int], trace: SolveTrace) -> None:
    """Re-sort the bundles by value (stably, so ties keep their order) and
    record the potential and welfare of the new state."""
    values = stats.bundle_value
    order.sort(key=values.__getitem__)
    trace.potential_history.append(potential_from_values(values))
    trace.welfare_history.append(sum(values))


def _violator_positions(stats: BundleStats, order: list[int]) -> list[int]:
    """Positions of bundles the minimum bundle has an unremovable envy toward."""
    value, floor = stats.bundle_value, stats.removal_floor
    v1 = value[order[0]]
    return [pos for pos, b in enumerate(order) if value[b] > v1 and floor(b) > v1]


def _helpful_pick(stats: BundleStats, order: list[int], violators: list[int]):
    """(bundle, item) for the first violator holding an item whose transfer
    raises the minimum bundle's value, with its least such item; or None."""
    a1 = order[0]
    for pos in violators:
        b = order[pos]
        o = min((o for o in stats.members[b] if stats.marginal_add(a1, o) > 0), default=None)
        if o is not None:
            return b, o
    return None


def _first_receiver(stats, order, o, exclude) -> Optional[int]:
    """The first bundle in order, not in exclude, whose value o raises."""
    deg = stats.degree[o]
    counts = stats.neighbor_counts(o)
    for b in order:
        if b not in exclude and deg > 2 * counts[b]:
            return b
    return None


# ---------------------------------------------------------------------------
# one stability pass: TS drains weak chores, wTS strict ones


def _drain(stats: BundleStats, order: list[int], trace: SolveTrace, strict: bool, special=None):
    """Move chores until none is left: weak ones (removal does not hurt the
    bundle) for TS, strict ones (removal strictly helps it) for wTS.

    Each move takes the least chore of the first bundle in value order that
    holds one to the first other bundle, not special, that it raises.  A
    weak move raises the welfare by >= 1 and never lowers the potential; a
    strict chore has under half its neighbours in any other bundle, so its
    move raises the welfare by >= 2 and the potential strictly.  As the
    welfare is at most 2|E|, 2|E| moves bound both passes.
    """
    budget = max(1, 2 * stats.graph.num_edges)
    moves = 0
    index = stats.chores()[strict]
    while (b := next((b for b in order if index[b]), None)) is not None:
        o = stats.least_chore(b, strict)
        receiver = _first_receiver(stats, order, o, exclude={b, special})
        if receiver is None:
            raise SolverInvariantError(f"no receiver values item {o} positively")
        stats.apply_move(o, b, receiver)
        moves += 1
        if moves > budget:
            raise BudgetExceededError("stability pass exceeded 2|E| moves")
        _step(stats, order, trace)
        if trace.welfare_history[-1] <= trace.welfare_history[-2]:
            raise SolverInvariantError("welfare did not rise on a chore transfer")
        phi_before, phi = trace.potential_history[-2:]
        if phi < phi_before or (strict and phi == phi_before):
            raise SolverInvariantError("potential fell in a stability pass")


def _stabilise(
    a: Allocation, g: Graph, min_bundles: int, strict: bool, special=None
) -> tuple[Allocation, SolveTrace]:
    """Sort a complete allocation's bundles by value, drain its chores and
    return the sorted result."""
    if a.n < min_bundles:
        raise ValueError(f"needs at least {min_bundles} bundles")
    if not a.is_complete(g):
        raise ValueError("needs a complete allocation")
    stats = BundleStats.from_bundles(g, a.bundles)
    order = list(range(a.n))
    trace = SolveTrace()
    _step(stats, order, trace)
    _drain(stats, order, trace, strict, special)
    trace.iterations = len(trace.welfare_history) - 1
    return Allocation.of([stats.members[b] for b in order]), trace


def ts_subroutine(
    a: Allocation, g: Graph, special: Optional[int] = None
) -> tuple[Allocation, SolveTrace]:
    """Public wrapper: resort the input, drain weak chores, return sorted result.

    special names a bundle by its index in the input allocation.
    """
    return _stabilise(a, g, 4, False, special)


def wts_subroutine(a: Allocation, g: Graph) -> tuple[Allocation, SolveTrace]:
    return _stabilise(a, g, 2, True)


# ---------------------------------------------------------------------------
# n = 2: first-improvement hill climb on the cut


def greedy_two_agents(g: Graph) -> tuple[Allocation, SolveTrace]:
    """Local-search bipartition: EF (both sides see the cut) and TS (local max).

    Each step flips the least-index vertex whose flip raises the cut, as a
    scan restarted at vertex 0 after every flip would.  A least-index heap
    holds every vertex with positive gain (plus stale entries, re-checked
    when popped), so a flip costs O(deg log V) instead of a rescan.
    """
    if g.num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    keep, iso = _split_isolated(g)
    trace = SolveTrace(guarantee="EF+TS")
    adj = g.adjacency
    deg = [len(nbrs) for nbrs in adj]
    side = [0] * g.num_vertices
    same = list(deg)  # neighbors on the same side; flipping v gains 2 * same[v] - deg[v]
    heap = [v for v in keep if 2 * same[v] > deg[v]]  # sorted, so a heap
    queued = [False] * g.num_vertices
    for v in heap:
        queued[v] = True
    cut = 0
    budget = max(1, 2 * g.num_edges)
    moves = 0
    while heap:
        v = heapq.heappop(heap)
        queued[v] = False
        gain = 2 * same[v] - deg[v]
        if gain <= 0:
            continue
        s = side[v]
        side[v] = 1 - s
        for u in adj[v]:
            if side[u] == s:
                same[u] -= 1
            else:
                same[u] += 1
                if not queued[u] and 2 * same[u] > deg[u]:
                    queued[u] = True
                    heapq.heappush(heap, u)
        same[v] = deg[v] - same[v]
        cut += gain
        moves += 1
        if moves > budget:
            raise BudgetExceededError("hill climb exceeded its move budget")
        trace.welfare_history.append(2 * cut)
    trace.iterations = moves
    bundles = [{v for v in keep if side[v] == s} for s in (0, 1)]
    return Allocation.of(_reattach(bundles, iso, 2)), trace


# ---------------------------------------------------------------------------
# n >= 4 solver: EF1 + TS


def solve_ef1_ts_n4(g: Graph, n: int) -> tuple[Allocation, SolveTrace]:
    if n < 4:
        raise ValueError("this solver needs n >= 4")
    if g.num_vertices < n:
        raise ValueError("need at least as many vertices as bundles")
    keep, iso = _split_isolated(g)
    trace = SolveTrace(guarantee="EF1+TS")
    stats = _round_robin(g, keep, n)
    order = list(range(n))
    _step(stats, order, trace)
    _drain(stats, order, trace, False)
    budget = max(1, 8 * len(keep) * len(keep) * n)
    violators = _violator_positions(stats, order)  # recomputed after every move
    while violators:
        trace.iterations += 1
        if trace.iterations > budget:
            raise BudgetExceededError("outer loop exceeded its budget")
        # first resolve every violation fixable by a transfer that helps the
        # minimum bundle
        while (pick := _helpful_pick(stats, order, violators)) is not None:
            src, o = pick
            stats.apply_move(o, src, order[0])
            trace.case_history.append("I")
            _step(stats, order, trace)
            _drain(stats, order, trace, False)
            trace.snapshots.append(("I", trace.potential_history[-1]))
            violators = _violator_positions(stats, order)
        if not violators:
            break
        if len(violators) != 1:
            raise SolverInvariantError(
                f"{len(violators)} unremovable envies with no helpful item; "
                "the single-violator property failed"
            )
        i_star = order[violators[0]]
        a1 = order[0]
        v1 = stats.bundle_value[a1]
        # every item of the violator now has non-positive marginal value for
        # the minimum bundle; park them, least index first, with third
        # parties.  Parking never touches A_a1 and never adds to A_i*, so
        # that stays true and the park order is fixed up front.
        for o in sorted(stats.members[i_star]):
            if not (stats.bundle_value[i_star] > v1 and stats.removal_floor(i_star) > v1):
                break
            receiver = _first_receiver(stats, order, o, exclude={a1, i_star})
            if receiver is None:
                raise SolverInvariantError(
                    f"item {o} has no positive receiver; impossible for n >= 4"
                )
            stats.apply_move(o, i_star, receiver)
        trace.case_history.append("II")
        _step(stats, order, trace)
        _drain(stats, order, trace, False, i_star)
        trace.snapshots.append(("II", trace.potential_history[-1]))
        violators = _violator_positions(stats, order)
    return Allocation.of(_reattach([stats.members[b] for b in order], iso, n)), trace


# ---------------------------------------------------------------------------
# general-n solver: EF1 + wTS


def solve_ef1_wts(g: Graph, n: int) -> tuple[Allocation, SolveTrace]:
    if n < 1:
        raise ValueError("need n >= 1")
    if g.num_vertices < n:
        raise ValueError("need at least as many vertices as bundles")
    trace = SolveTrace(guarantee="EF1+wTS")
    if n == 1:
        return Allocation.of([set(range(g.num_vertices))]), trace
    keep, iso = _split_isolated(g)
    stats = _round_robin(g, keep, n)
    order = list(range(n))
    _step(stats, order, trace)
    _drain(stats, order, trace, True)
    budget = max(1, 8 * len(keep) * len(keep) * n)
    while True:
        violators = _violator_positions(stats, order)
        if not violators:
            break
        trace.iterations += 1
        if trace.iterations > budget:
            raise BudgetExceededError("outer loop exceeded its budget")
        a1 = order[0]
        pick = _helpful_pick(stats, order, violators)
        if pick is not None:
            src, o = pick
            stats.apply_move(o, src, a1)
            trace.case_history.append("1")
        else:
            if len(violators) != 1:
                raise SolverInvariantError("single-violator property failed")
            if n < 3:
                raise SolverInvariantError(
                    "unremovable envy with no helpful item cannot happen for n = 2"
                )
            i = order[violators[0]]
            v1 = stats.bundle_value[a1]
            # carve out a just-above-minimum subset for the violator and park
            # the rest with a third bundle
            deg = stats.degree
            # i's vertices outside the subset, least first, and their
            # neighbours in it
            rest = dict.fromkeys(sorted(stats.members[i]), 0)
            vs = 0
            while vs <= v1:
                o = next((o for o, inside in rest.items() if deg[o] > 2 * inside), None)
                if o is None:
                    raise SolverInvariantError(
                        "subset building stalled below the minimum value"
                    )
                vs += deg[o] - 2 * rest.pop(o)
                for u in g.adjacency[o]:
                    if u in rest:
                        rest[u] += 1
            j = next(b for b in order if b not in (a1, i))
            for o in rest:
                stats.apply_move(o, i, j)
            trace.case_history.append("2")
        _step(stats, order, trace)
        _drain(stats, order, trace, True)
        trace.snapshots.append((trace.case_history[-1], trace.potential_history[-1]))
    out = _reattach([stats.members[b] for b in order], iso, n)
    if not all(out):
        raise SolverInvariantError("an empty bundle survived round-robin start")
    return Allocation.of(out), trace


# ---------------------------------------------------------------------------
# forests: EF1 + SO by rooting and peeling


def _forest_parts(g: Graph):
    """g's isolated vertices and its trees (the components of two or more
    vertices), each in index order, or None if g has a cycle."""
    components = g.connected_components()
    if g.num_edges != g.num_vertices - len(components):
        return None
    iso = [min(comp) for comp in components if len(comp) == 1]
    return iso, [comp for comp in components if len(comp) >= 2]


def solve_forest_ef1_so(g: Graph, n: int) -> tuple[Allocation, SolveTrace]:
    parts = _forest_parts(g)
    if parts is None:
        raise ValueError("this solver needs an acyclic graph")
    return _peel_forest(g, n, *parts)


def _peel_forest(g: Graph, n: int, iso, trees):
    """solve_forest_ef1_so on the parts of the forest g."""
    if n < 2:
        raise ValueError("need n >= 2")
    if g.num_vertices < n:
        raise ValueError("need at least as many vertices as bundles")
    trace = SolveTrace(guarantee="EF1+SO+TS")
    if not trees:
        return Allocation.of(_reattach([set() for _ in range(n)], iso, n)), trace
    adj = g.adjacency
    if n == 2:
        color = [None] * g.num_vertices
        for comp in trees:  # depth parity from the tree's least vertex
            r = min(comp)
            color[r] = 0
            stack = [r]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if color[u] is None:
                        color[u] = 1 - color[v]
                        stack.append(u)
        bundles = [{v for v, c in enumerate(color) if c == side} for side in (0, 1)]
        return Allocation.of(_reattach(bundles, iso, 2)), trace

    stats = BundleStats(g, n)
    deg = stats.degree
    order = list(range(n))
    # A vertex is placed only as a frontier root or as a child of a placed
    # vertex, so its parent is placed first and its unplaced neighbours are
    # its children.  Each root's blocker is its parent's bundle (n for a tree
    # root), which never changes once the parent is placed.  Per blocker, two
    # lazy heaps index its roots, one by index and one by (-degree, index),
    # the latter packed into one int, -deg * size + index; the root of an
    # entry of either is entry % size.  An entry is stale once its root
    # leaves the frontier, and a root never re-enters it.
    size = g.num_vertices
    frontier = set()
    by_index = [[] for _ in range(n + 1)]
    by_degree = [[] for _ in range(n + 1)]

    def add_root(r, blocker):
        frontier.add(r)
        heapq.heappush(by_index[blocker], r)
        heapq.heappush(by_degree[blocker], r - deg[r] * size)

    def first_root(heaps, b):
        """The root of the least entry over the heaps of every blocker but
        b, or None if every frontier root's parent is in bundle b."""
        best = None
        for blocker, heap in enumerate(heaps):
            if blocker == b:
                continue
            while heap and heap[0] % size not in frontier:
                heapq.heappop(heap)
            if heap and (best is None or heap[0] < best):
                best = heap[0]
        return None if best is None else best % size

    for comp in trees:  # a tree of three or more vertices is rooted at its least inner vertex
        add_root(min(v for v in comp if deg[v] >= 2) if len(comp) >= 3 else min(comp), n)
    budget = max(1, 4 * (g.num_vertices - len(iso)))
    placements = trace.placements

    def allocate(v, b):
        stats.apply_move(v, None, b)
        placements.append((v, b))
        frontier.remove(v)
        for c in adj[v]:
            if stats.assignment[c] is None:
                add_root(c, b)

    def leaf_children(o_t):
        return [c for c in adj[o_t] if stats.assignment[c] is None and deg[c] == 1]

    def compensate(o_t, a1, bound):
        """Hand o_t's unallocated children to a1, first child first, until
        a1's value reaches bound()."""
        rest = (c for c in adj[o_t] if stats.assignment[c] is None)
        while stats.bundle_value[a1] < bound():
            c = next(rest, None)
            if c is None:
                raise SolverInvariantError("ran out of children to compensate")
            allocate(c, a1)

    def distribute_leaf_children(o_t, bundles):
        """Hand each leaf child of o_t to the poorest of bundles, the first
        one on ties.  No tie needs keeping a bundle free for a frontier root:
        the leaf itself is a frontier root open to every bundle but o_t's."""
        for leaf in leaf_children(o_t):  # placing a leaf changes no other leaf
            allocate(leaf, min(bundles, key=stats.bundle_value.__getitem__))

    while frontier:
        trace.iterations += 1
        if trace.iterations > budget:
            raise BudgetExceededError("peeling loop exceeded its budget")
        _step(stats, order, trace)
        # frontier roots are mostly non-leaf (leaf-children go out with their
        # parent), but a compensation step that hands a non-leaf child to the
        # minimum bundle can promote that child's own leaves to the frontier
        a1, a2 = order[0], order[1]
        o_t = first_root(by_index, a1)
        if o_t is not None:
            allocate(o_t, a1)
            distribute_leaf_children(o_t, order[1:])
            tag = "1"
        else:
            best2 = stats.min_removal_value(a2)
            drop2 = stats.removal_floor(a2)
            deg2 = 0 if best2 is None else deg[best2[0]]
            o_t = first_root(by_degree, a2)
            if o_t is not None and (stats.bundle_value[a1] > drop2 or deg[o_t] > deg2):
                allocate(o_t, a2)
                h2 = stats.min_removal_value(a2)[0]
                distribute_leaf_children(o_t, [a1] + order[2:])
                compensate(o_t, a1, lambda: stats.bundle_value[a2] + stats.marginal_remove(a2, h2))
                tag = "2"
            else:
                dmin = min(stats.removal_floor(b) for b in order[2:])
                j = None
                if stats.bundle_value[a1] > dmin:
                    for b in order[2:]:
                        if stats.removal_floor(b) != dmin:
                            continue
                        o_t = first_root(by_degree, b)
                        if o_t is not None:
                            j = b
                            break
                if j is None:
                    raise SolverInvariantError("no peeling case applies")
                best_j = stats.min_removal_value(j)
                oj = best_j[0] if best_j else None
                allocate(o_t, j)
                for leaf in leaf_children(o_t):
                    allocate(leaf, a1)
                compensate(o_t, a1, lambda: min(
                    stats.bundle_value[a2],
                    stats.bundle_value[j]
                    + (stats.marginal_remove(j, oj) if oj is not None else 0),
                ))
                tag = "3"
        trace.case_history.append(tag)
        trace.peel_steps.append((tag, tuple(order), len(placements)))

    _step(stats, order, trace)
    if len(placements) != g.num_vertices - len(iso):
        raise SolverInvariantError("peeling terminated with unallocated items")
    return Allocation.of(_reattach([stats.members[b] for b in order], iso, n)), trace


# ---------------------------------------------------------------------------
# equitable partitioning and goal routing


def equitable_cut(g: Graph, n: int) -> tuple[Allocation, SolveTrace]:
    """Non-empty n-partition with pairwise cut-value gap at most the max degree."""
    if not 2 <= n <= g.num_vertices:
        raise ValueError("need 2 <= n <= number of vertices")
    a, trace = solve_ef1_wts(g, n)
    values = sorted(bundle_values(a, g))
    if values[-1] - values[0] > g.max_degree():
        raise SolverInvariantError("gap bound violated; the EF1 guarantee failed")
    trace.guarantee = "EF1+wTS+gap<=maxdeg"
    return a, trace


def dispatch_solve(g: Graph, n: int, goal) -> tuple[Allocation, SolveTrace]:
    """Route to the strongest applicable solver and verify the goal is covered."""
    goal = SolveGoal(goal)
    if goal is SolveGoal.EF_TS_2 and n != 2:
        raise GoalInfeasibleError("that guarantee is defined only for n = 2")
    if goal in (SolveGoal.EF1_SO_FOREST, SolveGoal.EQUITABLE) and n < 2:
        raise GoalInfeasibleError("that guarantee needs n >= 2")
    if goal is SolveGoal.EF1_SO_FOREST:
        parts = _forest_parts(g)
        if parts is None:
            raise GoalInfeasibleError("the SO-by-construction solver needs a forest")
        return _peel_forest(g, n, *parts)
    if goal is SolveGoal.EQUITABLE:
        return equitable_cut(g, n)
    if n == 2:
        return greedy_two_agents(g)
    parts = _forest_parts(g) if n >= 2 else None
    if parts is not None:
        return _peel_forest(g, n, *parts)
    if n >= 4:
        return solve_ef1_ts_n4(g, n)
    if goal is SolveGoal.EF1_TS and n == 3:
        raise GoalInfeasibleError(
            "an EF1 allocation that is also transfer-stable need not exist for "
            "n = 3 on general graphs; use the oracle to decide this instance"
        )
    a, trace = solve_ef1_wts(g, n)
    if n == 1:
        trace.guarantee = "EF1+TS+wTS"
    return a, trace


__all__ = [
    "BudgetExceededError",
    "GoalInfeasibleError",
    "SolveGoal",
    "SolveTrace",
    "SolverInvariantError",
    "dispatch_solve",
    "equitable_cut",
    "greedy_two_agents",
    "solve_ef1_ts_n4",
    "solve_ef1_wts",
    "solve_forest_ef1_so",
    "ts_subroutine",
    "wts_subroutine",
]
