"""Branch-and-bound on top of the bounded-variable simplex.

Best-bound node selection, branching on the most fractional
integer-flagged coordinate (ties to the lowest column index).  The root
LP is solved cold unless the caller already holds it; every child
differs from its parent by one bound and starts from the parent's
solution, as an allocation round starts from the round before: the dual
simplex re-optimizes its optimal basis in a few pivots, from its basis
inverse and update count, so a path down the tree refactors on the
simplex's pivot budget.  Both children share the parent's arrays until
they are solved, and each solve copies the inverse before pivoting it.

A node is pruned when its LP bound comes within PRUNE_GAP of the
incumbent: when it leaves the heap, on its parent's value, and after
its solve, on its own.  Once the tree has an incumbent, each node LP
gets that value less PRUNE_GAP as its `cutoff`, so a node LP whose dual
bound reaches it stops with status CUTOFF, pivots short of its optimum
and without its final refactorization, and the tree drops it as it
drops an infeasible one.  The dual bound only rises to the optimum the
post-solve test reads, so a node is cut only where that test would
prune it, and the tree, its incumbent and its node count are the ones
uncut node LPs grow.  All choices are deterministic, so identical
inputs give identical solutions and node counts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .simplex import INFEASIBLE, OPTIMAL, LinearProgram, LpSolution, solve_lp

MAX_BNB_NODES = 200_000  # node LP solves of one tree
# a node whose LP bound comes within this of the incumbent is pruned
PRUNE_GAP = 1e-9
# a node this close to integral is accepted and rounded, which moves each
# row by its coefficient times the distance; `LocalBlock.is_integral` too
INTEGRALITY = 1e-12


class NodeLimitError(RuntimeError):
    """Raised when a tree would solve more than MAX_BNB_NODES node LPs."""


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None = None
    value: float = np.nan
    node_count: int = 0


def solve_milp(lp: LinearProgram,
               root: LpSolution | None = None) -> MipSolution:
    """Globally minimize the mixed-integer program described by `lp`.

    `lp.integrality` flags the integer-constrained coordinates.  The
    relaxation must have a finite optimum (local problems are unbounded
    only in eta, which d > 0 prices).  `root`, if given, is
    `solve_lp(lp)`, the tree's first node; it is the answer when
    not optimal or when no column is integer.  Raises NodeLimitError
    rather than solve more than MAX_BNB_NODES node LPs.
    """
    if root is None:
        root = solve_lp(lp)
    mask = lp.integrality
    if root.status != OPTIMAL or mask is None or not np.any(mask):
        return MipSolution(status=root.status, x=root.x, value=root.value,
                           node_count=1)
    int_idx = np.flatnonzero(mask)

    best_x = None
    best_val = np.inf
    nodes = 1
    counter = 0
    # heap entries: (lp bound, insertion counter, lo, hi, parent
    # solution); siblings share their parent's arrays
    heap: list[tuple] = []
    state = [(root, lp.lo, lp.hi)]

    while state or heap:
        if state:
            sol, lo, hi = state.pop()
        else:
            bound, _, lo, hi, parent = heapq.heappop(heap)
            if bound >= best_val - PRUNE_GAP:
                continue
            if nodes >= MAX_BNB_NODES:
                raise NodeLimitError(f"node limit {MAX_BNB_NODES} reached")
            # a node LP whose bound reaches the cutoff would be pruned
            sol = solve_lp(LinearProgram(lp.c, lp.G, lp.g, lo, hi),
                           start=parent, cutoff=best_val - PRUNE_GAP)
            nodes += 1
            if sol.status != OPTIMAL:  # infeasible, or cut off
                continue
        if sol.value >= best_val - PRUNE_GAP:
            continue
        frac = np.abs(sol.x[int_idx] - np.round(sol.x[int_idx]))
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY:
            # branching any further could only re-derive the same point,
            # so accept it as incumbent
            x = sol.x.copy()
            x[int_idx] = np.round(x[int_idx])
            best_x, best_val = x, sol.value
            continue
        j = int(int_idx[worst])
        pivot = sol.x[j]
        counter += 1
        lo_up = lo.copy()
        lo_up[j] = np.ceil(pivot)
        if lo_up[j] <= hi[j] + 1e-12:
            heapq.heappush(heap, (sol.value, counter, lo_up, hi.copy(), sol))
        counter += 1
        hi_dn = hi.copy()
        hi_dn[j] = np.floor(pivot)
        if lo[j] <= hi_dn[j] + 1e-12:
            heapq.heappush(heap, (sol.value, counter, lo.copy(), hi_dn, sol))

    if best_x is None:
        return MipSolution(status=INFEASIBLE, node_count=nodes)
    return MipSolution(status=OPTIMAL, x=best_x, value=best_val,
                       node_count=nodes)
