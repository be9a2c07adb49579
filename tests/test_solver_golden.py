"""Solver paths the desk run never reaches, pinned bit for bit.

Each test solves a fixed, seeded set of LPs or MILPs and folds every
solution's status, x, duals, value, pivot count and basis (and a
MILP's node count) into one sha256.  The digests hold on the numpy and
OpenBLAS build they were taken with; a change to the simplex that
keeps its pivots and its arithmetic keeps them too.  A change that
moves a solve on purpose updates the digest and says why in
CHANGES.md; `tests/repin.py` recomputes them with the functions below.
"""

import hashlib

import numpy as np
import pytest

from mgridopt.solver import (LinearProgram, SolverError, branch_bound, simplex,
                             solve_lp, solve_milp)
from test_solver_lp import box_lp, random_bounded_lp, start_at
from test_solver_milp import enumeration_mips

DIGESTS = {
    "random_lps_and_their_warm_children":
        "f1c358a24c495457319aeaf60bb255b1784b2da21d7b49321b505329d16a3031",
    "special_lps":
        "b8dd8465e32167bc93a4f48008f6b12e7338319570fd06ca4d198650d2b0574d",
    "warm_starts_that_go_cold":
        "5a08e53e496c031195e1f9d573815bfa8275186ab134bc9b908ec9abccb3ec5a",
    "enumeration_milps_and_their_node_lps":
        "8847924164e3fe0d2471f13d413d2909e0a0929689c77df97ae4a03467332159",
}


def fold(h, sol):
    """Fold one LpSolution or MipSolution into the hash `h`."""
    h.update(sol.status.encode())
    h.update(np.float64(sol.value).tobytes())
    for field in ("x", "duals"):
        arr = getattr(sol, field, None)
        h.update(b"-" if arr is None else arr.tobytes())
    if hasattr(sol, "pivots"):
        h.update(str(sol.pivots).encode())
        for arr in sol.basis or ():
            h.update(arr.dtype.str.encode() + arr.tobytes())
    else:
        h.update(str(sol.node_count).encode())


def child_of(lp, parent, k):
    """The B&B child that floors (k even) or ceils a basic structural
    column of `parent`, or None when none is basic."""
    basic = parent.basis[0][parent.basis[0] < lp.n]
    if basic.size == 0:
        return None
    j = int(basic[k % basic.size])
    lo, hi = lp.lo.copy(), lp.hi.copy()
    if k % 2:
        lo[j] = min(np.ceil(parent.x[j]), hi[j])
    else:
        hi[j] = max(np.floor(parent.x[j]), lo[j])
    return LinearProgram(lp.c, lp.G, lp.g, lo, hi)


def random_lps_and_their_warm_children():
    """190 small instances and 10 past REFACTOR_EVERY pivots, each
    solved cold and one child of each solved warm from its basis alone:
    the digest of their solutions."""
    rng = np.random.default_rng(16)
    h = hashlib.sha256()
    for k in range(200):
        if k % 20 == 19:
            lp = random_bounded_lp(rng, n=int(rng.integers(40, 80)),
                                   m=int(rng.integers(60, 140)))
        else:
            lp = random_bounded_lp(rng)
        parent = solve_lp(lp)
        fold(h, parent)
        child = child_of(lp, parent, k)
        if child is not None:
            fold(h, solve_lp(child, start=start_at(*parent.basis)))
    return h.hexdigest()


def test_random_lps_and_their_warm_children():
    assert random_lps_and_their_warm_children() == \
        DIGESTS["random_lps_and_their_warm_children"]


def special_lps():
    inf = np.inf
    # Beale's, Kuhn's and Hall and McKinnon's examples cycle under
    # most-negative pricing: the Bland switch must end them
    beale = box_lp([-0.75, 150.0, -0.02, 6.0],
                   [[0.25, -60.0, -1.0 / 25.0, 9.0],
                    [0.5, -90.0, -1.0 / 50.0, 3.0],
                    [0.0, 0.0, 1.0, 0.0]],
                   [0.0, 0.0, 1.0], [0.0] * 4, [inf] * 4)
    kuhn = box_lp([-2.0, -3.0, 1.0, 12.0],
                  [[-2.0, -9.0, 1.0, 9.0],
                   [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0],
                   [2.0, 3.0, -1.0, -12.0]],
                  [0.0, 0.0, 2.0], [0.0] * 4, [inf] * 4)
    hall_mckinnon = box_lp([-2.3, -2.15, 13.55, 0.4],
                           [[0.4, 0.2, -1.4, -0.2],
                            [-7.8, -1.4, 7.8, 0.4],
                            [1.0, 1.0, 1.0, 1.0]],
                           [0.0, 0.0, 1.0], [0.0] * 4, [inf] * 4)
    # a free column, and one that starts at its upper bound
    free = box_lp([1.0, -1.0], [[-1.0, 0.0], [1.0, 1.0]], [3.0, 4.0],
                  [-inf, -inf], [inf, 2.0])
    fixed = box_lp([-1.0, -2.0, 1.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                   [4.0, 1.0], [0.0, 1.5, -1.0], [3.0, 1.5, 2.0])
    # x reaches its upper bound before any row binds
    flip = box_lp([-1.0, -0.5], [[1.0, 2.0]], [10.0], [0.0, 0.0],
                  [1.0, inf])
    # a row the slack start violates
    violated = box_lp([1.0, 1.0], [[-1.0, -1.0], [1.0, -2.0]],
                      [-2.0, 1.0], [0.0, 0.0], [5.0, 5.0])
    unbounded = box_lp([-1.0, 0.0], [[0.0, 1.0]], [1.0], [0.0, 0.0],
                       [inf, 2.0])
    infeasible = box_lp([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]],
                        [1.0, -2.0], [0.0, 0.0], [5.0, 5.0])
    empty = LinearProgram(np.zeros(0), np.zeros((2, 0)),
                          np.array([1.0, 0.0]), np.zeros(0), np.zeros(0))
    return {"beale": beale, "kuhn": kuhn, "hall_mckinnon": hall_mckinnon,
            "free": free, "fixed": fixed, "flip": flip,
            "violated": violated, "unbounded": unbounded,
            "infeasible": infeasible, "empty": empty}


def solved_special_lps():
    """(statuses, digest) of the special LPs, each solved cold."""
    h = hashlib.sha256()
    statuses = []
    for lp in special_lps().values():
        sol = solve_lp(lp)
        statuses.append(sol.status)
        fold(h, sol)
    return statuses, h.hexdigest()


def test_special_lps():
    statuses, digest = solved_special_lps()
    assert statuses == ["optimal"] * 7 + ["unbounded", "infeasible",
                                          "optimal"]
    assert digest == DIGESTS["special_lps"]


def slack_start(lp):
    """The slack basis with every structural column at its lower bound."""
    basis = np.arange(lp.n, lp.n + lp.m)
    status = np.zeros(lp.n + lp.m, dtype=np.int8)
    status[basis] = simplex._BASIC
    return start_at(basis, status)


def warm_starts_that_go_cold():
    """(statuses, digest) of starts the dual loop refuses, each handing
    its solve to a cold one."""
    lps = special_lps()
    free, boxed, unbounded = lps["free"], lps["violated"], lps["unbounded"]
    # a nonbasic column on an infinite bound
    infinite = slack_start(free)
    basis, status = slack_start(boxed).basis
    singular = basis.copy()
    singular[1] = singular[0]
    runs = [(free, infinite), (boxed, start_at(singular, status)),
            (unbounded, slack_start(unbounded))]
    h = hashlib.sha256()
    statuses = []
    for lp, start in runs:
        sol = solve_lp(lp, start=start)
        statuses.append(sol.status)
        fold(h, sol)
    return statuses, h.hexdigest()


def test_warm_starts_that_go_cold():
    statuses, digest = warm_starts_that_go_cold()
    assert statuses == ["optimal"] * 2 + ["unbounded"]
    assert digest == DIGESTS["warm_starts_that_go_cold"]


def test_a_long_warm_dual_loop_runs_to_the_cold_solves_point():
    # x_i + x_(i+1) / 2 >= 1/2 on 0 <= x <= 1: the slack start violates
    # all 110 rows and the dual loop pivots once a row.  A warm loop has
    # the cold loop's pivot budget, so it spends no pivot it abandons
    n = 110
    chain = box_lp(np.linspace(1.0, 2.0, n),
                   -(np.eye(n) + np.diag(np.full(n - 1, 0.5), 1)),
                   np.full(n, -0.5), np.zeros(n), np.ones(n))
    warm = solve_lp(chain, start=slack_start(chain))
    cold = solve_lp(chain)
    assert warm.status == cold.status == "optimal"
    assert warm.pivots <= cold.pivots
    assert warm.x.tobytes() == cold.x.tobytes()


def test_a_row_only_tiny_columns_can_close_is_not_called_infeasible():
    # x = 1e3 / |coef| is feasible.  A coefficient below PIVOT_TOL moves
    # the row by no pivot-sized rate, yet the reach proof finds it could
    # close the row: a warm start hands the solve to the cold one, whose
    # dual loop sets the row aside and, with no other row violated,
    # refuses the LP rather than call it infeasible
    tiny = box_lp([1.0], [[-1e-11]], [-1e-3], [0.0], [1e12])
    small = box_lp([1.0], [[-1e-9]], [-1e-3], [0.0], [1e12])
    for start in (None, slack_start(tiny)):
        with pytest.raises(SolverError, match="smaller rates could close"):
            solve_lp(tiny, start=start)
    # a pivot element of 1e-9 passes PIVOT_TOL: the dual loop solves it
    for start in (None, slack_start(small)):
        sol = solve_lp(small, start=start)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1e6, rel=1e-12)


def test_a_large_entry_in_another_row_does_not_hide_a_real_rate():
    # the tiny and small LPs with a loose second row whose coefficient
    # on x is large: the rate of x on the violated row is exact, and its
    # noise bound must not pair that row's weight with the other row's
    # entry, which would call a feasible LP infeasible
    tiny = box_lp([1.0], [[-1e-11], [1e4]], [-1e-3, 1e20], [0.0], [1e12])
    small = box_lp([1.0], [[-1e-9], [1e6]], [-1e-3, 1e20], [0.0], [1e12])
    for start in (None, slack_start(tiny)):
        with pytest.raises(SolverError, match="smaller rates could close"):
            solve_lp(tiny, start=start)
    for start in (None, slack_start(small)):
        sol = solve_lp(small, start=start)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1e6, rel=1e-12)


def enumeration_milps_and_their_node_lps():
    """The digest of the instances of
    test_matches_enumeration_on_200_instances and of every node LP of
    every tree, warm-started from its parent's solution and run to its
    optimum (the cutoff is dropped)."""
    h = hashlib.sha256()
    real = branch_bound.solve_lp

    def folding(lp, **kwargs):
        kwargs.pop("cutoff", None)
        sol = real(lp, **kwargs)
        fold(h, sol)
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(branch_bound, "solve_lp", folding)
        for lp in enumeration_mips():
            fold(h, solve_milp(lp))
    return h.hexdigest()


def test_enumeration_milps_and_their_node_lps():
    assert enumeration_milps_and_their_node_lps() == \
        DIGESTS["enumeration_milps_and_their_node_lps"]
