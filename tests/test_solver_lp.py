"""LP engine checks: hand-worked KKT examples, strong duality on random
instances, vertex structure, subgradient property, determinism, and
warm starts against cold solves."""

import math

import numpy as np
import pytest

from mgridopt.solver import (CUTOFF, INFEASIBLE, OPTIMAL, UNBOUNDED,
                             LinearProgram, LpSolution, simplex, solve_lp)
from oracles.duality import dual_objective


def box_lp(c, G, g, lo, hi):
    return LinearProgram(np.asarray(c, float), np.asarray(G, float),
                         np.asarray(g, float), np.asarray(lo, float),
                         np.asarray(hi, float))


def start_at(basis, status):
    """A start of the given basis and statuses without a factor, which
    inverts its basis."""
    return LpSolution(OPTIMAL, basis=(basis, status))


def random_bounded_lp(rng, n=None, m=None):
    n = n or rng.integers(1, 9)
    m = m or rng.integers(1, 13)
    G = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    lo = x_feas - rng.uniform(0.1, 3.0, size=n)
    hi = x_feas + rng.uniform(0.1, 3.0, size=n)
    # keep x_feas feasible so the instance cannot be empty
    g = G @ x_feas + rng.uniform(0.0, 2.0, size=m)
    g[rng.random(m) < 0.4] += -rng.uniform(0.0, 1.9)  # let some rows bind
    g = np.maximum(g, G @ x_feas)
    c = rng.normal(size=n)
    return box_lp(c, G, g, lo, hi)


# ---------------------------------------------------------------- examples


def test_binding_row_dual_is_one():
    # min -x s.t. x <= 1, 0 <= x <= 2: optimum at the row, dual 1
    lp = box_lp([-1.0], [[1.0]], [1.0], [0.0], [2.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.value == pytest.approx(-1.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_zero_objective_gives_zero_duals():
    lp = box_lp([0.0], [[1.0]], [1.0], [0.0], [5.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 0.0
    assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)


def test_infeasible_detected():
    # x <= -1 with x >= 0
    lp = box_lp([1.0], [[1.0]], [-1.0], [0.0], [10.0])
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE


def test_unbounded_detected():
    lp = box_lp([-1.0], np.zeros((1, 1)), [1.0], [0.0], [np.inf])
    sol = solve_lp(lp)
    assert sol.status == UNBOUNDED


def test_equality_via_paired_rows():
    # x + y = 2 as two inequalities, min x with y <= 1.5
    G = [[1.0, 1.0], [-1.0, -1.0], [0.0, 1.0]]
    g = [2.0, -2.0, 1.5]
    lp = box_lp([1.0, 0.0], G, g, [0.0, 0.0], [5.0, 5.0])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.5, 1.5], abs=1e-9)


def test_free_variable_supported():
    # min x with x free below, row x >= -3 written as -x <= 3
    lp = box_lp([1.0], [[-1.0]], [3.0], [-np.inf], [np.inf])
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(-3.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_zero_variable_problem():
    lp = LinearProgram(np.zeros(0), np.zeros((2, 0)), np.array([1.0, 0.0]),
                       np.zeros(0), np.zeros(0))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == 0.0
    lp_bad = LinearProgram(np.zeros(0), np.zeros((1, 0)), np.array([-1.0]),
                           np.zeros(0), np.zeros(0))
    assert solve_lp(lp_bad).status == INFEASIBLE


# ---------------------------------------------------------------- properties


def test_strong_duality_on_200_random_lps():
    rng = np.random.default_rng(20240817)
    solved = 0
    while solved < 200:
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL, "feasible-by-construction instance"
        gap = abs(sol.value - dual_objective(lp, sol))
        assert gap <= 1e-7 * (1.0 + abs(sol.value))
        assert np.all(sol.duals >= -1e-9)
        # complementary slackness on rows
        slack = lp.g - lp.G @ sol.x
        assert np.all(np.abs(sol.duals * slack) <= 1e-6)
        solved += 1


def test_vertex_active_set_has_full_rank():
    rng = np.random.default_rng(7)
    for _ in range(60):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        rows = [lp.G[i] for i in range(lp.m)
                if abs(lp.g[i] - lp.G[i] @ sol.x) <= 1e-7]
        for j in range(lp.n):
            e = np.zeros(lp.n)
            e[j] = 1.0
            if abs(sol.x[j] - lp.lo[j]) <= 1e-9 or abs(sol.x[j] - lp.hi[j]) <= 1e-9:
                rows.append(e)
        A = np.array(rows)
        assert np.linalg.matrix_rank(A, tol=1e-8) == lp.n


def test_matches_scipy_reference():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(99)
    for _ in range(120):
        lp = random_bounded_lp(rng)
        sol = solve_lp(lp)
        ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.g,
                                bounds=list(zip(lp.lo, lp.hi)),
                                method="highs")
        assert ref.status == 0 and sol.status == OPTIMAL
        assert sol.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


def test_beale_cycling_example_terminates():
    # classic degenerate instance that cycles under naive most-negative
    # pricing; the degeneracy counter must hand over to Bland's rule
    c = [-0.75, 150.0, -0.02, 6.0]
    G = [[0.25, -60.0, -1.0 / 25.0, 9.0],
         [0.5, -90.0, -1.0 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    g = [0.0, 0.0, 1.0]
    lp = box_lp(c, G, g, [0.0] * 4, [np.inf] * 4)
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(-0.05, abs=1e-9)


def test_degenerate_duplicated_rows():
    rng = np.random.default_rng(44)
    for _ in range(30):
        lp0 = random_bounded_lp(rng, n=5, m=6)
        G = np.vstack([lp0.G] * 4)  # heavy degeneracy via duplication
        g = np.concatenate([lp0.g] * 4)
        lp = box_lp(lp0.c, G, g, lp0.lo, lp0.hi)
        a = solve_lp(lp0)
        b = solve_lp(lp)
        assert b.status == OPTIMAL
        assert b.value == pytest.approx(a.value, abs=1e-7)


def test_larger_instances_match_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(321)
    for _ in range(25):
        n = int(rng.integers(40, 80))
        m = int(rng.integers(60, 140))
        lp = random_bounded_lp(rng, n=n, m=m)
        sol = solve_lp(lp)
        ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.g,
                                bounds=list(zip(lp.lo, lp.hi)),
                                method="highs")
        assert sol.status == OPTIMAL and ref.status == 0
        assert sol.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-7)


def random_verdict_lp(rng, family):
    """An LP with n in 1..11 and m in 1..15, 40% zeros in G and each
    bound finite with probability 0.8.  Family 0 keeps a point feasible,
    family 1 also makes some of its rows equalities (pairs of opposite
    inequalities through that point), family 2 draws g at random, which
    mostly leaves the LP infeasible."""
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 16))
    G = rng.normal(size=(m, n)) * (rng.random((m, n)) >= 0.4)
    x = rng.normal(size=n)
    lo = np.where(rng.random(n) < 0.8, x - rng.uniform(0.1, 3.0, n), -np.inf)
    hi = np.where(rng.random(n) < 0.8, x + rng.uniform(0.1, 3.0, n), np.inf)
    if family == 2:
        g = rng.normal(size=m)
    else:
        g = G @ x + rng.uniform(0.0, 2.0, size=m) * (rng.random(m) >= 0.3)
    if family == 1:
        pairs = rng.random(m) < 0.4
        G = np.vstack([G, -G[pairs]])
        g = np.concatenate([g, -g[pairs]])
        g[:m][pairs] = (G[:m] @ x)[pairs]
        g[m:] = -g[:m][pairs]
    return box_lp(rng.normal(size=n), G, g, lo, hi)


# the LPs of `random_verdict_lp` at seeds 100-111, by seed and index,
# that an infeasibility proof once refused to call infeasible: it
# counted rates of a few 1e-15, roundoff, on columns of infinite range.
# (110, 89) is the one whose cold dual loop meets a violated row that
# only rates below PIVOT_TOL could close and must set it aside: a loop
# that raised SolverError at that row refused an LP HiGHS calls
# infeasible
ROUNDOFF_REFUSED = {
    100: (116, 167, 482, 662, 794),
    101: (26, 95, 179, 551, 563, 596, 614, 638, 755, 782),
    102: (17, 194, 227, 566, 608, 722, 734, 749, 758),
    103: (59, 68, 242, 260, 428, 461, 656),
    104: (176, 200, 356, 389, 623, 704),
    105: (158, 254, 608, 641),
    106: (80, 128, 212, 446, 584),
    107: (137, 395, 527, 569),
    108: (212, 362, 434, 530, 539),
    109: (62, 194, 215, 428),
    110: (20, 89, 314),
    111: (68, 290, 683, 710),
}


def test_cold_verdicts_match_highs():
    """Status and optimal value of cold solves against HiGHS (presolve
    off, since with it HiGHS may call an unbounded LP infeasible) on
    LPs that are feasible, hold equalities, or are mostly infeasible, so
    the dual loop's INFEASIBLE and the primal pass's UNBOUNDED verdicts
    are checked too; then on the ROUNDOFF_REFUSED LPs, each regenerated
    from its seed.  No solve may raise SolverError."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    verdict = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

    def check(lp, label):
        ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.g,
                                bounds=list(zip(lp.lo, lp.hi)),
                                method="highs",
                                options={"presolve": False})
        sol = solve_lp(lp)
        assert sol.status == verdict[ref.status], label
        if sol.status == OPTIMAL:
            assert abs(sol.value - ref.fun) <= \
                1e-7 * (1.0 + abs(ref.fun)), label
        return sol.status

    rng = np.random.default_rng(28)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for k in range(800):
        seen[check(random_verdict_lp(rng, k % 3), k)] += 1
    assert min(seen.values()) > 100, seen
    for seed, indices in ROUNDOFF_REFUSED.items():
        rng = np.random.default_rng(seed)
        for k in range(indices[-1] + 1):
            lp = random_verdict_lp(rng, k % 3)
            if k in indices:
                assert check(lp, (seed, k)) == INFEASIBLE


def test_determinism_bitwise():
    rng = np.random.default_rng(5)
    lp = random_bounded_lp(rng, n=6, m=10)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.value == b.value and a.pivots == b.pivots


def test_warm_start_matches_cold_solve(monkeypatch):
    """A B&B child: tighten one basic column to the floor or ceiling of
    its value and re-solve from the parent's basis.  The warm solve
    must agree with a cold solve of the child.  The parent's basis is
    dual feasible and the dual loop keeps it so: the primal clean-up
    pass after it makes no pivot."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    iterate = simplex._Simplex._iterate
    clean_up = []

    def recording(self):
        before = self.pivots
        unbounded = iterate(self)
        clean_up.append(self.pivots - before)
        return unbounded

    @hyp.settings(max_examples=300, derandomize=True, deadline=None,
                  database=None)
    @hyp.given(st.integers(0, 2**32 - 1), st.integers(0, 15), st.booleans())
    def check(seed, pick, up):
        lp = random_bounded_lp(np.random.default_rng(seed))
        parent = solve_lp(lp)
        assert parent.status == OPTIMAL
        basic = parent.basis[0][parent.basis[0] < lp.n]
        hyp.assume(basic.size > 0)
        j = int(basic[pick % basic.size])
        lo, hi = lp.lo.copy(), lp.hi.copy()
        if up:
            lo[j] = np.ceil(parent.x[j])
        else:
            hi[j] = np.floor(parent.x[j])
        hyp.assume(lo[j] <= hi[j])
        child = LinearProgram(lp.c, lp.G, lp.g, lo, hi)
        cold = solve_lp(child)
        clean_up.clear()
        with monkeypatch.context() as patch:
            patch.setattr(simplex._Simplex, "_iterate", recording)
            warm = solve_lp(child, start=start_at(*parent.basis))
        assert warm.status == cold.status
        assert clean_up == ([] if warm.status == INFEASIBLE else [0])
        if cold.status == OPTIMAL:
            assert abs(warm.value - cold.value) <= 1e-9 * (1 + abs(cold.value))
            assert np.all((lo <= warm.x) & (warm.x <= hi))
            assert np.all(lp.G @ warm.x <= lp.g + 1e-7)

    check()


def assert_same_solve(a, b):
    """a and b agree bit for bit, pivot count and basis included."""
    assert a.status == b.status and a.pivots == b.pivots
    assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
    for field in ("x", "duals"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is v is None) or u.tobytes() == v.tobytes()
    assert all(u.tobytes() == v.tobytes()
               for u, v in zip(a.basis or (), b.basis or ()))


def test_a_cutoff_ends_only_a_solve_whose_optimum_reaches_it(monkeypatch):
    """Seeded parents, solved cold, and one B&B child of each, solved
    warm from its parent's basis.  A cutoff of +inf, or one above the
    optimum, changes no bit of the solve, its inverse included.  A
    cutoff below the optimum returns CUTOFF and nothing but its pivots,
    no more of them than the full solve takes, and skips the
    refactorization before reporting: a warm child may stop in its dual
    loop, where c'x of its dual feasible basis bounds the optimum, and a
    cold solve stops at its optimum.  Then cold solves of verdict LPs,
    whose infinite bounds zero the prices of free columns and of columns
    whose cost points off their one finite bound: a cutoff above the
    optimum, any finite one for an unbounded LP, changes no bit, and
    CUTOFF comes only when the optimum reaches the cutoff."""
    calls = [0]
    inv = np.linalg.inv

    def inverting(a):
        calls[0] += 1
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", inverting)

    def solve(lp, start, cutoff=math.inf):
        before = calls[0]
        sol = solve_lp(lp, start=start, cutoff=cutoff)
        return sol, calls[0] - before

    rng = np.random.default_rng(25)
    stopped_early = 0
    for k in range(200):
        if k % 20 == 19:  # past REFACTOR_EVERY pivots
            lp = random_bounded_lp(rng, n=int(rng.integers(40, 80)),
                                   m=int(rng.integers(60, 140)))
        else:
            lp = random_bounded_lp(rng)
        parent = solve_lp(lp)
        basic = parent.basis[0][parent.basis[0] < lp.n]
        j = int(basic[k % basic.size]) if basic.size else 0
        lo, hi = lp.lo.copy(), lp.hi.copy()
        if k % 2:
            lo[j] = min(np.ceil(parent.x[j]), hi[j])
        else:
            hi[j] = max(np.floor(parent.x[j]), lo[j])
        child = LinearProgram(lp.c, lp.G, lp.g, lo, hi)
        for prog, start in ((lp, None), (child, start_at(*parent.basis))):
            full, full_inv = solve(prog, start)
            if full.status != OPTIMAL:
                continue
            margin = 1e-6 * (1.0 + abs(full.value))
            for cutoff in (math.inf, full.value + margin):
                same, same_inv = solve(prog, start, cutoff)
                assert_same_solve(same, full)
                assert same.factor.inverse.tobytes() == \
                    full.factor.inverse.tobytes()
                assert same_inv == full_inv
            below = [full.value - margin]
            if start is not None:
                # halfway from the start's bound, the parent's optimum
                below.append(0.5 * (parent.value + full.value))
            for cutoff in below:
                if not cutoff < full.value - margin / 2:
                    continue
                cut, cut_inv = solve(prog, start, cutoff)
                assert cut.status == CUTOFF
                assert cut.x is cut.basis is cut.factor is None
                assert cut.pivots <= full.pivots
                assert cut_inv <= full_inv - 1
                stopped_early += cut.pivots < full.pivots
    assert stopped_early > 20

    rng = np.random.default_rng(29)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for k in range(600):
        lp = random_verdict_lp(rng, k % 3)
        full, _ = solve(lp, None)
        seen[full.status] += 1
        if full.status == OPTIMAL:
            margin = 1e-6 * (1.0 + abs(full.value))
            above, below = [full.value + margin], [full.value - margin]
        elif full.status == UNBOUNDED:
            above, below = [-1e3, 0.0, 1e3], []
        else:
            above, below = [], [-1e3, 0.0, 1e3]
        for cutoff in above:
            same, _ = solve(lp, None, cutoff)
            assert_same_solve(same, full)
        for cutoff in below:
            cut, _ = solve(lp, None, cutoff)
            assert cut.status in (CUTOFF, full.status)
            assert cut.pivots <= full.pivots
            if full.status == OPTIMAL:
                assert cut.status == CUTOFF
    assert min(seen.values()) > 50, seen


def test_resolve_under_another_g_matches_cold_solve():
    """An allocation round: the same c, G and bounds under a moved g,
    started from the earlier solve's basis and the factor it returned.
    A cold solve's inverse is the refactorization's, bit for bit, with
    no update; the warm solve agrees with a cold one in status and
    value, and reports the inverse it pivoted to, which carries the
    start's updates plus its pivots and still inverts its basis."""
    rng = np.random.default_rng(17)
    took_warm = 0
    for _ in range(300):
        lp = random_bounded_lp(rng)
        prev = solve_lp(lp)
        A = np.concatenate([lp.G, np.eye(lp.m)], axis=1)
        B = A[:, prev.basis[0]]
        assert prev.factor.inverse.tobytes() == np.linalg.inv(B).tobytes()
        assert prev.factor.updates == 0
        g = lp.g + rng.normal(scale=0.3, size=lp.m)
        moved = LinearProgram(lp.c, lp.G, g, lp.lo, lp.hi)
        cold = solve_lp(moved)
        warm = solve_lp(moved, start=prev)
        assert warm.status == cold.status
        if cold.status != OPTIMAL:
            continue
        took_warm += warm.pivots < cold.pivots
        if warm.pivots < cold.pivots:
            assert warm.factor.updates == warm.pivots
        assert np.abs(warm.factor.inverse @ A[:, warm.basis[0]]
                      - np.eye(lp.m)).max() <= 1e-9
        assert abs(warm.value - cold.value) <= 1e-9 * (1 + abs(cold.value))
        assert np.all((lp.lo <= warm.x) & (warm.x <= lp.hi))
        assert np.all(lp.G @ warm.x <= g + 1e-7)
        assert np.all(warm.duals >= 0.0)
        assert abs(warm.value - dual_objective(moved, warm)) <= \
            1e-7 * (1 + abs(warm.value))
        # the start's inverse is left as it was
        assert prev.factor.inverse.tobytes() == np.linalg.inv(B).tobytes()
    assert took_warm > 100


def farther_than_cold(lp, prev):
    """Whether the start `prev` leaves more basic rows of `lp` outside
    their bounds than the cold start of `lp` (every column at its
    finite lower bound) violates rows."""
    basis, status = prev.basis
    A = np.concatenate([lp.G, np.eye(lp.m)], axis=1)
    lo = np.concatenate([lp.lo, np.zeros(lp.m)])
    hi = np.concatenate([lp.hi, np.full(lp.m, np.inf)])
    xn = np.where(status == simplex._AT_HI, hi, lo)
    xn[basis] = 0.0
    xb = prev.factor.inverse @ (lp.g - A @ xn)
    off = (lo[basis] - xb > 1e-7) | (xb - hi[basis] > 1e-7)
    return int(off.sum()) > int((lp.g - lp.G @ lp.lo < 0.0).sum())


def test_a_resolve_start_farther_from_feasible_than_cold_goes_cold():
    # such a start returns the cold solve bit for bit: it spends no dual
    # pivot, while the same start without its factor, which never meets
    # the rule, runs the dual loop
    rng = np.random.default_rng(23)
    refused = differs = 0
    for _ in range(300):
        lp = random_bounded_lp(rng)
        prev = solve_lp(lp)
        moved = LinearProgram(lp.c, lp.G,
                              lp.g + rng.normal(scale=1.0, size=lp.m),
                              lp.lo, lp.hi)
        if not farther_than_cold(moved, prev):
            continue
        refused += 1
        cold = solve_lp(moved)
        assert_same_solve(solve_lp(moved, start=prev), cold)
        differs += solve_lp(moved, start=start_at(*prev.basis)).pivots != \
            cold.pivots
    assert refused > 20 and differs > 10


def test_subgradient_of_subproblem_value():
    # p(y) = min c'x s.t. A x <= y over a box; -mu must support p at y
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        A = rng.normal(size=(k, n))
        c = rng.normal(size=n)
        lo = -np.ones(n)
        hi = np.ones(n)
        y = A @ rng.uniform(-0.5, 0.5, size=n) + rng.uniform(0, 0.5, size=k)

        def p(yv):
            s = solve_lp(box_lp(c, A, yv, lo, hi))
            assert s.status == OPTIMAL
            return s.value, s.duals

        base, mu = p(y)
        eps = 1e-5
        for j in range(k):
            e = np.zeros(k)
            e[j] = eps
            up, _ = p(y + e)
            dn, _ = p(y - e)
            # subgradient inequality p(y + d) >= p(y) - mu'd
            assert up >= base - mu[j] * eps - 1e-7
            assert dn >= base + mu[j] * eps - 1e-7
            # and the finite-difference slope brackets -mu
            assert (up - dn) / (2 * eps) == pytest.approx(-mu[j], abs=1e-4)


def test_hand_kkt_subproblem():
    # 1-D: min -x, x <= y, 0 <= x <= 10, y = 5 -> p(y) = -y, mu = 1
    sol = solve_lp(box_lp([-1.0], [[1.0]], [5.0], [0.0], [10.0]))
    assert sol.value == pytest.approx(-5.0, abs=1e-9)
    assert sol.duals[0] == pytest.approx(1.0, abs=1e-9)


def test_lp_format_dump(tmp_path):
    from mgridopt.solver import write_lp_format
    lp = LinearProgram(np.array([-1.0, 2.0]), np.array([[1.0, 1.0]]),
                       np.array([1.5]), np.array([0.0, 0.0]),
                       np.array([1.0, np.inf]),
                       integrality=np.array([True, False]))
    text = write_lp_format(lp, tmp_path / "p.lp")
    assert (tmp_path / "p.lp").read_text() == text
    assert "Minimize" in text and "Subject To" in text and "End" in text
    assert "- 1 x0" in text and "+ 2 x1" in text
    assert "r0: " in text and "<= 1.5" in text
    assert "Binaries" in text and "\n x0" in text
    assert "0 <= x1 <= +inf" in text

