"""Branch-and-bound checks against exhaustive enumeration and, on the
desk agents' finalize and certificate MILPs and allocation LPs, against
HiGHS; the node budget and the warm-started node LPs."""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from mgridopt import analysis
from mgridopt.analysis import compute_lower_bound, violation_certificate
from mgridopt.config import ExperimentConfig, build_problem
from mgridopt.dialgo import (AgentSolveError, LocalProblem,
                             exchange_and_update, init_allocations,
                             local_multiplier_step, make_agents,
                             recourse_cap, run)
from mgridopt.solver import (CUTOFF, INFEASIBLE, INTEGRALITY, OPTIMAL,
                             LinearProgram, NodeLimitError, solve_lp,
                             solve_milp)
from mgridopt.solver import branch_bound
from mgridopt.stochastic import build_h
from test_solver_lp import assert_same_solve

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


def enumerate_milp(lp):
    """Brute-force oracle: try every integer assignment, keep the best LP."""
    idx = np.flatnonzero(lp.integrality)
    best = np.inf
    best_x = None
    ranges = [range(int(np.ceil(lp.lo[j] - 1e-9)),
                    int(np.floor(lp.hi[j] + 1e-9)) + 1) for j in idx]
    for combo in itertools.product(*ranges):
        lo = lp.lo.copy()
        hi = lp.hi.copy()
        lo[idx] = hi[idx] = combo
        sol = solve_lp(LinearProgram(lp.c, lp.G, lp.g, lo, hi))
        if sol.status == OPTIMAL and sol.value < best:
            best = sol.value
            best_x = sol.x
    return best, best_x


def random_mip(rng, n_bin, n_cont):
    n = n_bin + n_cont
    m = int(rng.integers(1, 2 * n + 2))
    G = rng.normal(size=(m, n))
    lo = np.concatenate([np.zeros(n_bin), -rng.uniform(0.5, 2.0, n_cont)])
    hi = np.concatenate([np.ones(n_bin), rng.uniform(0.5, 2.0, n_cont)])
    x0 = rng.uniform(lo, hi)
    g = G @ x0 + rng.uniform(0.0, 1.5, size=m)
    c = rng.normal(size=n)
    mask = np.zeros(n, dtype=bool)
    mask[:n_bin] = True
    return LinearProgram(c, G, g, lo, hi, integrality=mask)


def enumeration_mips():
    """The 200 seeded MILPs checked against enumeration, 8 of them with
    12 binaries."""
    rng = np.random.default_rng(424242)
    for k in range(200):
        n_bin = 12 if k % 25 == 24 else int(rng.integers(1, 8))
        yield random_mip(rng, n_bin, int(rng.integers(0, 4)))


def test_single_integer_box():
    # min -x, x integer in [0, 1.5] -> x* = 1
    lp = LinearProgram(np.array([-1.0]), np.zeros((1, 1)), np.array([10.0]),
                       np.array([0.0]), np.array([1.5]),
                       integrality=np.array([True]))
    sol = solve_milp(lp)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.value == pytest.approx(-1.0)


def test_all_continuous_equals_lp():
    rng = np.random.default_rng(2)
    lp = random_mip(rng, 0, 5)
    milp = solve_milp(lp)
    ref = solve_lp(lp)
    assert milp.value == pytest.approx(ref.value, abs=1e-12)
    assert milp.node_count == 1


def test_two_binary_knapsack():
    # min -(x1 + 2 x2) s.t. x1 + x2 <= 1, binaries -> (0, 1), value -2
    lp = LinearProgram(np.array([-1.0, -2.0]), np.array([[1.0, 1.0]]),
                       np.array([1.0]), np.zeros(2), np.ones(2),
                       integrality=np.ones(2, dtype=bool))
    sol = solve_milp(lp)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.0, 1.0])
    assert sol.value == pytest.approx(-2.0)


def test_infeasible_milp():
    lp = LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([-0.5]),
                       np.array([0.0]), np.array([1.0]),
                       integrality=np.array([True]))
    assert solve_milp(lp).status == INFEASIBLE


def test_integrality_of_reported_solutions():
    rng = np.random.default_rng(31)
    for _ in range(40):
        lp = random_mip(rng, int(rng.integers(1, 7)), int(rng.integers(0, 4)))
        sol = solve_milp(lp)
        if sol.status != OPTIMAL:
            continue
        ints = sol.x[lp.integrality]
        assert np.all(np.abs(ints - np.round(ints)) <= 1e-6)
        assert np.all(lp.G @ sol.x <= lp.g + 1e-6)


def test_matches_enumeration_on_200_instances():
    for lp in enumeration_mips():
        ref_val, _ = enumerate_milp(lp)
        sol = solve_milp(lp)
        if not np.isfinite(ref_val):
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert abs(sol.value - ref_val) <= 1e-8 * (1.0 + abs(ref_val))


def test_determinism():
    rng = np.random.default_rng(8)
    lp = random_mip(rng, 6, 3)
    a = solve_milp(lp)
    b = solve_milp(lp)
    assert a.value == b.value
    assert a.node_count == b.node_count
    assert a.x.tobytes() == b.x.tobytes()


def desk_at_equal_split():
    """The desk problem and one agent per block holding the equal
    split."""
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    scen = problem.scen
    agents = make_agents(problem.blocks, scen, problem.d,
                         init_allocations(build_h(scen), len(problem.blocks)))
    return problem, agents


def assert_matches_highs(scipy_opt, lp, sol, label):
    ref = scipy_opt.milp(
        lp.c, integrality=lp.integrality.astype(int),
        bounds=scipy_opt.Bounds(lp.lo, lp.hi),
        constraints=scipy_opt.LinearConstraint(lp.G, -np.inf, lp.g),
        options={"mip_rel_gap": 1e-9})
    assert sol.status == OPTIMAL and ref.success, label
    assert abs(sol.value - ref.fun) <= 1e-6 * (1.0 + abs(ref.fun)), \
        (label, sol.value, ref.fun)


def test_desk_finalize_milps_match_highs():
    """Every desk agent's finalize MILP at the equal split:
    branch-and-bound on the agent's own LocalProblem reaches the
    optimum HiGHS certifies."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    problem, agents = desk_at_equal_split()
    for a in agents:
        # solve() leaves y in the agent's LP
        sol = a.lifted.solve(solve_milp, a.y, "recovery MILP")
        assert_matches_highs(scipy_opt, a.lifted.lp, sol, a.lifted.index)


def test_desk_allocation_lps_match_highs():
    """Every desk agent's allocation LP at the equal split reaches the
    optimum HiGHS certifies."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    problem, agents = desk_at_equal_split()
    for a in agents:
        sol = a.lifted.solve(solve_lp, a.y, "allocation LP")
        lp = a.lifted.lp
        ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.g,
                                bounds=list(zip(lp.lo, lp.hi)),
                                method="highs")
        assert sol.status == OPTIMAL and ref.status == 0, a.lifted.index
        assert abs(sol.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun)), \
            (a.lifted.index, sol.value, ref.fun)


def test_storage_nodes_at_minimum_energy_match_highs():
    """The desk storage_0 block starting at its minimum energy, where
    every node LP that discharges in the first step is infeasible: at
    the equal split and two random allocations, each of the 64 patterns
    of its charging flags, fixed, solves to HiGHS's status (and
    optimum), warm from the relaxed root and cold, and none raises."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    verdict = {0: OPTIMAL, 2: INFEASIBLE}
    raw = ExperimentConfig.from_yaml(DESK).raw
    storage = raw["units"]["storages"][0]
    storage["initial_energy_kwh"] = storage["energy_min_kwh"]
    problem = build_problem(ExperimentConfig(raw=raw))
    assert problem.blocks[0].kind == "storage"
    lifted = LocalProblem(problem.blocks[0], problem.scen.R, problem.d)
    lp = lifted.lp
    flags = np.flatnonzero(lp.integrality)
    h = build_h(problem.scen)
    rng = np.random.default_rng(6)
    allocations = [h / len(problem.blocks)] + [
        rng.uniform(-5.0, 5.0, h.size) for _ in range(2)]
    infeasible = 0
    for y in allocations:
        root = lifted.solve(solve_lp, y, "allocation LP")
        for pattern in itertools.product((0.0, 1.0), repeat=flags.size):
            lo, hi = lp.lo.copy(), lp.hi.copy()
            lo[flags] = hi[flags] = pattern
            node = LinearProgram(lp.c, lp.G, lp.g, lo, hi)
            ref = scipy_opt.linprog(node.c, A_ub=node.G, b_ub=node.g,
                                    bounds=list(zip(lo, hi)),
                                    method="highs",
                                    options={"presolve": False})
            infeasible += ref.status == 2
            for start in (root, None):
                sol = solve_lp(node, start=start)
                assert sol.status == verdict[ref.status], pattern
                if sol.status == OPTIMAL:
                    assert abs(sol.value - ref.fun) <= \
                        1e-7 * (1.0 + abs(ref.fun)), pattern
    assert infeasible > 0


def test_desk_certificate_auxiliary_milps_match_highs(monkeypatch):
    """After one desk round three agents are non-integral; each one's
    auxiliary MILP at the floored allocation reaches the optimum HiGHS
    certifies."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    res = run(problem.blocks, problem.scen, problem.d, problem.graph,
              problem.schedule, T_f=1)
    solved = []

    def recording(lp, **kwargs):
        sol = solve_milp(lp, **kwargs)
        # the agent's LP is reused in place: keep the arrays of this solve
        solved.append((LinearProgram(lp.c, lp.G, lp.g.copy(), lp.lo,
                                     lp.hi.copy(), lp.integrality), sol))
        return sol

    monkeypatch.setattr(analysis, "solve_milp", recording)
    cert = violation_certificate(res)
    assert len(solved) == sum(not f for f in cert.in_integral_set) == 3
    for k, (lp, sol) in enumerate(solved):
        assert_matches_highs(scipy_opt, lp, sol, k)


def test_node_limit_names_the_agent_round_and_stage(monkeypatch):
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    args = (problem.blocks, problem.scen, problem.d, problem.graph,
            problem.schedule)
    res = run(*args, T_f=1)
    monkeypatch.setattr(branch_bound, "MAX_BNB_NODES", 2)
    # agent 0, a storage, needs 23 nodes at the equal split
    assert problem.blocks[0].kind == "storage"
    with pytest.raises(AgentSolveError) as err:
        run(*args, T_f=0)
    assert (err.value.agent, err.value.stage) == (0, "round 0 recovery MILP")
    assert str(err.value) == \
        "agent 0: round 0 recovery MILP solve ended node limit 2 reached"
    assert isinstance(err.value.__cause__.__cause__, NodeLimitError)
    with pytest.raises(AgentSolveError) as err:
        violation_certificate(res)
    assert err.value.stage == "certificate auxiliary MILP"


def test_node_lps_start_from_their_parents_basis(monkeypatch):
    """The desk finalize MILPs at the equal split take at most a quarter
    of the pivots their node LPs take solved cold, so a warm start that
    silently goes cold fails here; the node counts and optima agree."""
    problem, agents = desk_at_equal_split()
    real = branch_bound.solve_lp

    def finalize_all(start_from_parent):
        pivots = 0

        def counting(lp, **kwargs):
            nonlocal pivots
            if not start_from_parent:
                kwargs.pop("start", None)
            sol = real(lp, **kwargs)
            pivots += sol.pivots
            return sol

        monkeypatch.setattr(branch_bound, "solve_lp", counting)
        sols = [a.lifted.solve(solve_milp, a.y, "recovery MILP")
                for a in agents]
        return pivots, sols

    warm, warm_sols = finalize_all(True)
    cold, cold_sols = finalize_all(False)
    assert 4 * warm <= cold, (warm, cold)
    for w, c in zip(warm_sols, cold_sols):
        assert w.node_count == c.node_count
        assert abs(w.value - c.value) <= 1e-9 * (1.0 + abs(c.value))


def assert_same_trees(grown, again):
    for a, b in zip(grown, again, strict=True):
        assert (a.status, a.node_count) == (b.status, b.node_count)
        assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        assert (a.x is None and b.x is None) or a.x.tobytes() == b.x.tobytes()


def tree_solver():
    """solve_all(): the seeded enumeration MILPs, then every desk agent's
    finalize and certificate auxiliary MILP at the equal split."""
    problem, agents = desk_at_equal_split()
    agents = [a for a in agents if a.lifted.lp.integrality.any()]
    cap = recourse_cap(problem.blocks, problem.scen)
    ells = [compute_lower_bound(a.lifted, cap) for a in agents]

    def solve_all():
        sols = [solve_milp(lp) for lp in enumeration_mips()]
        for a, ell in zip(agents, ells):
            sols.append(a.lifted.solve(solve_milp, a.y, "recovery MILP"))
            sols.append(a.lifted.solve(solve_milp, ell,
                                       "certificate auxiliary MILP"))
        return sols
    return solve_all


def test_node_lps_start_from_their_parents_solution_and_leave_it(
        monkeypatch):
    """On the seeded enumeration MILPs and every desk agent's finalize
    and certificate auxiliary MILP at the equal split, every node LP but
    a root starts from the solution of its parent, the node one bound
    away, factor included, and leaves that factor's inverse as it found
    it: siblings share the array, so a child that pivoted it in place
    would move its sibling's start.  The trees reach the status, node
    count and value (1e-9 relative) of trees whose children start from
    their parent's basis alone."""
    solve_all = tree_solver()
    real = branch_bound.solve_lp
    grown = []
    for with_factor in (True, False):
        solved = {}  # id of a node LP's solution -> (solution, its LP)
        starts = 0

        def node(lp, start=None, **kwargs):
            nonlocal starts
            if start is not None:
                starts += 1
                parent, parent_lp = solved[id(start)]
                assert parent is start
                moved = (lp.lo != parent_lp.lo) | (lp.hi != parent_lp.hi)
                assert int(moved.sum()) == 1
                assert start.factor is not None
                before = start.factor.inverse.tobytes()
                if not with_factor:
                    start = dataclasses.replace(start, factor=None)
            sol = real(lp, start=start, **kwargs)
            if start is not None and with_factor:
                assert start.factor.inverse.tobytes() == before
            solved[id(sol)] = (sol, lp)
            return sol

        monkeypatch.setattr(branch_bound, "solve_lp", node)
        grown.append(solve_all())
        assert starts > 1000
    for a, b in zip(*grown, strict=True):
        assert (a.status, a.node_count) == (b.status, b.node_count)
        if a.status == OPTIMAL:
            assert abs(a.value - b.value) <= 1e-9 * (1.0 + abs(b.value))


def test_children_of_a_warm_root_take_its_updated_factor(monkeypatch):
    """A finalize rooted at a warm allocation solve, whose inverse has
    taken rank-one updates since its last refactorization, hands the
    root's children that factor, and the tree reaches the status and
    value (1e-9 relative) of the same root without its factor.  The
    updated inverse may break a tie between optimal vertices otherwise,
    so the trees may differ: one generator's takes 9 nodes against 7,
    and the 4 trees together 188 against 186."""
    problem, agents = desk_at_equal_split()
    for a in agents:
        local_multiplier_step(a)
    exchange_and_update(agents, problem.graph, problem.schedule(0))
    for a in agents:
        local_multiplier_step(a, warm=True)
    rooted = [a for a in agents if a.relaxed.factor is not None
              and a.relaxed.factor.updates > 0
              and a.lifted.lp.integrality.any()]
    assert len(rooted) == 4  # the storages and the generators
    real = branch_bound.solve_lp
    handed = []

    def spying(lp, start=None, **kwargs):
        handed.append((start, None if start is None else start.factor))
        return real(lp, start=start, **kwargs)

    monkeypatch.setattr(branch_bound, "solve_lp", spying)
    children = 0
    nodes = {"kept": 0, "plain": 0}
    for a in rooted:
        root, factor = a.relaxed, a.relaxed.factor
        handed.clear()
        kept = a.lifted.solve(solve_milp, a.y, "recovery MILP", root=root)
        of_root = [given for start, given in handed if start is root]
        assert all(given is factor for given in of_root)
        children += len(of_root)
        root.factor = None
        plain = a.lifted.solve(solve_milp, a.y, "recovery MILP", root=root)
        assert kept.status == plain.status == OPTIMAL
        assert abs(kept.value - plain.value) <= 1e-9 * (1.0 + abs(plain.value))
        nodes["kept"] += kept.node_count
        nodes["plain"] += plain.node_count
    assert children > 0
    assert nodes["kept"] <= 1.05 * nodes["plain"]


def test_cutoff_changes_no_tree(monkeypatch):
    """A node LP stopped at the incumbent is one its tree would prune.
    On the seeded enumeration MILPs and every desk agent's finalize and
    certificate auxiliary MILP at the equal split, trees whose node LPs
    get the cutoff reach the status, value, x and node count of trees
    whose node LPs run to their optimum, bit for bit.  Each node LP gets
    the incumbent less PRUNE_GAP (+inf before the first); one cut off is
    infeasible or has an optimum at or above that cutoff, and every
    other solves bit for bit as without it."""
    solve_all = tree_solver()
    real = branch_bound.solve_lp
    gap = branch_bound.PRUNE_GAP
    grown = []
    for cut in (True, False):
        nodes = []

        def node(lp, cutoff=math.inf, **kwargs):
            sol = real(lp, cutoff=cutoff if cut else math.inf, **kwargs)
            nodes.append((lp, cutoff, sol))
            return sol

        monkeypatch.setattr(branch_bound, "solve_lp", node)
        grown.append((solve_all(), nodes))
    (trees, cut_nodes), (uncut_trees, full_nodes) = grown
    assert_same_trees(trees, uncut_trees)
    assert len(cut_nodes) == len(full_nodes)
    best, cuts = math.inf, 0
    for (lp, cutoff, sol), (_, _, full) in zip(cut_nodes, full_nodes):
        if lp.integrality is not None:  # a root: a new tree starts
            best, mask = math.inf, lp.integrality
        assert cutoff == best - gap
        if sol.status == CUTOFF:
            cuts += 1
            assert full.status == INFEASIBLE or full.value >= cutoff
        else:
            assert_same_solve(sol, full)
            assert (sol.factor is full.factor is None
                    or sol.factor.inverse.tobytes()
                    == full.factor.inverse.tobytes())
        if full.status == OPTIMAL and full.value < best - gap:
            ints = full.x[mask]
            if np.abs(ints - np.round(ints)).max() <= INTEGRALITY:
                best = full.value
    assert cuts > 100
