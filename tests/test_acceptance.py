"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints a `[criterion N] PASS ...` line on success (visible
with `pytest -s tests/test_acceptance.py`); a failed assert marks the
criterion red.  The desk configuration is configs/desk.yaml; the
Monte Carlo criteria run the desk roster with the experiment-style
piecewise schedule (3.0, x0.5 every 50 rounds).
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from mgridopt import dialgo
from mgridopt.analysis import distributed_certificate, violation_certificate
from mgridopt.config import ExperimentConfig, build_problem
from mgridopt.dialgo import StepSizeSchedule, generate_graph, run
from mgridopt.model import (ControllableLoadParams, GridParams, LocalBlock,
                            StorageParams, build_controllable_load_block,
                            build_grid_block, build_storage_block,
                            power_balance_rhs)
from mgridopt.solver import (INFEASIBLE, OPTIMAL, LinearProgram, solve_lp,
                             solve_milp)
from mgridopt.stochastic import (ScenarioSet, assemble_two_stage,
                                 build_recourse_cost)
from oracles.centralized import assemble_per_agent_eta
from oracles.hull import hull_block, relaxation_equals_hull

REPO = Path(__file__).resolve().parents[1]
DESK = REPO / "configs" / "desk.yaml"


@pytest.fixture(scope="module")
def desk_run():
    cfg = ExperimentConfig.from_yaml(DESK)
    problem = build_problem(cfg)
    t0 = time.time()
    result = run(problem.blocks, problem.scen, problem.d, problem.graph,
                 problem.schedule, problem.T_f,
                 finalize_every=problem.finalize_every)
    elapsed = time.time() - t0
    return problem, result, elapsed


@pytest.fixture(scope="module")
def mc_trials():
    """20 desk-roster trials under the experiment-style schedule, each
    with (sum A_i x_i, sum eta_i) of its recovered points per logged
    round."""
    cfg = ExperimentConfig.from_yaml(DESK)
    schedule = StepSizeSchedule.piecewise(3.0, 0.5, 50)
    finalize = dialgo.finalize_mixed_integer
    logged = []

    def recording(agent):
        x, eta = finalize(agent)
        if agent.lifted.index == 0:  # a logged round starts
            logged.append((0, 0))
        injection, total = logged[-1]
        logged[-1] = (injection + agent.lifted.base.A @ x, total + eta)
        return x, eta

    trials = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dialgo, "finalize_mixed_integer", recording)
        for t in range(20):
            trial = ExperimentConfig(
                raw={**cfg.raw,
                     "seeds": {**cfg.seeds, "scenario": [9000, t]}})
            problem = build_problem(trial)
            first = len(logged)
            res = run(problem.blocks, problem.scen, problem.d, problem.graph,
                      schedule, T_f=150, finalize_every=50)
            trials.append((problem, res, logged[first:]))
    return trials


def test_criterion_01_allocation_conservation(desk_run):
    problem, result, elapsed = desk_run
    residuals = result.trace.alloc_residual_all
    assert len(residuals) == problem.T_f + 1
    worst = max(residuals)
    assert worst <= 1e-9
    assert elapsed < 120.0
    print(f"\n[criterion 1] PASS allocation conservation: max residual "
          f"{worst:.2e} over {problem.T_f} iterations ({elapsed:.0f}s)")


def test_criterion_02_anytime_feasibility(desk_run):
    problem, result, _ = desk_run
    worst = -np.inf
    for coupling in result.trace.coupling_vectors:
        worst = max(worst, float(np.max(coupling)))
        assert np.all(coupling <= 1e-6)
    print(f"[criterion 2] PASS anytime feasibility: worst lifted-coupling "
          f"excess {worst:.2e} at {len(result.trace.iters)} logged iterations")


def test_desk_cost_trend_first_to_last(desk_run):
    # supporting check for the experiment runner: with the shipped desk
    # schedule the incumbent improves between the first and last logged
    # iterations
    _, result, _ = desk_run
    tr = result.trace
    assert tr.incumbent_cost[-1] <= tr.incumbent_cost[0] + 1e-9


def test_criterion_03_relaxation_convergence():
    K = 3
    blocks = [
        build_controllable_load_block(
            ControllableLoadParams(0.0, 0.6, (5.0, 7.0, 4.0), 0.9), K),
        build_controllable_load_block(
            ControllableLoadParams(0.1, 0.5, (3.0, 4.0, 6.0), 1.2), K),
        build_storage_block(
            StorageParams(eta_c=0.9, eta_d=0.9, x_min=1.0, x_max=9.0,
                          x_pl=0.0, C=4.0, zeta=0.05, x0=5.0), K),
    ]
    b = power_balance_rhs([np.array([6.0, 2.0, 5.0])],
                          [(5.0, 7.0, 4.0), (3.0, 4.0, 6.0)], [], K)
    scen = ScenarioSet(pi=[1.0], b_r=[b])
    d = build_recourse_cost(scen.pi, 3.0, 3.0, K)
    t0 = time.time()
    res = run(blocks, scen, d, generate_graph(3, "cycle"),
              StepSizeSchedule.diminishing(0.8, 2.0), T_f=2000,
              finalize_every=1000)
    elapsed = time.time() - t0
    lp = assemble_two_stage(blocks, scen, d)
    central = solve_lp(lp)
    assert central.status == OPTIMAL
    gap = abs(res.trace.relax_cost_all[-1] - central.value) / abs(central.value)
    assert gap <= 0.01
    assert elapsed < 60.0
    print(f"[criterion 3] PASS relaxation convergence: gap {gap:.3%} after "
          f"2000 iterations ({elapsed:.0f}s)")


def _random_small_instance(rng):
    """K = R = 1 mixes; committed generators (u_min > 0) make fractional
    hull vertices genuinely reachable (their hulls have a wide
    fractional gap below the power floor)."""
    from mgridopt.model import GeneratorParams, build_generator_block
    K = 1
    blocks = []
    for _ in range(int(rng.integers(4, 7))):
        kind = rng.integers(0, 3)
        if kind == 0:
            u_min = float(rng.uniform(1.0, 3.0))
            blocks.append(build_generator_block(GeneratorParams(
                T_up=1, T_down=1, u_min=u_min,
                u_max=u_min + float(rng.uniform(1.0, 4.0)),
                r_max=u_min + 5.0,
                kappa_u=(float(rng.uniform(0.5, 2.0)),), kappa_d=(0.5,),
                zeta=0.05,
                cost_segments=((float(rng.uniform(0.05, 0.3)), 0.0),),
                delta_init=0, u_init=0.0), K))
        elif kind == 1:
            blocks.append(build_grid_block(GridParams(
                P_max=float(rng.uniform(5.0, 15.0)),
                phi_p=(float(rng.uniform(0.2, 0.4)),),
                phi_s=(float(rng.uniform(0.05, 0.15)),)), K))
        else:
            blocks.append(build_storage_block(StorageParams(
                eta_c=float(rng.uniform(0.85, 0.99)),
                eta_d=float(rng.uniform(0.85, 0.99)),
                x_min=1.0, x_max=float(rng.uniform(4.0, 9.0)), x_pl=0.0,
                C=float(rng.uniform(2.0, 5.0)), zeta=0.1,
                x0=float(rng.uniform(1.5, 3.5))), K))
    b = np.array([rng.uniform(-8.0, 8.0)])
    scen = ScenarioSet(pi=[1.0], b_r=[b])
    d = build_recourse_cost(scen.pi, 3.0, 3.0, K)
    return blocks, scen, d


def test_criterion_04_integral_block_count():
    """Vertices of the hull-based coupled relaxation leave at most 2RK
    blocks non-integral.

    The count bound is a property of problems over exact mixed-integer
    hulls (local vertices are then integer-feasible); the small blocks
    here are replaced by their enumerated-facet hulls before assembly.
    With the plain box relaxation the bound genuinely fails (big-M
    vertices are fractional), which a companion test documents.
    """
    rng = np.random.default_rng(1234)
    dim = 2  # 2RK with K = R = 1
    worst = 0
    nonzero = 0
    for _ in range(50):
        blocks, scen, d = _random_small_instance(rng)
        hulls = [hull_block(blk) if np.any(blk.integrality) else blk
                 for blk in blocks]
        lp, layout = assemble_per_agent_eta(hulls, scen, d)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        fractional = 0
        for i, blk in enumerate(hulls):
            z = sol.x[layout["offsets"][i]:layout["offsets"][i] + blk.n]
            ints = z[blk.integrality]
            if ints.size and np.any(np.abs(ints - np.round(ints)) > 1e-6):
                fractional += 1
        worst = max(worst, fractional)
        nonzero += fractional > 0
        assert fractional <= dim
    assert nonzero >= 1  # the bound must actually be exercised
    print(f"[criterion 4] PASS vertex integrality count: at most {worst} "
          f"fractional blocks (bound {dim}) over 50 hull-based instances, "
          f"{nonzero} with a fractional block")


def test_box_relaxation_can_exceed_count_bound():
    # not an acceptance criterion: documents why criterion 4 assembles
    # exact hulls — over plain box relaxations the count bound fails
    rng = np.random.default_rng(1234)
    exceeded = 0
    for _ in range(50):
        blocks, scen, d = _random_small_instance(rng)
        lp, layout = assemble_per_agent_eta(blocks, scen, d)
        sol = solve_lp(lp)
        fractional = 0
        for i, blk in enumerate(blocks):
            z = sol.x[layout["offsets"][i]:layout["offsets"][i] + blk.n]
            ints = z[blk.integrality]
            if ints.size and np.any(np.abs(ints - np.round(ints)) > 1e-6):
                fractional += 1
        if fractional > 2:
            exceeded += 1
    assert exceeded >= 1


def test_certificate_holds_on_hull_rosters_with_binaries():
    """Criterion 4's instances with every binary block replaced by its
    hull, the setting of the violation theorem: agents the run leaves
    non-integral enter the bound through their floors and auxiliary
    MILPs, which read the recourse cap.  The bound holds at the run's
    default cap and in a run started from cap 0."""
    rng = np.random.default_rng(1234)
    with_nonintegral = 0
    for _ in range(20):
        blocks, scen, d = _random_small_instance(rng)
        hulls = [hull_block(blk) if np.any(blk.integrality) else blk
                 for blk in blocks]
        graph = generate_graph(len(hulls), "cycle")
        schedule = StepSizeSchedule.diminishing(1.5, 3.0)
        nonintegral = set()
        for cap in (None, 0.0):
            res = run(hulls, scen, d, graph, schedule, T_f=60,
                      finalize_every=60, eta_cap=cap)
            cert = violation_certificate(res)
            assert cert.holds, (cap, cert.measured, cert.bound)
            nonintegral.add(cert.in_integral_set.count(False))
        with_nonintegral += max(nonintegral) > 0
    assert with_nonintegral >= 1  # the non-integral branch is exercised


def test_criterion_05_certificate_on_hull_instances():
    rng = np.random.default_rng(777)
    K, R = 3, 2
    checked = 0
    for trial in range(20):
        n_loads = int(rng.integers(3, 6))
        blocks = []
        demands = []
        for _ in range(n_loads):
            D = tuple(rng.uniform(2.0, 6.0, size=K))
            demands.append(D)
            blocks.append(build_controllable_load_block(
                ControllableLoadParams(0.0, float(rng.uniform(0.3, 0.7)), D,
                                       float(rng.uniform(0.5, 1.5))), K))
        blocks.append(LocalBlock.empty(K))
        critical = [rng.uniform(0.5, 2.0, size=K)]
        b_r = [power_balance_rhs([rng.uniform(0.0, 8.0, size=K)], demands,
                                 critical, K) for _ in range(R)]
        scen = ScenarioSet(pi=np.full(R, 0.5), b_r=b_r)
        d = build_recourse_cost(scen.pi, 3.0, 3.5, K)
        assert all(relaxation_equals_hull(blk) for blk in blocks)
        res = run(blocks, scen, d, generate_graph(len(blocks), "cycle"),
                  StepSizeSchedule.diminishing(1.5, 3.0), T_f=60,
                  finalize_every=30)
        cert = violation_certificate(res)
        assert np.all(cert.measured <= cert.bound + 1e-5)
        checked += 1
    print(f"[criterion 5] PASS certificate bound held componentwise on "
          f"{checked} hull-verified Monte Carlo runs")


def _random_mip(rng, n_bin, n_cont):
    n = n_bin + n_cont
    m = int(rng.integers(1, 2 * n + 2))
    G = rng.normal(size=(m, n))
    lo = np.concatenate([np.zeros(n_bin), -rng.uniform(0.5, 2.0, n_cont)])
    hi = np.concatenate([np.ones(n_bin), rng.uniform(0.5, 2.0, n_cont)])
    g = G @ rng.uniform(lo, hi) + rng.uniform(0.0, 1.5, size=m)
    mask = np.zeros(n, dtype=bool)
    mask[:n_bin] = True
    return LinearProgram(rng.normal(size=n), G, g, lo, hi, integrality=mask)


def test_criterion_06_milp_matches_enumeration():
    rng = np.random.default_rng(20250806)
    worst_gap = 0.0
    for idx in range(200):
        n_bin = 12 if idx % 40 == 39 else int(rng.integers(1, 8))
        lp = _random_mip(rng, n_bin, int(rng.integers(0, 4)))
        bin_idx = np.flatnonzero(lp.integrality)
        best = np.inf
        for combo in itertools.product((0.0, 1.0), repeat=bin_idx.size):
            lo = lp.lo.copy()
            hi = lp.hi.copy()
            lo[bin_idx] = hi[bin_idx] = combo
            sol = solve_lp(LinearProgram(lp.c, lp.G, lp.g, lo, hi))
            if sol.status == OPTIMAL:
                best = min(best, sol.value)
        sol = solve_milp(lp)
        if np.isfinite(best):
            assert sol.status == OPTIMAL
            gap = abs(sol.value - best) / (1.0 + abs(best))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-8
        else:
            assert sol.status == INFEASIBLE
    print(f"[criterion 6] PASS branch-and-bound == enumeration on 200 "
          f"instances (worst gap {worst_gap:.2e})")


def test_criterion_07_lp_duality_and_subgradient():
    rng = np.random.default_rng(31415)
    worst_dual = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 12))
        G = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        lo, hi = x0 - rng.uniform(0.2, 2.0, n), x0 + rng.uniform(0.2, 2.0, n)
        g = G @ x0 + rng.uniform(0.0, 1.5, size=m)
        lp = LinearProgram(rng.normal(size=n), G, g, lo, hi)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        r = lp.c + lp.G.T @ sol.duals  # reduced costs from the duals
        dual_val = (-lp.g @ sol.duals + lp.lo @ np.maximum(r, 0.0)
                    - lp.hi @ np.maximum(-r, 0.0))
        gap = abs(sol.value - dual_val) / (1.0 + abs(sol.value))
        worst_dual = max(worst_dual, gap)
        assert gap <= 1e-7
    worst_fd = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        A = rng.normal(size=(k, n))
        c = rng.normal(size=n)
        y = A @ rng.uniform(-0.5, 0.5, size=n) + rng.uniform(0.0, 0.5, size=k)

        def p(yv):
            s = solve_lp(LinearProgram(c, A, yv, -np.ones(n), np.ones(n)))
            assert s.status == OPTIMAL
            return s.value, s.duals

        base, mu = p(y)
        eps = 1e-5
        for j in range(k):
            e = np.zeros(k)
            e[j] = eps
            up, _ = p(y + e)
            dn, _ = p(y - e)
            assert up >= base - mu[j] * eps - 1e-7
            assert dn >= base + mu[j] * eps - 1e-7
            worst_fd = max(worst_fd, abs((up - dn) / (2 * eps) + mu[j]))
    assert worst_fd <= 1e-4
    print(f"[criterion 7] PASS strong duality (worst gap {worst_dual:.2e}) "
          f"and subgradient property (worst FD error {worst_fd:.2e}) "
          f"on 200 + 200 instances")


def test_criterion_08_cost_trend(mc_trials):
    improved = 0
    for problem, res, _ in mc_trials:
        tr = res.trace
        assert tr.iters[1] == 1
        if tr.incumbent_cost[-1] <= tr.incumbent_cost[1] + 1e-9:
            improved += 1
    assert improved >= 18  # >= 90% of 20 trials
    print(f"[criterion 8] PASS cost trend: final incumbent <= iteration-1 "
          f"incumbent in {improved}/20 trials")


def test_criterion_09_coupling_band(mc_trials):
    checked = 0
    for problem, res, logged in mc_trials:
        scen = problem.scen
        K, R = scen.K, scen.R
        assert len(logged) == len(res.trace.iters)
        for injection, eta in logged:
            eta_pos = max(eta[2 * K * r + k]
                          for r in range(R) for k in range(K))
            eta_neg = max(eta[2 * K * r + K + k]
                          for r in range(R) for k in range(K))
            residuals = np.array([injection - b for b in scen.b_r])
            mean_res = float(np.mean(residuals))
            assert -eta_neg - 1e-6 <= mean_res <= eta_pos + 1e-6
            checked += 1
    print(f"[criterion 9] PASS coupling band: mean balance residual inside "
          f"[-max eta-, +max eta+] at {checked} logged iterations")


def test_criterion_10_consensus_certificate(desk_run):
    problem, result, _ = desk_run
    cert = violation_certificate(result)
    graph = generate_graph(11, "random", seed=42, p=0.35)
    views, deviation = distributed_certificate(cert, graph)
    assert deviation <= 1e-6
    for row in views:
        assert np.max(np.abs(row - cert.bound)) <= 1e-6
    print(f"[criterion 10] PASS consensus certificate: max deviation "
          f"{deviation:.2e} after 500 averaging rounds on an 11-node graph")
