"""Two-stage lift: row orderings against hand-expanded oracles, the
recourse-cost identity, and equivalence of the three problem forms."""

import numpy as np
import pytest

from mgridopt.model import (ControllableLoadParams, GridParams,
                            StorageParams, build_controllable_load_block,
                            build_grid_block, build_storage_block,
                            power_balance_rhs)
from mgridopt.solver import OPTIMAL, LinearProgram, solve_lp, solve_milp
from mgridopt.stochastic import (ScenarioSet, assemble_two_stage, build_h,
                                 build_recourse_cost, lift_coupling)
from oracles.centralized import (assemble_per_agent_eta, expected_recourse,
                                 recourse_from_residuals, recourse_phi)


# ---------------------------------------------------------------- lifting


def test_lift_scalar_two_scenarios():
    H = lift_coupling(np.array([[1.0]]), 2)
    assert H == pytest.approx(np.array([[1.0], [-1.0], [1.0], [-1.0]]))


def test_lift_single_scenario_is_plus_minus_stack():
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    assert lift_coupling(A, 1) == pytest.approx(np.vstack([A, -A]))


def test_lift_index_arithmetic_random():
    rng = np.random.default_rng(4)
    K, n, R = 3, 4, 3
    A = rng.normal(size=(K, n))
    H = lift_coupling(A, R)
    assert H.shape == (2 * R * K, n)
    for r in range(R):
        for k in range(K):
            assert H[2 * K * r + k] == pytest.approx(A[k])
            assert H[2 * K * r + K + k] == pytest.approx(-A[k])


def test_h_stacking():
    scen = ScenarioSet(pi=[0.5, 0.5], b_r=[np.array([2.0]), np.array([-1.0])])
    assert build_h(scen) == pytest.approx([2.0, -2.0, -1.0, 1.0])
    zero = ScenarioSet(pi=[1.0], b_r=[np.zeros(3)])
    assert build_h(zero) == pytest.approx(np.zeros(6))
    one = ScenarioSet(pi=[1.0], b_r=[np.array([4.0, -2.0])])
    assert build_h(one) == pytest.approx([4.0, -2.0, -4.0, 2.0])


def test_scenario_set_validation():
    with pytest.raises(ValueError, match="sum"):
        ScenarioSet(pi=[0.5, 0.4], b_r=[np.zeros(1), np.zeros(1)])
    with pytest.raises(ValueError):
        ScenarioSet(pi=[1.5, -0.5], b_r=[np.zeros(1), np.zeros(1)])


# ---------------------------------------------------------------- recourse


def test_recourse_cost_hand_expansion():
    d = build_recourse_cost([0.3, 0.7], q_plus=1.0, q_minus=2.0, K=1)
    assert d == pytest.approx([0.3, 0.6, 0.7, 1.4])
    assert d.min() == pytest.approx(0.3)


def test_recourse_cost_degenerate_and_uniform():
    assert build_recourse_cost([1.0], 0.0, 0.0, 3) == pytest.approx(np.zeros(6))
    d = build_recourse_cost([0.25] * 4, 2.0, 2.0, 2)
    assert d == pytest.approx(np.full(16, 0.5))  # q / R


def test_phi_branches():
    assert recourse_phi(0.0, 1.0, 2.0) == 0.0
    assert recourse_phi(-3.0, 1.0, 2.0) == pytest.approx(6.0)
    assert recourse_phi(2.5, 1.5, 9.0) == pytest.approx(3.75)


def test_expected_recourse_matches_phi_sum():
    rng = np.random.default_rng(12)
    K, R = 4, 3
    pi = rng.dirichlet(np.ones(R))
    q_plus, q_minus = 1.3, 2.7
    d = build_recourse_cost(pi, q_plus, q_minus, K)
    scen = ScenarioSet(pi=pi, b_r=[rng.normal(size=K) for _ in range(R)])
    total_Ax = rng.normal(size=K)  # stand-in for sum_i A_i x_i
    residuals = [total_Ax - b for b in scen.b_r]
    eta = recourse_from_residuals(residuals, scen)
    direct = sum(pi[r] * recourse_phi(residuals[r][k], q_plus, q_minus)
                 for r in range(R) for k in range(K))
    assert expected_recourse(d, eta) == pytest.approx(direct, abs=1e-12)


# ------------------------------------------------------- form equivalences


TOY_PENALTIES = (3.0, 3.5)  # (q_plus, q_minus) of three_agent_toy


def three_agent_toy(R=2, K=2, seed=5):
    rng = np.random.default_rng(seed)
    storage = build_storage_block(
        StorageParams(eta_c=0.9, eta_d=0.85, x_min=1.0, x_max=8.0, x_pl=0.0,
                      C=3.0, zeta=0.15, x0=4.0), K)
    grid = build_grid_block(
        GridParams(P_max=12.0, phi_p=(0.25,) * K, phi_s=(0.1,) * K), K)
    load = build_controllable_load_block(
        ControllableLoadParams(0.0, 0.4, (5.0, 6.0)[:K], 0.6), K)
    blocks = [storage, grid, load]
    b_r = [power_balance_rhs([rng.uniform(0, 6, size=K)], [(5.0, 6.0)[:K]],
                             [np.full(K, 1.5)], K) for _ in range(R)]
    scen = ScenarioSet(pi=np.full(R, 1.0 / R), b_r=b_r)
    d = build_recourse_cost(scen.pi, *TOY_PENALTIES, K)
    return blocks, scen, d


def band_form_milp(blocks, scen, q_plus, q_minus):
    """Direct transcription with explicit eta_+ / eta_- per scenario."""
    R, K = scen.R, scen.K
    n_x = sum(b.n for b in blocks)
    n = n_x + 2 * R * K
    m_blk = sum(b.G.shape[0] for b in blocks)
    G = np.zeros((m_blk + 2 * R * K, n))
    g = np.zeros(m_blk + 2 * R * K)
    c = np.zeros(n)
    mask = np.zeros(n, dtype=bool)
    row = col = 0
    offs = []
    for blk in blocks:
        offs.append(col)
        mb = blk.G.shape[0]
        G[row:row + mb, col:col + blk.n] = blk.G
        g[row:row + mb] = blk.g
        c[col:col + blk.n] = blk.c
        mask[col:col + blk.n] = blk.integrality
        row += mb
        col += blk.n
    # eta_plus columns first (grouped r-major), then eta_minus
    plus_off = n_x
    minus_off = n_x + R * K
    for r in range(R):
        for i, blk in enumerate(blocks):
            G[row:row + K, offs[i]:offs[i] + blk.n] = blk.A
            G[row + K:row + 2 * K, offs[i]:offs[i] + blk.n] = -blk.A
        for k in range(K):
            G[row + k, plus_off + r * K + k] = -1.0
            G[row + K + k, minus_off + r * K + k] = -1.0
            c[plus_off + r * K + k] = scen.pi[r] * q_plus
            c[minus_off + r * K + k] = scen.pi[r] * q_minus
        g[row:row + K] = scen.b_r[r]
        g[row + K:row + 2 * K] = -scen.b_r[r]
        row += 2 * K
    lo = np.concatenate([b.lo for b in blocks] + [np.zeros(2 * R * K)])
    hi = np.concatenate([b.hi for b in blocks] + [np.full(2 * R * K, np.inf)])
    return LinearProgram(c, G, g, lo, hi, integrality=mask)


def test_band_pooled_and_per_agent_forms_agree():
    blocks, scen, d = three_agent_toy()
    band = solve_milp(band_form_milp(blocks, scen, *TOY_PENALTIES))
    pooled = assemble_two_stage(blocks, scen, d)
    pooled_sol = solve_milp(pooled)
    per_agent, layout = assemble_per_agent_eta(blocks, scen, d)
    per_sol = solve_milp(per_agent)
    assert band.status == pooled_sol.status == per_sol.status == OPTIMAL
    assert pooled_sol.value == pytest.approx(band.value, abs=1e-8)
    assert per_sol.value == pytest.approx(band.value, abs=1e-8)
    # reconstruct the pooled recourse from per-agent shares
    dim = layout["eta_dim"]
    eta_sum = np.zeros(dim)
    for i in range(len(blocks)):
        off = layout["eta_offset"] + i * dim
        eta_sum += per_sol.x[off:off + dim]
    h = build_h(scen)
    lifted_total = np.zeros(dim)
    for i, blk in enumerate(blocks):
        off = layout["offsets"][i]
        H = lift_coupling(blk.A, scen.R)
        lifted_total += H @ per_sol.x[off:off + blk.n]
    assert np.all(lifted_total - eta_sum <= h + 1e-7)


def test_pooled_relaxation_solver_finite_eta():
    blocks, scen, d = three_agent_toy()
    sol = solve_lp(assemble_two_stage(blocks, scen, d))
    assert sol.status == OPTIMAL
    eta = sol.x[-d.size:]
    assert np.all(np.isfinite(eta)) and np.all(eta >= -1e-9)


def test_raising_h_never_hurts():
    """Relaxing the folded band right-hand side can only lower the cost.

    Note this holds for h componentwise, not for b_r: a raised b_r
    tightens the -b_r half of the band, and the optimum can genuinely
    move either way (the band is a two-sided tube around the balance).
    """
    blocks, scen, d = three_agent_toy()
    lp = assemble_two_stage(blocks, scen, d)
    base = solve_lp(lp).value
    dim = d.size
    for j in range(dim):
        g2 = lp.g.copy()
        g2[-dim + j] += 1.0
        lp2 = LinearProgram(lp.c, lp.G, g2, lp.lo, lp.hi)
        assert solve_lp(lp2).value <= base + 1e-9


def test_b_r_shift_moves_optimum_both_ways():
    # documents why monotonicity is stated in h: surplus scenarios can
    # be costlier than balanced ones, so b_r itself is not monotone
    blocks, scen, d = three_agent_toy()
    lp = assemble_two_stage(blocks, scen, d)
    base = solve_lp(lp).value
    b_up = [b + 4.0 for b in scen.b_r]
    scen_up = ScenarioSet(pi=scen.pi, b_r=b_up)
    lp_up = assemble_two_stage(blocks, scen_up, d)
    up = solve_lp(lp_up).value
    assert up != pytest.approx(base, abs=1e-6)
