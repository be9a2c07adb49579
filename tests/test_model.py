"""Block builders: the storage switch-row scan, the grid expense scan,
dynamics arithmetic, coupling signs, compactness, equivalence of the
convex grid with the big-M grid it replaced, and equivalence of the
assembled coupled form with a direct transcription of the
one-big-problem formulation."""

import itertools

import numpy as np
import pytest

from mgridopt.dialgo import LocalProblem, recourse_cap
from mgridopt.model import (EPSILON, ControllableLoadParams, DimensionError,
                            GeneratorParams, GridParams, LocalBlock,
                            ParameterError, StorageParams,
                            build_controllable_load_block,
                            build_generator_block, build_grid_block,
                            build_storage_block, power_balance_rhs,
                            quadratic_cost_segments, storage_e_matrices)
from mgridopt.solver import (INFEASIBLE, OPTIMAL, LinearProgram, solve_lp,
                             solve_milp)
from mgridopt.stochastic import ScenarioSet, build_recourse_cost
from oracles.centralized import assemble_centralized
from oracles.grid import big_m_grid_block
from oracles.hull import coordinate_box


def storage_params(**kw):
    base = dict(eta_c=0.95, eta_d=0.9, x_min=1.0, x_max=10.0, x_pl=0.05,
                C=5.0, zeta=0.1, x0=5.0)
    base.update(kw)
    return StorageParams(**base)


def generator_params(K=3, **kw):
    base = dict(T_up=1, T_down=1, u_min=0.0, u_max=8.0, r_max=8.0,
                kappa_u=(2.0,) * K, kappa_d=(1.0,) * K, zeta=0.05,
                cost_segments=quadratic_cost_segments(0.05, 0.2, 0.0, 8.0),
                delta_init=0, u_init=0.0)
    base.update(kw)
    return GeneratorParams(**base)


def grid_params(K=2, **kw):
    base = dict(P_max=50.0, phi_p=(0.2,) * K, phi_s=(0.1,) * K)
    base.update(kw)
    return GridParams(**base)


def pinned_milp(block, pins, c=None):
    """Solve the block's MILP with named variables pinned to values."""
    lo, hi = block.lo.copy(), block.hi.copy()
    for name, val in pins.items():
        j = block.var_index[name]
        lo[j] = hi[j] = val
    cost = block.c if c is None else c
    lp = LinearProgram(cost, block.G, block.g, lo, hi,
                       integrality=block.integrality)
    return solve_milp(lp)


# ------------------------------------------------------------- parameters


def test_storage_param_bounds_reported():
    with pytest.raises(ParameterError, match="x_min"):
        storage_params(x_min=12.0).validate()
    with pytest.raises(ParameterError, match="eta_c"):
        storage_params(eta_c=1.2).validate()
    with pytest.raises(ParameterError, match="x0"):
        storage_params(x0=0.0).validate()
    with pytest.raises(ParameterError, match="C must be > 0"):
        storage_params(C=0.0).validate()


def test_generator_initial_state_consistency():
    with pytest.raises(ParameterError, match="inconsistent"):
        generator_params(delta_init=1, u_init=0.0).validate()
    with pytest.raises(ParameterError, match="inconsistent"):
        generator_params(delta_init=0, u_init=2.0).validate()
    generator_params(delta_init=1, u_init=3.0).validate()


def test_load_bounds_error():
    with pytest.raises(ParameterError):
        ControllableLoadParams(beta_min=0.1, beta_max=0.05, D=(8.0,),
                               varphi=1.0).validate()


def test_horizon_must_be_positive():
    with pytest.raises(DimensionError):
        build_storage_block(storage_params(), 0)


# ------------------------------------------------------------- E matrices


def test_storage_e_matrices_printed_values():
    E1, E2, E3, E4 = storage_e_matrices(10.0, 1e-6)
    assert E1 == pytest.approx([10.0, -10.0 - 1e-6, 10.0, 10.0, -10.0, -10.0])
    assert E2 == pytest.approx([0.0, 0.0, 1.0, -1.0, 1.0, -1.0])
    assert E3 == pytest.approx([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])
    assert E4 == pytest.approx([10.0, -1e-6, 10.0, 10.0, 0.0, 0.0])


# ------------------------------------------------------------- storage


def test_lossless_storage_dynamics():
    # unit efficiencies and no loss: next state is simply x + u
    p = storage_params(eta_c=1.0, eta_d=1.0, x_pl=0.0)
    blk = build_storage_block(p, 1)
    sol = pinned_milp(blk, {"x(0)": 5.0, "u(0)": 2.0, "z(0)": 2.0,
                            "delta(0)": 1.0}, c=np.zeros(blk.n))
    assert sol.status == OPTIMAL
    assert blk.value_of(sol.x, "x(1)") == pytest.approx(7.0, abs=1e-6)


def test_charging_dynamics_hand_value():
    # x+ = 5 + (0.9 - 1/0.8)*2 + (1/0.8)*2 - 0.1 = 6.7
    p = storage_params(eta_c=0.9, eta_d=0.8, x_pl=0.1, x0=5.0)
    blk = build_storage_block(p, 1)
    sol = pinned_milp(blk, {"u(0)": 2.0, "z(0)": 2.0, "delta(0)": 1.0},
                      c=np.zeros(blk.n))
    assert sol.status == OPTIMAL
    assert blk.value_of(sol.x, "x(1)") == pytest.approx(6.7, abs=1e-9)


def test_storage_switch_scan():
    """Brute-force the six switch rows at K = 1.

    A (u, z, delta) point is admitted iff delta flags the sign of u and
    z equals delta * u; u values inside the epsilon band are excluded
    from the scan since the strict inequality is realized only up to
    epsilon.
    """
    C, eps = 5.0, 1e-6
    E1, E2, E3, E4 = storage_e_matrices(C, eps)
    z_grid = [-5.0, -2.5, -1.0, 0.0, 1.0, 2.5, 5.0]
    for u in (-5.0, -1.0, 1.0, 5.0):
        for delta in (0.0, 1.0):
            for z in z_grid:
                ok = np.all(E1 * delta + E2 * z - E3 * u <= E4 + 1e-12)
                expected = (delta == float(u >= eps)) and z == delta * u
                assert ok == expected, (u, delta, z)


def test_storage_cost_and_coupling_layout():
    p = storage_params(zeta=0.3)
    blk = build_storage_block(p, 2)
    assert blk.c[blk.var_index["z(1)"]] == pytest.approx(0.6)
    assert blk.c[blk.var_index["u(1)"]] == pytest.approx(-0.3)
    assert blk.c[blk.var_index["x(1)"]] == 0.0
    assert blk.A[1, blk.var_index["u(1)"]] == 1.0
    assert np.count_nonzero(blk.A[1]) == 1


def test_initial_state_pinned():
    blk = build_storage_block(storage_params(x0=4.0), 2)
    sol = pinned_milp(blk, {}, c=np.zeros(blk.n))
    assert blk.value_of(sol.x, "x(0)") == pytest.approx(4.0, abs=1e-9)


# ------------------------------------------------------------- generator


def delta_rows_only(blk, K):
    """Rows touching only the on/off columns (the commitment logic)."""
    d_cols = [blk.var_index[f"delta({k})"] for k in range(K)]
    other = [j for j in range(blk.n) if j not in d_cols]
    keep = [i for i in range(blk.G.shape[0])
            if np.any(blk.G[i, d_cols]) and not np.any(blk.G[i, other])]
    return blk.G[np.ix_(keep, d_cols)], blk.g[keep]


def test_min_up_forces_on_steps():
    # turn-on at k=0 with T_up = 3 pins delta(1) = delta(2) = 1
    K = 4
    p = generator_params(K, T_up=3)
    blk = build_generator_block(p, K)
    Gd, gd = delta_rows_only(blk, K)
    feasible = [seq for seq in itertools.product((0, 1), repeat=K)
                if seq[0] == 1 and np.all(Gd @ np.array(seq, float) <= gd + 1e-9)]
    assert feasible, "some committed sequence must survive"
    for seq in feasible:
        assert seq[1] == 1 and seq[2] == 1
    assert any(seq[3] == 0 for seq in feasible)  # horizon truncation


def test_min_down_keeps_unit_off():
    # shutdown at k=0 (on before the horizon) keeps the unit off for
    # T_down - 1 further steps
    K = 4
    p = generator_params(K, T_down=3, delta_init=1, u_init=2.0)
    blk = build_generator_block(p, K)
    Gd, gd = delta_rows_only(blk, K)
    feasible = [seq for seq in itertools.product((0, 1), repeat=K)
                if seq[0] == 0 and np.all(Gd @ np.array(seq, float) <= gd + 1e-9)]
    assert feasible
    for seq in feasible:
        assert seq[1] == 0 and seq[2] == 0


def test_zero_cost_segment_gives_zero_nu():
    K = 2
    p = generator_params(K, cost_segments=((0.0, 0.0),))
    blk = build_generator_block(p, K)
    sol = solve_milp(LinearProgram(blk.c, blk.G, blk.g,
                                   blk.lo, blk.hi,
                                   integrality=blk.integrality))
    assert sol.status == OPTIMAL
    for k in range(K):
        assert blk.value_of(sol.x, f"nu({k})") == pytest.approx(0.0, abs=1e-9)


def test_startup_cost_binds_at_transition():
    # off -> on transition with kappa_u = 4 prices theta_u at exactly 4
    K = 1
    p = generator_params(K, kappa_u=(4.0,), kappa_d=(3.0,),
                         cost_segments=((0.0, 0.0),), zeta=0.0)
    blk = build_generator_block(p, K)
    sol = pinned_milp(blk, {"delta(0)": 1.0, "u(0)": 1.0})
    assert sol.status == OPTIMAL
    assert blk.value_of(sol.x, "theta_u(0)") == pytest.approx(4.0, abs=1e-9)
    assert blk.value_of(sol.x, "theta_d(0)") == pytest.approx(0.0, abs=1e-9)


def test_generator_coupling_sign():
    blk = build_generator_block(generator_params(2), 2)
    assert blk.A[0, blk.var_index["u(0)"]] == -1.0
    assert np.count_nonzero(blk.A[0]) == 1


# ------------------------------------------------------------- loads & grid


def test_degenerate_load_box_fixes_beta():
    p = ControllableLoadParams(beta_min=0.0, beta_max=0.0, D=(8.0, 3.0),
                               varphi=1.0)
    blk = build_controllable_load_block(p, 2)
    sol = solve_milp(LinearProgram(blk.c, blk.G, blk.g,
                                   blk.lo, blk.hi))
    assert np.allclose(sol.x, 0.0, atol=1e-9)
    assert np.allclose(blk.A @ sol.x, 0.0, atol=1e-9)


def test_load_coupling_and_cost_values():
    p = ControllableLoadParams(beta_min=0.0, beta_max=0.5, D=(8.0,), varphi=2.0)
    blk = build_controllable_load_block(p, 1)
    x = np.array([0.25])
    assert (blk.A @ x)[0] == pytest.approx(-2.0)
    assert blk.c @ x == pytest.approx(0.25 * 2.0 * 8.0)


def test_grid_expense_scan():
    """At its cheapest, phi is the expense max(phi_p u, phi_s u) of every
    exchange u, importing, exporting or idle."""
    p = GridParams(P_max=10.0, phi_p=(0.3,), phi_s=(0.15,))
    blk = build_grid_block(p, 1)
    assert not blk.integrality.any()
    for u in np.linspace(-p.P_max, p.P_max, 21):
        sol = pinned_milp(blk, {"u(0)": u})
        assert sol.status == OPTIMAL
        assert blk.value_of(sol.x, "phi(0)") == pytest.approx(
            max(0.3 * u, 0.15 * u), abs=1e-12), u


def test_grid_rejects_a_sell_price_above_the_purchase_price():
    with pytest.raises(ParameterError,
                       match="sell price exceeds purchase price at step 1"):
        build_grid_block(GridParams(P_max=10.0, phi_p=(0.3, 0.1, 0.2),
                                    phi_s=(0.3, 0.2, 0.0)), 3)


def test_convex_grid_matches_the_big_m_grid():
    """Under ordered prices the grid's LocalProblem, solved as an LP, has
    the optimum of the big-M grid's, solved as a MILP (and by HiGHS), at
    random recourse prices and allocations."""
    try:
        from scipy import optimize as scipy_opt
    except ImportError:
        scipy_opt = None
    rng = np.random.default_rng(2014)
    for trial in range(30):
        K, R = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        phi_p = rng.uniform(0.05, 0.5, K)
        # equal prices and a zero sell price are the edge cases
        share = {0: np.ones(K), 1: np.zeros(K)}.get(trial % 10,
                                                   rng.uniform(0.0, 1.0, K))
        p = GridParams(P_max=float(rng.uniform(0.5, 20.0)),
                       phi_p=tuple(phi_p), phi_s=tuple(phi_p * share))
        d = build_recourse_cost(np.full(R, 1.0 / R), rng.uniform(0.5, 5.0),
                                rng.uniform(0.5, 5.0), K)
        y = rng.normal(scale=p.P_max, size=2 * R * K)
        convex = LocalProblem(build_grid_block(p, K), R, d)
        big_m = LocalProblem(big_m_grid_block(p, K), R, d)
        lp_sol = convex.solve(solve_lp, y, "convex grid")
        mi_sol = big_m.solve(solve_milp, y, "big-M grid")
        assert lp_sol.status == mi_sol.status == OPTIMAL
        assert lp_sol.value == pytest.approx(mi_sol.value, abs=1e-6), trial
        if scipy_opt is not None:
            lp = big_m.lp
            ref = scipy_opt.milp(
                lp.c, integrality=lp.integrality.astype(int),
                bounds=scipy_opt.Bounds(lp.lo, lp.hi),
                constraints=scipy_opt.LinearConstraint(lp.G, -np.inf, lp.g),
                options={"mip_rel_gap": 1e-9})
            assert ref.success
            assert lp_sol.value == pytest.approx(ref.fun, abs=1e-6), trial


# ------------------------------------------------------------- balance rhs


def test_balance_rhs_cases():
    assert power_balance_rhs([], [], [], K=3) == pytest.approx([0.0] * 3)
    b = power_balance_rhs([np.full(2, 5.0)], [], [np.full(2, 3.0)], 2)
    assert b == pytest.approx([2.0, 2.0])
    b = power_balance_rhs([], [np.full(2, 4.0)], [np.full(2, 1.0)], 2)
    assert b == pytest.approx([-5.0, -5.0])
    with pytest.raises(DimensionError):
        power_balance_rhs([np.ones(3)], [np.ones(2)], [], 3)


# ------------------------------------------------------------- invariants


@pytest.mark.parametrize("maker", [
    lambda: build_storage_block(storage_params(), 2),
    lambda: build_generator_block(generator_params(2), 2),
    lambda: build_controllable_load_block(
        ControllableLoadParams(0.0, 0.4, (3.0, 4.0), 1.0), 2),
    lambda: build_grid_block(grid_params(), 2),
])
def test_blocks_compact_and_binaries_boxed(maker):
    blk = maker()
    lo, hi = coordinate_box(blk)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    assert np.all(lo[blk.integrality] >= -1e-9)
    assert np.all(hi[blk.integrality] <= 1.0 + 1e-9)
    # an independent solver over the same rows and bounds must agree
    scipy_opt = pytest.importorskip("scipy.optimize")
    rows = dict(A_ub=blk.G, b_ub=blk.g) if blk.G.shape[0] else {}
    # at HiGHS' default 1e-7 dual tolerance it stops 7e-8 short of the
    # grid's phi range; 1e-10 brings it within the 1e-9 comparison
    kw = dict(rows, bounds=list(zip(blk.lo, blk.hi)), method="highs",
              options={"dual_feasibility_tolerance": 1e-10})
    for j, e in enumerate(np.eye(blk.n)):
        smin = scipy_opt.linprog(e, **kw)
        smax = scipy_opt.linprog(-e, **kw)
        assert smin.status == 0 and smax.status == 0
        assert lo[j] == pytest.approx(smin.fun, abs=1e-9)
        assert hi[j] == pytest.approx(-smax.fun, abs=1e-9)


def test_crossed_one_variable_rows_make_an_empty_block():
    # x <= 0 and -x <= -1, as the bounds 1 <= x <= 0 and as rows; the
    # recourse cap reads bounds only, so the rows leave x unbounded
    as_bounds = LocalBlock(c=np.zeros(1), G=np.zeros((0, 1)), g=np.zeros(0),
                           integrality=np.zeros(1, bool), A=np.ones((1, 1)),
                           var_index={}, lo=np.ones(1), hi=np.zeros(1))
    as_rows = LocalBlock(c=np.zeros(1), G=np.array([[1.0], [-1.0]]),
                         g=np.array([0.0, -1.0]),
                         integrality=np.zeros(1, bool), A=np.ones((1, 1)),
                         var_index={})
    scen = ScenarioSet(pi=[1.0], b_r=[np.zeros(1)])
    with pytest.raises(DimensionError, match="empty"):
        recourse_cap([as_bounds], scen)
    with pytest.raises(DimensionError,
                       match="column 0 has an infinite bound"):
        recourse_cap([as_rows], scen)


def test_coupling_matches_named_power_expressions():
    rng = np.random.default_rng(17)
    K = 2
    blocks = {
        "storage": build_storage_block(storage_params(), K),
        "generator": build_generator_block(generator_params(K), K),
        "load": build_controllable_load_block(
            ControllableLoadParams(0.0, 0.6, (5.0, 2.0), 1.0), K),
        "grid": build_grid_block(grid_params(), K),
    }
    D = (5.0, 2.0)
    for kind, blk in blocks.items():
        for _ in range(5):
            c = rng.normal(size=blk.n)
            sol = solve_milp(LinearProgram(c, blk.G, blk.g,
                                           blk.lo, blk.hi,
                                           integrality=blk.integrality))
            assert sol.status == OPTIMAL
            coupled = blk.A @ sol.x
            for k in range(K):
                if kind == "storage":
                    want = blk.value_of(sol.x, f"u({k})")
                elif kind == "load":
                    want = -blk.value_of(sol.x, f"beta({k})") * D[k]
                else:
                    want = -blk.value_of(sol.x, f"u({k})")
                assert coupled[k] == pytest.approx(want, abs=1e-8)


# ------------------------------------------------------------- assembly


def test_single_load_assembly_balance():
    K = 2
    p = ControllableLoadParams(0.0, 0.5, (4.0, 4.0), 1.0)
    blk = build_controllable_load_block(p, K)
    lp, _ = assemble_centralized([blk], np.zeros(K))
    sol = solve_milp(lp)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.x, 0.0, atol=1e-8)
    # forcing curtailment while requiring zero coupling is impossible
    p2 = ControllableLoadParams(0.5, 0.5, (4.0, 4.0), 1.0)
    blk2 = build_controllable_load_block(p2, K)
    lp2, _ = assemble_centralized([blk2], np.zeros(K))
    assert solve_milp(lp2).status == INFEASIBLE


def test_two_agent_toy_grid_serves_load():
    K = 2
    gp = grid_params(K)
    grid = build_grid_block(gp, K)
    passive = LocalBlock.empty(K)
    b = power_balance_rhs([], [], [np.full(K, 3.0)], K)
    lp, offs = assemble_centralized([grid, passive], b)
    sol = solve_milp(lp)
    assert sol.status == OPTIMAL
    for k in range(K):
        assert grid.value_of(sol.x[offs[0]:offs[0] + grid.n], f"u({k})") == \
            pytest.approx(3.0, abs=1e-7)
    assert sol.value == pytest.approx(sum(0.2 * 3.0 for _ in range(K)),
                                      abs=1e-7)


def test_overloaded_toy_infeasible():
    K = 1
    grid = build_grid_block(GridParams(P_max=50.0, phi_p=(0.2,), phi_s=(0.1,)), K)
    b = power_balance_rhs([], [], [np.array([80.0])], K)
    lp, _ = assemble_centralized([grid], b)
    assert solve_milp(lp).status == INFEASIBLE


def test_assembly_matches_direct_transcription():
    """Three-unit toy: the block-assembled problem and a longhand
    transcription of the original control problem agree to 1e-8."""
    K = 2
    sp = storage_params(x_min=1.0, x_max=8.0, x0=4.0, C=4.0, zeta=0.2,
                        x_pl=0.0)
    gp = grid_params(K, P_max=20.0)
    clp = ControllableLoadParams(0.0, 0.5, (6.0, 5.0), varphi=0.8)
    d_lo = np.array([2.0, 2.5])

    storage = build_storage_block(sp, K)
    grid = build_grid_block(gp, K)
    load = build_controllable_load_block(clp, K)
    b = power_balance_rhs([], [clp.D], [d_lo], K)
    lp, _ = assemble_centralized([storage, grid, load], b)
    assembled = solve_milp(lp)
    assert assembled.status == OPTIMAL

    # longhand: columns [x(0..2), u_s(0..1), z(0..1), ds(0..1),
    #                    u_g(0..1), phi(0..1), beta(0..1)]
    nx = (K + 1) + 3 * K + 2 * K + K
    cols = {}
    pos = 0
    for name, count in (("x", K + 1), ("us", K), ("z", K), ("ds", K),
                        ("ug", K), ("phi", K), ("beta", K)):
        for k in range(count):
            cols[f"{name}{k}"] = pos
            pos += 1
    rows, rhs = [], []

    def le(coeffs, r):
        row = np.zeros(nx)
        for nm, v in coeffs.items():
            row[cols[nm]] += v
        rows.append(row)
        rhs.append(r)

    def eq(coeffs, r):
        le(coeffs, r)
        le({nm: -v for nm, v in coeffs.items()}, -r)

    sE1, sE2, sE3, sE4 = storage_e_matrices(sp.C, EPSILON)
    for k in range(K):
        eq({f"x{k + 1}": 1.0, f"x{k}": -1.0,
            f"z{k}": -(sp.eta_c - 1 / sp.eta_d), f"us{k}": -1 / sp.eta_d},
           -sp.x_pl)
        for r in range(6):
            le({f"ds{k}": sE1[r], f"z{k}": sE2[r], f"us{k}": -sE3[r]}, sE4[r])
        le({f"x{k + 1}": 1.0}, sp.x_max)
        le({f"x{k + 1}": -1.0}, -sp.x_min)
        le({f"us{k}": 1.0}, sp.C)
        le({f"us{k}": -1.0}, sp.C)
        le({f"z{k}": 1.0}, sp.C)
        le({f"z{k}": -1.0}, sp.C)
        # the grid's expense: phi >= phi_p u and phi >= phi_s u
        le({f"ug{k}": gp.phi_p[k], f"phi{k}": -1.0}, 0.0)
        le({f"ug{k}": gp.phi_s[k], f"phi{k}": -1.0}, 0.0)
        le({f"ug{k}": 1.0}, gp.P_max)
        le({f"ug{k}": -1.0}, gp.P_max)
        le({f"phi{k}": 1.0}, gp.phi_p[k] * gp.P_max)
        le({f"phi{k}": -1.0}, gp.phi_s[k] * gp.P_max)
        le({f"beta{k}": 1.0}, clp.beta_max)
        le({f"beta{k}": -1.0}, -clp.beta_min)
        le({f"ds{k}": 1.0}, 1.0)
        le({f"ds{k}": -1.0}, 0.0)
        # power balance: u_grid = u_storage + (1 - beta) D_cl + D_lo
        eq({f"ug{k}": 1.0, f"us{k}": -1.0, f"beta{k}": clp.D[k]},
           clp.D[k] + d_lo[k])
    eq({"x0": 1.0}, sp.x0)
    c = np.zeros(nx)
    mask = np.zeros(nx, dtype=bool)
    for k in range(K):
        c[cols[f"z{k}"]] = 2 * sp.zeta
        c[cols[f"us{k}"]] = -sp.zeta
        c[cols[f"phi{k}"]] = 1.0
        c[cols[f"beta{k}"]] = clp.varphi * clp.D[k]
        mask[cols[f"ds{k}"]] = True
    direct = solve_milp(LinearProgram(c, np.array(rows), np.array(rhs),
                                      np.full(nx, -np.inf), np.full(nx, np.inf),
                                      integrality=mask))
    assert direct.status == OPTIMAL
    assert assembled.value == pytest.approx(direct.value, abs=1e-8)
