"""Hull verification and the relaxation gap on switch blocks."""

import numpy as np
import pytest

from mgridopt.analysis import violation_certificate
from mgridopt.dialgo import (StepSizeSchedule, generate_graph, recourse_cap,
                             run)
from mgridopt.model import (ControllableLoadParams, GridParams, StorageParams,
                            build_controllable_load_block, build_grid_block,
                            build_storage_block)
from mgridopt.solver import LinearProgram, solve_lp, solve_milp
from mgridopt.stochastic import ScenarioSet, build_recourse_cost
from oracles.hull import (enumerate_vertices, feasible_binary_assignments,
                          hull_block, hull_optimum, integer_vertices,
                          relaxation_equals_hull)


def test_vertex_enumeration_unit_box():
    G = np.vstack([np.eye(2), -np.eye(2)])
    g = np.array([1.0, 1.0, 0.0, 0.0])
    verts = {tuple(np.round(v, 6)) for v in enumerate_vertices(G, g)}
    assert verts == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


def test_vertex_enumeration_triangle():
    G = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    g = np.array([1.0, 0.0, 0.0])
    verts = {tuple(np.round(v, 6)) for v in enumerate_vertices(G, g)}
    assert verts == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_pure_box_block_equals_hull():
    blk = build_controllable_load_block(
        ControllableLoadParams(0.0, 0.7, (4.0, 2.0), 1.0), 2)
    assert relaxation_equals_hull(blk)


def test_grid_block_relaxation_equals_its_hull():
    """The grid has no integer column; its relaxation is the polytope
    spanned by its own vertices, at every cost."""
    rng = np.random.default_rng(7)
    blk = build_grid_block(GridParams(P_max=10.0, phi_p=(0.3, 0.25),
                                      phi_s=(0.15, 0.25)), 2)
    assert not blk.integrality.any()
    assert relaxation_equals_hull(blk)
    hb = hull_block(blk)
    for _ in range(8):
        c = rng.normal(size=blk.n)
        assert solve_lp(blk.relaxation_lp(c)).value == pytest.approx(
            solve_lp(hb.relaxation_lp(c)).value, abs=1e-9)


def test_storage_block_relaxation_strictly_larger():
    blk = build_storage_block(
        StorageParams(eta_c=0.9, eta_d=0.85, x_min=1.0, x_max=8.0, x_pl=0.0,
                      C=4.0, zeta=0.1, x0=4.0), 1)
    assert not relaxation_equals_hull(blk)


def test_hull_block_four_route_agreement():
    """Facet-row LP, lifted formulation, vertex enumeration and the MILP
    must all give the same optimum over the mixed-integer hull."""
    rng = np.random.default_rng(5)
    blocks = [
        build_storage_block(
            StorageParams(eta_c=0.9, eta_d=0.85, x_min=1.0, x_max=8.0,
                          x_pl=0.0, C=4.0, zeta=0.1, x0=4.0), 1),
        build_grid_block(GridParams(P_max=10.0, phi_p=(0.3,),
                                    phi_s=(0.15,)), 1),
    ]
    for blk in blocks:
        V = integer_vertices(blk)
        hb = hull_block(blk)
        assert relaxation_equals_hull(hb)  # hull of a hull is itself
        for _ in range(8):
            c = rng.normal(size=blk.n)
            by_facets = solve_lp(hb.relaxation_lp(c)).value
            by_lift = hull_optimum(blk, c)
            by_vertices = float(np.min(V @ c))
            by_milp = solve_milp(LinearProgram(
                c, blk.G, blk.g, blk.lo, blk.hi,
                integrality=blk.integrality)).value
            assert by_facets == pytest.approx(by_vertices, abs=1e-6)
            assert by_lift == pytest.approx(by_vertices, abs=1e-6)
            assert by_milp == pytest.approx(by_vertices, abs=1e-6)


def test_hull_optimum_matches_assignment_enumeration():
    """The lifted hull formulation reproduces min over explicit binary
    fixings, and sits at or above the plain relaxation value (the gap)."""
    rng = np.random.default_rng(19)
    blk = build_storage_block(
        StorageParams(eta_c=0.9, eta_d=0.85, x_min=1.0, x_max=8.0, x_pl=0.0,
                      C=4.0, zeta=0.1, x0=4.0), 1)
    idx, assigns = feasible_binary_assignments(blk)
    assert len(assigns) == 2
    gaps = []
    for _ in range(6):
        c = rng.normal(size=blk.n)
        hull_val = hull_optimum(blk, c)
        best = np.inf
        for pattern in assigns:
            lo, hi = blk.lo.copy(), blk.hi.copy()
            lo[idx] = hi[idx] = pattern
            sol = solve_lp(LinearProgram(c, blk.G, blk.g, lo, hi))
            best = min(best, sol.value)
        assert hull_val == pytest.approx(best, abs=1e-6)
        relax = solve_lp(blk.relaxation_lp(c)).value
        assert hull_val >= relax - 1e-8
        gaps.append(hull_val - relax)
    assert max(gaps) > 1e-6  # the switch rows do relax strictly


def test_run_starts_from_the_default_cap_on_a_hull_roster():
    """hull_block keeps the native bounds, which stay valid for the hull,
    so `run` reads its default recourse cap off a roster of hull blocks
    and the run certifies."""
    K = 1
    storage = build_storage_block(
        StorageParams(eta_c=0.9, eta_d=0.85, x_min=1.0, x_max=8.0, x_pl=0.0,
                      C=3.0, zeta=0.1, x0=4.0), K)
    hull = hull_block(storage)
    assert hull.lo.tobytes() == storage.lo.tobytes()
    assert hull.hi.tobytes() == storage.hi.tobytes()
    blocks = [hull, build_grid_block(
        GridParams(P_max=10.0, phi_p=(0.3,), phi_s=(0.15,)), K)]
    scen = ScenarioSet(pi=[0.5, 0.5], b_r=[np.array([0.5]), np.array([-0.5])])
    d = build_recourse_cost(scen.pi, 2.0, 2.5, K)
    assert recourse_cap(blocks, scen) == 27.0
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(1.0, 2.0), T_f=20)
    assert res.eta_cap == 27.0
    assert all(a.lifted.base.contains(a.x_mi) for a in res.agents)
    assert violation_certificate(res).holds
