"""Property tests of the paper's invariants on small generated instances.

Rosters of at most four units (K <= 3 steps, R <= 2 scenarios) on a
random connected graph, run for at most 20 rounds: the allocations keep
summing to the band at every round, every logged mixed-integer point
meets the lifted coupling, and every finalized point lies in its block.
On rosters whose relaxations are their hulls the certificate holds,
and so it does on rosters whose binary blocks are replaced by their
hulls, at the run's recourse cap and from cap 0.
No logged incumbent beats the centralized MILP optimum and no round's
relaxed cost beats its LP relaxation, both solved by HiGHS.  Every
built block is compact, and the recourse cap read off the native
bounds is never below the one from the full coordinate boxes.
Small configs run to their artifacts, and `recertify` reproduces the
stored certificate exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgridopt.analysis import violation_certificate
from mgridopt.config import ExperimentConfig
from mgridopt.dialgo import (StepSizeSchedule, generate_graph, recourse_cap,
                             run)
from mgridopt.experiment import recertify, run_experiment
from mgridopt.model import (ControllableLoadParams, GeneratorParams,
                            GridParams, LocalBlock, StorageParams,
                            build_controllable_load_block,
                            build_generator_block, build_grid_block,
                            build_storage_block, power_balance_rhs)
from mgridopt.stochastic import ScenarioSet, build_recourse_cost
from oracles.centralized import solve_centralized
from oracles.hull import (box_recourse_cap, coordinate_box, hull_block,
                          relaxation_equals_hull)
from test_config_cli import minimal_config

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=80, derandomize=True, deadline=None,
                    database=None)
AGAINST_HIGHS = settings(PROPERTY, max_examples=25)
DESK_UNITS = yaml.safe_load(
    (Path(__file__).resolve().parents[1] / "configs" / "desk.yaml")
    .read_text())["units"]
ALL_KINDS = ("storage", "generator", "controllable_load", "critical_load",
             "grid")


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def profile(draw, K, lo, hi):
    return tuple(draw(st.lists(unit(lo, hi), min_size=K, max_size=K)))


@st.composite
def instances(draw, kinds=ALL_KINDS, max_K=3):
    """(blocks, scenario set, recourse prices d, graph, schedule, T_f,
    finalize_every) of one small random roster over K <= max_K steps."""
    K = draw(st.integers(1, max_K))
    R = draw(st.integers(1, 2))
    blocks, cl_demands, critical = [], [], []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=4)):
        if kind == "storage":
            x_min = draw(unit(0.5, 2.0))
            x_max = x_min + draw(unit(1.0, 8.0))
            C = draw(unit(1.0, 5.0))
            eta_c = draw(unit(0.8, 1.0))
            blocks.append(build_storage_block(StorageParams(
                eta_c=eta_c, eta_d=draw(unit(0.8, 1.0)), x_min=x_min,
                x_max=x_max, x_pl=draw(unit(0.0, 0.5 * eta_c * C)), C=C,
                zeta=draw(unit(0.0, 0.3)),
                x0=draw(unit(x_min, x_max))), K))
        elif kind == "generator":
            u_min = draw(unit(0.0, 3.0))
            blocks.append(build_generator_block(GeneratorParams(
                T_up=draw(st.integers(1, 3)), T_down=draw(st.integers(1, 3)),
                u_min=u_min, u_max=u_min + draw(unit(0.5, 5.0)),
                r_max=draw(unit(0.5, 8.0)),
                kappa_u=profile(draw, K, 0.1, 2.0),
                kappa_d=profile(draw, K, 0.1, 2.0),
                zeta=draw(unit(0.0, 0.3)),
                cost_segments=((draw(unit(0.0, 0.5)), draw(unit(0.0, 1.0))),
                               (draw(unit(0.0, 0.5)), 0.0))), K))
        elif kind == "controllable_load":
            D = profile(draw, K, 0.0, 8.0)
            beta_max = draw(unit(0.0, 1.0))
            cl_demands.append(D)
            blocks.append(build_controllable_load_block(
                ControllableLoadParams(draw(unit(0.0, beta_max)), beta_max,
                                       D, draw(unit(0.1, 2.0))), K))
        elif kind == "critical_load":
            critical.append(profile(draw, K, 0.0, 4.0))
            blocks.append(LocalBlock.empty(K))
        else:
            # the sell price is a share of the purchase price: a grid
            # with phi_s > phi_p at some step is rejected
            phi_p = profile(draw, K, 0.1, 0.4)
            share = profile(draw, K, 0.0, 1.0)
            blocks.append(build_grid_block(GridParams(
                P_max=draw(unit(0.0, 15.0)), phi_p=phi_p,
                phi_s=tuple(p * f for p, f in zip(phi_p, share))), K))
    scen = ScenarioSet(pi=np.full(R, 1.0 / R), b_r=[
        power_balance_rhs([profile(draw, K, 0.0, 10.0)], cl_demands,
                          critical, K) for _ in range(R)])
    d = build_recourse_cost(scen.pi, draw(unit(0.5, 5.0)),
                               draw(unit(0.5, 5.0)), K)
    graph = generate_graph(len(blocks), "random",
                           seed=draw(st.integers(0, 2 ** 16)),
                           p=draw(unit(0.2, 0.9)))
    schedule = StepSizeSchedule.diminishing(draw(unit(0.2, 3.0)),
                                            draw(unit(1.0, 5.0)))
    return (blocks, scen, d, graph, schedule, draw(st.integers(0, 20)),
            draw(st.integers(1, 10)))


def run_instance(instance):
    blocks, scen, d, graph, schedule, T_f, finalize_every = instance
    return blocks, run(blocks, scen, d, graph, schedule, T_f,
                       finalize_every=finalize_every)


@PROPERTY
@given(instances())
def test_conservation_anytime_feasibility_and_block_membership(instance):
    blocks, res = run_instance(instance)
    assert max(res.trace.alloc_residual_all) <= 1e-9
    for coupling in res.trace.coupling_vectors:
        assert np.max(coupling) <= 1e-6
    for blk, a in zip(blocks, res.agents):
        assert blk.contains(a.x_mi), blk.kind


@PROPERTY
@given(instances(kinds=("controllable_load", "critical_load", "grid")))
def test_certificate_holds_where_relaxations_are_hulls(instance):
    blocks, res = run_instance(instance)
    assert all(relaxation_equals_hull(blk) for blk in blocks)
    assert violation_certificate(res).holds


def test_certificate_holds_on_rosters_of_hull_blocks():
    # the violation theorem's setting with binaries: storages and
    # generators replaced by their exact hulls, so agents the run leaves
    # non-integral enter the bound through their floors and auxiliary
    # MILPs, which read the cap.  One step: at K = 2 the oracle's vertex
    # search takes minutes per storage, and a generator's hull has about
    # 300 vertices in 10 dimensions, past its facet search.
    nonintegral = []

    @settings(PROPERTY, max_examples=40)
    @given(instances(max_K=1))
    def check(instance):
        blocks, scen, d, graph, schedule, T_f, finalize_every = instance
        hulls = [hull_block(blk) if np.any(blk.integrality) else blk
                 for blk in blocks]
        for cap in (None, 0.0):
            res = run(hulls, scen, d, graph, schedule, T_f,
                      finalize_every=finalize_every, eta_cap=cap)
            cert = violation_certificate(res)
            assert cert.holds, (cap, cert.measured, cert.bound)
            nonintegral.append(cert.in_integral_set.count(False))

    check()
    assert any(nonintegral)  # the non-integral branch is exercised


@PROPERTY
@given(instances())
def test_every_built_block_has_a_finite_coordinate_box(instance):
    for blk in instance[0]:
        lo, hi = coordinate_box(blk)
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), blk.kind


@PROPERTY
@given(instances())
def test_recourse_cap_is_at_least_the_full_box_formula(instance):
    # the native bounds contain the LP range of every coupled column (the
    # simplex clips x to its bounds), so the cap is never below the box
    # cap; it is larger where ramp or state-of-charge rows keep a column
    # from reaching its bound
    blocks, scen = instance[:2]
    assert recourse_cap(blocks, scen) >= box_recourse_cap(blocks, scen)


def at_least(value, optimum):
    return value >= optimum - 1e-6 * (1.0 + abs(optimum))


@AGAINST_HIGHS
@given(instances())
def test_no_incumbent_beats_the_centralized_milp_optimum(instance):
    # every finalized point and its recourse are feasible for the
    # centralized two-stage problem
    blocks, scen, d = instance[:3]
    milp_opt, _ = solve_centralized(blocks, scen, d)
    _, res = run_instance(instance)
    for t, value in zip(res.trace.iters, res.trace.incumbent_cost):
        assert at_least(value, milp_opt), (t, value, milp_opt)


@AGAINST_HIGHS
@given(instances())
def test_no_relaxed_cost_beats_the_centralized_lp_optimum(instance):
    # the agents' relaxed solutions sum to a feasible point of the
    # pooled relaxation
    blocks, scen, d = instance[:3]
    _, lp_opt = solve_centralized(blocks, scen, d)
    _, res = run_instance(instance)
    for t, value in enumerate(res.trace.relax_cost_all):
        assert at_least(value, lp_opt), (t, value, lp_opt)


@st.composite
def small_configs(draw):
    """`minimal_config` with 2-3 steps, 1-2 scenarios, 0-3 rounds, a
    random scenario seed, and with or without one desk storage and one
    desk generator."""
    raw = minimal_config(K=draw(st.integers(2, 3)),
                         T_f=draw(st.integers(0, 3)),
                         R=draw(st.integers(1, 2)))
    raw["seeds"]["scenario"] = draw(st.integers(0, 2 ** 31 - 1))
    for key in ("storages", "generators"):
        if draw(st.booleans()):
            raw["units"][key] = DESK_UNITS[key][:1]
    return raw


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(small_configs())
def test_recertify_reproduces_the_stored_certificate(tmp_path_factory, raw):
    out = run_experiment(ExperimentConfig(raw=raw),
                         out_dir=tmp_path_factory.mktemp("run")).out_dir
    stored = json.loads((out / "certificate.json").read_text())
    payload = recertify(out)
    assert payload["matches_stored_bound"]
    assert payload["bound"] == stored["bound"]
    assert payload["measured"] == stored["measured"]
