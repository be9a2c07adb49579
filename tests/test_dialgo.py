"""Distributed rounds: conservation, multiplier structure, anytime
feasibility, and convergence of the relaxation toward the centralized
optimum."""

import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from mgridopt import dialgo, experiment, model
from mgridopt.config import ExperimentConfig, build_problem
from mgridopt.dialgo import (MAX_CAP_DOUBLINGS, AgentSolveError, AgentState,
                             CommGraph, GraphError, LocalProblem,
                             StepSizeSchedule, exchange_and_update,
                             finalize_mixed_integer, generate_graph,
                             init_allocations, local_multiplier_step,
                             recourse_cap, run)
from mgridopt.model import (ControllableLoadParams, GridParams, LocalBlock,
                            build_controllable_load_block, build_grid_block,
                            power_balance_rhs)
from mgridopt.solver import (OPTIMAL, SolverError, branch_bound, simplex,
                             solve_lp)
from mgridopt.stochastic import (ScenarioSet, assemble_two_stage, build_h,
                                 build_recourse_cost)
from oracles.hull import box_recourse_cap

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


def toy_agent(A, G=None, g=None, c=None, integrality=None, R=1, d=None,
              y=None, index=0):
    A = np.asarray(A, dtype=float)
    K, n = A.shape
    blk = LocalBlock(
        c=np.zeros(n) if c is None else np.asarray(c, float),
        G=np.zeros((0, n)) if G is None else np.asarray(G, float),
        g=np.zeros(0) if g is None else np.asarray(g, float),
        integrality=np.zeros(n, bool) if integrality is None else integrality,
        A=A, var_index={})
    dim = 2 * R * K
    d = np.full(dim, 2.0) if d is None else np.asarray(d, float)
    y = np.zeros(dim) if y is None else np.asarray(y, float)
    return AgentState(lifted=LocalProblem(blk, R, d, index), y=y)


# --------------------------------------------------------------- graphs


def test_path_and_cycle_edges():
    assert generate_graph(4, "path").edges == [(0, 1), (1, 2), (2, 3)]
    assert generate_graph(4, "cycle").edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert generate_graph(2, "random").edges == [(0, 1)]
    assert generate_graph(1, "path").edges == []


def test_random_graph_connected_and_deterministic():
    g1 = generate_graph(20, "random", seed=3, p=0.2)
    g2 = generate_graph(20, "random", seed=3, p=0.2)
    assert g1.edges == g2.edges
    assert g1.is_connected()
    deg = g1.degree()
    assert deg.sum() == 2 * len(g1.edges)


def test_graph_validation():
    with pytest.raises(GraphError):
        CommGraph(3, [(0, 0)])
    with pytest.raises(GraphError):
        CommGraph(3, [(0, 1)])  # node 2 unreachable
    with pytest.raises(GraphError):
        CommGraph(2, [(0, 5)])


def test_unknown_graph_kind_rejected_for_any_size():
    # the kind is checked before the one- and two-node shortcuts
    for N in (1, 2, 5):
        with pytest.raises(GraphError, match="bogus"):
            generate_graph(N, "bogus")


def test_metropolis_weights_doubly_stochastic():
    g = generate_graph(2, "path")
    W = g.metropolis_weights()
    assert W == pytest.approx(np.full((2, 2), 0.5))
    g11 = generate_graph(11, "random", seed=9, p=0.35)
    W = g11.metropolis_weights()
    assert W == pytest.approx(W.T)
    assert W.sum(axis=0) == pytest.approx(np.ones(11))
    assert np.all(W >= -1e-12)


# --------------------------------------------------------------- schedules


def test_schedules():
    dim = StepSizeSchedule.diminishing(2.0, 4.0)
    assert dim(0) == pytest.approx(0.5)
    assert dim(6) == pytest.approx(0.2)
    pw = StepSizeSchedule.piecewise(3.0, 0.5, 100)
    assert pw(0) == 3.0 and pw(99) == 3.0
    assert pw(100) == 1.5 and pw(250) == 0.75
    with pytest.raises(ValueError):
        StepSizeSchedule.diminishing(0.0, 1.0)
    with pytest.raises(ValueError):
        StepSizeSchedule.piecewise(3.0, 0.5, 0)


# --------------------------------------------------------------- allocations


def test_uniform_split_example():
    ys = init_allocations(np.array([4.0, 8.0]), 4)
    for y in ys:
        assert y == pytest.approx([1.0, 2.0])


def test_single_agent_gets_everything():
    h = np.array([1.5, 2.5])
    assert init_allocations(h, 1) == [pytest.approx(h)]


# --------------------------------------------------------------- exchange


def test_exchange_two_agents_hand_values():
    a = toy_agent([[1.0]], index=0, y=[1.0, 1.0])
    b = toy_agent([[1.0]], index=1, y=[2.0, 2.0])
    a.mu = np.array([1.0, 0.0])
    b.mu = np.array([0.0, 2.0])
    graph = generate_graph(2, "path")
    exchange_and_update([a, b], graph, 0.1)
    assert a.y == pytest.approx([1.1, 0.8])
    assert b.y == pytest.approx([1.9, 2.2])


def test_exchange_consensus_is_fixed_point():
    agents = [toy_agent([[1.0]], index=i, y=[float(i), -float(i)])
              for i in range(3)]
    for a in agents:
        a.mu = np.array([0.7, 0.3])
    before = [a.y.copy() for a in agents]
    exchange_and_update(agents, generate_graph(3, "cycle"), 0.5)
    for a, y0 in zip(agents, before):
        assert a.y == pytest.approx(y0)


def test_exchange_conserves_total_exactly():
    rng = np.random.default_rng(6)
    agents = [toy_agent([[1.0], [0.5]], R=2, index=i,
                        y=rng.normal(size=4)) for i in range(5)]
    total0 = sum(a.y for a in agents)
    graph = generate_graph(5, "random", seed=2, p=0.5)
    for t in range(50):
        for a in agents:
            a.mu = rng.normal(size=4)
        exchange_and_update(agents, graph, 0.3 / (t + 1))
    assert np.max(np.abs(sum(a.y for a in agents) - total0)) <= 1e-12


# --------------------------------------------------------------- local solves


def test_slack_allocation_gives_zero_multiplier():
    a = toy_agent([[1.0]], G=[[1.0], [-1.0]], g=[2.0, 0.0],
                  y=[100.0, 100.0])
    mu = local_multiplier_step(a)
    assert mu == pytest.approx([0.0, 0.0], abs=1e-9)


def test_one_dimensional_binding_multiplier():
    # min -z + 2 eta, z - eta1 <= 5 binding: mu = (1, 0)
    a = toy_agent([[1.0]], G=[[1.0], [-1.0]], g=[10.0, 0.0], c=[-1.0],
                  y=[5.0, 50.0])
    mu = local_multiplier_step(a)
    assert mu == pytest.approx([1.0, 0.0], abs=1e-9)
    assert a.z[0] == pytest.approx(5.0, abs=1e-8)


def test_multiplier_bounded_by_recourse_prices():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n, K = 3, 2
        A = rng.normal(size=(K, n))
        G = np.vstack([np.eye(n), -np.eye(n)])
        g = np.concatenate([rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)])
        d = rng.uniform(0.5, 3.0, size=2 * K)
        a = toy_agent(A, G=G, g=g, c=rng.normal(size=n), d=d,
                      y=rng.normal(size=2 * K))
        mu = local_multiplier_step(a)
        assert np.all(mu >= -1e-9)
        assert np.all(mu <= d + 1e-7)


def test_closed_form_is_the_cold_simplex_bit_for_bit(monkeypatch):
    """An agent without columns (a critical load) solves no LP: its
    closed form equals a cold solve_lp of the same program in x, duals
    and value, bit for bit, at allocations with exact zeros of both
    signs, where the dual is tied between 0 and d."""
    rng = np.random.default_rng(41)
    calls = {}
    counting(monkeypatch, dialgo, "solve_lp", calls)
    for _ in range(200):
        K, R = int(rng.integers(1, 13)), int(rng.integers(1, 5))
        pi = rng.dirichlet(np.ones(R))
        d = build_recourse_cost(pi, *rng.uniform(0.5, 400.0, 2), K)
        problem = LocalProblem(LocalBlock.empty(K), R, d)
        assert problem.closed_form
        y = rng.standard_normal(d.size) * 10.0 ** rng.integers(-9, 4)
        pick = rng.random(d.size)
        y[pick < 0.2] = 0.0
        y[(0.2 <= pick) & (pick < 0.4)] = -0.0
        sol = problem.relax(y)
        cold = solve_lp(problem.lp)
        assert cold.status == sol.status == OPTIMAL
        assert np.float64(sol.value).tobytes() == \
            np.float64(cold.value).tobytes()
        for field in ("x", "duals"):
            assert getattr(sol, field).tobytes() == \
                getattr(cold, field).tobytes()
    assert calls == {}


def test_finalize_singleton_block():
    # X = {x = 1.5}: eta = max(0, Hx - y) componentwise at the optimum
    a = toy_agent([[2.0]], G=[[1.0], [-1.0]], g=[1.5, -1.5],
                  y=[1.0, -4.0])
    x, eta = finalize_mixed_integer(a)
    assert x[0] == pytest.approx(1.5, abs=1e-9)
    # H x = (3, -3); y = (1, -4) -> eta = (2, 1)
    assert eta == pytest.approx([2.0, 1.0], abs=1e-8)


def test_finalize_slack_allocation_zero_eta():
    a = toy_agent([[1.0]], G=[[1.0], [-1.0]], g=[2.0, 0.0], y=[50.0, 50.0])
    _, eta = finalize_mixed_integer(a)
    assert eta == pytest.approx([0.0, 0.0], abs=1e-9)


def test_finalize_matches_enumeration_two_binaries():
    rng = np.random.default_rng(21)
    for _ in range(10):
        A = rng.normal(size=(1, 2))
        c = rng.normal(size=2)
        G = np.vstack([np.eye(2), -np.eye(2)])
        g = np.array([1.0, 1.0, 0.0, 0.0])
        y = rng.normal(size=2)
        d = np.array([1.5, 2.5])
        a = toy_agent(A, G=G, g=g, c=c,
                      integrality=np.array([True, True]), d=d, y=y)
        x, eta = finalize_mixed_integer(a)
        best = np.inf
        H = a.lifted.H
        for x1 in (0.0, 1.0):
            for x2 in (0.0, 1.0):
                xx = np.array([x1, x2])
                ee = np.maximum(H @ xx - y, 0.0)
                best = min(best, c @ xx + d @ ee)
        got = c @ x + d @ eta
        assert got == pytest.approx(best, abs=1e-8)


# ------------------------------------------- finalize from the round's root


def spy_finalizes(monkeypatch):
    """Wrap the run's finalize.  Each call appends a record: the agent,
    the allocation and node LPs it solved, the node counts of its trees,
    its point, and a cold solve_milp of its LocalProblem at the same y."""
    lps = {"alloc": 0, "node": 0}
    trees, records = [], []
    milp, finalize = dialgo.solve_milp, dialgo.finalize_mixed_integer

    def counted(fn, key):
        def wrapper(lp, **kwargs):
            lps[key] += 1
            return fn(lp, **kwargs)
        return wrapper

    def tree(lp, **kwargs):
        sol = milp(lp, **kwargs)
        trees.append(sol.node_count)
        return sol

    def spied(agent):
        before = dict(lps)
        trees.clear()
        x, eta = finalize(agent)
        spent = {key: lps[key] - before[key] for key in lps}
        cold = agent.lifted.solve(milp, agent.y, "cold")
        records.append(dict(agent=agent, spent=spent, trees=list(trees),
                            x=x, eta=eta, cold=cold))
        return x, eta

    monkeypatch.setattr(dialgo, "solve_lp", counted(dialgo.solve_lp, "alloc"))
    monkeypatch.setattr(branch_bound, "solve_lp",
                        counted(branch_bound.solve_lp, "node"))
    monkeypatch.setattr(dialgo, "solve_milp", tree)
    monkeypatch.setattr(dialgo, "finalize_mixed_integer", spied)
    return records


def assert_finalized_as_cold(records):
    for r in records:
        a = r["agent"]
        n = a.lifted.n
        assert r["x"].tobytes() == r["cold"].x[:n].tobytes()
        assert r["eta"].tobytes() == r["cold"].x[n:].tobytes()
        assert r["trees"] == [r["cold"].node_count]
        assert r["spent"]["alloc"] == 0
        # the reused root is the tree's first node, solved by no one
        assert r["spent"]["node"] == r["trees"][0] - 1


def test_desk_finalize_starts_from_the_round_relaxed_solve(monkeypatch):
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    records = spy_finalizes(monkeypatch)
    run(problem.blocks, problem.scen, problem.d, problem.graph,
        problem.schedule, T_f=2, finalize_every=1)
    assert len(records) == 3 * len(problem.blocks)
    assert_finalized_as_cold(records)
    binary_free = 0
    for r in records:
        if not r["agent"].lifted.base.integrality.any():
            binary_free += 1
            assert r["spent"]["node"] == 0
    assert binary_free == 3 * 7


def test_finalize_after_a_cap_doubling_keeps_its_root(monkeypatch):
    # the recourse outgrows a cap of 1e-3, which the run doubles; the
    # local problems do not read the cap, so every finalize still starts
    # from its round's relaxed solve
    blocks, scen, d = two_agent_instance()
    records = spy_finalizes(monkeypatch)
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(2.0, 5.0), T_f=20,
              finalize_every=10, eta_cap=1e-3)
    assert res.eta_cap > 1e-3
    assert len(records) == len(res.trace.iters) * len(blocks)
    assert_finalized_as_cold(records)


def test_finalize_keeps_its_root_when_its_own_recourse_doubles_the_cap(
        monkeypatch):
    # one binary at relaxed value 0.5: the relaxation needs no recourse,
    # the mixed-integer point needs 0.5, past the starting cap of 0.3
    blk = LocalBlock(c=np.zeros(1), G=np.zeros((0, 1)), g=np.zeros(0),
                     integrality=np.array([True]), A=np.array([[1.0]]),
                     var_index={}, lo=np.zeros(1), hi=np.ones(1))
    scen = ScenarioSet(pi=[1.0], b_r=[np.array([0.5])])
    d = build_recourse_cost(scen.pi, 2.0, 2.0, 1)
    records = spy_finalizes(monkeypatch)
    res = run([blk], scen, d, generate_graph(1, "path"),
              StepSizeSchedule.diminishing(1.0, 1.0), T_f=0, eta_cap=0.3)
    assert res.eta_cap == 0.6
    [r] = records
    assert r["agent"].relaxed.x[0] == 0.5
    assert np.max(r["eta"]) == 0.5
    assert_finalized_as_cold(records)
    assert r["trees"][0] > 1


# --------------------------------------------------------------- full runs


def two_agent_instance(K=2):
    grid = build_grid_block(
        GridParams(P_max=15.0, phi_p=(0.25,) * K, phi_s=(0.1,) * K), K)
    load = build_controllable_load_block(
        ControllableLoadParams(0.0, 0.5, (6.0,) * K, 0.9), K)
    blocks = [grid, load]
    b = power_balance_rhs([], [(6.0,) * K], [np.full(K, 1.0)], K)
    scen = ScenarioSet(pi=[1.0], b_r=[b])
    d = build_recourse_cost(scen.pi, 3.0, 3.0, K)
    return blocks, scen, d


def test_run_zero_rounds_is_feasible():
    blocks, scen, d = two_agent_instance()
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(1.0, 1.0), T_f=0)
    assert res.trace.iters == [0]
    assert np.all(res.total_coupling() <= 1e-6)
    assert res.trace.alloc_residual_all[0] <= 1e-12


def test_run_converges_to_centralized_relaxation():
    # two curtailable loads sharing a renewable surplus; 200 diminishing
    # rounds land within 1% of the centralized relaxation optimum
    K = 2
    l1 = build_controllable_load_block(
        ControllableLoadParams(0.0, 0.8, (5.0, 7.0), 0.9), K)
    l2 = build_controllable_load_block(
        ControllableLoadParams(0.0, 0.7, (6.0, 4.0), 1.4), K)
    blocks = [l1, l2]
    b = power_balance_rhs([np.array([4.0, 5.0])], [(5.0, 7.0), (6.0, 4.0)],
                          [], K)
    scen = ScenarioSet(pi=[1.0], b_r=[b])
    d = build_recourse_cost(scen.pi, 3.0, 3.0, K)
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(2.0, 2.0), T_f=200,
              finalize_every=100)
    lp = assemble_two_stage(blocks, scen, d)
    central = solve_lp(lp)
    assert central.status == OPTIMAL
    final_relax = res.trace.relax_cost_all[-1]
    assert abs(final_relax - central.value) <= 0.01 * abs(central.value)
    # the distributed value can only sit above the centralized optimum
    assert final_relax >= central.value - 1e-7


def test_run_anytime_feasibility_and_conservation():
    blocks, scen, d = two_agent_instance()
    # a seeded zero-sum perturbation of the equal split
    h = build_h(scen)
    rng = np.random.default_rng(4)
    y0 = h / 2 + rng.normal(0.0, 0.1 * (1.0 + np.abs(h) / 2))
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(2.0, 5.0), T_f=40,
              finalize_every=10, ys=[y0, h - y0])
    h = res.h
    for idx in range(len(res.trace.iters)):
        assert np.all(res.trace.coupling_vectors[idx] <= 1e-6)
    assert max(res.trace.alloc_residual_all) <= 1e-9
    # multipliers stay inside [0, d]
    for a in res.agents:
        assert np.all(a.mu >= -1e-9) and np.all(a.mu <= a.lifted.d + 1e-7)


def test_run_with_empty_block_agent():
    blocks, scen, d = two_agent_instance()
    blocks = blocks + [LocalBlock.empty(scen.K)]
    res = run(blocks, scen, d, generate_graph(3, "cycle"),
              StepSizeSchedule.diminishing(1.0, 5.0), T_f=10,
              finalize_every=5)
    assert np.all(res.total_coupling() <= 1e-6)
    assert max(res.trace.alloc_residual_all) <= 1e-9


def test_run_grows_a_zero_cap():
    # no coupling mass and a zero balance give recourse_cap 0, which
    # doubling alone never lifts
    blocks = [LocalBlock.empty(2)]
    scen = ScenarioSet(pi=[1.0], b_r=[np.zeros(2)])
    d = build_recourse_cost(scen.pi, 1.0, 1.0, 2)
    res = run(blocks, scen, d, generate_graph(1, "path"),
              StepSizeSchedule.diminishing(1.0, 1.0), T_f=2,
              finalize_every=1)
    assert res.eta_cap == 1.0
    assert res.trace.iters == [0, 1, 2]
    assert res.incumbent_cost() == 0.0
    assert np.all(res.total_coupling() <= 1e-12)


def test_run_doubles_a_cap_too_small_for_feasibility():
    # the recourse passes a cap of 1e-3 at round 0; the run doubles the
    # cap past it instead of stopping there
    blocks, scen, d = two_agent_instance()
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(2.0, 5.0), T_f=20,
              finalize_every=10, eta_cap=1e-3)
    assert res.eta_cap > 1e-3
    assert max(res.trace.alloc_residual_all) <= 1e-9
    assert np.all(res.total_coupling() <= 1e-6)
    for coupling in res.trace.coupling_vectors:
        assert np.all(coupling <= 1e-6)


def counting(monkeypatch, module, name, calls, edit=None):
    """Count the calls of `module.name` in `calls[name]`; `edit`, if
    given, may change each solution before it is returned."""
    fn = getattr(module, name)

    def wrapper(lp, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        sol = fn(lp, **kwargs)
        return sol if edit is None else edit(sol)

    monkeypatch.setattr(module, name, wrapper)


def test_a_cap_doubling_solves_no_local_problem_again(monkeypatch):
    blocks, scen, d = two_agent_instance()
    calls = {}
    counting(monkeypatch, dialgo, "solve_lp", calls)
    counting(monkeypatch, dialgo, "solve_milp", calls)
    res = run(blocks, scen, d, generate_graph(2, "path"),
              StepSizeSchedule.diminishing(2.0, 5.0), T_f=20,
              finalize_every=10, eta_cap=1e-3)
    assert res.eta_cap > 1e-3
    N = len(blocks)
    assert calls == {"solve_lp": 21 * N,
                     "solve_milp": len(res.trace.iters) * N}


def test_a_nan_recourse_names_its_agent_after_one_solve(monkeypatch):
    blocks, scen, d = two_agent_instance()
    n = blocks[0].n

    def nan_recourse(sol):
        sol.x[n:] = np.nan
        return sol

    calls = {}
    counting(monkeypatch, dialgo, "solve_lp", calls, edit=nan_recourse)
    with pytest.raises(AgentSolveError) as e:
        run(blocks, scen, d, generate_graph(2, "path"),
            StepSizeSchedule.diminishing(1.0, 1.0), T_f=0)
    assert (e.value.agent, e.value.stage) == (0, "round 0 allocation LP")
    assert e.value.status == \
        f"recourse nan beyond {MAX_CAP_DOUBLINGS} cap doublings"
    assert calls == {"solve_lp": 1}


def test_recovery_infeasible_for_every_cap_names_its_round(monkeypatch):
    # one binary confined to [0.3, 0.7]: the relaxation is feasible, the
    # mixed-integer problem is not, whatever the cap
    blk = LocalBlock(c=np.zeros(1), G=np.zeros((0, 1)), g=np.zeros(0),
                     integrality=np.array([True]), A=np.array([[1.0]]),
                     var_index={}, lo=np.array([0.3]),
                     hi=np.array([0.7]))
    scen = ScenarioSet(pi=[1.0], b_r=[np.array([0.5])])
    d = build_recourse_cost(scen.pi, 3.0, 3.0, 1)
    calls = {}
    counting(monkeypatch, dialgo, "solve_milp", calls)
    with pytest.raises(AgentSolveError, match="round 0 recovery MILP") as e:
        run([blk], scen, d, generate_graph(1, "path"),
            StepSizeSchedule.diminishing(1.0, 1.0), T_f=0)
    assert e.value.agent == 0
    assert e.value.status == "infeasible"
    assert calls == {"solve_milp": 1}


def test_agent_solve_error_survives_pickling():
    # a trial run in a worker process returns its failure by pickle
    e = pickle.loads(pickle.dumps(
        AgentSolveError(3, "infeasible", "round 2 recovery MILP")))
    assert (e.agent, e.status, e.stage) == \
        (3, "infeasible", "round 2 recovery MILP")
    assert str(e) == "agent 3: round 2 recovery MILP solve ended infeasible"


def test_run_rejects_finalize_every_below_one():
    blocks, scen, d = two_agent_instance()
    with pytest.raises(ValueError, match="finalize_every"):
        run(blocks, scen, d, generate_graph(2, "path"),
            StepSizeSchedule.diminishing(1.0, 1.0), T_f=2, finalize_every=0)


def test_mismatched_graph_size_rejected():
    blocks, scen, d = two_agent_instance()
    with pytest.raises(Exception, match="nodes"):
        run(blocks, scen, d, generate_graph(3, "path"),
            StepSizeSchedule.diminishing(1.0, 1.0), T_f=1)


# ------------------------------------------- warm rounds between logged ones

WARM_ROUNDS, WARM_EVERY = 12, 10   # logged rounds 0, 1, 10 and 12


@pytest.fixture(scope="module")
def desk_warm_run(tmp_path_factory):
    """desk.yaml cut to 12 rounds and finalized every 10, run through
    `run_experiment`: (artifact directory, agent count, one record per
    allocation step in call order).  A record holds the round's relaxed
    solve and its factor, the factor it could start from, the basis
    inversions it made, whether it was a closed form, how far the
    factor's inverse times its basis matrix is from the identity, a cold
    solve_lp of the same LP and the LP's row slacks."""
    raw = copy.deepcopy(ExperimentConfig.from_yaml(DESK).raw)
    raw["algorithm"]["iterations"] = WARM_ROUNDS
    raw["algorithm"]["finalize_every"] = WARM_EVERY
    cfg = ExperimentConfig(raw=raw)
    records = []
    step, inv = dialgo.local_multiplier_step, np.linalg.inv
    inversions = 0

    def counted_inv(B):
        nonlocal inversions
        inversions += 1
        return inv(B)

    def spied(agent, **kwargs):
        nonlocal inversions
        kept = None if agent.relaxed is None else agent.relaxed.factor
        inversions = 0
        mu = step(agent, **kwargs)
        lp, sol = agent.lifted.lp, agent.relaxed
        off = None
        if sol.factor is not None:
            B = np.concatenate([lp.G, np.eye(lp.m)], axis=1)[:, sol.basis[0]]
            off = np.abs(sol.factor.inverse @ B - np.eye(lp.m)).max()
        records.append(dict(sol=sol, closed=agent.lifted.closed_form,
                            kept=kept, factor=sol.factor,
                            inversions=inversions, off_identity=off,
                            cold=solve_lp(lp),
                            slack=lp.g - lp.G @ sol.x))
        return mu

    out = tmp_path_factory.mktemp("desk_warm")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dialgo, "local_multiplier_step", spied)
        patch.setattr(np.linalg, "inv", counted_inv)
        res = experiment.run_experiment(cfg, out_dir=out)
    return out, len(res.result.agents), records


def test_warm_rounds_match_cold_values_and_logged_rounds_are_cold(
        desk_warm_run):
    _, n_agents, records = desk_warm_run
    assert len(records) == (WARM_ROUNDS + 1) * n_agents
    logged = {0, 1, WARM_EVERY, WARM_ROUNDS}
    warm_pivots = cold_pivots = 0
    for k, r in enumerate(records):
        sol, cold = r["sol"], r["cold"]
        if r["closed"]:
            # an agent without columns: bitwise the cold solve every round
            assert sol.value == cold.value
            for field in ("x", "duals"):
                assert getattr(sol, field).tobytes() == \
                    getattr(cold, field).tobytes()
            continue
        if k // n_agents in logged:
            assert sol.pivots == cold.pivots
            assert sol.value == cold.value
            for field in ("x", "duals"):
                assert getattr(sol, field).tobytes() == \
                    getattr(cold, field).tobytes()
            assert all(u.tobytes() == v.tobytes()
                       for u, v in zip(sol.basis, cold.basis))
            continue
        warm_pivots += sol.pivots
        cold_pivots += cold.pivots
        assert abs(sol.value - cold.value) <= 1e-9 * (1 + abs(cold.value))
        assert np.all(sol.duals >= 0.0)
        assert np.all(r["slack"] >= -1e-7)
        assert np.max(sol.duals * np.abs(r["slack"])) <= \
            1e-9 * (1 + abs(cold.value))
    # the warm rounds do start warm
    assert 3 * warm_pivots < 2 * cold_pivots


def test_warm_rounds_refactor_on_the_pivot_budget(desk_warm_run):
    """A warm round adopts its start's inverse and update count and
    inverts no basis until the count reaches REFACTOR_EVERY; a logged
    round's cold solve reports a fresh inverse.  Every kept inverse
    times its basis matrix is the identity to 1e-9."""
    _, n_agents, records = desk_warm_run
    logged = {0, 1, WARM_EVERY, WARM_ROUNDS}
    chained = crossed = 0
    for k, r in enumerate(records):
        sol, factor = r["sol"], r["factor"]
        if r["closed"]:
            assert r["inversions"] == 0 and factor is None
            continue
        assert r["off_identity"] <= 1e-9
        if k // n_agents in logged:
            assert factor.updates == 0 and r["inversions"] >= 1
            continue
        below = r["kept"].updates + sol.pivots < simplex.REFACTOR_EVERY
        if factor.updates == r["kept"].updates + sol.pivots:
            # the start went on without a refactorization
            assert below and r["inversions"] == 0
            chained += 1
        else:
            # past the budget, or sent cold by the start rule
            assert r["inversions"] >= 1
            crossed += not below
    assert chained >= 40 and crossed >= 1, (chained, crossed)


def test_recertify_reproduces_a_run_with_warm_rounds(desk_warm_run):
    out, _, _ = desk_warm_run
    assert experiment.recertify(out)["matches_stored_bound"]


def test_a_simplex_failure_in_a_warm_round_names_its_agent_and_round(
        monkeypatch):
    blocks, scen, d = two_agent_instance()

    def failing_warm(lp, start=None, **kwargs):
        if start is not None:
            raise SolverError("singular basis")
        return solve_lp(lp, start=start, **kwargs)

    monkeypatch.setattr(dialgo, "solve_lp", failing_warm)
    with pytest.raises(AgentSolveError) as e:
        run(blocks, scen, d, generate_graph(2, "path"),
            StepSizeSchedule.diminishing(2.0, 5.0), T_f=5, finalize_every=10)
    assert (e.value.agent, e.value.stage, e.value.status) == \
        (0, "round 2 allocation LP", "singular basis")
    assert isinstance(e.value.__cause__.__cause__, SolverError)


def test_montecarlo_allocation_pivots_stay_at_the_cold_path(monkeypatch,
                                                            tmp_path):
    """The benchmark's montecarlo config, 2 trials of 20 rounds whose
    steps of 3 move each allocation far: the start rule sends almost
    every warm round cold before any dual pivot.  Without the rule (the
    start without its factor) the allocation LPs take 19% more pivots
    than with every round cold; with it, 0.3% more: one
    start that passes the rule runs its dual loop into DUAL_PIVOT_LIMIT,
    100 pivots a cold solve does not spend."""
    raw = copy.deepcopy(ExperimentConfig.from_yaml(DESK).raw)
    raw["algorithm"].update(
        iterations=20, finalize_every=20,
        step_size={"kind": "piecewise", "initial": 3.0, "factor": 0.5,
                   "period": 50})
    raw["scenarios"]["count"] = 4
    cfg = ExperimentConfig(raw=raw)
    real = dialgo.solve_lp

    def pivots(name, start_as):
        total = 0

        def counting(lp, start=None, **kwargs):
            nonlocal total
            sol = real(lp, start=start_as(start), **kwargs)
            total += sol.pivots
            return sol

        monkeypatch.setattr(dialgo, "solve_lp", counting)
        experiment.run_montecarlo(cfg, 2, out_dir=tmp_path / name)
        return total

    cold = pivots("cold", lambda start: None)
    warm = pivots("warm", lambda start: start)
    no_rule = pivots("no_rule", lambda start: None if start is None
                     else dataclasses.replace(start, factor=None))
    assert warm <= 1.01 * cold
    assert no_rule > 1.1 * cold


# --------------------------------------------------------------- recourse cap


def test_desk_build_solves_only_phase_one_lps_and_the_cap_none(monkeypatch):
    # each built block costs one zero-cost phase-1 LP; recourse_cap reads
    # the coupled columns' native bounds and solves none
    cfg = ExperimentConfig.from_yaml(DESK)
    nonzeros = []
    solve = model.solve_lp

    def counting(lp, **kwargs):
        nonzeros.append(np.count_nonzero(lp.c))
        return solve(lp, **kwargs)

    monkeypatch.setattr(model, "solve_lp", counting)
    problem = build_problem(cfg)
    built = sum(blk.n > 0 for blk in problem.blocks)
    assert built == 9
    assert nonzeros == [0] * built
    recourse_cap(problem.blocks, problem.scen)
    assert len(nonzeros) == built


def test_desk_recourse_cap_equals_the_full_box_formula():
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    assert recourse_cap(problem.blocks, problem.scen) == \
        box_recourse_cap(problem.blocks, problem.scen)
