"""The traced benchmark in perfbench/ reaches into the package by name:
every wrapped call site must still resolve and fire where the benchmark
counts it, and the run trace must still carry every field the benchmark
reads."""

import ast
import copy
import dataclasses
import importlib
import inspect
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgridopt import dialgo, experiment, model
from mgridopt.config import ExperimentConfig, build_problem
from mgridopt.dialgo import RunTrace, recourse_cap, run
from mgridopt.solver import OPTIMAL, LinearProgram, solve_milp

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_runner(monkeypatch):
    """perfbench/run.py as a module.  Loading it imports `tracing` by
    its bare name, pins the BLAS thread counts and puts src/ on
    sys.path; `monkeypatch` undoes all three after the test."""
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves_to_a_callable():
    for module, attr, span in load_tracing().CALL_SITES:
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} (span {span}) is gone"


def test_every_package_name_the_benchmark_reads_resolves():
    # every `dialgo.x`, `experiment.x` and `ExperimentConfig.x` in
    # perfbench's code, and every name it imports from the package; the
    # span names in CALL_SITES are strings, checked by the test above
    owners = {"dialgo": dialgo, "experiment": experiment,
              "ExperimentConfig": ExperimentConfig}
    read, imported = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in owners:
                read.add((path.name, node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("mgridopt"):
                imported |= {(path.name, node.module, alias.name)
                             for alias in node.names}
    assert {owner for _, owner, _ in read} == set(owners)
    missing = [f"{name}: {owner}.{attr}" for name, owner, attr in sorted(read)
               if not hasattr(owners[owner], attr)]
    missing += [f"{name}: from {module} import {attr}"
                for name, module, attr in sorted(imported)
                if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"perfbench reads names that are gone: {missing}"
    # tracing recomputes the cap from the first two arguments of a run
    assert list(inspect.signature(dialgo.run).parameters)[:2] == \
        ["blocks", "scen"]


def test_run_trace_keeps_the_fields_the_benchmark_reads():
    read = set()
    for path in PERFBENCH.glob("*.py"):
        read |= set(re.findall(r"\.trace\.(\w+)", path.read_text()))
    assert {"iters", "coupling_vectors", "alloc_residual_all",
            "relax_cost_all"} <= read
    fields = {f.name for f in dataclasses.fields(RunTrace)}
    assert read <= fields, f"RunTrace lost {sorted(read - fields)}"


def test_traced_run_fires_every_solver_span(tmp_path):
    # one round of desk.yaml leaves agents non-integral, so the
    # certificate's floor LPs and auxiliary MILPs run too
    raw = yaml.safe_load((ROOT / "configs" / "desk.yaml").read_text())
    raw["algorithm"]["iterations"] = 1
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        experiment.run_experiment(ExperimentConfig(raw=raw),
                                  out_dir=tmp_path)
    finally:
        tracer.restore()
    spans = tracer.spans
    assert {"simplex.box", "simplex.alloc", "bnb.finalize", "simplex.node",
            "simplex.cert", "bnb.cert_aux"} <= {s.name for s in spans}
    # a solve reached through the wrong module's name lands under the
    # wrong span, where the reduction to metrics fails or miscounts it
    root = next(i for i, s in enumerate(spans) if s.name == tracing.UNIT_SPAN)
    m = tracing.unit_metrics(spans, tracing.children(spans), root)
    assert m["bnb.cert_aux.solves"] == \
        m["analysis.certificate.nonintegral_agents"] >= 1
    assert m["bnb.cert_aux.infeasible"] == 0


@pytest.mark.parametrize("workload", ["desk", "montecarlo"])
def test_traced_workload_yields_every_per_layer_metric(tmp_path, monkeypatch,
                                                       workload):
    # run.py reads values[name] for every per-layer metric of
    # BENCHMARK.json, so a traced repetition in which a span never fires
    # raises KeyError and the traced benchmark exits 1
    runner = load_runner(monkeypatch)
    raw = runner.workload_config(
        yaml.safe_load((ROOT / "configs" / "desk.yaml").read_text()),
        workload, runner.DEFAULT_SEED)
    cfg = ExperimentConfig(raw=raw)
    tracer = runner.Tracer()
    tracer.install()
    try:
        if workload == "montecarlo":
            experiment.run_montecarlo(cfg, runner.MC_TRIALS, out_dir=tmp_path)
        else:
            experiment.run_experiment(cfg, out_dir=tmp_path)
    finally:
        tracer.restore()
    yielded = runner._rep_layers(tracer.spans, 0)
    wanted = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = {name for name in wanted - set(yielded)
               if not name.startswith("trace.")}
    assert not missing, f"{workload}: no span yields {sorted(missing)}"


def test_benchmark_gate_passes_a_run_and_rejects_a_broken_copy(tmp_path,
                                                              monkeypatch):
    # every benchmark repetition goes through check_result and
    # fingerprint, which read the run's trace, agents and certificate
    runner = load_runner(monkeypatch)
    raw = yaml.safe_load((ROOT / "configs" / "desk.yaml").read_text())
    raw["algorithm"]["iterations"] = 1
    res = experiment.run_experiment(ExperimentConfig(raw=raw),
                                    out_dir=tmp_path)
    assert runner.check_result(res) == []
    incumbent, relaxed, bound = runner.fingerprint(res)
    assert all(map(math.isfinite, (incumbent, relaxed, *bound))) and bound
    # the selftest's broken copy
    broken = copy.deepcopy(res)
    broken.result.trace.alloc_residual_all[-1] = 1.0
    broken.result.agents[0].x_mi = broken.result.agents[0].x_mi + 1e3
    bad = runner.check_result(broken)
    assert "allocation conservation" in bad
    assert "finalized point outside its block" in bad


def test_gate_rejects_a_point_past_a_native_bound():
    # the benchmark's gate checks every finalized point with
    # agent.lifted.base.contains, and its tracing reads the agent's kind
    # there; a block's boxes are bounds, not rows of G, so a point
    # meeting every row but past one bound must fail it
    p = build_problem(
        ExperimentConfig.from_yaml(ROOT / "configs" / "desk.yaml"))
    res = run(p.blocks, p.scen, p.d, p.graph, p.schedule, T_f=0)
    tried, rejected = set(), {}
    for agent, blk in zip(res.agents, p.blocks, strict=True):
        base = agent.lifted.base
        assert base is blk
        assert base.contains(agent.x_mi)
        if base.kind in rejected or base.n == 0:
            continue
        tried.add(base.kind)
        for j in np.flatnonzero(~base.integrality):
            for value in (base.hi[j] + 1e-3, base.lo[j] - 1e-3):
                if not np.isfinite(value):
                    continue
                lo, hi = base.lo.copy(), base.hi.copy()
                lo[j] = hi[j] = value
                sol = solve_milp(LinearProgram(
                    np.zeros(base.n), base.G, base.g, lo, hi,
                    integrality=base.integrality))
                if sol.status != OPTIMAL:
                    continue
                assert np.all(base.G @ sol.x <= base.g + 1e-7)
                assert not base.contains(sol.x), (base.kind, j)
                rejected[base.kind] = j
                break
            if base.kind in rejected:
                break
    assert set(rejected) == tried == {"storage", "generator",
                                      "controllable_load", "grid"}


def test_recourse_cap_after_a_run_solves_no_lp(monkeypatch):
    # the benchmark recomputes recourse_cap(blocks, scen) after each
    # dialgo.run to count cap doublings; the coupling masses are read
    # off the blocks' bounds, so that call solves no LP
    p = build_problem(
        ExperimentConfig.from_yaml(ROOT / "configs" / "desk.yaml"))
    res = run(p.blocks, p.scen, p.d, p.graph, p.schedule, T_f=0)

    def no_lp(lp, **kwargs):
        raise AssertionError("recourse_cap solved an LP after the run")

    monkeypatch.setattr(model, "solve_lp", no_lp)
    doublings = math.log2(res.eta_cap / recourse_cap(p.blocks, p.scen))
    assert doublings == int(doublings) >= 0
