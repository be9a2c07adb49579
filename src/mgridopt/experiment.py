"""Config-driven experiment runner and Monte Carlo batch driver.

A run writes a fixed artifact set into its output directory:

    config.yaml                resolved copy of the input config
    trace.csv                  iter, incumbent_cost,
                               max_coupling_violation_pos (above the band),
                               max_coupling_violation_neg (slack below),
                               alloc_residual
    certificate.json           violation certificate + consensus check
    solution.json              per-agent solution vectors and allocations
    report_consumption.csv     step, consumed_kw, curtailed_kw
    report_storage.csv         step, exchange_kw, level_kwh
    report_grid.csv            step, exchange_kw
    report_power_fraction.csv  step, generators, renewables, grid

Everything is a pure function of (config, seeds): identical inputs give
byte-identical artifacts.  Floats are serialized with repr (shortest
round-trip), timestamps never enter any file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (CONSENSUS_ROUNDS, distributed_certificate,
                       violation_certificate)
from .config import (ConfigError, ExperimentConfig, Problem, _positive,
                     _string, build_problem)
from .dialgo import AgentSolveError, RunResult, run

OUTPUT_ROOT_ENV = "MGRIDOPT_OUT"
TRACE_HEADER = ("iter,incumbent_cost,max_coupling_violation_pos,"
                "max_coupling_violation_neg,alloc_residual")


def _fmt(v) -> str:
    return repr(float(v))


def output_dir(problem: Problem, out_dir=None, suffix: str = "") -> Path:
    """`out_dir`, else the config's `output_dir` plus `suffix` under the
    output root (MGRIDOPT_OUT, default the working directory); created
    if missing."""
    out = Path(out_dir) if out_dir is not None else Path(
        os.environ.get(OUTPUT_ROOT_ENV, ".")) / (problem.output_dir + suffix)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_fields(path: Path, **readers) -> dict:
    """The named fields of the JSON mapping at `path`, each through its
    reader; bytes that are not UTF-8, a syntax error, a missing key or a
    value its reader rejects is a ConfigError naming the file, and the
    line and column or the key."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: byte {e.start}: not UTF-8") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from None
    fields = {}
    for key, read in readers.items():
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"{path}: {key}: missing")
        try:
            fields[key] = read(doc[key])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}: {key}: {e}") from None
    return fields


def _floats(value, size: int) -> np.ndarray:
    v = np.array(value, dtype=float)
    if v.shape != (size,):
        raise ValueError(f"must be a list of {size} numbers")
    return v


def _lists(value, sizes) -> list:
    if not isinstance(value, list) or len(value) != len(sizes):
        raise ValueError(f"must be a list of {len(sizes)} lists")
    return [_floats(v, n) for v, n in zip(value, sizes)]


@dataclass
class ExperimentResult:
    out_dir: Path
    result: RunResult
    certificate: object


def _write_csv(path, header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join([str(row[0])] + [_fmt(v) for v in row[1:]]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(path, trace):
    _write_csv(path, TRACE_HEADER, trace.rows())


def write_reports(out: Path, problem: Problem, xs: list):
    """Figure-data CSVs from a solved instance.

    consumed = critical + uncurtailed controllable demand; curtailed is
    the shed part; power fractions split the supply side between
    generators, (expected) renewables and grid import.
    """
    K = problem.scen.K

    def series(blk, x, name, first=0):
        return np.array([blk.value_of(x, f"{name}({k})")
                         for k in range(first, first + K)])

    consumed = np.zeros(K)
    curtailed = np.zeros(K)
    for D in problem.lo_demands:
        consumed += D
    storage_u = np.zeros(K)
    storage_level = np.zeros(K)
    gen_u = np.zeros(K)
    for blk, x in zip(problem.blocks, xs):
        if blk.kind == "controllable_load":
            D = -blk.A.diagonal()  # A = -diag(D)
            beta = series(blk, x, "beta")
            consumed += (1.0 - beta) * D
            curtailed += beta * D
        elif blk.kind == "storage":
            storage_u += series(blk, x, "u")
            storage_level += series(blk, x, "x", first=1)
        elif blk.kind == "generator":
            gen_u += series(blk, x, "u")
        elif blk.kind == "grid":
            grid_u = series(blk, x, "u")
    renewable = np.zeros(K)
    for r, bundle in enumerate(problem.scen.realizations):
        for profile in bundle:
            renewable += problem.scen.pi[r] * np.asarray(profile)
    supply = np.vstack([gen_u, renewable, np.maximum(grid_u, 0.0)])
    totals = supply.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        fractions = np.where(totals > 0, supply / np.where(totals > 0,
                                                           totals, 1.0), 0.0)
    steps = range(K)
    _write_csv(out / "report_consumption.csv", "step,consumed_kw,curtailed_kw",
               zip(steps, consumed, curtailed))
    _write_csv(out / "report_storage.csv", "step,exchange_kw,level_kwh",
               zip(steps, storage_u, storage_level))
    _write_csv(out / "report_grid.csv", "step,exchange_kw", zip(steps, grid_u))
    _write_csv(out / "report_power_fraction.csv",
               "step,generators,renewables,grid", zip(steps, *fractions))


def write_solution(path, problem: Problem, result: RunResult):
    payload = {
        "agent_names": problem.agent_names,
        "label": result.converged_label,
        "eta_cap": result.eta_cap,
        "T_f": result.T_f,
        "x": [[float(v) for v in a.x_mi] for a in result.agents],
        "eta": [[float(v) for v in a.eta_mi] for a in result.agents],
        "y": [[float(v) for v in a.y] for a in result.agents],
        "z_relaxed": [[float(v) for v in a.z] for a in result.agents],
        "eta_relaxed": [[float(v) for v in a.eta_relax]
                        for a in result.agents],
        "incumbent_cost": result.incumbent_cost(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _certify(problem: Problem, result: RunResult):
    """The violation certificate and its payload with the consensus check."""
    cert = violation_certificate(result)
    _, deviation = distributed_certificate(cert, problem.graph)
    payload = cert.to_dict()
    payload["consensus"] = {"rounds": CONSENSUS_ROUNDS,
                            "max_deviation": deviation}
    return cert, payload


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Build, run, certify, and write the artifact set."""
    problem = build_problem(cfg)
    out = output_dir(problem, out_dir)
    result = run(problem.blocks, problem.scen, problem.d, problem.graph,
                 problem.schedule, problem.T_f,
                 finalize_every=problem.finalize_every)
    cert, cert_payload = _certify(problem, result)
    cfg.to_yaml(out / "config.yaml")
    write_trace_csv(out / "trace.csv", result.trace)
    (out / "certificate.json").write_text(
        json.dumps(cert_payload, indent=2, sort_keys=True) + "\n")
    write_solution(out / "solution.json", problem, result)
    write_reports(out, problem, [a.x_mi for a in result.agents])
    return ExperimentResult(out_dir=out, result=result, certificate=cert)


def run_montecarlo(cfg: ExperimentConfig, trials: int, out_dir=None) -> Path:
    """Independent trials differing only in the scenario seed.

    Trial t draws scenarios with the seed [scenario, t], which its
    config.yaml records, so `recertify` works on a trial directory;
    unit parameters and topology stay fixed.  Writes trial_XXX/
    artifact sets plus aggregate.csv with per-iteration mean/std of the
    incumbent cost and the extreme coupling values across trials.  A
    trial's solve or certificate failure is re-raised naming the trial
    and its scenario seed.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    # a bad config fails before any directory exists
    out = output_dir(build_problem(cfg), out_dir, "_mc")
    base_seed = cfg.seeds.get("scenario", 0)
    traces = []
    for t in range(trials):
        seed = [base_seed, t]
        trial = ExperimentConfig(
            raw={**cfg.raw, "seeds": {**cfg.seeds, "scenario": seed}})
        try:
            res = run_experiment(trial, out_dir=out / f"trial_{t:03d}")
        except AgentSolveError as e:
            raise AgentSolveError(
                e.agent, e.status,
                f"trial {t} (scenario seed {seed}) {e.stage}") from e
        traces.append(res.result.trace)
    aggregate = []
    for rows in zip(*(tr.rows() for tr in traces)):  # one logged round
        costs = np.array([row[1] for row in rows])
        aggregate.append((rows[0][0], costs.mean(), costs.std(),
                          max(row[2] for row in rows),
                          max(row[3] for row in rows)))
    _write_csv(out / "aggregate.csv",
               "iter,cost_mean,cost_std,viol_pos_max,viol_neg_max", aggregate)
    return out


def recertify(run_dir) -> dict:
    """Recompute the certificate of a saved run from its artifacts.

    Rebuilds the problem from the stored config, replays round 0 from
    the final allocations with the stored recourse cap, and compares the
    bound and the measured violation with the stored certificate's, bit
    for bit.  The replay reproduces the run's last round bit for bit:
    both are logged rounds, whose local solves start cold and so depend
    on the allocation alone.
    """
    run_dir = Path(run_dir)
    problem = build_problem(
        ExperimentConfig.from_yaml(run_dir / "config.yaml"))
    dim = 2 * problem.scen.R * problem.scen.K
    saved = _read_fields(run_dir / "solution.json",
                         y=lambda v: _lists(v, [dim] * len(problem.blocks)),
                         eta_cap=_positive, label=_string)
    stored = _read_fields(run_dir / "certificate.json",
                          bound=lambda v: _floats(v, dim),
                          measured=lambda v: _floats(v, dim))
    result = run(problem.blocks, problem.scen, problem.d, problem.graph,
                 problem.schedule, 0, ys=saved["y"], eta_cap=saved["eta_cap"])
    result.converged_label = saved["label"]
    _, payload = _certify(problem, result)
    payload["matches_stored_bound"] = all(
        np.array_equal(payload[key], stored[key])
        for key in ("bound", "measured"))
    (run_dir / "certificate_recomputed.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def regenerate_reports(run_dir) -> Path:
    """Re-emit the figure-data CSVs of a saved run from solution.json."""
    run_dir = Path(run_dir)
    problem = build_problem(
        ExperimentConfig.from_yaml(run_dir / "config.yaml"))
    xs = _read_fields(run_dir / "solution.json", x=lambda v: _lists(
        v, [blk.n for blk in problem.blocks]))["x"]
    write_reports(run_dir, problem, xs)
    return run_dir
