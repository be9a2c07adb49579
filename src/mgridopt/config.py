"""Experiment configuration: YAML schema, validation, problem building.

Field names carry their units (kw, kwh, eur, steps) because unit
confusion is the dominant failure mode in energy models.  A config
fully determines an experiment given its three seeds: `problem` drives
forecast sampling, `scenario` the renewable draws, `graph` the topology.

Schema sketch (see configs/desk.yaml for a complete example):

    horizon_steps: 6
    output_dir: out/desk
    seeds: {problem: 11, scenario: 2025, graph: 3}
    scenarios:
      count: 2
      surplus_penalty_eur_per_kwh: null   # > 0; null = 10x the top price
      shortage_penalty_eur_per_kwh: null
    algorithm:
      iterations: 300
      finalize_every: 10
      step_size: {kind: piecewise, initial: 3.0, factor: 0.5, period: 100}
      graph: {kind: random, edge_probability: 0.4}
      tolerances:          # optional; used by the rounds, the
                           # certificate and recertify alike
        feasibility: 1e-7  # simplex: phase-1 infeasibility taken as zero
        reduced_cost: 1e-9 # simplex: pricing optimality threshold
        integrality: 1e-6  # certificate: when a relaxed block solution
                           # counts as integral
    profiles:
      name: {literal_kw: [...]} | {kind: demand, base_kw: .., peaks: [[c,w,h]],
             sigma_kw: ..} | {literal_eur_per_kwh: [...]}
    units:
      storages: [...]
      generators: [...]
      controllable_loads: [...]
      critical_loads: [...]
      solar: [...]
      wind: [...]
      grid: {...}          # exactly one connection
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .dialgo import DEFAULT_FINALIZE_EVERY, StepSizeSchedule, generate_graph
from .model import (DEFAULT_EPSILON, ControllableLoadParams, GeneratorParams,
                    GridParams, LocalBlock, ParameterError, StorageParams,
                    build_controllable_load_block, build_generator_block,
                    build_grid_block, build_storage_block,
                    quadratic_cost_segments)
from .scenario import ProfileModel, sample_profile
from .solver import Tolerances
from .stochastic import build_recourse_cost, ScenarioSet
from .scenario import sample_scenarioset


class ConfigError(ValueError):
    """Config invalid; message carries the offending field path."""


@dataclass
class ExperimentConfig:
    raw: dict

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = validate_config(raw)
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(raw=raw)

    @property
    def K(self) -> int:
        return int(self.raw["horizon_steps"])

    @property
    def R(self) -> int:
        return int(self.raw["scenarios"]["count"])

    @property
    def seeds(self) -> dict:
        return self.raw.get("seeds", {})

    def to_yaml(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.raw, fh, sort_keys=True)


def _err(errors, path, message):
    errors.append(f"{path}: {message}")


def _need(raw, key, path, errors, types=None):
    if key not in raw:
        _err(errors, f"{path}.{key}", "missing")
        return None
    value = raw[key]
    if types is not None and not isinstance(value, types):
        _err(errors, f"{path}.{key}",
             f"expected {types}, got {type(value).__name__}")
        return None
    return value


def validate_config(raw) -> list:
    """All schema and parameter checks; returns error strings with paths."""
    errors: list = []
    if not isinstance(raw, dict):
        return ["config: expected a mapping"]
    K = _need(raw, "horizon_steps", "config", errors, int)
    if K is not None and K < 1:
        _err(errors, "config.horizon_steps", "must be >= 1")
    scen = _need(raw, "scenarios", "config", errors, dict)
    if scen is not None:
        R = _need(scen, "count", "scenarios", errors, int)
        if R is not None and R < 1:
            _err(errors, "scenarios.count", "must be >= 1")
        for key in ("surplus_penalty_eur_per_kwh",
                    "shortage_penalty_eur_per_kwh"):
            v = scen.get(key)
            if v is not None and v <= 0:
                # the certificate divides by the smallest recourse price
                _err(errors, f"scenarios.{key}", "must be > 0")
    algo = _need(raw, "algorithm", "config", errors, dict)
    if algo is not None:
        it = _need(algo, "iterations", "algorithm", errors, int)
        if it is not None and it < 0:
            _err(errors, "algorithm.iterations", "must be >= 0")
        fe = algo.get("finalize_every", DEFAULT_FINALIZE_EVERY)
        if not isinstance(fe, int) or fe < 1:
            _err(errors, "algorithm.finalize_every", "must be an int >= 1")
        tols = algo.get("tolerances", {})
        if not isinstance(tols, dict):
            _err(errors, "algorithm.tolerances", "must be a mapping")
        else:
            for key, v in tols.items():
                if key not in ("feasibility", "integrality", "reduced_cost"):
                    _err(errors, f"algorithm.tolerances.{key}",
                         "unknown tolerance")
                elif not isinstance(v, (int, float)) or v <= 0:
                    _err(errors, f"algorithm.tolerances.{key}",
                         "must be a positive number")
        step = _need(algo, "step_size", "algorithm", errors, dict)
        if step is not None:
            kind = step.get("kind")
            if kind == "diminishing":
                if step.get("a", 0) <= 0 or step.get("b", 0) <= 0:
                    _err(errors, "algorithm.step_size", "needs a > 0, b > 0")
            elif kind == "piecewise":
                if (step.get("initial", 0) <= 0 or step.get("factor", 0) <= 0
                        or step.get("period", 0) < 1):
                    _err(errors, "algorithm.step_size",
                         "needs initial > 0, factor > 0, period >= 1")
            else:
                _err(errors, "algorithm.step_size.kind",
                     f"unknown kind {kind!r}")
        graph = _need(algo, "graph", "algorithm", errors, dict)
        if graph is not None and graph.get("kind") not in ("path", "cycle",
                                                           "random"):
            _err(errors, "algorithm.graph.kind",
                 f"unknown kind {graph.get('kind')!r}")
    units = _need(raw, "units", "config", errors, dict)
    profiles = raw.get("profiles", {})
    if units is not None:
        grid = units.get("grid")
        if grid is None:
            _err(errors, "units.grid",
                 "missing: exactly one grid connection is required")
        elif isinstance(grid, list):
            _err(errors, "units.grid",
                 "must be a single mapping, not a list (one connection)")
        for name in ("purchase_price_profile", "sell_price_profile"):
            if isinstance(grid, dict) and name not in grid:
                _err(errors, f"units.grid.{name}", "missing")
        for i, s in enumerate(units.get("storages", []) or []):
            path = f"units.storages[{i}]"
            try:
                _storage_params(s).validate()
            except (ParameterError, KeyError, TypeError) as e:
                _err(errors, path, str(e))
        K_val = K if isinstance(K, int) and K >= 1 else 1
        for i, g in enumerate(units.get("generators", []) or []):
            path = f"units.generators[{i}]"
            try:
                _generator_params(g, K_val).validate(K_val)
            except (ParameterError, KeyError, TypeError) as e:
                _err(errors, path, str(e))
        for i, c in enumerate(units.get("controllable_loads", []) or []):
            path = f"units.controllable_loads[{i}]"
            if "demand_profile" not in c:
                _err(errors, f"{path}.demand_profile", "missing")
            elif c["demand_profile"] not in profiles:
                _err(errors, f"{path}.demand_profile",
                     f"unknown profile {c['demand_profile']!r}")
            lo_f = c.get("curtail_min_fraction", 0.0)
            hi_f = c.get("curtail_max_fraction", 0.0)
            if not (0.0 <= lo_f <= hi_f <= 1.0):
                _err(errors, path,
                     "need 0 <= curtail_min_fraction <= curtail_max_fraction <= 1")
            if c.get("curtailment_penalty_eur_per_kwh", 0.0) <= 0.0:
                _err(errors, f"{path}.curtailment_penalty_eur_per_kwh",
                     "must be > 0")
        for i, c in enumerate(units.get("critical_loads", []) or []):
            if c.get("demand_profile") not in profiles:
                _err(errors, f"units.critical_loads[{i}].demand_profile",
                     f"unknown profile {c.get('demand_profile')!r}")
        if isinstance(grid, dict):
            for key in ("purchase_price_profile", "sell_price_profile"):
                prof = grid.get(key)
                if prof is not None and prof not in profiles:
                    _err(errors, f"units.grid.{key}",
                         f"unknown profile {prof!r}")
            if grid.get("max_exchange_kw", 0.0) < 0:
                _err(errors, "units.grid.max_exchange_kw", "must be >= 0")
    return errors


# --------------------------------------------------------------------------
# raw mapping -> parameter records
# --------------------------------------------------------------------------


def _storage_params(s: dict) -> StorageParams:
    return StorageParams(
        eta_c=float(s["charge_efficiency"]),
        eta_d=float(s["discharge_efficiency"]),
        x_min=float(s["energy_min_kwh"]),
        x_max=float(s["energy_max_kwh"]),
        x_pl=float(s.get("loss_kwh_per_step", 0.0)),
        C=float(s["power_limit_kw"]),
        zeta=float(s.get("om_cost_eur_per_kwh", 0.0)),
        x0=float(s["initial_energy_kwh"]),
        epsilon=float(s.get("epsilon", DEFAULT_EPSILON)),
    )


def _generator_params(g: dict, K: int) -> GeneratorParams:
    segs = g.get("cost_segments", 3)
    if isinstance(segs, int):
        segments = quadratic_cost_segments(
            float(g.get("fuel_cost_quadratic_eur_per_kw2", 0.0)),
            float(g.get("fuel_cost_linear_eur_per_kwh", 0.0)),
            float(g["power_min_kw"]), float(g["power_max_kw"]),
            n_segments=segs)
    else:
        segments = tuple((float(S), float(s)) for S, s in segs)
    return GeneratorParams(
        T_up=int(g["min_up_steps"]),
        T_down=int(g["min_down_steps"]),
        u_min=float(g["power_min_kw"]),
        u_max=float(g["power_max_kw"]),
        r_max=float(g["ramp_limit_kw_per_step"]),
        kappa_u=(float(g["startup_cost_eur"]),) * K,
        kappa_d=(float(g["shutdown_cost_eur"]),) * K,
        zeta=float(g.get("om_cost_eur_per_step", 0.0)),
        cost_segments=segments,
        delta_init=1 if g.get("initially_on", False) else 0,
        u_init=float(g.get("initial_power_kw", 0.0)),
    )


def resolve_profile(cfg: ExperimentConfig, name: str,
                    seed_tag: int = 0) -> np.ndarray:
    """Materialize a named profile: literal values or a sampled forecast."""
    spec = cfg.raw.get("profiles", {}).get(name)
    if spec is None:
        raise ConfigError(f"profiles.{name}: unknown profile")
    K = cfg.K
    for key in ("literal_kw", "literal_eur_per_kwh"):
        if key in spec:
            values = np.asarray(spec[key], dtype=float)
            if values.size != K:
                raise ConfigError(
                    f"profiles.{name}.{key}: length {values.size} != "
                    f"horizon_steps {K}")
            return values
    if spec.get("kind") == "demand":
        model = ProfileModel.demand(
            K=K, base_kw=float(spec.get("base_kw", 0.0)),
            peaks=tuple(tuple(p) for p in spec.get("peaks", ())),
            sigma=float(spec.get("sigma_kw", 0.0)))
        problem_seed = cfg.seeds.get("problem", 0)
        return sample_profile(model, seed=(problem_seed, seed_tag))
    raise ConfigError(f"profiles.{name}: cannot resolve (no literal values "
                      f"and kind is {spec.get('kind')!r})")


@dataclass
class Problem:
    """Everything an experiment run needs, built from one config."""

    blocks: list
    agent_names: list
    scen: ScenarioSet
    cost: object
    graph: object
    schedule: StepSizeSchedule
    T_f: int
    finalize_every: int
    cl_demands: list
    lo_demands: list
    grid_index: int
    storage_indices: list
    generator_indices: list
    load_indices: list
    tolerances: Tolerances


def build_problem(cfg: ExperimentConfig, scenario_seed=None) -> Problem:
    """Blocks, scenario set, recourse cost, graph and schedule from config.

    Agent order (and so graph node ids): storages, generators,
    controllable loads, critical loads (empty blocks), grid.
    """
    K = cfg.K
    units = cfg.raw["units"]
    blocks: list = []
    names: list = []
    storage_idx, gen_idx, load_idx = [], [], []
    for i, s in enumerate(units.get("storages", []) or []):
        storage_idx.append(len(blocks))
        blocks.append(build_storage_block(_storage_params(s), K))
        names.append(f"storage_{i}")
    for i, g in enumerate(units.get("generators", []) or []):
        gen_idx.append(len(blocks))
        blocks.append(build_generator_block(_generator_params(g, K), K))
        names.append(f"generator_{i}")
    cl_demands = []
    for i, c in enumerate(units.get("controllable_loads", []) or []):
        D = resolve_profile(cfg, c["demand_profile"], seed_tag=100 + i)
        cl_demands.append(D)
        load_idx.append(len(blocks))
        blocks.append(build_controllable_load_block(
            ControllableLoadParams(
                beta_min=float(c.get("curtail_min_fraction", 0.0)),
                beta_max=float(c.get("curtail_max_fraction", 0.0)),
                D=tuple(D),
                varphi=float(c["curtailment_penalty_eur_per_kwh"])), K))
        names.append(f"controllable_load_{i}")
    lo_demands = []
    for i, c in enumerate(units.get("critical_loads", []) or []):
        D = resolve_profile(cfg, c["demand_profile"], seed_tag=200 + i)
        lo_demands.append(D)
        blocks.append(LocalBlock.empty(K, kind="critical_load"))
        names.append(f"critical_load_{i}")
    grid_cfg = units["grid"]
    phi_p = resolve_profile(cfg, grid_cfg["purchase_price_profile"])
    phi_s = resolve_profile(cfg, grid_cfg["sell_price_profile"])
    grid_index = len(blocks)
    blocks.append(build_grid_block(GridParams(
        P_max=float(grid_cfg["max_exchange_kw"]),
        phi_p=tuple(phi_p), phi_s=tuple(phi_s),
        epsilon=float(grid_cfg.get("epsilon", DEFAULT_EPSILON))), K))
    names.append("grid")

    renewables = []
    for i, s in enumerate(units.get("solar", []) or []):
        renewables.append(ProfileModel.solar(
            K=K, peak_kw=float(s["peak_kw"]),
            window=tuple(s.get("daylight_window_steps", (0, K - 1))),
            cloud_sigma=float(s.get("cloud_sigma", 0.0))))
    for i, w in enumerate(units.get("wind", []) or []):
        renewables.append(ProfileModel.wind(
            K=K, mean_kw=float(w["mean_kw"]),
            rho=float(w.get("autocorrelation", 0.0)),
            sigma=float(w.get("sigma_kw", 0.0))))

    if scenario_seed is None:
        scenario_seed = cfg.seeds.get("scenario", 0)
    scen = sample_scenarioset(renewables, cfg.R,
                              controllable_demands=cl_demands,
                              critical_demands=lo_demands,
                              seed=scenario_seed)
    scen_cfg = cfg.raw["scenarios"]
    top_price = float(max(phi_p.max(), phi_s.max()))
    q_plus = scen_cfg.get("surplus_penalty_eur_per_kwh")
    q_minus = scen_cfg.get("shortage_penalty_eur_per_kwh")
    # recourse is a penalty of last resort: default 10x the top price
    q_plus = 10.0 * top_price if q_plus is None else float(q_plus)
    q_minus = 10.0 * top_price if q_minus is None else float(q_minus)
    cost = build_recourse_cost(scen.pi, q_plus, q_minus, K)

    algo = cfg.raw["algorithm"]
    step = algo["step_size"]
    if step["kind"] == "diminishing":
        schedule = StepSizeSchedule.diminishing(float(step["a"]),
                                                float(step["b"]))
    else:
        schedule = StepSizeSchedule.piecewise(float(step["initial"]),
                                              float(step["factor"]),
                                              int(step["period"]))
    graph_cfg = algo["graph"]
    graph = generate_graph(len(blocks), graph_cfg["kind"],
                           seed=cfg.seeds.get("graph", 0),
                           p=float(graph_cfg.get("edge_probability", 0.3)))
    tolerances = Tolerances(**{key: float(v) for key, v in
                               algo.get("tolerances", {}).items()})
    return Problem(
        blocks=blocks, agent_names=names, scen=scen, cost=cost, graph=graph,
        schedule=schedule, T_f=int(algo["iterations"]),
        finalize_every=int(algo.get("finalize_every", DEFAULT_FINALIZE_EVERY)),
        cl_demands=cl_demands, lo_demands=lo_demands, grid_index=grid_index,
        storage_indices=storage_idx, generator_indices=gen_idx,
        load_indices=load_idx, tolerances=tolerances)
