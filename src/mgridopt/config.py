"""Experiment configuration: YAML schema, validation, problem building.

Field names carry their units (kw, kwh, eur, steps) because unit
confusion is the dominant failure mode in energy models.  A config
fully determines an experiment given its three seeds: `problem` drives
forecast sampling, `scenario` the renewable draws, `graph` the topology.

Validation is the build: `build_problem` walks the mapping once,
builds each section with the constructor that owns its rules (parameter
records, profile models, step-size schedule, graph) and records each
failure under its field path, e.g. `units.grid.max_exchange_kw:
missing`; parsing a config checks only its YAML syntax.  Checked here
are only the rules no record states: numbers that are finite ints or
floats (no strings, no bools), the shape of the mapping, the seeds,
the counts and the size they give (MAX_COUPLING_ROWS), the recourse
penalties and the step-size kind.  Each unit builder also rejects a
block whose polyhedron is empty.  The simplex tolerances are solver
constants (`solver.FEASIBILITY`), not settings: a config that still
sets `algorithm.tolerances` is refused.

Schema sketch (see configs/desk.yaml for a complete example):

    horizon_steps: 6
    output_dir: out/desk
    seeds: {problem: 11, scenario: 2025, graph: 3}
    scenarios:
      count: 2
      surplus_penalty_eur_per_kwh: null   # > 0; null = 10x top price (> 0)
      shortage_penalty_eur_per_kwh: null
    algorithm:
      iterations: 300
      finalize_every: 10
      step_size: {kind: piecewise, initial: 3.0, factor: 0.5, period: 100}
      graph: {kind: random, edge_probability: 0.4}
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
      grid: {...}          # exactly one; sell price <= purchase price
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .dialgo import DEFAULT_FINALIZE_EVERY, StepSizeSchedule, generate_graph
from .model import (ControllableLoadParams, GeneratorParams, GridParams,
                    LocalBlock, StorageParams,
                    build_controllable_load_block, build_generator_block,
                    build_grid_block, build_storage_block,
                    quadratic_cost_segments)
from .scenario import ProfileModel, sample_profile, sample_scenarioset
from .stochastic import build_recourse_cost, ScenarioSet


# libyaml's C parser where PyYAML was built with it (it reads desk.yaml
# about 8x faster); the same mapping either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# each agent's dense LP carries 2RK coupling rows and, in the simplex,
# a 2RK x 2RK slack identity: 128 MiB at this bound.  A paper-scale day
# (K = 24 steps, R = 10 scenarios) needs 480.
MAX_COUPLING_ROWS = 4096


class ConfigError(ValueError):
    """Config invalid; message carries the offending field path."""


@dataclass
class ExperimentConfig:
    """A parsed config mapping, not yet validated: `build_problem`
    validates it while building, once per verb."""

    raw: dict

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        """Parse `path`; a YAML syntax error is a ConfigError naming the
        file, line and column."""
        with open(path, "rb") as fh:  # undecodable bytes are a YAMLError
            try:
                raw = yaml.load(fh, Loader=_YAML_LOADER)
            except yaml.YAMLError as e:
                mark = getattr(e, "problem_mark", None)
                where = "" if mark is None else \
                    f" line {mark.line + 1}, column {mark.column + 1}:"
                problem = getattr(e, "problem", None) or \
                    " ".join(str(e).split())
                raise ConfigError(f"{path}:{where} {problem}") from None
        return cls(raw=raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        return cls(raw=raw)

    @property
    def seeds(self) -> dict:
        return self.raw.get("seeds", {})

    def to_yaml(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.raw, fh, sort_keys=True)


# --------------------------------------------------------------------------
# the rules no record states; raw mapping -> parameter records
# --------------------------------------------------------------------------


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a mapping, got {type(value).__name__}")
    return value


def _roster(value) -> list:
    value = value or []  # an empty YAML entry means no units
    if not isinstance(value, list) or \
            not all(isinstance(e, dict) for e in value):
        raise TypeError("expected a list of mappings")
    return value


def _int_at_least(least: int):
    def check(value) -> int:
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < least:
            raise ValueError(f"must be an int >= {least}, got {value!r}")
        return value
    return check


def _count(key: str, value) -> int:
    """A step or segment count: an int >= 1 (no bool, no truncation)."""
    try:
        return _int_at_least(1)(value)
    except ValueError as e:
        raise ValueError(f"{key} {e}") from None


def _float(value: int | float) -> float:
    """float(value); an int beyond float range is a ValueError."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be a finite number, got an int of "
                         f"{value.bit_length()} bits") from None


def _number(value) -> float:
    """A unit, profile, schedule or graph number: an int or a float,
    not a string such as "inf" nor a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"could not convert {value!r} to a number")
    return _float(value)


def _seed(value):
    """A generator seed: an int >= 0 or a nonempty list of seeds (a
    Monte Carlo trial writes [scenario, t])."""
    if isinstance(value, list) and value:
        return [_seed(v) for v in value]
    return _int_at_least(0)(value)


def _positive(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not value > 0:
        raise ValueError(f"must be a number > 0, got {value!r}")
    return _float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {value!r}")
    return value


def _non_finite(value, path: str) -> list:
    """An error for every inf or nan float in `value`, with its path."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else \
            [f"{path}: must be a finite number, got {value}"]
    if isinstance(value, dict):
        return [e for key, v in value.items()
                for e in _non_finite(v, f"{path}.{key}" if path else str(key))]
    if isinstance(value, (list, tuple)):
        return [e for i, v in enumerate(value)
                for e in _non_finite(v, f"{path}[{i}]")]
    return []


def _schedule(step) -> StepSizeSchedule:
    kind = step["kind"]
    if kind == "diminishing":
        return StepSizeSchedule.diminishing(_number(step["a"]),
                                            _number(step["b"]))
    if kind == "piecewise":
        return StepSizeSchedule.piecewise(_number(step["initial"]),
                                          _number(step["factor"]),
                                          _count("period", step["period"]))
    raise ValueError(f"unknown kind {kind!r}")


def _storage_params(s: dict) -> StorageParams:
    return StorageParams(
        eta_c=_number(s["charge_efficiency"]),
        eta_d=_number(s["discharge_efficiency"]),
        x_min=_number(s["energy_min_kwh"]),
        x_max=_number(s["energy_max_kwh"]),
        x_pl=_number(s.get("loss_kwh_per_step", 0.0)),
        C=_number(s["power_limit_kw"]),
        zeta=_number(s.get("om_cost_eur_per_kwh", 0.0)),
        x0=_number(s["initial_energy_kwh"]),
    )


def _generator_params(g: dict, K: int) -> GeneratorParams:
    segments = quadratic_cost_segments(
        _number(g.get("fuel_cost_quadratic_eur_per_kw2", 0.0)),
        _number(g.get("fuel_cost_linear_eur_per_kwh", 0.0)),
        _number(g["power_min_kw"]), _number(g["power_max_kw"]),
        n_segments=_count("cost_segments", g.get("cost_segments", 3)))
    return GeneratorParams(
        T_up=_count("min_up_steps", g["min_up_steps"]),
        T_down=_count("min_down_steps", g["min_down_steps"]),
        u_min=_number(g["power_min_kw"]),
        u_max=_number(g["power_max_kw"]),
        r_max=_number(g["ramp_limit_kw_per_step"]),
        kappa_u=(_number(g["startup_cost_eur"]),) * K,
        kappa_d=(_number(g["shutdown_cost_eur"]),) * K,
        zeta=_number(g.get("om_cost_eur_per_step", 0.0)),
        cost_segments=segments,
        delta_init=1 if g.get("initially_on", False) else 0,
        u_init=_number(g.get("initial_power_kw", 0.0)),
    )


def resolve_profile(spec: dict, K: int, seed) -> np.ndarray:
    """Materialize one profile: literal values or a forecast sampled
    with `seed`."""
    for key in ("literal_kw", "literal_eur_per_kwh"):
        if key in spec:
            if not isinstance(spec[key], list):
                raise TypeError(f"{key} must be a list of numbers")
            values = np.array([_number(v) for v in spec[key]], dtype=float)
            if values.size != K:
                raise ValueError(f"{key} has {values.size} values, "
                                 f"horizon_steps is {K}")
            return values
    if spec.get("kind") == "demand":
        model = ProfileModel.demand(
            K=K, base_kw=_number(spec.get("base_kw", 0.0)),
            peaks=tuple(tuple(_number(v) for v in p)
                        for p in spec.get("peaks", ())),
            sigma=_number(spec.get("sigma_kw", 0.0)))
        return sample_profile(model, seed=seed)
    raise ValueError(f"cannot resolve (no literal values and kind is "
                     f"{spec.get('kind')!r})")


@dataclass
class Problem:
    """Everything an experiment run needs, built from one config."""

    blocks: list
    agent_names: list
    scen: ScenarioSet
    d: np.ndarray  # recourse prices, `build_recourse_cost`
    graph: object
    schedule: StepSizeSchedule
    T_f: int
    finalize_every: int
    lo_demands: list  # one per critical load, in roster order
    output_dir: str  # under the output root, unless a verb is given one


def _build(raw):
    """(Problem, []) or (None, errors).  A failure to build from the
    mapping at `path` is recorded as `<path>.<key>: missing` (KeyError)
    or `<path>: <message>` (ValueError, TypeError, IndexError).

    Agent order (and so graph node ids): storages, generators,
    controllable loads, critical loads (empty blocks), grid.
    """
    if not isinstance(raw, dict):
        return None, ["config: expected a mapping"]
    # with finite numbers every builder's block is compact
    errors = _non_finite(raw, "")
    if errors:
        return None, errors

    def build(path, make):
        try:
            return make()
        except KeyError as e:
            errors.append(f"{path}.{e.args[0]}: missing")
        except (ValueError, TypeError, IndexError) as e:
            errors.append(f"{path}: {e}")
        return None

    def field(mapping, path, key, check, *default):
        """check(mapping[key]), or of the default when the key is absent."""
        if key not in mapping and not default:
            errors.append(f"{path}.{key}: missing")
            return None
        return build(f"{path}.{key}",
                     lambda: check(mapping.get(key, *default)))

    K = field(raw, "config", "horizon_steps", _int_at_least(1))
    seeds = field(raw, "config", "seeds", _mapping, {})
    if seeds is not None:
        seeds = {name: field(seeds, "seeds", name, _seed, 0)
                 for name in ("problem", "scenario", "graph")}
        if None in seeds.values():
            seeds = None
    profiles = field(raw, "config", "profiles", _mapping, {})
    scen_cfg = field(raw, "config", "scenarios", _mapping)
    algo = field(raw, "config", "algorithm", _mapping)
    units = field(raw, "config", "units", _mapping)
    output_dir = field(raw, "config", "output_dir", _string, "out")

    R = None
    if scen_cfg is not None:
        R = field(scen_cfg, "scenarios", "count", _int_at_least(1))
        # null is the default; the certificate divides by the penalties
        penalties = {key: None if scen_cfg.get(key) is None
                     else field(scen_cfg, "scenarios", key, _positive)
                     for key in ("surplus_penalty_eur_per_kwh",
                                 "shortage_penalty_eur_per_kwh")}
    graph_cfg = None
    if algo is not None:
        T_f = field(algo, "algorithm", "iterations", _int_at_least(0))
        finalize_every = field(algo, "algorithm", "finalize_every",
                               _int_at_least(1), DEFAULT_FINALIZE_EVERY)
        if "tolerances" in algo:
            errors.append("algorithm.tolerances: not a setting; the "
                          "simplex tolerances are constants")
        schedule = field(algo, "algorithm", "step_size", _schedule)
        graph_cfg = field(algo, "algorithm", "graph", _mapping)
    if K is not None and 2 * (R or 1) * K > MAX_COUPLING_ROWS:
        errors.append(f"config.horizon_steps, scenarios.count: 2 x count "
                      f"x horizon_steps exceeds {MAX_COUPLING_ROWS} "
                      f"coupling rows")
        return None, errors
    if None in (K, seeds, profiles, units):
        return None, errors

    def profile(entry, path, key, seed_tag=0):
        name = entry.get(key)
        if key not in entry:
            errors.append(f"{path}.{key}: missing")
        elif not isinstance(name, str) or name not in profiles:
            errors.append(f"{path}.{key}: unknown profile {name!r}")
        else:
            seed = (seeds["problem"], seed_tag)
            return build(f"profiles.{name}", lambda: resolve_profile(
                _mapping(profiles[name]), K, seed))
        return None

    def roster(key):
        return field(units, "units", key, _roster, []) or []

    blocks: list = []
    names: list = []
    for i, s in enumerate(roster("storages")):
        blocks.append(build(f"units.storages[{i}]", lambda: (
            build_storage_block(_storage_params(s), K))))
        names.append(f"storage_{i}")
    for i, g in enumerate(roster("generators")):
        blocks.append(build(f"units.generators[{i}]", lambda: (
            build_generator_block(_generator_params(g, K), K))))
        names.append(f"generator_{i}")
    cl_demands = []
    for i, c in enumerate(roster("controllable_loads")):
        path = f"units.controllable_loads[{i}]"
        D = profile(c, path, "demand_profile", seed_tag=100 + i)
        cl_demands.append(D)
        blocks.append(None if D is None else build(path, lambda: (
            build_controllable_load_block(ControllableLoadParams(
                beta_min=_number(c.get("curtail_min_fraction", 0.0)),
                beta_max=_number(c.get("curtail_max_fraction", 0.0)),
                D=tuple(D),
                varphi=_number(c["curtailment_penalty_eur_per_kwh"])), K))))
        names.append(f"controllable_load_{i}")
    lo_demands = []
    for i, c in enumerate(roster("critical_loads")):
        lo_demands.append(profile(c, f"units.critical_loads[{i}]",
                                  "demand_profile", seed_tag=200 + i))
        blocks.append(LocalBlock.empty(K))
        names.append(f"critical_load_{i}")
    grid_cfg = field(units, "units", "grid", _mapping)
    phi_p = phi_s = None
    if grid_cfg is not None:
        phi_p = profile(grid_cfg, "units.grid", "purchase_price_profile")
        phi_s = profile(grid_cfg, "units.grid", "sell_price_profile")
    blocks.append(None if phi_p is None or phi_s is None else build(
        "units.grid", lambda: build_grid_block(GridParams(
            P_max=_number(grid_cfg["max_exchange_kw"]),
            phi_p=tuple(phi_p), phi_s=tuple(phi_s)), K)))
    names.append("grid")

    renewables = []
    for i, s in enumerate(roster("solar")):
        renewables.append(build(f"units.solar[{i}]", lambda: (
            ProfileModel.solar(
                K=K, peak_kw=_number(s["peak_kw"]),
                window=tuple(s.get("daylight_window_steps", (0, K - 1))),
                cloud_sigma=_number(s.get("cloud_sigma", 0.0))))))
    for i, w in enumerate(roster("wind")):
        renewables.append(build(f"units.wind[{i}]", lambda: ProfileModel.wind(
            K=K, mean_kw=_number(w["mean_kw"]),
            rho=_number(w.get("autocorrelation", 0.0)),
            sigma=_number(w.get("sigma_kw", 0.0)))))
    if graph_cfg is not None:
        graph = build("algorithm.graph", lambda: generate_graph(
            len(blocks), graph_cfg["kind"], seed=seeds["graph"],
            p=_number(graph_cfg.get("edge_probability", 0.3))))
    if errors:
        return None, errors

    scen = build("seeds.scenario", lambda: sample_scenarioset(
        renewables, R, K, controllable_demands=cl_demands,
        critical_demands=lo_demands, seed=seeds["scenario"]))
    if errors:
        return None, errors
    top_price = float(phi_p.max())  # no sell price is higher
    # recourse is a penalty of last resort: default 10x the top price
    errors = [f"scenarios.{key}: null needs a top purchase price > 0, "
              f"got {top_price!r}" for key, q in penalties.items()
              if q is None and top_price <= 0.0]
    if errors:
        return None, errors
    q_plus, q_minus = (10.0 * top_price if q is None else q
                       for q in penalties.values())
    return Problem(
        blocks=blocks, agent_names=names, scen=scen,
        d=build_recourse_cost(scen.pi, q_plus, q_minus, K), graph=graph,
        schedule=schedule, T_f=T_f, finalize_every=finalize_every,
        lo_demands=lo_demands, output_dir=output_dir), []


def build_problem(cfg: ExperimentConfig) -> Problem:
    """Blocks, scenario set, recourse cost, graph and schedule from config;
    the one validation of a config: raises ConfigError listing every
    invalid field."""
    problem, errors = _build(cfg.raw)
    if errors:
        raise ConfigError("; ".join(errors))
    return problem
