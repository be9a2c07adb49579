"""Config validation, experiment artifacts, determinism, CLI verbs."""

import ast
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from mgridopt import analysis, config, dialgo, model
from mgridopt.cli import main
from mgridopt.config import (ConfigError, ExperimentConfig, _build,
                             build_problem)
from mgridopt.experiment import (recertify, regenerate_reports,
                                 run_experiment, run_montecarlo)
from mgridopt.solver import INFEASIBLE, LpSolution, SolverError, branch_bound
from oracles.artifacts import read_csv, read_trace_csv

REPO = Path(__file__).resolve().parents[1]
DESK = REPO / "configs" / "desk.yaml"


def minimal_config(K=4, T_f=0, R=1, out="out/minimal"):
    return {
        "horizon_steps": K,
        "output_dir": out,
        "seeds": {"problem": 1, "scenario": 2, "graph": 3},
        "scenarios": {"count": R,
                      "surplus_penalty_eur_per_kwh": 3.0,
                      "shortage_penalty_eur_per_kwh": 3.0},
        "algorithm": {
            "iterations": T_f,
            "finalize_every": 5,
            "step_size": {"kind": "diminishing", "a": 1.0, "b": 2.0},
            "graph": {"kind": "path"},
        },
        "profiles": {
            "demand": {"literal_kw": [2.0] * K},
            "buy": {"literal_eur_per_kwh": [0.25] * K},
            "sell": {"literal_eur_per_kwh": [0.1] * K},
        },
        "units": {
            "controllable_loads": [
                {"curtail_min_fraction": 0.0, "curtail_max_fraction": 0.5,
                 "curtailment_penalty_eur_per_kwh": 0.6,
                 "demand_profile": "demand"},
            ],
            "solar": [
                {"peak_kw": 3.0, "daylight_window_steps": [0, K - 1],
                 "cloud_sigma": 0.4},
            ],
            "grid": {"max_exchange_kw": 20.0,
                     "purchase_price_profile": "buy",
                     "sell_price_profile": "sell"},
        },
    }


# --------------------------------------------------------------- validation


def test_desk_config_validates():
    raw = yaml.safe_load(DESK.read_text())
    assert _build(raw)[1] == []


def test_yaml_parse_matches_safe_load():
    assert ExperimentConfig.from_yaml(DESK).raw == \
        yaml.safe_load(DESK.read_text())


def test_missing_grid_is_reported():
    raw = minimal_config()
    del raw["units"]["grid"]
    errors = _build(raw)[1]
    assert any("units.grid" in e for e in errors)


def test_bad_storage_bounds_carry_field_path():
    raw = minimal_config()
    raw["units"]["storages"] = [{
        "charge_efficiency": 0.9, "discharge_efficiency": 0.9,
        "energy_min_kwh": 10.0, "energy_max_kwh": 1.0,
        "power_limit_kw": 3.0, "initial_energy_kwh": 5.0,
    }]
    errors = _build(raw)[1]
    assert any("units.storages[0]" in e and "x_min" in e for e in errors)


def test_unknown_profile_reference():
    raw = minimal_config()
    raw["units"]["controllable_loads"][0]["demand_profile"] = "nope"
    errors = _build(raw)[1]
    assert any("nope" in e for e in errors)


def test_a_roster_without_loads_or_renewables_runs_and_certifies(tmp_path):
    # storages, generators and the grid only: no profile sets the
    # horizon, so the balance vectors take horizon_steps
    raw = yaml.safe_load(DESK.read_text())
    for key in ("controllable_loads", "critical_loads", "solar", "wind"):
        raw["units"][key] = []
    raw["algorithm"]["iterations"] = 3
    cfg = ExperimentConfig(raw=raw)
    problem = build_problem(cfg)
    assert [b.tobytes() for b in problem.scen.b_r] == \
        [np.zeros(problem.scen.K).tobytes()] * problem.scen.R
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    assert res.result.trace.iters == [0, 1, 3]
    assert res.certificate.holds


def test_storages_starting_at_their_minimum_energy_run_and_certify(
        tmp_path):
    # a storage at its minimum energy cannot discharge in the first
    # step, so half its recovery tree is infeasible node LPs; each must
    # be proved infeasible, not refused
    raw = yaml.safe_load(DESK.read_text())
    for storage in raw["units"]["storages"]:
        storage["initial_energy_kwh"] = storage["energy_min_kwh"]
    assert [s["initial_energy_kwh"] for s in raw["units"]["storages"]] == \
        [1.0, 0.5]
    raw["algorithm"]["iterations"] = 3
    res = run_experiment(ExperimentConfig(raw=raw), out_dir=tmp_path / "run")
    assert res.result.trace.iters == [0, 1, 3]
    assert res.certificate.holds


def test_zero_recourse_penalty_rejected_up_front():
    for key in ("surplus_penalty_eur_per_kwh",
                "shortage_penalty_eur_per_kwh"):
        raw = minimal_config()
        raw["scenarios"][key] = 0.0
        errors = _build(raw)[1]
        assert any(f"scenarios.{key}" in e and "> 0" in e for e in errors)


def test_a_null_penalty_needs_a_positive_purchase_price(tmp_path,
                                                        monkeypatch):
    """With every purchase price 0 a null penalty, 10x the top price,
    would be 0 and the certificate divides by it: the build rejects the
    config before any round solves an LP."""
    raw = minimal_config()
    raw["profiles"].update(buy={"literal_eur_per_kwh": [0.0] * 4},
                           sell={"literal_eur_per_kwh": [0.0] * 4})
    raw["scenarios"]["surplus_penalty_eur_per_kwh"] = None
    message = ("scenarios.surplus_penalty_eur_per_kwh: null needs a top "
               "purchase price > 0, got 0.0")
    assert _build(raw)[1] == [message]

    def no_solve(lp, **kwargs):
        raise AssertionError("a round solved an LP")

    monkeypatch.setattr(dialgo, "solve_lp", no_solve)
    monkeypatch.setattr(dialgo, "solve_milp", no_solve)
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_experiment(ExperimentConfig(raw=raw), out_dir=tmp_path / "r")
    assert not (tmp_path / "r").exists()


def test_valid_minimal_config_ok():
    assert _build(minimal_config())[1] == []


# each breaks one field of desk.yaml; the error names the field's path
MALFORMED_DESK = {
    "solar_peak_missing": (
        lambda raw: raw["units"]["solar"][0].pop("peak_kw"),
        "units.solar[0].peak_kw: missing"),
    "wind_autocorrelation_above_one": (
        lambda raw: raw["units"]["wind"][0].update(autocorrelation=1.5),
        "units.wind[0]: wind needs"),
    "grid_exchange_missing": (
        lambda raw: raw["units"]["grid"].pop("max_exchange_kw"),
        "units.grid.max_exchange_kw: missing"),
    "edge_probability_text": (
        lambda raw: raw["algorithm"]["graph"].update(edge_probability="x"),
        "algorithm.graph: could not convert"),
    "edge_probability_negative": (
        lambda raw: raw["algorithm"]["graph"].update(edge_probability=-0.5),
        "algorithm.graph: edge probability must lie in [0, 1], got -0.5"),
    "edge_probability_above_one": (
        lambda raw: raw["algorithm"]["graph"].update(edge_probability=1.5),
        "algorithm.graph: edge probability must lie in [0, 1], got 1.5"),
    "step_size_text": (
        lambda raw: raw["algorithm"]["step_size"].update(a="x"),
        "algorithm.step_size: could not convert"),
    "penalty_text": (
        lambda raw: raw["scenarios"].update(surplus_penalty_eur_per_kwh="x"),
        "scenarios.surplus_penalty_eur_per_kwh: must be a number > 0"),
    "curtail_fraction_text": (
        lambda raw: raw["units"]["controllable_loads"][0].update(
            curtail_max_fraction="x"),
        "units.controllable_loads[0]: could not convert"),
    "step_size_kind_unknown": (
        lambda raw: raw["algorithm"]["step_size"].update(kind="linear"),
        "algorithm.step_size: unknown kind 'linear'"),
    "solar_window_one_step": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps=[3]),
        "units.solar[0]: daylight_window_steps must be two ints "
        "[first, last], got [3]"),
    "solar_window_three_steps": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps=[0, 1, 2]),
        "units.solar[0]: daylight_window_steps must be two ints "
        "[first, last], got [0, 1, 2]"),
    "solar_window_text": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps="05"),
        "units.solar[0]: daylight_window_steps must be two ints "
        "[first, last], got '05'"),
    "solar_window_bools": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps=[False, True]),
        "units.solar[0]: daylight_window_steps must be an int >= 0, "
        "got False"),
    "solar_window_fractional": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps=[0.5, 3.5]),
        "units.solar[0]: daylight_window_steps must be an int >= 0, "
        "got 0.5"),
    "solar_window_reversed": (
        lambda raw: raw["units"]["solar"][0].update(
            daylight_window_steps=[3, 1]),
        "units.solar[0]: bad daylight window (3, 1)"),
    "initially_on_text_with_power": (
        lambda raw: raw["units"]["generators"][0].update(
            initially_on="no", initial_power_kw=1.0),
        "units.generators[0]: initially_on must be true or false, "
        "got 'no'"),
    "initially_on_text_without_power": (
        lambda raw: raw["units"]["generators"][0].update(
            initially_on="no", initial_power_kw=0),
        "units.generators[0]: initially_on must be true or false, "
        "got 'no'"),
    "storages_not_a_list": (
        lambda raw: raw["units"].update(storages=5),
        "units.storages: expected a list of mappings"),
    "seeds_not_a_mapping": (
        lambda raw: raw.update(seeds=[11, 2025, 3]),
        "config.seeds: expected a mapping"),
    "min_up_steps_fractional": (
        lambda raw: raw["units"]["generators"][0].update(min_up_steps=2.7),
        "units.generators[0]: min_up_steps must be an int >= 1, got 2.7"),
    "period_fractional": (
        lambda raw: raw["algorithm"].update(step_size={
            "kind": "piecewise", "initial": 1.0, "factor": 0.5,
            "period": 10.9}),
        "algorithm.step_size: period must be an int >= 1, got 10.9"),
    "cost_segments_bool": (
        lambda raw: raw["units"]["generators"][0].update(cost_segments=True),
        "units.generators[0]: cost_segments must be an int >= 1, got True"),
    "storage_loss_empties_block": (
        lambda raw: raw["units"]["storages"][0].update(
            loss_kwh_per_step=20.0),
        "units.storages[0]: storage block polyhedron is empty"),
    "power_max_inf": (
        lambda raw: raw["units"]["generators"][0].update(
            power_max_kw=float("inf")),
        "units.generators[0].power_max_kw: must be a finite number, "
        "got inf"),
    "power_max_overflows_the_cost_segments": (  # a u^2 at u = 1e160
        lambda raw: raw["units"]["generators"][0].update(
            power_max_kw=1e160),
        "units.generators[0]: generator block: G holds a non-finite entry"),
    "startup_cost_inf": (
        lambda raw: raw["units"]["generators"][1].update(
            startup_cost_eur=float("inf")),
        "units.generators[1].startup_cost_eur: must be a finite number, "
        "got inf"),
    "sell_above_purchase": (
        lambda raw: raw["profiles"]["price_sell"]["literal_eur_per_kwh"]
        .__setitem__(2, 0.35),
        "units.grid: sell price exceeds purchase price at step 2"),
    "integrality_half": (
        lambda raw: raw["algorithm"].update(tolerances={"integrality": 0.5}),
        "algorithm.tolerances: not a setting; the simplex tolerances are "
        "constants"),
    "horizon_beyond_any_size": (
        lambda raw: raw.update(horizon_steps=10**400),
        "config.horizon_steps, scenarios.count: 2 x count x horizon_steps "
        "exceeds 4096 coupling rows"),
    "scenario_count_beyond_any_size": (
        lambda raw: raw["scenarios"].update(count=10**400),
        "config.horizon_steps, scenarios.count: 2 x count x horizon_steps "
        "exceeds 4096 coupling rows"),
    "coupling_rows_just_above_bound": (  # desk.yaml: 2 x 342 x 6 = 4104
        lambda raw: raw["scenarios"].update(count=342),
        "config.horizon_steps, scenarios.count: 2 x count x horizon_steps "
        "exceeds 4096 coupling rows"),
    "solar_peak_text_inf": (
        lambda raw: raw["units"]["solar"][0].update(peak_kw="inf"),
        "units.solar[0]: could not convert 'inf'"),
    "grid_exchange_text_inf": (
        lambda raw: raw["units"]["grid"].update(max_exchange_kw="inf"),
        "units.grid: could not convert 'inf'"),
    "power_limit_bool": (
        lambda raw: raw["units"]["storages"][0].update(power_limit_kw=True),
        "units.storages[0]: could not convert True"),
    "grid_exchange_int_beyond_float": (
        lambda raw: raw["units"]["grid"].update(max_exchange_kw=10**400),
        "units.grid: must be a finite number, got an int of 1329 bits"),
    "shortage_penalty_int_beyond_float": (
        lambda raw: raw["scenarios"].update(
            shortage_penalty_eur_per_kwh=10**400),
        "scenarios.shortage_penalty_eur_per_kwh: must be a finite number, "
        "got an int of 1329 bits"),
    "seed_text": (
        lambda raw: raw["seeds"].update(problem="eleven"),
        "seeds.problem: must be an int >= 0, got 'eleven'"),
    "price_nan": (
        lambda raw: raw["profiles"]["price_buy"]["literal_eur_per_kwh"]
        .__setitem__(2, float("nan")),
        "profiles.price_buy.literal_eur_per_kwh[2]: must be a finite "
        "number, got nan"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DESK))
def test_malformed_desk_config_rejected_with_field_path(tmp_path, capsys,
                                                         case):
    break_field, path = MALFORMED_DESK[case]
    raw = yaml.safe_load(DESK.read_text())
    break_field(raw)
    errors = _build(raw)[1]
    assert any(e.startswith(path) for e in errors), errors
    with pytest.raises(ConfigError, match=re.escape(path)):
        build_problem(ExperimentConfig(raw=raw))
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["build", str(cfg_path), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_unknown_graph_kind_rejected_for_two_agents():
    # minimal_config has two agents, the size generate_graph shortcuts
    raw = minimal_config()
    raw["algorithm"]["graph"]["kind"] = "bogus"
    assert _build(raw)[1] == [
        "algorithm.graph: unknown graph kind 'bogus'"]


# --------------------------------------------------------------- experiments


EXPECTED_FILES = ["config.yaml", "trace.csv", "certificate.json",
                  "solution.json", "report_consumption.csv",
                  "report_storage.csv", "report_grid.csv",
                  "report_power_fraction.csv"]


def test_minimal_run_writes_all_artifacts(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config())
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    for name in EXPECTED_FILES:
        assert (res.out_dir / name).exists(), name
    rows = read_trace_csv(res.out_dir / "trace.csv")
    assert len(rows) == 1 and rows[0][0] == 0  # T_f = 0: single logged iter
    saved = json.loads((res.out_dir / "solution.json").read_text())
    assert saved["agent_names"] == ["controllable_load_0", "grid"]


def test_run_determinism_byte_identical(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=6))
    a = run_experiment(cfg, out_dir=tmp_path / "a")
    b = run_experiment(cfg, out_dir=tmp_path / "b")
    for name in EXPECTED_FILES:
        assert (a.out_dir / name).read_bytes() == \
            (b.out_dir / name).read_bytes(), name


def test_trace_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=6))
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    rows = read_trace_csv(res.out_dir / "trace.csv")
    tr = res.result.trace
    for row, it, cost in zip(rows, tr.iters, tr.incumbent_cost):
        assert row[0] == it
        assert row[1] == cost  # repr round-trips exactly


def test_every_emitted_csv_reparses(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    out = run_montecarlo(cfg, trials=2, out_dir=tmp_path / "mc")
    K = cfg.raw["horizon_steps"]
    for path in sorted(res.out_dir.glob("*.csv")) + [out / "aggregate.csv"]:
        header, rows = read_csv(path)
        assert len(header) >= 2 and rows, path.name
        if path.name.startswith("report_"):
            assert len(rows) == K


def test_montecarlo_seed_separation(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=2))
    out = run_montecarlo(cfg, trials=3, out_dir=tmp_path / "mc")
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "iter,cost_mean,cost_std,viol_pos_max,viol_neg_max"
    # same problem seed: identical unit parameterization across trials
    cfgs = [yaml.safe_load((out / f"trial_{t:03d}" / "config.yaml").read_text())
            for t in range(3)]
    assert cfgs[0]["units"] == cfgs[1]["units"] == cfgs[2]["units"]
    # different scenario draws show up in the solutions of >= 1 trial pair
    sols = [json.loads((out / f"trial_{t:03d}" / "solution.json").read_text())
            for t in range(3)]
    assert any(sols[0]["x"] != s["x"] for s in sols[1:])


def test_montecarlo_single_trial_zero_std(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=2))
    out = run_montecarlo(cfg, trials=1, out_dir=tmp_path / "mc1")
    for line in (out / "aggregate.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[2]) == 0.0


def test_montecarlo_aggregate_matches_trial_traces(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    out = run_montecarlo(cfg, trials=3, out_dir=tmp_path / "mc3")
    traces = [read_trace_csv(out / f"trial_{t:03d}" / "trace.csv")
              for t in range(3)]
    agg = (out / "aggregate.csv").read_text().splitlines()[1:]
    for i, line in enumerate(agg):
        it, mean, std, pos, neg = line.split(",")
        costs = np.array([tr[i][1] for tr in traces])
        assert float(mean) == pytest.approx(costs.mean(), abs=1e-12)
        assert float(std) == pytest.approx(costs.std(), abs=1e-12)
        assert float(pos) == pytest.approx(max(tr[i][2] for tr in traces))


def test_recertify_matches(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    payload = recertify(res.out_dir)
    assert payload["matches_stored_bound"]


def test_recertify_refuses_a_bound_moved_in_its_last_digit(tmp_path):
    # the replay reproduces the stored bound bit for bit, so one ulp on
    # its largest entry is a mismatch
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    path = res.out_dir / "certificate.json"
    stored = json.loads(path.read_text())
    k = int(np.argmax(np.abs(stored["bound"])))
    stored["bound"][k] = float(np.nextafter(stored["bound"][k], np.inf))
    path.write_text(json.dumps(stored))
    assert not recertify(res.out_dir)["matches_stored_bound"]


def test_recertify_montecarlo_trial(tmp_path):
    # each trial records its own scenario seed, so recertify re-solves
    # the trial's scenarios and reproduces the measured violation too
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    out = run_montecarlo(cfg, trials=2, out_dir=tmp_path / "mc")
    trial = out / "trial_001"
    saved = yaml.safe_load((trial / "config.yaml").read_text())
    assert saved["seeds"]["scenario"] == [2, 1]
    stored = json.loads((trial / "certificate.json").read_text())
    payload = recertify(trial)
    assert payload["matches_stored_bound"]
    assert payload["measured"] == pytest.approx(stored["measured"], abs=1e-9)


def with_desk_storage(raw):
    """`raw` with desk.yaml's first storage, whose switch leaves the
    relaxed solve fractional; the grid and the loads are LPs."""
    raw["units"]["storages"] = \
        yaml.safe_load(DESK.read_text())["units"]["storages"][:1]
    return raw


def test_regenerate_reports_identical(tmp_path):
    cfg = ExperimentConfig(raw=minimal_config(T_f=4))
    res = run_experiment(cfg, out_dir=tmp_path / "run")
    before = (res.out_dir / "report_grid.csv").read_bytes()
    regenerate_reports(res.out_dir)
    assert (res.out_dir / "report_grid.csv").read_bytes() == before


# --------------------------------------------------------------- CLI


def test_cli_build_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(minimal_config(T_f=2)))
    assert main(["build", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out and "binary" in out
    assert (tmp_path / "b" / "centralized_problem.lp").exists()
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    assert "run finished" in capsys.readouterr().out
    assert main(["certify", str(tmp_path / "r")]) == 0
    assert "certificate recomputed" in capsys.readouterr().out
    assert main(["report", str(tmp_path / "r")]) == 0


def test_cli_build_writes_bounds_and_binaries(tmp_path, capsys):
    # block boxes are column bounds, not rows; the 24 switches of the
    # storages and generators are binary, the grid has none
    assert main(["build", str(DESK), "--out", str(tmp_path)]) == 0
    assert "170 variables (24 binary), 252 rows" in capsys.readouterr().out
    text = (tmp_path / "centralized_problem.lp").read_text()
    rows = text.split("Subject To\n")[1].split("Bounds\n")[0]
    assert len(rows.splitlines()) == 228 + 24  # block rows + band rows
    assert "Generals" not in text
    binaries = text.split("Binaries\n")[1].split("\n")[0].split()
    problem = build_problem(ExperimentConfig.from_yaml(DESK))
    mask = np.concatenate([blk.integrality for blk in problem.blocks])
    assert binaries == [f"x{j}" for j in np.flatnonzero(mask)]
    for name in binaries:
        assert f" 0 <= {name} <= 1\n" in text


def test_cli_rejects_bad_config(tmp_path, capsys):
    raw = minimal_config()
    del raw["units"]["grid"]
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["build", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "units.grid" in capsys.readouterr().err


@pytest.mark.parametrize("text,where", [
    (b"horizon_steps: [1, 2\n", "line 2, column 1: did not find"),
    (b"horizon_steps: \xff\n", "unacceptable character")])
def test_cli_reports_a_yaml_syntax_error_on_one_line(tmp_path, capsys, text,
                                                     where):
    cfg_path = tmp_path / "broken.yaml"
    cfg_path.write_bytes(text)
    with pytest.raises(ConfigError, match=re.escape(f"broken.yaml: {where}")):
        ExperimentConfig.from_yaml(cfg_path)
    assert main(["build", str(cfg_path), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["build", "run", "montecarlo"])
def test_cli_rejects_a_non_string_output_dir_before_any_directory(
        tmp_path, monkeypatch, capsys, verb):
    raw = minimal_config()
    raw["output_dir"] = 5
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    monkeypatch.setenv("MGRIDOPT_OUT", str(tmp_path / "root"))
    assert main([verb, str(cfg_path)]) == 1
    assert capsys.readouterr().err == \
        "error: config.output_dir: must be a string, got 5\n"
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("damaged", ["solution.json", "certificate.json"])
def test_cli_reports_a_damaged_run_artifact_on_one_line(tmp_path, capsys,
                                                        damaged):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(minimal_config()))
    run_dir = tmp_path / "r"
    assert main(["run", str(cfg_path), "--out", str(run_dir)]) == 0
    (run_dir / damaged).write_text("{not json")
    capsys.readouterr()
    verbs = ["certify"] + (["report"] if damaged == "solution.json" else [])
    for verb in verbs:
        assert main([verb, str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: {run_dir / damaged}: line 1, column 2: " \
            "Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize("argv,reason", [
    (["run", "{dir}"], os.strerror(errno.EISDIR)),
    (["build", "{dir}"], os.strerror(errno.EISDIR)),
    (["certify", "{file}"], os.strerror(errno.ENOTDIR)),
    (["report", "{file}"], os.strerror(errno.ENOTDIR)),
    (["run", "{cfg}", "--out", "{file}"], os.strerror(errno.EEXIST)),
    (["build", "{cfg}", "--out", "{file}"], os.strerror(errno.EEXIST)),
    (["montecarlo", "{cfg}", "--out", "{file}"], os.strerror(errno.EEXIST))],
    ids=["run_a_directory", "build_a_directory", "certify_a_file",
         "report_a_file", "run_out_a_file", "build_out_a_file",
         "montecarlo_out_a_file"])
def test_cli_reports_a_path_of_the_wrong_kind_on_one_line(tmp_path, capsys,
                                                         argv, reason):
    paths = {"dir": tmp_path / "d", "file": tmp_path / "f",
             "cfg": tmp_path / "cfg.yaml"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    paths["cfg"].write_text(yaml.safe_dump(minimal_config()))
    written = sorted(tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert reason in err
    assert sorted(tmp_path.rglob("*")) == written


def edited(**changes):
    """The artifact with `changes` applied, a None value dropping its key."""
    def edit(doc):
        doc.update(changes)
        return json.dumps({k: v for k, v in doc.items()
                           if v is not None}).encode()
    return edit


# minimal_config runs two agents (a load and the grid) over 4 steps and
# one scenario, so every allocation and bound has 2 R K = 8 entries
MALFORMED_ARTIFACT = {
    "solution_empty": ("certify", "solution.json", lambda doc: b"{}",
                       "y: missing"),
    "solution_not_utf8": ("report", "solution.json", lambda doc: b"\xff\xfe{",
                          "byte 0: not UTF-8"),
    "solution_a_list": ("report", "solution.json", lambda doc: b"[]",
                        "x: missing"),
    "y_one_agent": ("certify", "solution.json", edited(y=[[0.0] * 8]),
                    "y: must be a list of 2 lists"),
    "y_short": ("certify", "solution.json", edited(y=[[0.0], [0.0]]),
                "y: must be a list of 8 numbers"),
    "x_text": ("report", "solution.json", edited(x=[["a"], ["b"]]),
               "x: could not convert string to float: 'a'"),
    "eta_cap_missing": ("certify", "solution.json", edited(eta_cap=None),
                        "eta_cap: missing"),
    "eta_cap_negative": ("certify", "solution.json", edited(eta_cap=-1.0),
                         "eta_cap: must be a number > 0, got -1.0"),
    "label_number": ("certify", "solution.json", edited(label=3),
                     "label: must be a string, got 3"),
    "bound_missing": ("certify", "certificate.json", edited(bound=None),
                      "bound: missing"),
    "measured_scalar": ("certify", "certificate.json", edited(measured=1.0),
                        "measured: must be a list of 8 numbers"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACT))
def test_cli_reports_a_malformed_run_artifact_on_one_line(tmp_path, capsys,
                                                          case):
    verb, name, damage, message = MALFORMED_ARTIFACT[case]
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(minimal_config()))
    run_dir = tmp_path / "r"
    assert main(["run", str(cfg_path), "--out", str(run_dir)]) == 0
    path = run_dir / name
    path.write_bytes(damage(json.loads(path.read_text())))
    capsys.readouterr()
    assert main([verb, str(run_dir)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def desk_cut_to_one_round(tmp_path):
    raw = yaml.safe_load(DESK.read_text())
    raw["algorithm"]["iterations"] = 0
    cfg_path = tmp_path / "desk1.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    return cfg_path


def test_each_verb_builds_the_problem_once(tmp_path, monkeypatch):
    """Parsing builds nothing and every verb builds once; on desk a build
    solves 9 zero-cost LPs and a run's recourse cap none."""
    calls = {"builds": 0, "lps": 0}
    build, solve = config._build, model.solve_lp

    def counting_build(raw):
        calls["builds"] += 1
        return build(raw)

    def counting_solve(lp, **kwargs):
        calls["lps"] += 1
        return solve(lp, **kwargs)

    monkeypatch.setattr(config, "_build", counting_build)
    monkeypatch.setattr(model, "solve_lp", counting_solve)
    cfg_path = desk_cut_to_one_round(tmp_path)
    ExperimentConfig.from_yaml(cfg_path)
    assert calls == {"builds": 0, "lps": 0}
    run_dir = str(tmp_path / "r")
    for argv, builds, lps in [
            (["build", str(cfg_path), "--out", str(tmp_path / "b")], 1, 9),
            (["run", str(cfg_path), "--out", run_dir], 1, 9),
            (["certify", run_dir], 1, 9),
            (["report", run_dir], 1, 9),
            (["montecarlo", str(cfg_path), "--trials", "2",
              "--out", str(tmp_path / "mc")], 3, 27)]:
        calls.update(builds=0, lps=0)
        assert main(argv) == 0
        assert calls == {"builds": builds, "lps": lps}, argv[0]


@pytest.mark.parametrize("verb,stage", [
    ("run", "round 0 recovery MILP"),
    ("montecarlo", "trial 0 (scenario seed [2025, 0]) round 0 recovery MILP")])
def test_cli_reports_a_solve_failure_on_one_line(tmp_path, monkeypatch,
                                                 capsys, verb, stage):
    # agent 0, a storage, needs 23 nodes at the equal split
    monkeypatch.setattr(branch_bound, "MAX_BNB_NODES", 2)
    argv = [verb, str(desk_cut_to_one_round(tmp_path)),
            "--out", str(tmp_path / "out")]
    assert main(argv + (["--trials", "2"] if verb == "montecarlo" else [])) \
        == 1
    assert capsys.readouterr().err == \
        f"error: agent 0: {stage} solve ended node limit 2 reached\n"


@pytest.mark.parametrize("module,message", [
    (dialgo, "agent 0: round 0 allocation LP solve ended singular basis"),
    (analysis, "agent 0: certificate floor LP 0 solve ended singular basis")],
    ids=["dialgo", "analysis"])
def test_cli_reports_a_simplex_failure_on_one_line(tmp_path, monkeypatch,
                                                   capsys, module, message):
    def failing(lp, **kwargs):
        raise SolverError("singular basis")

    monkeypatch.setattr(module, "solve_lp", failing)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(with_desk_storage(minimal_config())))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_montecarlo_names_the_trial_of_a_certificate_failure(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(analysis, "solve_lp",
                        lambda lp, **kwargs: LpSolution(INFEASIBLE))
    with pytest.raises(dialgo.AgentSolveError, match=re.escape(
            "agent 0: trial 0 (scenario seed [2, 0]) certificate floor LP 0 "
            "solve ended infeasible")):
        run_montecarlo(
            ExperimentConfig(raw=with_desk_storage(minimal_config())),
            trials=2, out_dir=tmp_path / "mc")


@pytest.mark.parametrize("case", ["storage_loss_empties_block",
                                  "power_max_inf",
                                  "power_max_overflows_the_cost_segments"])
def test_cli_run_reports_an_empty_or_infinite_unit_on_one_line(
        tmp_path, capsys, case):
    # each config used to pass validation: the first two crashed inside
    # recourse_cap, and the overflowing one ran to a bound of 9.6e161 kW
    break_field, path = MALFORMED_DESK[case]
    raw = yaml.safe_load(DESK.read_text())
    break_field(raw)
    assert _build(raw)[1] == [path]
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}\n"
    assert not (tmp_path / "r").exists()


def test_cli_montecarlo(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(minimal_config(T_f=1)))
    assert main(["montecarlo", str(cfg_path), "--trials", "2",
                 "--out", str(tmp_path / "mc")]) == 0
    assert (tmp_path / "mc" / "aggregate.csv").exists()


def test_every_package_module_is_on_the_run_path():
    """The package is what the command line runs: importing the CLI in a
    fresh interpreter loads every module under src/mgridopt/, and no
    module imports the test oracles (code only tests reach lives in
    tests/oracles/)."""
    pkg = REPO / "src" / "mgridopt"
    sources = sorted(pkg.rglob("*.py"))
    modules = {".".join(("mgridopt",) + p.relative_to(pkg).with_suffix("")
                        .parts).removesuffix(".__init__") for p in sources}
    probe = ("import sys, mgridopt.cli; print(' '.join(m for m in "
             "sys.modules if m.split('.')[0] == 'mgridopt'))")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert sorted(modules - set(loaded)) == []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] in ("oracles", "tests")
                           for name in names), f"{path.name}: {names}"


def test_agents_solve_only_through_their_local_problem():
    """dialgo and analysis pass solve_lp and solve_milp to a
    LocalProblem, which names the agent and the stage of a failed solve;
    neither module calls them."""
    direct = []
    for name in ("dialgo.py", "analysis.py"):
        tree = ast.parse((REPO / "src" / "mgridopt" / name).read_text())
        direct += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and
                   ast.unparse(node.func).split(".")[-1] in
                   ("solve_lp", "solve_milp")]
    assert direct == []


def test_every_desk_key_is_read():
    """A key of the shipped config that the build never looks up is a
    knob without an effect.  Every mapping of desk.yaml records the keys
    read from it by `[]` or `get`; `items()`, with which the finiteness
    check walks every key, records nothing."""
    shipped, read = set(), set()

    class Recording(dict):
        def __init__(self, mapping, path):
            super().__init__(mapping)
            self.path = path

        def __getitem__(self, key):
            read.add(f"{self.path}{key}")
            return super().__getitem__(key)

        def get(self, key, *default):
            read.add(f"{self.path}{key}")
            return super().get(key, *default)

    def wrap(value, path):
        if isinstance(value, dict):
            shipped.update(f"{path}{k}" for k in value)
            return Recording({k: wrap(v, f"{path}{k}.")
                              for k, v in value.items()}, path)
        if isinstance(value, list):
            return [wrap(v, f"{path[:-1]}[{i}].") for i, v in enumerate(value)]
        return value

    assert _build(wrap(yaml.safe_load(DESK.read_text()), ""))[1] == []
    assert sorted(shipped - read) == []


def test_every_imported_name_is_read():
    """An imported name its module never reads is dead code, in src/ and
    in tests/ alike; an __init__.py reads the names of its `__all__`."""
    unused = []
    for path in sorted((REPO / "src").rglob("*.py")) + \
            sorted((REPO / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    ast.unparse(node.targets[0]) == "__all__":
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unused += [f"{path.relative_to(REPO)}:{node.lineno} {bound}"
                           for bound in (alias.asname
                                         or alias.name.split(".")[0]
                                         for alias in node.names)
                           if bound not in read]
    assert not unused, unused
