"""Command-line interface.

Verbs:
    build       validate a config and dump the centralized two-stage
                problem in LP interchange format
    run         execute one experiment, writing the artifact directory
    montecarlo  repeated runs over different scenario draws
    certify     recompute the violation certificate of a saved run
    report      re-emit the figure-data CSVs of a saved run

The output root can be moved with the MGRIDOPT_OUT environment
variable; per-run directories come from the config's `output_dir`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, build_problem
from .dialgo import AgentSolveError
from .experiment import (output_dir, recertify, regenerate_reports,
                         run_experiment, run_montecarlo)
from .solver import write_lp_format
from .stochastic import assemble_two_stage


def cmd_build(args) -> int:
    problem = build_problem(ExperimentConfig.from_yaml(args.config))
    lp = assemble_two_stage(problem.blocks, problem.scen, problem.d)
    path = output_dir(problem, args.out) / "centralized_problem.lp"
    write_lp_format(lp, path)
    n_bin = int(lp.integrality.sum()) if lp.integrality is not None else 0
    print(f"config ok: {len(problem.blocks)} agents, "
          f"horizon {problem.scen.K}, {problem.scen.R} scenarios")
    print(f"centralized problem: {lp.n} variables ({n_bin} binary), "
          f"{lp.m} rows -> {path}")
    return 0


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    res = run_experiment(cfg, out_dir=args.out)
    trace = res.result.trace
    print(f"run finished: {len(trace.iters)} logged iterations "
          f"-> {res.out_dir}")
    print(f"final incumbent cost {trace.incumbent_cost[-1]:.6f}, "
          f"certificate label {res.certificate.label}, "
          f"bound holds: {res.certificate.holds}")
    return 0


def cmd_montecarlo(args) -> int:
    cfg = ExperimentConfig.from_yaml(args.config)
    out = run_montecarlo(cfg, trials=args.trials, out_dir=args.out)
    print(f"{args.trials} trials -> {out}")
    return 0


def cmd_certify(args) -> int:
    payload = recertify(args.run_dir)
    print(f"certificate recomputed -> {Path(args.run_dir)}/"
          f"certificate_recomputed.json")
    print(f"bound holds componentwise: "
          f"{payload['bound_holds_componentwise']}, "
          f"consensus deviation {payload['consensus']['max_deviation']:.2e}, "
          f"matches stored: {payload['matches_stored_bound']}")
    return 0


def cmd_report(args) -> int:
    out = regenerate_reports(args.run_dir)
    print(f"figure-data CSVs rewritten in {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mgridopt",
        description="Distributed stochastic microgrid control experiments")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="validate config, dump the "
                                     "centralized problem")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("montecarlo", help="run repeated scenario draws")
    p.add_argument("config")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("certify", help="recompute a saved run's certificate")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("report", help="re-emit figure-data CSVs")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, AgentSolveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
