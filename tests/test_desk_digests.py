"""The desk run the benchmark's `desk` workload makes, pinned byte for
byte and count for count.

`configs/desk.yaml` cut to its first 10 rounds (finalized at rounds 0,
1 and 10) runs once through `run_experiment`.  The sha256 of each of
its 8 artifacts is fixed below, and so is the work every solver layer
does, counted by wrappers around the `solve_lp`/`solve_milp` names each
calling module looks up (the names the traced benchmark wraps), the
number of basis inversions (`np.linalg.inv` calls) of the run, and how
many warm starts stay warm and how many go cold.
So that new digests rest on more than their new-ness, every LP the same
run solves at those names is checked on its own against its duals.
`mgridopt build configs/desk.yaml`'s centralized two-stage program,
the all-blocks side of the assembly each agent's local program shares,
is pinned by the sha256 of the LP file it writes.

The digests hold on the numpy and OpenBLAS build they were taken with:
another BLAS, or another numpy, may sum a product in another order and
move a last bit.  A change that alters an artifact on purpose updates
the digests here and names each changed file in CHANGES.md;
`tests/repin.py` recomputes every value pinned here with the functions
the tests call.
"""

import contextlib
import copy
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from mgridopt import analysis, cli, dialgo, experiment, model
from mgridopt.config import ExperimentConfig
from mgridopt.solver import (CUTOFF, FEASIBILITY, INFEASIBLE, OPTIMAL,
                             branch_bound, simplex)
from oracles.duality import dual_objective

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"
ROUNDS = 10

ARTIFACT_SHA256 = {
    "certificate.json":
        "8f68cc1d9d3b20bfbfba9316658378ea25abe3ad01340108777d3a4012e432a8",
    "config.yaml":
        "a1f7b2df04d7851cb5db08b1f613034cf386115f214dc5461397f51b7485aa4f",
    "report_consumption.csv":
        "949aa836bba2026ff866e53c4b5a40135f1642c268b84e09afa65fdfa3e34cb8",
    "report_grid.csv":
        "33ab678e6937c94b3350679a85d0036d6761e2ac179467c2c7c8c9ef2535ad57",
    "report_power_fraction.csv":
        "bae980a49bf5c6ec0a36bee19eae6b4b4ad2872b7b913ab5bba64f02b8457bde",
    "report_storage.csv":
        "73e7354e730b5cd7176814f28ad57faacedcf2cef5889f29e35bef01124cb5db",
    "solution.json":
        "4806afa8ade3b89902ed99135cd1b598b068d197065da1f83ff66dac94aa50a9",
    "trace.csv":
        "6e309f1d1273fb1f686ca210fe82c8f5343233d16c231a7c2887826a7a279f7c",
}

BUILD_LP_SHA256 = \
    "ab9e0582ea1b9ab7348a99ab9a2f5a5886a91f2510dd85e208fc406a5d184413"

# (module, name, layer, work field of the solution): the call sites the
# traced benchmark wraps
CALL_SITES = [
    (dialgo, "solve_lp", "alloc", "pivots"),
    (branch_bound, "solve_lp", "node", "pivots"),
    (analysis, "solve_lp", "cert", "pivots"),
    (model, "solve_lp", "box", "pivots"),
    (dialgo, "solve_milp", "finalize", "node_count"),
    (analysis, "solve_milp", "cert_aux", "node_count"),
]


# [solves, pivots] of each LP layer, [solves, B&B nodes] of each MILP
# layer, and the run's basis inversions; the 2 critical loads solve no
# allocation LP and rounds 2 to 9 start the other 9 agents' from the
# round before, the box LPs are the builders' zero-cost solves, and a
# finalize's root is the round's relaxed solve, so its node LPs and the
# certificate's auxiliary trees give 543 - 33 + 255 node LPs
DESK_WORK = {
    "alloc": [99, 2022],
    # 343 node LPs stop once their dual bound reaches the incumbent,
    # pivots short of the optimum their tree would prune (2852 pivots
    # when each ran to its optimum)
    "node": [765, 2446],
    "cert": [36, 695],
    "box": [9, 55],
    "finalize": [33, 543],
    "cert_aux": [3, 255],
    # every node LP but the 3 auxiliary roots adopts its parent's factor
    # and, with no path down a tree reaching REFACTOR_EVERY pivots,
    # inverts no basis: the roots' 3 inversions are the node LPs' share,
    # and the allocation LPs' 62, the certificate's 36 and the box LPs' 9
    # the rest
    "inv": 110,
    # [warm starts whose dual loop the solve keeps, warm starts that go
    # cold]: the allocation rounds' and the node LPs' starts together
    "warm": [806, 28],
}

# "<layer> <status>": solves of the run at the four solve_lp names
RUN_PATH_SOLVES = {"alloc optimal": 99, "node optimal": 422,
                   "node cutoff": 343, "cert optimal": 36,
                   "box optimal": 9}


def desk_config() -> ExperimentConfig:
    raw = copy.deepcopy(ExperimentConfig.from_yaml(DESK).raw)
    raw["algorithm"]["iterations"] = ROUNDS
    return ExperimentConfig(raw=raw)


def run_desk(out: Path):
    """Run the pinned desk run into `out`: ({artifact: sha256},
    {layer: [solves, pivots or nodes]}, with the run's `np.linalg.inv`
    calls under "inv" and [warm starts that stay warm, warm starts that
    go cold] under "warm")."""
    work = {layer: [0, 0] for _, _, layer, _ in CALL_SITES}
    work["inv"] = 0
    work["warm"] = [0, 0]
    inv, warm = np.linalg.inv, simplex._Simplex._warm

    def inverting(a):
        work["inv"] += 1
        return inv(a)

    def warming(engine, start):
        verdict = warm(engine, start)
        work["warm"][verdict is simplex._COLD] += 1
        return verdict

    def counting(fn, layer, field):
        def wrapper(lp, **kwargs):
            sol = fn(lp, **kwargs)
            work[layer][0] += 1
            work[layer][1] += getattr(sol, field)
            return sol
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for module, name, layer, field in CALL_SITES:
            patch.setattr(module, name,
                          counting(getattr(module, name), layer, field))
        patch.setattr(np.linalg, "inv", inverting)
        patch.setattr(simplex._Simplex, "_warm", warming)
        experiment.run_experiment(desk_config(), out_dir=out)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    return written, work


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    return run_desk(tmp_path_factory.mktemp("desk"))


def test_desk_artifacts_match_their_digests(desk_run):
    written, _ = desk_run
    assert written == ARTIFACT_SHA256


def test_desk_work_counters(desk_run):
    _, work = desk_run
    assert work == DESK_WORK


def assert_checks_out(lp, sol):
    """An optimal `sol` of `lp`: x within its bounds, each row within
    FEASIBILITY times (1 + its coefficients' absolute sum), the amount
    clamping x to its bounds may move it; duals >= 0 and complementary
    to the rows' slacks; strong duality to 1e-7 (1 + |value|)."""
    scale = 1.0 + abs(sol.value)
    x, mu = sol.x, sol.duals
    assert np.all((lp.lo <= x) & (x <= lp.hi))
    slack = lp.g - lp.G @ x
    assert np.all(slack >= -FEASIBILITY * (1.0 + np.abs(lp.G).sum(axis=1)))
    assert np.all(mu >= 0.0)
    assert np.all(np.abs(mu * slack) <= 1e-9 * scale)
    assert abs(sol.value - dual_objective(lp, sol)) <= 1e-7 * scale


def run_path_solves(out: Path) -> dict[str, int]:
    """Run the pinned desk run into `out`, checking every LP solve at
    the four names the traced benchmark wraps inside the wrapper, since
    the agents rewrite their LP's g in place: an optimal one checks out
    against its duals, and one cut off is infeasible, or reaches its
    cutoff, when solved again from the same start without it.  Returns
    the solves per "<layer> <status>"."""
    seen = {}

    def checking(fn, layer):
        def wrapper(lp, **kwargs):
            sol = fn(lp, **kwargs)
            if sol.status == OPTIMAL:
                assert_checks_out(lp, sol)
            elif sol.status == CUTOFF:
                full = fn(lp, **{**kwargs, "cutoff": math.inf})
                assert full.status == INFEASIBLE or \
                    full.value >= kwargs["cutoff"]
            key = f"{layer} {sol.status}"
            seen[key] = seen.get(key, 0) + 1
            return sol
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for module, name, layer, _ in CALL_SITES:
            if name == "solve_lp":
                patch.setattr(module, name,
                              checking(getattr(module, name), layer))
        experiment.run_experiment(desk_config(), out_dir=out)
    return seen


def test_desk_run_path_solves_check_out(tmp_path):
    assert run_path_solves(tmp_path) == RUN_PATH_SOLVES


def build_lp_digest(out: Path) -> str:
    """The sha256 of the LP file `mgridopt build` writes into `out`."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["build", str(DESK), "--out", str(out)]) == 0
    written = (out / "centralized_problem.lp").read_bytes()
    return hashlib.sha256(written).hexdigest()


def test_desk_build_lp_matches_its_digest(tmp_path):
    assert build_lp_digest(tmp_path) == BUILD_LP_SHA256
