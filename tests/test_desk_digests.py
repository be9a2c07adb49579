"""The desk run the benchmark's `desk` workload makes, pinned byte for
byte and count for count.

`configs/desk.yaml` cut to its first 10 rounds (finalized at rounds 0,
1 and 10) runs once through `run_experiment`.  The sha256 of each of
its 8 artifacts is fixed below, and so is the work every solver layer
does, counted by wrappers around the `solve_lp`/`solve_milp` names each
calling module looks up (the names the traced benchmark wraps), and
the number of basis inversions (`np.linalg.inv` calls) of the run.
`mgridopt build configs/desk.yaml`'s centralized two-stage program,
the all-blocks side of the assembly each agent's local program shares,
is pinned by the sha256 of the LP file it writes.

The digests hold on the numpy and OpenBLAS build they were taken with:
another BLAS, or another numpy, may sum a product in another order and
move a last bit.  A change that alters an artifact on purpose updates
the digests here and names each changed file in CHANGES.md.
"""

import copy
import hashlib
from pathlib import Path

import numpy as np
import pytest

from mgridopt import analysis, cli, dialgo, experiment, model
from mgridopt.config import ExperimentConfig
from mgridopt.solver import branch_bound

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"
ROUNDS = 10

ARTIFACT_SHA256 = {
    "certificate.json":
        "81ec4ff45661faca95a9240b2e4678f9186d61c3e9669026b11fd8166e78e9d4",
    "config.yaml":
        "a1f7b2df04d7851cb5db08b1f613034cf386115f214dc5461397f51b7485aa4f",
    "report_consumption.csv":
        "91545aa8c7a19d3fb3cebc06ca457b062980cf79247cd79f30449308a521c462",
    "report_grid.csv":
        "0040de484c6243afebeff88eca5271026da353fd9623859c602d83cddb776bc8",
    "report_power_fraction.csv":
        "cc94e9adfb7221249821f023afdcc3314178047014939e21748b24bbc530458b",
    "report_storage.csv":
        "4e8edf3bba03b3652b2f603b7e2d743086277bdfb8cd70e3a70b88a0bfb6f395",
    "solution.json":
        "dd847fc7b8b2cb3aef89723657ab8042f64b7667d904e04ca7e17f48fea76982",
    "trace.csv":
        "8357585ac88e6a8ee6561d4b3ec1dfa343d56b1d496aef066d61461628fe26b6",
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


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """(artifact directory, {layer: [solves, pivots or nodes]}, with
    the run's `np.linalg.inv` calls under "inv")."""
    raw = copy.deepcopy(ExperimentConfig.from_yaml(DESK).raw)
    raw["algorithm"]["iterations"] = ROUNDS
    work = {layer: [0, 0] for _, _, layer, _ in CALL_SITES}
    work["inv"] = 0
    inv = np.linalg.inv

    def inverting(a):
        work["inv"] += 1
        return inv(a)

    def counting(fn, layer, field):
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            work[layer][0] += 1
            work[layer][1] += getattr(sol, field)
            return sol
        return wrapper

    out = tmp_path_factory.mktemp("desk")
    with pytest.MonkeyPatch.context() as patch:
        for module, name, layer, field in CALL_SITES:
            patch.setattr(module, name,
                          counting(getattr(module, name), layer, field))
        patch.setattr(np.linalg, "inv", inverting)
        experiment.run_experiment(ExperimentConfig(raw=raw),
                                  out_dir=out)
    return out, work


def test_desk_artifacts_match_their_digests(desk_run):
    out, _ = desk_run
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    assert written == ARTIFACT_SHA256


def test_desk_work_counters(desk_run):
    # [solves, pivots] of each LP layer, [solves, B&B nodes] of each
    # MILP layer; the 2 critical loads solve no allocation LP and rounds
    # 2 to 9 start the other 9 agents' from the round before, the box
    # LPs are the builders' phase-1 solves, and a finalize's root is the
    # round's relaxed solve, so its node LPs and the certificate's
    # auxiliary trees give 557 - 33 + 255 node LPs
    _, work = desk_run
    assert work["alloc"] == [99, 2570]
    # 352 node LPs stop once their dual bound reaches the incumbent,
    # pivots short of the optimum their tree would prune (2688 pivots
    # when each ran to its optimum)
    assert work["node"] == [779, 2337]
    assert work["cert"] == [36, 713]
    assert work["box"] == [9, 53]
    assert work["finalize"] == [33, 557]
    assert work["cert_aux"] == [3, 255]
    # every node LP but the 3 auxiliary roots is a child that adopts its
    # parent's fresh inverse in place of inverting its start basis: 776
    # inversions fewer than refactoring each start; the 352 cut off skip
    # the refactorization before reporting (893 when each reported)
    assert work["inv"] == 541


def test_desk_build_lp_matches_its_digest(tmp_path, capsys):
    assert cli.main(["build", str(DESK), "--out", str(tmp_path)]) == 0
    written = (tmp_path / "centralized_problem.lp").read_bytes()
    assert hashlib.sha256(written).hexdigest() == BUILD_LP_SHA256
