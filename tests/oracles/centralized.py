"""The one-big-problem forms the distributed run is checked against.

`assemble_centralized` stacks the blocks under the deterministic
balance; `assemble_per_agent_eta` gives each agent its own recourse
vector and returns the column layout; `solve_centralized` solves the pooled two-stage problem and its
relaxation with HiGHS; the recourse formulas price imbalance directly
from residuals, in the row ordering of `mgridopt.stochastic`.
"""

from __future__ import annotations

import numpy as np
import pytest

from mgridopt.model import DimensionError
from mgridopt.solver import LinearProgram
from mgridopt.stochastic import ScenarioSet, assemble_two_stage


def assemble_centralized(blocks, b) -> tuple[LinearProgram, list]:
    """Stack blocks into one MILP with the equality balance sum A_i x_i = b.

    Equality rows are stored as paired inequalities so the same row
    representation serves both the LP and MILP engines.  Returns the
    program and the per-block column offsets.
    """
    b = np.asarray(b, dtype=float).ravel()
    K = blocks[0].A.shape[0]
    if b.size != K:
        raise DimensionError(f"balance vector length {b.size} != horizon {K}")
    for blk in blocks:
        if blk.A.shape[0] != K:
            raise DimensionError("blocks disagree on horizon length")
    n_total = sum(blk.n for blk in blocks)
    m_total = sum(blk.G.shape[0] for blk in blocks) + 2 * K
    G = np.zeros((m_total, n_total))
    g = np.zeros(m_total)
    c = np.zeros(n_total)
    mask = np.zeros(n_total, dtype=bool)
    offsets = []
    row = 0
    col = 0
    for blk in blocks:
        offsets.append(col)
        mb = blk.G.shape[0]
        G[row:row + mb, col:col + blk.n] = blk.G
        g[row:row + mb] = blk.g
        c[col:col + blk.n] = blk.c
        mask[col:col + blk.n] = blk.integrality
        row += mb
        col += blk.n
    for i, blk in enumerate(blocks):
        G[row:row + K, offsets[i]:offsets[i] + blk.n] = blk.A
        G[row + K:row + 2 * K, offsets[i]:offsets[i] + blk.n] = -blk.A
    g[row:row + K] = b
    g[row + K:row + 2 * K] = -b
    lp = LinearProgram(c, G, g, np.concatenate([blk.lo for blk in blocks]),
                       np.concatenate([blk.hi for blk in blocks]),
                       integrality=mask)
    return lp, offsets


def assemble_per_agent_eta(blocks, scen: ScenarioSet, d: np.ndarray):
    """`assemble_two_stage` with columns [x_1 .. x_N | eta_1 .. eta_N]:
    the distributed form, whose vertices carry the integral-block
    counting property.  Returns the program and a layout dict: block i's
    columns start at offsets[i], agent i's recourse at
    eta_offset + i * eta_dim."""
    lp = assemble_two_stage(blocks, scen, d)
    n_x, N = lp.n - d.size, len(blocks)
    layout = {"offsets": [sum(blk.n for blk in blocks[:i])
                          for i in range(N)],
              "eta_offset": n_x, "eta_dim": d.size}

    def per_agent(v):
        return np.concatenate([v[..., :n_x]] + [v[..., n_x:]] * N, axis=-1)

    return LinearProgram(per_agent(lp.c), per_agent(lp.G), lp.g,
                         per_agent(lp.lo), per_agent(lp.hi),
                         integrality=per_agent(lp.integrality)), layout


def solve_centralized(blocks, scen: ScenarioSet, d: np.ndarray):
    """(MILP optimum, LP relaxation optimum) of `assemble_two_stage`,
    both solved by HiGHS (Huangfu & Hall 2018); skips the calling test
    without scipy."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    lp = assemble_two_stage(blocks, scen, d)
    mixed = scipy_opt.milp(
        lp.c, integrality=lp.integrality.astype(int),
        bounds=scipy_opt.Bounds(lp.lo, lp.hi),
        constraints=scipy_opt.LinearConstraint(lp.G, -np.inf, lp.g),
        options={"mip_rel_gap": 1e-9})
    relaxed = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.g,
                                bounds=list(zip(lp.lo, lp.hi)),
                                method="highs")
    if not (mixed.success and relaxed.success):
        raise RuntimeError(f"HiGHS ended {mixed.message!r} (MILP), "
                           f"{relaxed.message!r} (LP)")
    return float(mixed.fun), float(relaxed.fun)


def expected_recourse(d: np.ndarray, eta) -> float:
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.size != d.size:
        raise DimensionError("recourse vector does not match d")
    return float(d @ eta)


def recourse_phi(z: float, q_plus: float, q_minus: float) -> float:
    """Per-unit imbalance expense: q_plus above balance, q_minus below."""
    return q_plus * z if z >= 0 else -q_minus * z


def recourse_from_residuals(residuals, scen: ScenarioSet) -> np.ndarray:
    """eta implied by per-scenario balance residuals (positive/negative parts).

    `residuals[r]` is the K-vector sum_i [A_i x_i] - b_r; the returned
    eta follows the `mgridopt.stochastic` row ordering.
    """
    parts = []
    for r in range(scen.R):
        res = np.asarray(residuals[r], dtype=float)
        parts.append(np.maximum(res, 0.0))
        parts.append(np.maximum(-res, 0.0))
    return np.concatenate(parts)
