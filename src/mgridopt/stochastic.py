"""Two-stage stochastic lift of the deterministic blocks.

The K-row balance coupling is replicated over R sampled scenarios into
a 2RK-row band: for each scenario r, K "+" rows (surplus side) followed
by K "-" rows (shortage side), scenarios in index order.  This fixed
interleaving is shared by the lifted coupling matrix H, the stacked
right-hand side h, the recourse cost vector d and every recourse
variable, so index arithmetic is consistent package-wide:

    row(r, k, +) = 2*K*r + k          row(r, k, -) = 2*K*r + K + k

`two_stage_lp` is the one assembly of the two-stage program: each
agent's local program is it over the agent's own block, with the
agent's allocation as the coupling right-hand side, and
`assemble_two_stage` is it over all blocks with the band h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError
from .solver import LinearProgram


@dataclass
class ScenarioSet:
    """R sampled exogenous realizations with probabilities.

    `realizations` keeps the per-scenario renewable bundles (list of
    profile vectors per scenario) for reporting; `b_r` holds the induced
    balance right-hand sides.
    """

    pi: np.ndarray
    b_r: list  # R vectors of length K
    realizations: list = field(default_factory=list)

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float).ravel()
        self.b_r = [np.asarray(b, dtype=float).ravel() for b in self.b_r]
        if self.R < 1:
            raise DimensionError("need at least one scenario")
        if len(self.b_r) != self.R:
            raise DimensionError("probability and balance counts differ")
        if np.any(self.pi < 0.0):
            raise ValueError("scenario probabilities must be >= 0")
        if abs(self.pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {self.pi.sum()}, not 1")
        K = self.b_r[0].size
        if any(b.size != K for b in self.b_r):
            raise DimensionError("balance vectors disagree on horizon")

    @property
    def R(self) -> int:
        return self.pi.size

    @property
    def K(self) -> int:
        return self.b_r[0].size


def lift_coupling(A: np.ndarray, R: int) -> np.ndarray:
    """H = ones(R) kron (A; -A): the K coupling rows of A replicated over
    R scenarios in the module's row ordering."""
    if R < 1:
        raise DimensionError(f"scenario count must be >= 1, got {R}")
    return np.kron(np.ones((R, 1)), np.vstack([A, -A]))


def build_h(scen: ScenarioSet) -> np.ndarray:
    """Stack (b_r; -b_r) per scenario in the module's row ordering."""
    return np.concatenate([np.concatenate([b, -b]) for b in scen.b_r])


def build_recourse_cost(pi, q_plus: float, q_minus: float, K: int) -> np.ndarray:
    """The price vector d of a-posteriori imbalance: d'eta is the
    expected recourse expense.

    Entry for scenario r, step k is pi_r * q_plus on the "+" row and
    pi_r * q_minus on the "-" row.
    """
    if q_plus < 0 or q_minus < 0:
        raise ValueError("recourse penalties must be >= 0")
    pi = np.asarray(pi, dtype=float).ravel()
    parts = []
    for p in pi:
        parts.append(np.full(K, p * q_plus))
        parts.append(np.full(K, p * q_minus))
    return np.concatenate(parts)


def two_stage_lp(blocks, R: int, d: np.ndarray) -> LinearProgram:
    """min c'x + d'eta over the blocks' rows and H x - eta <= rhs,
    eta >= 0, with H = [H_1 .. H_N] (`lift_coupling` of each A).

    Columns are [x_1 .. x_N | eta]; rows are every block's G rows, then
    the 2RK coupling rows, whose right-hand side (zero here) the caller
    writes: an agent its allocation y, the centralized problem the band
    h.  The integrality mask flags the blocks' integer columns.
    """
    dim = d.size
    n_x = sum(blk.n for blk in blocks)
    m_blocks = sum(blk.G.shape[0] for blk in blocks)
    G = np.zeros((m_blocks + dim, n_x + dim))
    row = col = 0
    for blk in blocks:
        mb = blk.G.shape[0]
        G[row:row + mb, col:col + blk.n] = blk.G
        G[m_blocks:, col:col + blk.n] = lift_coupling(blk.A, R)
        row += mb
        col += blk.n
    G[m_blocks:, n_x:] = -np.eye(dim)
    return LinearProgram(
        np.concatenate([blk.c for blk in blocks] + [d]), G,
        np.concatenate([blk.g for blk in blocks] + [np.zeros(dim)]),
        np.concatenate([blk.lo for blk in blocks] + [np.zeros(dim)]),
        np.concatenate([blk.hi for blk in blocks] + [np.full(dim, np.inf)]),
        integrality=np.concatenate([blk.integrality for blk in blocks]
                                   + [np.zeros(dim, dtype=bool)]))


def assemble_two_stage(blocks, scen: ScenarioSet,
                       d: np.ndarray) -> LinearProgram:
    """Centralized two-stage program over all blocks (`mgridopt build`):
    `two_stage_lp` with the band h as the coupling right-hand side.

    `solve_lp` ignores the integrality mask, so the same program serves
    as its own relaxation.
    """
    lp = two_stage_lp(blocks, scen.R, d)
    lp.g[-d.size:] = build_h(scen)
    return lp
