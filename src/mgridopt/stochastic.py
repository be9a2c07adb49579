"""Two-stage stochastic lift of the deterministic blocks.

The K-row balance coupling is replicated over R sampled scenarios into
a 2RK-row band: for each scenario r, K "+" rows (surplus side) followed
by K "-" rows (shortage side), scenarios in index order.  This fixed
interleaving is shared by the lifted coupling matrix H, the stacked
right-hand side h, the recourse cost vector d and every recourse
variable, so index arithmetic is consistent package-wide:

    row(r, k, +) = 2*K*r + k          row(r, k, -) = 2*K*r + K + k
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError, LocalBlock
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


@dataclass
class RecourseCost:
    """The price vector d of a-posteriori imbalance: d'eta is the
    expected recourse expense (see `build_recourse_cost`)."""

    d: np.ndarray

    @property
    def d_min(self) -> float:
        return float(self.d.min())


@dataclass
class LiftedBlock:
    """A LocalBlock together with its scenario-replicated coupling."""

    base: LocalBlock
    H: np.ndarray  # 2RK x n
    R: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def eta_dim(self) -> int:
        return self.H.shape[0]


def lift_block(block: LocalBlock, R: int) -> LiftedBlock:
    """Replicate the coupling rows over R scenarios: H = ones(R) kron (A; -A)."""
    if R < 1:
        raise DimensionError(f"scenario count must be >= 1, got {R}")
    stacked = np.vstack([block.A, -block.A])
    H = np.kron(np.ones((R, 1)), stacked)
    return LiftedBlock(base=block, H=H, R=R)


def build_h(scen: ScenarioSet) -> np.ndarray:
    """Stack (b_r; -b_r) per scenario in the module's row ordering."""
    return np.concatenate([np.concatenate([b, -b]) for b in scen.b_r])


def build_recourse_cost(pi, q_plus: float, q_minus: float, K: int) -> RecourseCost:
    """d such that d'eta is the expected recourse expense.

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
    return RecourseCost(d=np.concatenate(parts))


def assemble_two_stage(blocks, scen: ScenarioSet, cost: RecourseCost):
    """Centralized two-stage program over all blocks (`mgridopt build`).

    Columns are [x_1 .. x_N | eta] with one pooled recourse vector.
    `solve_lp` ignores the integrality mask, so the same program serves
    as its own relaxation.  Returns the program plus a layout dict with
    column offsets.
    """
    R, K = scen.R, scen.K
    dim = 2 * R * K
    lifted = [lift_block(blk, R) for blk in blocks]
    h = build_h(scen)
    n_x = sum(blk.n for blk in blocks)
    n = n_x + dim
    m_blocks = sum(blk.G.shape[0] for blk in blocks)
    G = np.zeros((m_blocks + dim, n))
    g = np.zeros(m_blocks + dim)
    c = np.zeros(n)
    mask = np.zeros(n, dtype=bool)
    offsets = []
    row = col = 0
    for blk in blocks:
        offsets.append(col)
        mb = blk.G.shape[0]
        G[row:row + mb, col:col + blk.n] = blk.G
        g[row:row + mb] = blk.g
        c[col:col + blk.n] = blk.c
        mask[col:col + blk.n] = blk.integrality
        row += mb
        col += blk.n
    for i, lb in enumerate(lifted):
        G[row:row + dim, offsets[i]:offsets[i] + lb.n] = lb.H
    G[row:row + dim, n_x:] = -np.eye(dim)
    c[n_x:] = cost.d
    g[row:row + dim] = h
    lo = np.concatenate([blk.lo for blk in blocks] + [np.zeros(dim)])
    hi = np.concatenate([blk.hi for blk in blocks] + [np.full(dim, np.inf)])
    lp = LinearProgram(c, G, g, lo, hi, integrality=mask)
    layout = {"offsets": offsets, "eta_offset": n_x, "eta_dim": dim}
    return lp, layout
