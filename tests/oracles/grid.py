"""The big-M grid connection the convex grid block replaced.

The import/export switch of the mixed-logical model (Parisio, Rikos &
Glielmo 2014, IEEE TCST): a binary delta(k) flags import, and six rows
per step pin phi(k) to phi_p[k] u(k) while importing and to
phi_s[k] u(k) while exporting.  `mgridopt.model.build_grid_block`
states the same expense, max(phi_p u, phi_s u) under the price order,
as two epigraph rows with no binary; the tests check the two agree.
"""

from __future__ import annotations

import numpy as np

from mgridopt.model import (EPSILON, GridParams, LocalBlock, _check_horizon,
                            _nonempty, _RowBuilder)


def big_m(p: GridParams, K: int) -> float:
    prices = [max(p.phi_p[k], p.phi_s[k]) for k in range(K)]
    return p.P_max * max(prices)


def grid_e_matrices(p: GridParams, k: int, K: int):
    """Six-row switch coefficients tying (delta, phi) to u at step k."""
    M = big_m(p, K)
    E1 = np.array([p.P_max, -(p.P_max + EPSILON), M, M, -M, -M])
    E2 = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0])
    E3 = np.array([1.0, -1.0, p.phi_p[k], -p.phi_p[k], p.phi_s[k], -p.phi_s[k]])
    E4 = np.array([p.P_max, -EPSILON, M, M, 0.0, 0.0])
    return E1, E2, E3, E4


def big_m_grid_block(p: GridParams, K: int) -> LocalBlock:
    """Grid connection: import/export switch with price-dependent expense."""
    _check_horizon(K)
    p.validate(K)
    idx = {}
    pos = 0
    for name in ("u", "phi", "delta"):
        for k in range(K):
            idx[f"{name}({k})"] = pos
            pos += 1
    n = pos
    M = big_m(p, K)
    b = _RowBuilder(n)
    for k in range(K):
        uk, fk, dk = idx[f"u({k})"], idx[f"phi({k})"], idx[f"delta({k})"]
        E1, E2, E3, E4 = grid_e_matrices(p, k, K)
        for r in range(6):
            b.add({dk: E1[r], fk: E2[r], uk: -E3[r]}, E4[r])
        b.bound(uk, -p.P_max, p.P_max)
        b.bound(fk, -M, M)
        b.bound(dk, 0.0, 1.0)
    G, g, lo, hi = b.matrices()
    c = np.zeros(n)
    A = np.zeros((K, n))
    mask = np.zeros(n, dtype=bool)
    for k in range(K):
        c[idx[f"phi({k})"]] = 1.0
        A[k, idx[f"u({k})"]] = -1.0
        mask[idx[f"delta({k})"]] = True
    return _nonempty(LocalBlock(c=c, G=G, g=g, integrality=mask, A=A,
                                var_index=idx, kind="grid", lo=lo, hi=hi))
