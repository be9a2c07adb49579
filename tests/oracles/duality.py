"""The dual value of an LP solution, assembled from its row duals."""

from __future__ import annotations

import numpy as np


def dual_objective(lp, sol):
    """Assemble the dual value from row duals and reduced costs.

    The reduced costs c + G'mu come from the row duals, and bound
    multipliers from their sign split, so equality with the primal value
    genuinely certifies the duals.
    """
    r = lp.c + lp.G.T @ sol.duals
    nu_lo = np.maximum(r, 0.0)
    nu_hi = np.maximum(-r, 0.0)
    val = -lp.g @ sol.duals
    finite_lo = np.isfinite(lp.lo)
    finite_hi = np.isfinite(lp.hi)
    val += lp.lo[finite_lo] @ nu_lo[finite_lo]
    val -= lp.hi[finite_hi] @ nu_hi[finite_hi]
    return val
