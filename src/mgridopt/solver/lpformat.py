"""Writer for the CPLEX LP text format.

Lets any LinearProgram be dumped to a file that external solvers
(glpsol, cbc, gurobi, ...) accept, for cross-checking.  Only used by
tests and the `build` CLI verb; nothing in the package reads it back.
"""

from __future__ import annotations

import numpy as np

from .simplex import LinearProgram


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    mag = abs(coef)
    return f"{sign} {mag:.17g} {name} "


def write_lp_format(lp: LinearProgram, path):
    """Write the minimization `lp` in CPLEX LP format; column j is `xj`."""
    n = lp.n
    names = [f"x{j}" for j in range(n)]
    lines = [f"\\ {n} variables, {lp.m} rows", "Minimize", " obj:"]
    body = "   "
    wrote = False
    for j in range(n):
        if lp.c[j] != 0.0:
            body += _term(lp.c[j], names[j], not wrote)
            wrote = True
    if not wrote:
        body += "0 " + (names[0] if n else "x0")
    lines.append(body)
    lines.append("Subject To")
    for i in range(lp.m):
        row = f" r{i}: "
        first = True
        for j in np.flatnonzero(lp.G[i]):
            row += _term(lp.G[i, j], names[j], first)
            first = False
        if first:
            row += "0 " + (names[0] if n else "x0")
        row += f"<= {lp.g[i]:.17g}"
        lines.append(row)
    lines.append("Bounds")
    for j in range(n):
        lo, hi = lp.lo[j], lp.hi[j]
        if lo == hi:
            lines.append(f" {names[j]} = {lo:.17g}")
        else:
            left = f"{lo:.17g}" if np.isfinite(lo) else "-inf"
            right = f"{hi:.17g}" if np.isfinite(hi) else "+inf"
            lines.append(f" {left} <= {names[j]} <= {right}")
    if lp.integrality is not None and np.any(lp.integrality):
        idx = np.flatnonzero(lp.integrality)
        binary = [int(j) for j in idx if lp.lo[j] >= 0 and lp.hi[j] <= 1]
        general = [int(j) for j in idx if j not in set(binary)]
        if binary:
            lines.append("Binaries")
            lines.append(" " + " ".join(names[j] for j in binary))
        if general:
            lines.append("Generals")
            lines.append(" " + " ".join(names[j] for j in general))
    lines.append("End")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
