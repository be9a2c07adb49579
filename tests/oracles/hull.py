"""Exact convex-hull tooling for small mixed-integer blocks.

No run calls it; the tests use it to decide whether a block's
continuous relaxation already equals the convex hull of its
mixed-integer set (the hypothesis under which the violation
certificate is provably valid), to quantify the relaxation gap on
blocks where it does not, and to check that built blocks are compact
(`coordinate_box`).  Everything else here is exponential in the binary
count and meant for blocks with at most a handful of binaries.
"""

from __future__ import annotations

import itertools

import numpy as np

from mgridopt.model import DimensionError, LocalBlock
from mgridopt.solver import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp


def coordinate_box(block: LocalBlock):
    """(lo, hi): min and max of every coordinate over the relaxed block.

    Two LPs per column, coupled or not; the builders' blocks are
    compact, so every entry is finite.  Raises DimensionError when the
    polyhedron is empty or a coordinate is unbounded.
    """
    if np.any(block.lo > block.hi):
        raise DimensionError(f"{block.kind} block polyhedron is empty")
    lo, hi = np.zeros(block.n), np.zeros(block.n)
    for j, e in enumerate(np.eye(block.n)):
        smin = solve_lp(block.relaxation_lp(e))
        smax = solve_lp(block.relaxation_lp(-e))
        if INFEASIBLE in (smin.status, smax.status):
            raise DimensionError(f"{block.kind} block polyhedron is empty")
        if smin.status != OPTIMAL or smax.status != OPTIMAL:
            raise DimensionError(
                f"{block.kind} block coordinate {j} is unbounded")
        lo[j], hi[j] = smin.value, -smax.value
    return lo, hi


def box_recourse_cap(blocks, scen) -> float:
    """`dialgo.recourse_cap` from the full coordinate boxes:
    2 * (b_max + sum_i max(|A_i| @ max(|lo_i|, |hi_i|)))."""
    b_max = max(float(np.max(np.abs(b))) for b in scen.b_r)
    mass = 0.0
    for blk in blocks:
        lo, hi = coordinate_box(blk)
        mass += float(np.max(np.abs(blk.A) @ np.maximum(np.abs(lo),
                                                        np.abs(hi))))
    return 2.0 * (b_max + mass)


def enumerate_vertices(G, g, tol: float = 1e-7):
    """All vertices of the polytope {x : G x <= g} by active-set search.

    Exponential in the variable count; callers keep n small.  The
    polytope must be bounded (true for every built block).
    """
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    m, n = G.shape
    if n == 0:
        return [np.zeros(0)] if np.all(g >= -tol) else []
    verts = []
    seen = set()
    for combo in itertools.combinations(range(m), n):
        A = G[list(combo)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, g[list(combo)])
        if np.all(G @ x <= g + tol):
            key = tuple(np.round(x, 9))
            if key not in seen:
                seen.add(key)
                verts.append(x)
    return verts


def _bounded_rows(block: LocalBlock):
    """(G, g) of the block's relaxed polytope: its rows followed by its
    finite bounds, x_j <= hi_j then -x_j <= -lo_j."""
    eye = np.eye(block.n)
    up, dn = np.isfinite(block.hi), np.isfinite(block.lo)
    return (np.vstack([block.G, eye[up], -eye[dn]]),
            np.concatenate([block.g, block.hi[up], -block.lo[dn]]))


def relaxation_equals_hull(block: LocalBlock, tol: float = 1e-6) -> bool:
    """True iff every vertex of the relaxed polytope is integer-feasible.

    Exact: a fractional vertex is extreme in the relaxation but cannot
    lie in the hull of the integer-feasible set, and conversely all
    vertices integral means the two sets coincide.
    """
    if not np.any(block.integrality):
        return True
    mask = block.integrality
    for v in enumerate_vertices(*_bounded_rows(block)):
        ints = v[mask]
        if np.any(np.abs(ints - np.round(ints)) > tol):
            return False
    return True


def feasible_binary_assignments(block: LocalBlock):
    """Binary patterns whose continuous slice of the block is nonempty."""
    idx = np.flatnonzero(block.integrality)
    out = []
    for combo in itertools.product((0.0, 1.0), repeat=idx.size):
        lo, hi = block.lo.copy(), block.hi.copy()
        lo[idx] = np.maximum(lo[idx], combo)
        hi[idx] = np.minimum(hi[idx], combo)
        if np.any(lo[idx] > hi[idx]):
            continue  # the pin leaves the block's box
        sol = solve_lp(LinearProgram(np.zeros(block.n), block.G, block.g,
                                     lo, hi))
        if sol.status == OPTIMAL:
            out.append(np.array(combo))
    return idx, out


def hull_lp(block: LocalBlock, c=None):
    """Disjunctive (lifted) formulation of min c'x over conv of the
    block's mixed-integer set.

    One scaled copy of the continuous slice per feasible binary
    assignment, tied together by convex weights; its optimal value is
    exactly the hull optimum, which lower-bounds nothing and
    upper-bounds the plain relaxation value.
    """
    cost = block.c if c is None else np.asarray(c, dtype=float)
    idx, assigns = feasible_binary_assignments(block)
    if not assigns:
        raise ValueError("block has no integer-feasible point")
    B = len(assigns)
    n = block.n
    m = block.G.shape[0]
    # columns: [w_0 .. w_{B-1} | lambda], each w_b of width n
    N = B * n + B
    G_rows = []
    g_rows = []
    for b, pattern in enumerate(assigns):
        lam = B * n + b
        for i in range(m):
            row = np.zeros(N)
            row[b * n:(b + 1) * n] = block.G[i]
            row[lam] = -block.g[i]
            G_rows.append(row)
            g_rows.append(0.0)
        # inside copy b the binary coordinates equal lambda_b * pattern
        for t, j in enumerate(idx):
            row = np.zeros(N)
            row[b * n + j] = 1.0
            row[lam] = -pattern[t]
            G_rows.append(row)
            g_rows.append(0.0)
            G_rows.append(-row)
            g_rows.append(0.0)
    row = np.zeros(N)
    row[B * n:] = 1.0
    G_rows.append(row)
    g_rows.append(1.0)
    G_rows.append(-row)
    g_rows.append(-1.0)
    cN = np.zeros(N)
    for b in range(B):
        cN[b * n:(b + 1) * n] = cost
    lo = np.full(N, -np.inf)
    lo[B * n:] = 0.0
    hi = np.full(N, np.inf)
    hi[B * n:] = 1.0
    # scaled copies need box bounds per copy or the scaled rows alone can
    # leave w_b unbounded when lambda_b = 0; bound via the block's box
    blo, bhi = coordinate_box(block)
    for b in range(B):
        lam = B * n + b
        for j in range(n):
            row = np.zeros(N)
            row[b * n + j] = 1.0
            row[lam] = -bhi[j]
            G_rows.append(row)
            g_rows.append(0.0)
            row = np.zeros(N)
            row[b * n + j] = -1.0
            row[lam] = blo[j]
            G_rows.append(row)
            g_rows.append(0.0)
    return LinearProgram(cN, np.array(G_rows), np.array(g_rows), lo, hi)


def hull_optimum(block: LocalBlock, c=None) -> float:
    sol = solve_lp(hull_lp(block, c))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"hull LP ended {sol.status}")
    return sol.value


def slice_vertices(block: LocalBlock, pattern) -> list:
    """Vertices of the block's continuous slice at a fixed binary pattern,
    lifted back to full coordinates."""
    idx = np.flatnonzero(block.integrality)
    cont = np.flatnonzero(~block.integrality)
    pattern = np.asarray(pattern, dtype=float)
    G, g = _bounded_rows(block)
    if cont.size == 0:
        x = np.zeros(block.n)
        x[idx] = pattern
        ok = G.size == 0 or np.all(G @ x <= g + 1e-9)
        return [x] if ok else []
    g_adj = g - G[:, idx] @ pattern
    out = []
    for v in enumerate_vertices(G[:, cont], g_adj):
        x = np.zeros(block.n)
        x[cont] = v
        x[idx] = pattern
        out.append(x)
    return out


def integer_vertices(block: LocalBlock) -> np.ndarray:
    """All candidate vertices of the block's mixed-integer hull."""
    idx = np.flatnonzero(block.integrality)
    pts = []
    seen = set()
    for combo in itertools.product((0.0, 1.0), repeat=idx.size):
        for x in slice_vertices(block, combo):
            key = tuple(np.round(x, 9))
            if key not in seen:
                seen.add(key)
                pts.append(x)
    if not pts:
        raise ValueError("block has no integer-feasible point")
    return np.array(pts)


def facets_from_vertices(V: np.ndarray, tol: float = 1e-8):
    """H-representation (G, g) of conv(V), handling flat point sets.

    The affine hull is found by SVD; directions orthogonal to it become
    equality row pairs, facets inside it come from brute-force
    hyperplane search over vertex subsets.  Exponential in the affine
    dimension; fine for the handful of dimensions the small blocks span.
    """
    V = np.asarray(V, dtype=float)
    m, n = V.shape
    c0 = V[0]
    rows = []
    rhs = []
    if m == 1:
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows += [e, -e]
            rhs += [c0[j], -c0[j]]
        return np.array(rows), np.array(rhs)
    D = V - c0
    # affine basis
    _, s, Vt = np.linalg.svd(D, full_matrices=True)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    basis = Vt[:rank].T           # n x d
    normals = Vt[rank:].T         # n x (n - d), orthogonal directions
    for j in range(normals.shape[1]):
        q = normals[:, j]
        rows += [q, -q]
        rhs += [q @ c0, -(q @ c0)]
    W = D @ basis                 # m x d reduced coordinates
    d = rank
    if d == 1:
        w = W[:, 0]
        lo_i, hi_i = int(np.argmin(w)), int(np.argmax(w))
        a = basis[:, 0]
        rows += [a, -a]
        rhs += [a @ V[hi_i], -(a @ V[lo_i])]
        return np.array(rows), np.array(rhs)
    scale = max(1.0, float(np.max(np.abs(W))))
    seen = set()
    for combo in itertools.combinations(range(m), d):
        P = W[list(combo)]
        A = P[1:] - P[0]
        # normal spans the nullspace of the d-1 edge directions
        _, sv, vt = np.linalg.svd(A, full_matrices=True)
        if sv.size and sv.min() < tol * scale:
            continue  # affinely dependent selection
        a = vt[-1]
        b = a @ P[0]
        side = W @ a - b
        if np.all(side <= tol * scale):
            pass
        elif np.all(side >= -tol * scale):
            a, b = -a, -b
        else:
            continue
        key = tuple(np.round(np.append(a / max(abs(b), 1.0),
                                       b / max(abs(b), 1.0)), 7))
        if key in seen:
            continue
        seen.add(key)
        full = basis @ a
        rows.append(full)
        rhs.append(b + full @ c0)
    return np.array(rows), np.array(rhs)


def hull_block(block: LocalBlock) -> LocalBlock:
    """Clone of the block whose rows describe its exact mixed-integer hull.

    Vertices of the cloned polyhedron are integer-feasible points, so
    LP vertices over assemblies of such blocks enjoy the integral-block
    counting property the certificate analysis assumes.  The native
    bounds stay valid for the hull and are kept, so the clone's coupled
    columns have the finite bounds the recourse cap reads.
    """
    V = integer_vertices(block)
    G, g = facets_from_vertices(V)
    return LocalBlock(c=block.c.copy(), G=G, g=g,
                      integrality=block.integrality.copy(),
                      A=block.A.copy(), var_index=dict(block.var_index),
                      kind=block.kind + "_hull",
                      lo=block.lo.copy(), hi=block.hi.copy())
