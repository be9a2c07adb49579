"""Per-unit mixed-integer building blocks and the coupled balance form.

Each microgrid unit (storage, generator, controllable load, grid
connection) is translated into a LocalBlock: a compact polyhedron
G x <= g, lo <= x <= hi with an integrality mask, a linear cost c, and
a K-row coupling matrix A whose k-th row evaluates the unit's signed
power injection at step k.  Boxes (state of charge, every unit's
power limits, the generator's 0 <= u <= u_max among them, and
0 <= delta <= 1) are variable bounds, and any row a builder writes with
a single nonzero tightens them as it is added, so G holds only rows
touching two or more variables.  Every column A touches has finite
bounds, which the recourse cap reads without solving an LP.  Only the
storage (charge/discharge) and the generator (on/off) have binaries, in
big-M switch rows driven by the strict positivity constant EPSILON; the
grid's expense max(phi_p u, phi_s u) is convex and needs no switch.

Sign conventions: storage power u >= 0 while charging (it consumes),
generator and grid power enter the balance negated (they supply),
curtailment removes -beta*D of demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import (FEASIBILITY, INTEGRALITY, OPTIMAL, LinearProgram,
                     solve_lp)

# strict-positivity constant of the storage switch; machine epsilon
# would make the big-M rows tie-prone
EPSILON = 1e-6


class ParameterError(ValueError):
    """A unit parameter violates its documented bound."""


class DimensionError(ValueError):
    """Profiles or blocks with inconsistent horizon lengths."""


def _require(cond: bool, message: str):
    if not cond:
        raise ParameterError(message)


# --------------------------------------------------------------------------
# parameter records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StorageParams:
    """Battery-style storage unit.

    Energies in kWh, powers in kW, costs in EUR/kW; `x_pl` is the
    physiological loss per step.
    """

    eta_c: float
    eta_d: float
    x_min: float
    x_max: float
    x_pl: float
    C: float
    zeta: float
    x0: float

    def validate(self):
        # 1.0 is admitted so ideal lossless storage stays expressible
        _require(0.0 < self.eta_c <= 1.0,
                 f"eta_c must lie in (0,1], got {self.eta_c}")
        _require(0.0 < self.eta_d <= 1.0,
                 f"eta_d must lie in (0,1], got {self.eta_d}")
        _require(0.0 < self.x_min < self.x_max,
                 f"need 0 < x_min < x_max, got ({self.x_min}, {self.x_max})")
        _require(self.x_pl >= 0.0, f"x_pl must be >= 0, got {self.x_pl}")
        _require(self.C > 0.0, f"C must be > 0, got {self.C}")
        _require(self.zeta >= 0.0, f"zeta must be >= 0, got {self.zeta}")
        _require(self.x_min <= self.x0 <= self.x_max,
                 f"x0 must lie in [x_min, x_max], got {self.x0}")


@dataclass(frozen=True)
class GeneratorParams:
    """Dispatchable generator with commitment logic.

    `cost_segments` holds (slope, intercept) pairs of the piecewise
    linear generation cost; `kappa_u`/`kappa_d` are per-step
    startup/shutdown cost profiles; `delta_init`/`u_init` describe the
    state one step before the horizon begins.
    """

    T_up: int
    T_down: int
    u_min: float
    u_max: float
    r_max: float
    kappa_u: tuple
    kappa_d: tuple
    zeta: float
    cost_segments: tuple  # ((S, s), ...)
    delta_init: int = 0
    u_init: float = 0.0

    def validate(self, K: int | None = None):
        _require(self.T_up >= 1, f"T_up must be >= 1, got {self.T_up}")
        _require(self.T_down >= 1, f"T_down must be >= 1, got {self.T_down}")
        _require(0.0 <= self.u_min <= self.u_max,
                 f"need 0 <= u_min <= u_max, got ({self.u_min}, {self.u_max})")
        _require(self.r_max >= 0.0, f"r_max must be >= 0, got {self.r_max}")
        _require(self.zeta >= 0.0, f"zeta must be >= 0, got {self.zeta}")
        _require(len(self.cost_segments) >= 1, "need at least one cost segment")
        _require(all(k > 0 for k in self.kappa_u), "kappa_u entries must be > 0")
        _require(all(k > 0 for k in self.kappa_d), "kappa_d entries must be > 0")
        _require(self.delta_init in (0, 1),
                 f"delta_init must be 0 or 1, got {self.delta_init}")
        _require((self.u_init > 0) == (self.delta_init == 1),
                 "initial state inconsistent: u_init > 0 iff delta_init = 1")
        _require(self.u_init <= self.u_max + 1e-12,
                 f"u_init must not exceed u_max, got {self.u_init}")
        if K is not None:
            _require(len(self.kappa_u) >= K and len(self.kappa_d) >= K,
                     "startup/shutdown cost profiles shorter than horizon")


@dataclass(frozen=True)
class ControllableLoadParams:
    beta_min: float
    beta_max: float
    D: tuple  # demand forecast per step, kW
    varphi: float  # curtailment penalty, EUR per kWh shed

    def validate(self, K: int | None = None):
        _require(0.0 <= self.beta_min <= self.beta_max <= 1.0,
                 f"need 0 <= beta_min <= beta_max <= 1, got "
                 f"({self.beta_min}, {self.beta_max})")
        _require(all(d >= 0 for d in self.D), "demand forecast must be >= 0")
        _require(self.varphi > 0.0, f"varphi must be > 0, got {self.varphi}")
        if K is not None:
            _require(len(self.D) >= K, "demand forecast shorter than horizon")


@dataclass(frozen=True)
class GridParams:
    """Single connection to the utility grid with asymmetric prices; the
    sell price never exceeds the purchase price."""

    P_max: float
    phi_p: tuple  # purchase price per step, EUR/kWh
    phi_s: tuple  # sell price per step, EUR/kWh, <= phi_p

    def validate(self, K: int | None = None):
        _require(self.P_max >= 0.0, f"P_max must be >= 0, got {self.P_max}")
        _require(all(p >= 0 for p in self.phi_p), "purchase prices must be >= 0")
        _require(all(p >= 0 for p in self.phi_s), "sell prices must be >= 0")
        for k, (buy, sell) in enumerate(zip(self.phi_p, self.phi_s)):
            _require(sell <= buy,
                     f"sell price exceeds purchase price at step {k}")
        if K is not None:
            _require(len(self.phi_p) >= K and len(self.phi_s) >= K,
                     "price profiles shorter than horizon")


# --------------------------------------------------------------------------
# the block itself
# --------------------------------------------------------------------------


@dataclass
class LocalBlock:
    """One agent's share of the coupled problem: min c'x over
    G x <= g, lo <= x <= hi with x[integrality] integer, coupled
    through the K x n matrix A (K, the horizon, is A.shape[0]).

    `lo`/`hi` default to the unbounded box; the columns A touches need
    finite bounds (see `dialgo.recourse_cap`).  A non-finite entry of
    c, G, g or A, or a nan bound, raises ParameterError.  `var_index`
    maps names like "u(3)" to column positions, which keeps tests and
    reports readable.
    """

    c: np.ndarray
    G: np.ndarray
    g: np.ndarray
    integrality: np.ndarray
    A: np.ndarray
    var_index: dict
    kind: str = "generic"
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        if self.lo is None:
            self.lo = np.full(self.n, -np.inf)
        if self.hi is None:
            self.hi = np.full(self.n, np.inf)
        for name in ("c", "G", "g", "A"):
            _require(np.isfinite(getattr(self, name)).all(),
                     f"{self.kind} block: {name} holds a non-finite entry")
        for name in ("lo", "hi"):
            _require(not np.isnan(getattr(self, name)).any(),
                     f"{self.kind} block: {name} holds a nan")

    @property
    def n(self) -> int:
        return self.c.size

    def value_of(self, x: np.ndarray, name: str) -> float:
        return float(x[self.var_index[name]])

    def is_integral(self, x: np.ndarray) -> bool:
        """Every integer column of x within INTEGRALITY of an integer,
        the distance at which branch-and-bound accepts a node."""
        ints = x[self.integrality]
        return bool(np.all(np.abs(ints - np.round(ints)) <= INTEGRALITY))

    def contains(self, x: np.ndarray) -> bool:
        if (np.any(x < self.lo - FEASIBILITY)
                or np.any(x > self.hi + FEASIBILITY)):
            return False
        if self.G.size and np.any(self.G @ x > self.g + FEASIBILITY):
            return False
        return self.is_integral(x)

    def relaxation_lp(self, c: np.ndarray) -> LinearProgram:
        """min c'x over the relaxed block."""
        return LinearProgram(c, self.G, self.g, self.lo, self.hi)

    @classmethod
    def empty(cls, K: int) -> "LocalBlock":
        """Block of a critical load: no decision variables."""
        return cls(c=np.zeros(0), G=np.zeros((0, 0)), g=np.zeros(0),
                   integrality=np.zeros(0, dtype=bool), A=np.zeros((K, 0)),
                   var_index={}, kind="critical_load")


class _RowBuilder:
    """Rows G x <= g and bounds lo <= x <= hi of one block.

    A row with a single nonzero a x_j <= r is not stored: it tightens
    hi_j to r / a (a > 0) or lo_j to r / a (a < 0) as it is added.
    """

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.rhs = []
        self.lo = np.full(n, -np.inf)
        self.hi = np.full(n, np.inf)

    def add(self, coeffs: dict, rhs: float):
        row = np.zeros(self.n)
        for j, v in coeffs.items():
            row[j] += v
        nz = np.flatnonzero(row)
        if nz.size == 1:
            j = int(nz[0])
            a = row[j]
            if a > 0:
                self.hi[j] = min(self.hi[j], float(rhs) / a)
            else:
                self.lo[j] = max(self.lo[j], float(rhs) / a)
            return
        self.rows.append(row)
        self.rhs.append(float(rhs))

    def add_equality(self, coeffs: dict, rhs: float):
        self.add(coeffs, rhs)
        self.add({j: -v for j, v in coeffs.items()}, -rhs)

    def bound(self, j: int, lo: float, hi: float):
        """Intersect column j's bounds with [lo, hi]."""
        self.lo[j] = max(self.lo[j], lo)
        self.hi[j] = min(self.hi[j], hi)

    def matrices(self):
        return np.array(self.rows).reshape(len(self.rows), self.n), \
            np.array(self.rhs), self.lo, self.hi


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def storage_e_matrices(C: float, epsilon: float):
    """Six-row switch coefficients tying (delta, z) to u for a storage."""
    E1 = np.array([C, -(C + epsilon), C, C, -C, -C])
    E2 = np.array([0.0, 0.0, 1.0, -1.0, 1.0, -1.0])
    E3 = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0])
    E4 = np.array([C, -epsilon, C, C, 0.0, 0.0])
    return E1, E2, E3, E4


def _check_horizon(K):
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise DimensionError(f"horizon K must be an integer >= 1, got {K}")


def _nonempty(blk: LocalBlock) -> LocalBlock:
    """`blk`, once a zero-cost LP has found a point of its relaxation."""
    if solve_lp(blk.relaxation_lp(np.zeros(blk.n))).status != OPTIMAL:
        raise ParameterError(f"{blk.kind} block polyhedron is empty")
    return blk


def build_storage_block(p: StorageParams, K: int) -> LocalBlock:
    """Storage unit block.

    Variables: x(0..K) state of charge, u(0..K-1) exchanged power,
    z(0..K-1) = delta*u auxiliary, delta(0..K-1) charging flag.
    """
    _check_horizon(K)
    p.validate()
    idx = {}
    pos = 0
    for k in range(K + 1):
        idx[f"x({k})"] = pos
        pos += 1
    for name in ("u", "z", "delta"):
        for k in range(K):
            idx[f"{name}({k})"] = pos
            pos += 1
    n = pos
    b = _RowBuilder(n)
    E1, E2, E3, E4 = storage_e_matrices(p.C, EPSILON)
    slope_z = p.eta_c - 1.0 / p.eta_d
    slope_u = 1.0 / p.eta_d
    for k in range(K):
        xk, xk1 = idx[f"x({k})"], idx[f"x({k + 1})"]
        uk, zk, dk = idx[f"u({k})"], idx[f"z({k})"], idx[f"delta({k})"]
        b.add_equality({xk1: 1.0, xk: -1.0, zk: -slope_z, uk: -slope_u},
                       -p.x_pl)
        for r in range(6):
            b.add({dk: E1[r], zk: E2[r], uk: -E3[r]}, E4[r])
    for k in range(1, K + 1):
        b.bound(idx[f"x({k})"], p.x_min, p.x_max)
    b.add_equality({idx["x(0)"]: 1.0}, p.x0)
    for k in range(K):
        b.bound(idx[f"u({k})"], -p.C, p.C)
        b.bound(idx[f"z({k})"], -p.C, p.C)
        b.bound(idx[f"delta({k})"], 0.0, 1.0)
    G, g, lo, hi = b.matrices()
    c = np.zeros(n)
    A = np.zeros((K, n))
    mask = np.zeros(n, dtype=bool)
    for k in range(K):
        c[idx[f"z({k})"]] = 2.0 * p.zeta
        c[idx[f"u({k})"]] = -p.zeta
        A[k, idx[f"u({k})"]] = 1.0
        mask[idx[f"delta({k})"]] = True
    return _nonempty(LocalBlock(c=c, G=G, g=g, integrality=mask, A=A,
                                var_index=idx, kind="storage", lo=lo, hi=hi))


def build_generator_block(p: GeneratorParams, K: int) -> LocalBlock:
    """Generator block with commitment, ramp and epigraph cost rows.

    Variables per step: u power, delta on/off, nu generation-cost
    epigraph, theta_u / theta_d start/stop cost epigraphs.
    """
    _check_horizon(K)
    p.validate(K)
    idx = {}
    pos = 0
    for name in ("u", "delta", "nu", "theta_u", "theta_d"):
        for k in range(K):
            idx[f"{name}({k})"] = pos
            pos += 1
    n = pos
    b = _RowBuilder(n)

    def d(k):
        return idx[f"delta({k})"]

    # minimum up time: a turn-on at k pins delta(tau) = 1 for the next
    # T_up - 1 steps (range truncated at the end of the horizon)
    for k in range(K):
        for tau in range(k + 1, min(k + p.T_up - 1, K - 1) + 1):
            if k == 0:
                b.add({d(0): 1.0, d(tau): -1.0}, float(p.delta_init))
            else:
                b.add({d(k): 1.0, d(k - 1): -1.0, d(tau): -1.0}, 0.0)
    # minimum down time: a turn-off at k keeps delta(tau) = 0
    for k in range(K):
        for tau in range(k + 1, min(k + p.T_down - 1, K - 1) + 1):
            if k == 0:
                b.add({d(0): -1.0, d(tau): 1.0}, 1.0 - p.delta_init)
            else:
                b.add({d(k - 1): 1.0, d(k): -1.0, d(tau): 1.0}, 1.0)
    for k in range(K):
        uk = idx[f"u({k})"]
        b.add({idx[f"delta({k})"]: p.u_min, uk: -1.0}, 0.0)  # power floor
        b.add({uk: 1.0, idx[f"delta({k})"]: -p.u_max}, 0.0)  # power cap
        b.bound(uk, 0.0, p.u_max)  # implied by the rows and 0 <= delta <= 1
        if k == 0:
            b.add({uk: 1.0, d(0): -p.r_max}, p.u_init)
            b.add({uk: -1.0, d(0): -p.r_max}, -p.u_init)
        else:
            up = idx[f"u({k - 1})"]
            b.add({uk: 1.0, up: -1.0, d(k): -p.r_max}, 0.0)
            b.add({uk: -1.0, up: 1.0, d(k): -p.r_max}, 0.0)
    seg = [(float(S), float(s)) for S, s in p.cost_segments]
    nu_ub = max(max(s, S * p.u_max + s) for S, s in seg)
    for k in range(K):
        uk, nk = idx[f"u({k})"], idx[f"nu({k})"]
        tu, td = idx[f"theta_u({k})"], idx[f"theta_d({k})"]
        for S, s in seg:
            b.add({uk: S, nk: -1.0}, -s)
        if k == 0:
            b.add({d(0): p.kappa_u[0], tu: -1.0}, p.kappa_u[0] * p.delta_init)
            b.add({d(0): -p.kappa_d[0], td: -1.0}, -p.kappa_d[0] * p.delta_init)
        else:
            b.add({d(k): p.kappa_u[k], d(k - 1): -p.kappa_u[k], tu: -1.0}, 0.0)
            b.add({d(k - 1): p.kappa_d[k], d(k): -p.kappa_d[k], td: -1.0}, 0.0)
        b.add({tu: -1.0}, 0.0)
        b.add({td: -1.0}, 0.0)
        # explicit caps keep the polyhedron compact; the epigraph rows
        # only bound these variables from below
        b.add({nk: 1.0}, nu_ub)
        b.add({tu: 1.0}, p.kappa_u[k])
        b.add({td: 1.0}, p.kappa_d[k])
        b.bound(idx[f"delta({k})"], 0.0, 1.0)
    G, g, lo, hi = b.matrices()
    c = np.zeros(n)
    A = np.zeros((K, n))
    mask = np.zeros(n, dtype=bool)
    for k in range(K):
        c[idx[f"nu({k})"]] = 1.0
        c[idx[f"theta_u({k})"]] = 1.0
        c[idx[f"theta_d({k})"]] = 1.0
        c[idx[f"delta({k})"]] = p.zeta
        A[k, idx[f"u({k})"]] = -1.0
        mask[idx[f"delta({k})"]] = True
    return _nonempty(LocalBlock(c=c, G=G, g=g, integrality=mask, A=A,
                                var_index=idx, kind="generator", lo=lo, hi=hi))


def quadratic_cost_segments(a: float, b: float, u_min: float, u_max: float,
                            n_segments: int = 3):
    """Secant linearization of a*u^2 + b*u over [u_min, u_max]."""
    _require(a >= 0.0, f"quadratic coefficient must be >= 0, got {a}")
    _require(n_segments >= 1, "need at least one segment")
    _require(u_max > u_min, "u_max must exceed u_min")
    pts = np.linspace(u_min, u_max, n_segments + 1)
    out = []
    # a u^2 beyond the float range leaves a segment non-finite, which
    # the block built on it refuses
    with np.errstate(over="ignore", invalid="ignore"):
        f = a * pts ** 2 + b * pts
        for i in range(n_segments):
            S = (f[i + 1] - f[i]) / (pts[i + 1] - pts[i])
            s = f[i] - S * pts[i]
            out.append((float(S), float(s)))
    return tuple(out)


def build_controllable_load_block(p: ControllableLoadParams, K: int) -> LocalBlock:
    """Curtailable load: box on the curtailment factor, no integers."""
    _check_horizon(K)
    p.validate(K)
    idx = {f"beta({k})": k for k in range(K)}
    b = _RowBuilder(K)
    for k in range(K):
        b.bound(k, p.beta_min, p.beta_max)
    G, g, lo, hi = b.matrices()
    c = np.array([p.varphi * p.D[k] for k in range(K)])
    A = np.zeros((K, K))
    for k in range(K):
        A[k, k] = -p.D[k]
    return _nonempty(LocalBlock(c=c, G=G, g=g,
                                integrality=np.zeros(K, dtype=bool), A=A,
                                var_index=idx, kind="controllable_load",
                                lo=lo, hi=hi))


def build_grid_block(p: GridParams, K: int) -> LocalBlock:
    """Grid connection, no integer columns: exchanged power u(k) = x[k]
    (> 0 imports) and its expense phi(k) = x[K + k], held above
    phi_p[k] u and phi_s[k] u by two rows and pushed down onto their
    maximum by its cost; |u| <= P_max, -phi_s P_max <= phi <= phi_p P_max.
    """
    _check_horizon(K)
    p.validate(K)
    idx = {f"{name}({k})": j * K + k
           for j, name in enumerate(("u", "phi")) for k in range(K)}
    b = _RowBuilder(2 * K)
    A = np.zeros((K, 2 * K))
    for k in range(K):
        b.add({k: p.phi_p[k], K + k: -1.0}, 0.0)
        b.add({k: p.phi_s[k], K + k: -1.0}, 0.0)
        b.bound(k, -p.P_max, p.P_max)
        b.bound(K + k, -p.phi_s[k] * p.P_max, p.phi_p[k] * p.P_max)
        A[k, k] = -1.0
    G, g, lo, hi = b.matrices()
    return _nonempty(LocalBlock(
        c=np.repeat([0.0, 1.0], K), G=G, g=g,
        integrality=np.zeros(2 * K, dtype=bool), A=A, var_index=idx,
        kind="grid", lo=lo, hi=hi))


# --------------------------------------------------------------------------
# balance right-hand side
# --------------------------------------------------------------------------


def power_balance_rhs(renewables, controllable_demands, critical_demands,
                      K: int) -> np.ndarray:
    """Exogenous side of the power balance over K steps.

    b(k) = -sum controllable forecasts - sum critical forecasts
           + sum renewable outputs, all at step k.
    """
    for v in (*renewables, *controllable_demands, *critical_demands):
        v = np.asarray(v, dtype=float).ravel()
        if v.size != K:
            raise DimensionError(
                f"profile length {v.size} does not match horizon {K}")
    b = np.zeros(K)
    for v in renewables:
        b += np.asarray(v, dtype=float)
    for v in controllable_demands:
        b -= np.asarray(v, dtype=float)
    for v in critical_demands:
        b -= np.asarray(v, dtype=float)
    return b
