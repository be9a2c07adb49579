"""Dense bounded-variable simplex with exact basis duals.

Solves   min c'x   s.t.  G x <= g,  lo <= x <= hi
with a revised simplex over the slack-augmented system
[G | I] [x; s] = g, 0 <= s.  Solutions are basic feasible points
(vertices), which downstream integrality-counting arguments rely on;
interior-point methods would not do.

Every solve runs one algorithm: a bounded dual simplex from a dual
feasible basis until the basis is primal feasible, then one primal pass
on the LP's own costs (Koberstein 2005; Bixby 2002).  A warm solve
starts from an earlier solution of the same c and G under other bounds
(a branch-and-bound parent) or another g (the previous round of an
allocation LP): its basis stays dual feasible when only bounds or g
move, so the dual loop restores primal feasibility in a few pivots,
and the primal pass clears any roundoff-level dual infeasibility.  A
warm start's dual loop is the cold one's, with the same pivot budget
and the same rows set aside; a start it cannot use, or one it raises
on, falls back to the cold solve.

A cold solve starts from the slack basis, B^-1 = I, with each
structural column on its finite lower bound, else its finite upper
bound, a fixed one at its value and a free one at zero.  The dual loop
gives a zero price to each column whose cost would move it off that
bound, so the start is dual feasible (the cost-modification dual phase
1 of Koberstein 2005, ch. 4), and the primal pass then prices the LP's
own costs.  The dual loop prices a free column by |alpha| at ratio 0.

A row of the dual loop that no pivot-sized column moves toward its
violated bound proves the LP infeasible, unless the columns that move
it the right way at a smaller rate could together close its gap, rate
times range summed (`_could_close`).  A rate counts only above a
first-order bound on its error, row by row, which the residual of the
row's weights on the basis measures, so a roundoff-level rate on a
column of infinite range, which every slack has, proves nothing.  A
row real rates could close is set aside until the loop's next pivot;
the loop raises SolverError once it has set aside every violated row
or passes the primal pass's pivot budget.

A solve refactors (`np.linalg.inv`) every REFACTOR_EVERY pivots.  A
warm start comes with the basis inverse its solve ended on and the
rank-one updates that inverse carries (`LpSolution.factor`): it adopts
a copy of both in place of a refactorization and reports the inverse
it pivoted to with the count continued, so a chain of warm solves, the
rounds of an allocation LP or a path down a branch-and-bound tree,
refactors on the pivot budget, not once per solve (Koberstein 2005).
Such a start goes cold before any dual pivot when it has more
primal-infeasible basic rows than the slack start violates rows:
after a long allocation step such a start tends to take more dual
pivots than the cold solve takes in all.  A start without a factor
inverts its basis, meets no such rule, and, as a cold solve does,
refactors once more before it reports.

A solve given a finite cutoff (a branch-and-bound node, which passes
its incumbent less the pruning gap) stops once its optimum is known to
reach it and reports CUTOFF with its pivot count alone.  Before each
dual pivot it reads c'x of the current basis, the dual bound: the basis
is dual feasible, so that value bounds the optimum from below and only
rises as the dual loop pivots.  A cold solve that zeroed a price reads
no such bound, which would bound only the optimum under those prices,
and the primal pass reads none, since there c'x falls toward the
optimum.  A solve that reaches its optimum compares the value it would
report before the refactorization that precedes the report, and skips
that refactorization when cut, on the warm path or the cold one.

Pivoting is deterministic: the primal prices by most-negative reduced
cost with lowest-index tie-breaking, switching to Bland's rule after
10 * (row count) degenerate steps so termination is guaranteed; the
dual leaves on the largest bound violation (lowest position on ties)
and enters by a Harris ratio test, ties to the largest pivot element.
Identical inputs therefore produce bitwise-identical outputs.

The kernel's floating-point invariant: the pivot sequence, and every
bit of a solution, depend on each float being computed the same way.
Elementwise expressions (a negation, a product with +-1 or 0 from a
status-indexed sign table, a masked choice between two elementwise
results, a comparison, an elementwise maximum) give the same bits
however they are arranged, so they are free to restructure; the only
difference they may make is the sign of a zero that a comparison
cannot see.  Products and reductions are not: BLAS may change its
summation order with an operand's shape, stride or contiguity, so
every matmul (`c[basis] @ Binv`, `y @ A`, `Binv @ A[:, j]`, the
strided column included, `Binv[r] @ A`, the offset of the nonbasic
columns) keeps its operands, shapes and order, and so do the sums and
the `np.linalg.inv` refactors.  A cold start's basis inverse, the
identity, is `np.linalg.inv`'s bit for bit.  So a solve that starts
cold, or warm from a basis without a factor, reports bits that depend
only on its LP and its start.  A kept inverse carries the rank-one
updates of the solves that pivoted it, so a warm chain's bits depend
on the chain since its last refactorization; they agree with a
refactor's to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
CUTOFF = "cutoff"  # the optimum is at or above the solve's cutoff

# nonbasic statuses; basic columns are tracked via the basis array
_AT_LO = 0
_AT_HI = 1
_FREE = 2
_BASIC = 3
_FIXED = 4

PIVOT_TOL = 1e-10     # smallest pivot element and nondegenerate step
FEASIBILITY = 1e-7    # bound violation taken as 0, and a gap closed
REDUCED_COST = 1e-9   # pricing optimality threshold; Harris ratio slack
REFACTOR_EVERY = 60   # pivots between fresh basis inversions

# indexed by status: the direction a nonbasic column steps off its
# bound, and its negation, which the primal prices with; 0 for basic and
# fixed columns, which do not step, and for free ones, which step either
# way and are priced apart
_MOVE = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
_PRICE = -_MOVE

_COLD = "cold"  # a warm start the dual loop cannot use


class SolverError(Exception):
    """Raised when the pivot loop cannot make progress (numerical failure)."""


@dataclass
class LinearProgram:
    """min c'x s.t. G x <= g, lo <= x <= hi.

    Bounds may be +-inf, but a finite optimum is expected (a local
    problem's feasible set is unbounded only in eta, which its cost
    d > 0 prices, so unboundedness is reported only defensively).
    """

    c: np.ndarray
    G: np.ndarray
    g: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    integrality: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.g = np.asarray(self.g, dtype=float).ravel()
        if self.c.size:
            self.G = np.asarray(self.G, dtype=float).reshape(-1, self.c.size)
        else:
            self.G = np.zeros((self.g.size, 0))
        self.lo = np.asarray(self.lo, dtype=float).ravel()
        self.hi = np.asarray(self.hi, dtype=float).ravel()
        n = self.c.size
        if self.lo.size != n or self.hi.size != n:
            raise ValueError("bound vectors do not match variable count")
        if self.G.shape[0] != self.g.size:
            raise ValueError("row count of G does not match g")
        if np.any(self.lo > self.hi + 1e-12):
            raise ValueError("lower bound exceeds upper bound")
        if self.integrality is not None:
            self.integrality = np.asarray(self.integrality, dtype=bool).ravel()
            if self.integrality.size != n:
                raise ValueError("integrality mask does not match variable count")

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.g.size


@dataclass(frozen=True)
class Factor:
    """A basis inverse and the rank-one updates it has taken since
    `np.linalg.inv` last computed it (0 for a fresh one)."""

    inverse: np.ndarray
    updates: int


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    value: float = np.nan
    duals: np.ndarray | None = None  # >= 0, one per row of G
    pivots: int = 0
    # (basic columns, statuses of the [x | s] columns)
    basis: tuple[np.ndarray, np.ndarray] | None = None
    # the inverse of the basis matrix of `basis`, with its update count;
    # a solve that starts from this solution adopts it
    factor: Factor | None = field(default=None, repr=False)


def solve_lp(lp: LinearProgram, start: LpSolution | None = None,
             cutoff: float = math.inf) -> LpSolution:
    """Solve the LP to a vertex, returning a dual for every row; an
    integrality mask is ignored, so a MILP gives its relaxation.

    The returned multipliers satisfy mu >= 0 and complementary
    slackness; -mu is a subgradient of the optimal value with respect
    to g (used by the allocation update).

    Without a `start` the dual loop starts cold, from the slack basis.
    `start` is an earlier solution of an LP with the same c and G,
    under other bounds or another g; the dual loop then begins from its
    `basis`.  A start with a `factor` adopts a copy of its inverse and
    update count in place of a refactorization, does not refactor
    before it reports, and goes cold, before any dual pivot, when more
    of its basic rows are primal infeasible than the slack start
    violates rows.  A start whose factor is None inverts its basis and
    refactors before it reports.  Any start goes cold when a nonbasic
    column rests on an infinite bound or is free, its basis is
    singular, or its dual loop raises SolverError, as a cold solve's
    would; the returned pivot count includes the abandoned warm
    pivots.

    A finite `cutoff` returns status CUTOFF, with only `pivots` set,
    when the dual bound before a dual pivot (c'x at its basis, read
    only while no price is zeroed) or the value the solve would report
    reaches it; the check comes before the refactorization the report
    would take.  A solve whose optimum lies below the cutoff returns
    bit for bit what it returns without one.

    Raises SolverError when a pivot loop fails or passes its budget,
    and when a cold solve's dual loop has set aside every violated row:
    no column moves one by a pivot-sized rate, yet columns with smaller
    rates could close each, each by its rate times its range.  For the
    row's weights v (+-1 on the row), a rate u A_j, u = v B^-1, counts
    only above the first-order bound on its error (|r| + (m+1) eps
    (|u| |B| + |v|)) |B^-1| |A_j| + (m+1) eps |u| |A_j|, with the
    residual r = u B - v.
    """
    return _Simplex(lp, cutoff).run(start)


class _Simplex:
    """Engine for one solve: build, then call run() once."""

    def __init__(self, lp: LinearProgram, cutoff: float):
        self.lp = lp
        self.cutoff = cutoff
        n, m = lp.n, lp.m
        self.n = n
        self.m = m
        self.limit = 200 * (m + n) + 2000  # pivots of a pivot loop
        # columns: [structural | slack]
        self.A = np.concatenate([lp.G, np.eye(m)], axis=1) if n else np.eye(m)
        self.lo = np.concatenate([lp.lo, np.zeros(m)])
        self.hi = np.concatenate([lp.hi, np.full(m, np.inf)])
        self.c = np.concatenate([lp.c, np.zeros(m)])
        # the cold start: a structural column rests on its finite bound,
        # a fixed one on its value, a free one at zero; slacks are basic
        fixed, fin_lo, fin_hi = lp.lo == lp.hi, np.isfinite(lp.lo), \
            np.isfinite(lp.hi)
        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(
            fixed, _FIXED,
            np.where(fin_lo, _AT_LO, np.where(fin_hi, _AT_HI, _FREE)))
        self.xn = np.zeros(n + m)  # values of nonbasic columns
        self.xn[:n] = np.where(fixed | fin_lo, lp.lo,
                               np.where(fin_hi, lp.hi, 0.0))
        self.rest = self.status, self.xn
        # the slack basic values of the cold start
        self.resid = lp.g - self._nonbasic_offset()
        # a free column never leaves the basis once it enters (its ratio
        # is infinite), so no column becomes free during a solve
        self.any_free = not (fin_lo | fin_hi).all()
        self.pivots = 0
        self.degenerate_run = 0
        self.bland = False

    # -- basis bookkeeping -------------------------------------------------

    def _refactor(self, kept: Factor | None = None):
        """Invert the basis matrix, or adopt a copy of its kept inverse
        and update count, and solve for the basic values."""
        if kept is None:
            try:
                self.Binv = np.linalg.inv(self.A[:, self.basis])
            except np.linalg.LinAlgError as e:
                raise SolverError(
                    f"singular basis at pivot {self.pivots}") from e
            self.since_refactor = 0
        else:
            self.Binv = kept.inverse.copy()
            self.since_refactor = kept.updates
        self.xb = self.Binv @ (self.lp.g - self._nonbasic_offset())

    def _nonbasic_offset(self) -> np.ndarray:
        nb = (self.status != _BASIC).nonzero()[0]
        nbv = self.xn[nb]
        nz = nbv != 0.0
        if not nz.any():
            return np.zeros(self.m)
        return self.A[:, nb[nz]] @ nbv[nz]

    # -- main loop ---------------------------------------------------------

    def run(self, start: LpSolution | None = None) -> LpSolution:
        """The dual loop from `start`, or cold when there is none or the
        loop cannot use it, then the primal pass."""
        verdict, refactor = _COLD, True
        if start is not None:
            verdict, refactor = self._warm(start), start.factor is None
        if verdict is _COLD:
            verdict, refactor = self._cold(), True
        if verdict is None and self._iterate():
            verdict = UNBOUNDED
        if verdict is None:
            return self._extract(refactor)
        return LpSolution(status=verdict, pivots=self.pivots)

    def _warm(self, start: LpSolution) -> str | None:
        """The dual loop from the basis of `start`, whose factor, when
        it has one, stands in for the refactorizations and brings the
        start rule (see `solve_lp`): None once primal feasible,
        INFEASIBLE, CUTOFF, or _COLD for a start it cannot use."""
        basis, status = start.basis
        status = status.copy()
        status[(status != _BASIC) & (self.lo == self.hi)] = _FIXED
        xn = np.where(status == _AT_HI, self.hi, self.lo)
        xn[basis] = 0.0
        if ((status == _FREE).any() or not np.isfinite(xn).all()
                or ((status == _FIXED) & (self.lo != self.hi)).any()):
            return _COLD
        self.basis = basis.copy()
        self.status = status
        self.xn = xn
        try:
            self._refactor(start.factor)
            if start.factor is not None:
                lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
                off = np.maximum(lo_b - self.xb, self.xb - hi_b) > FEASIBILITY
                if int(off.sum()) > int((self.resid < 0.0).sum()):
                    return _COLD
            return self._dual(self.c, self.cutoff)
        except SolverError:
            return _COLD

    def _cold(self) -> str | None:
        """The dual loop from the slack basis, B^-1 = I, with a zero
        price on each column whose cost would move it off its resting
        bound: None once primal feasible, INFEASIBLE or CUTOFF."""
        self.basis = np.arange(self.n, self.n + self.m)
        self.status, self.xn = self.rest
        self.Binv = np.eye(self.m)
        self.since_refactor = 0
        self.xb = self.Binv @ self.resid
        zeroed = self._gains(self.c) > 0.0
        # c'x bounds the optimum only while every price is the LP's own
        cutoff = math.inf if zeroed.any() else self.cutoff
        return self._dual(np.where(zeroed, 0.0, self.c), cutoff)

    def _dual(self, c: np.ndarray, cutoff: float) -> str | None:
        """Bounded dual simplex under the costs c, which the basis is
        dual feasible for: None once the basis is primal feasible,
        INFEASIBLE, or CUTOFF once c'x reaches `cutoff`.

        Each pivot takes the basic column farthest outside its bounds
        to the violated bound and enters the nonbasic column of the
        Harris ratio test on that row.  A row no pivot-sized column can
        move proves the LP infeasible, unless `_could_close` finds that
        smaller rates could still close it: the loop then sets the row
        aside until its next pivot.  It raises SolverError once every
        violated row is set aside, or past the primal pass's pivot
        budget, the same from a warm start as from a cold one.
        """
        if not self.m:
            return None
        for _ in range(self.limit):
            lo_b, hi_b = self.lo[self.basis], self.hi[self.basis]
            below, above = lo_b - self.xb, self.xb - hi_b
            viol = np.maximum(below, above)
            r = int(viol.argmax())
            if not viol[r] > FEASIBILITY:
                return None
            # c'x of a dual feasible basis bounds the optimum below
            if (cutoff < math.inf
                    and self.lp.c @ self._structural() >= cutoff):
                return CUTOFF
            st = self.status
            while True:
                to_hi = bool(above[r] > below[r])
                # row r moves by -alpha_j per unit step of column j; mov
                # is |alpha_j| where column j moves the row toward its
                # violated bound, and <= 0 elsewhere
                alpha = self.Binv[r] @ self.A
                mov = alpha * (_MOVE if to_hi else _PRICE)[st]
                if self.any_free:
                    free = st == _FREE
                    mov[free] = np.abs(alpha[free])
                elig = mov > PIVOT_TOL
                if elig.any():
                    break
                if not self._could_close(r, to_hi, float(viol[r])):
                    return INFEASIBLE
                # smaller rates could close row r: set it aside until
                # the next pivot
                viol[r] = -np.inf
                r = int(viol.argmax())
                if not viol[r] > FEASIBILITY:
                    raise SolverError(
                        "no violated row moves by a pivot-sized rate, but "
                        "smaller rates could close each")
            cand = elig.nonzero()[0]
            y = c[self.basis] @ self.Binv
            d = c[cand] - y @ self.A[:, cand]
            # _MOVE is 0 for a free column: it enters at ratio 0
            d = np.maximum(d * _MOVE[st[cand]], 0.0)
            a = mov[cand]
            # Harris: ratios within REDUCED_COST of the smallest tie,
            # and the largest pivot element among them enters
            near = d / a <= ((d + REDUCED_COST) / a).min()
            j = int(cand[near][a[near].argmax()])
            w = self.Binv @ self.A[:, j]
            theta = (self.xb[r] - (hi_b[r] if to_hi else lo_b[r])) / w[r]
            self._pivot(j, 1.0 if theta >= 0.0 else -1.0, w, abs(theta),
                        r, to_hi)
        raise SolverError(f"dual pivot limit exceeded ({self.limit} pivots)")

    def _iterate(self) -> bool:
        """Primal simplex on the LP's own costs until optimal.  Returns
        True if unbounded."""
        c = self.c
        # the ratio test divides every row, eligible or not, and keeps
        # only the quotients of the eligible ones
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for _ in range(self.limit):
                y = c[self.basis] @ self.Binv
                d = c - y @ self.A
                j = self._entering(d)
                if j < 0:
                    return False
                st = self.status[j]
                sigma = 1.0 if (st == _AT_LO
                                or (st == _FREE and d[j] < 0)) else -1.0
                w = self.Binv @ self.A[:, j]
                t, leave_pos, leave_to_hi = self._ratio(j, sigma, w)
                if t is None:
                    return True
                if t <= PIVOT_TOL:
                    self.degenerate_run += 1
                    if (not self.bland
                            and self.degenerate_run > 10 * max(self.m, 1)):
                        self.bland = True
                else:
                    self.degenerate_run = 0
                self._pivot(j, sigma, w, t, leave_pos, leave_to_hi)
        raise SolverError(f"pivot limit exceeded ({self.limit} iterations)")

    def _gains(self, d: np.ndarray) -> np.ndarray:
        # the objective's decrease per unit step off the column's bound;
        # basic and fixed columns cannot step, so their reduced cost
        # (roundoff for a basic one) prices to zero
        viol = np.maximum(d * _PRICE[self.status], 0.0)
        if self.any_free:
            free = self.status == _FREE
            viol[free] = np.abs(d[free])
        return viol

    def _entering(self, d: np.ndarray) -> int:
        viol = self._gains(d)
        best = viol.max()
        if not best > REDUCED_COST:
            return -1
        if self.bland:
            return int((viol > REDUCED_COST).argmax())
        return int((viol >= best - 1e-15 * max(1.0, best)).argmax())

    def _ratio(self, j: int, sigma: float, w: np.ndarray):
        """Min-ratio step for entering column j moving by +sigma.

        Returns (t, leaving basis position or -1 for a bound flip,
        leaving-variable-goes-to-upper flag); t None means unbounded.
        """
        den = sigma * w
        xb, basis = self.xb, self.basis
        # a row whose pivot element is below PIVOT_TOL (or nan) never
        # limits the step; the others move toward the bound den points at
        pivot = np.abs(den)
        steps = np.where(pivot > PIVOT_TOL,
                         np.where(den > 0.0, xb - self.lo[basis],
                                  self.hi[basis] - xb) / pivot,
                         np.inf)
        np.maximum(steps, 0.0, out=steps)  # degenerate roundoff clamp
        t_row = float(steps.min()) if self.m else np.inf
        flip = self.hi[j] - self.lo[j]
        if math.isfinite(flip) and flip < t_row:
            return flip, -1, False
        if not math.isfinite(t_row):
            return None, -1, False
        # ties at the minimum ratio: largest pivot element for stability,
        # lowest basis position to break residual ties; under Bland the
        # lowest variable index, which guarantees finite termination
        near = steps <= t_row * (1.0 + 1e-14) + 1e-15
        if self.bland:
            tied = near.nonzero()[0]
            pos = int(tied[basis[tied].argmin()])
        else:
            pos = int(np.where(near, pivot, -1.0).argmax())
        return float(steps[pos]), pos, bool(den[pos] < 0)

    def _pivot(self, j, sigma, w, t, pos, to_hi):
        self.xb -= (sigma * t) * w
        if pos < 0:
            # bound flip, basis unchanged
            self.status[j] = _AT_HI if self.status[j] == _AT_LO else _AT_LO
            self.xn[j] = self.hi[j] if self.status[j] == _AT_HI else self.lo[j]
        else:
            out = self.basis[pos]
            enter_val = self.xn[j] + sigma * t
            self.basis[pos] = j
            self.status[j] = _BASIC
            if self.lo[out] == self.hi[out]:
                self.status[out] = _FIXED
                self.xn[out] = self.lo[out]
            elif to_hi:
                self.status[out] = _AT_HI
                self.xn[out] = self.hi[out]
            else:
                self.status[out] = _AT_LO
                self.xn[out] = self.lo[out]
            # rank-one update of the basis inverse
            wr = w[pos]
            if abs(wr) < PIVOT_TOL:
                raise SolverError("vanishing pivot element")
            row = self.Binv[pos] / wr
            self.Binv -= w[:, None] * row
            self.Binv[pos] = row
            self.xb[pos] = enter_val
        self.pivots += 1
        self.since_refactor += 1
        if self.since_refactor >= REFACTOR_EVERY:
            self._refactor()

    def _could_close(self, row: int, to_hi: bool, gap: float) -> bool:
        """Whether the nonbasic columns could still close `gap`, by
        which basic row `row` lies above its upper bound (`to_hi`) or
        below its lower one, once no column moves it back by a
        pivot-sized rate: the gap is v'x_B less its bound, v the unit
        vector of the row above the bound and its negation below it.

        Column j lowers v'x_B at the rate u A_j, u = v B^-1, per unit
        step off its bound (a free column steps either way), so together
        the columns lower it by at most the sum of rate times range.  A
        rate counts only above a first-order bound on its error, row by
        row (Higham 2002, 3.1 and 7.2): the computed u misses v B^-1 by
        r B^-1, r = u B - v its residual, which bounds the error of the
        inverse B^-1 carries too, and u A_j adds (m+1) eps |u| |A_j|:
        (|r| + (m+1) eps (|u| |B| + |v|)) |B^-1| |A_j|
        + (m+1) eps |u| |A_j|, with the computed B^-1 for the exact one.
        Below it a rate is noise, which a slack's infinite range would
        turn into any reach.
        """
        v = np.zeros(self.m)
        v[row] = 1.0 if to_hi else -1.0
        eps = (self.m + 1) * np.finfo(float).eps
        u = v @ self.Binv
        rate = self._gains(-(u @ self.A))
        B = self.A[:, self.basis]
        au = np.abs(u)
        r = np.abs(u @ B - v) + eps * (au @ np.abs(B) + np.abs(v))
        noise = (r @ np.abs(self.Binv) + eps * au) @ np.abs(self.A)
        real = rate > noise
        return bool(rate[real] @ (self.hi - self.lo)[real]
                    >= gap - FEASIBILITY)

    # -- extraction ----------------------------------------------------------

    def _structural(self) -> np.ndarray:
        """The structural columns' values at the current basis."""
        full = self.xn.copy()
        full[self.basis] = self.xb
        return full[:self.n]

    def _point(self) -> tuple[np.ndarray, float]:
        """The reported x, with roundoff-level bound violations clamped,
        and its value."""
        x = np.clip(self._structural(), self.lp.lo, self.lp.hi)
        return x, float(self.lp.c @ x) if self.n else 0.0

    def _extract(self, refactor: bool) -> LpSolution:
        """Report the optimal basis; one whose value reaches the cutoff
        reports CUTOFF before the refactorization that cleans drift."""
        if self.cutoff < math.inf and self._point()[1] >= self.cutoff:
            return LpSolution(status=CUTOFF, pivots=self.pivots)
        if refactor:
            self._refactor()  # clean drift before reporting
        x, value = self._point()
        y = self.c[self.basis] @ self.Binv
        duals = np.maximum(-y, 0.0)
        return LpSolution(
            status=OPTIMAL,
            x=x,
            value=value,
            duals=duals,
            pivots=self.pivots,
            basis=(self.basis, self.status.copy()),
            factor=Factor(self.Binv, self.since_refactor),
        )

