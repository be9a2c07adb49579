"""Synchronized allocation-exchange algorithm over a communication graph.

Each agent owns an allocation y_i of the lifted balance band (the
allocations always sum to the stacked right-hand side h).  A round
consists of every agent solving its relaxed local problem to get the
multiplier of the allocation rows, then neighbors trading allocation
along each edge proportionally to their multiplier disagreement.
Stopping at any round and re-solving the local problems with
integrality restored yields a mixed-integer point that satisfies the
lifted coupling by construction, so intermediate solutions are always
feasible for the two-stage problem.  An agent's local problem is a
`LocalProblem`: the two-stage program of `stochastic.two_stage_lp`
over its own block, with its allocation as the coupling right-hand
side.

One round is a synchronous barrier: all multipliers are computed from
the round's published allocations before any allocation moves.  The
per-agent solves inside a round are independent (each agent's solves
read and write only its own `AgentState` and `LocalProblem`) and could
run in parallel; they are executed sequentially here.

Between logged rounds only an agent's allocation, the right-hand side
of its relaxed LP, moves, so each agent re-solves from its previous
round's basis and basis inverse by dual simplex; the inverse is
refactored on the simplex's pivot budget, which runs across those
rounds.  Logged rounds solve
cold: what they produce (the finalize, the certificate, and
`recertify`'s replay of the last round) depends only on the
allocation, not on the rounds before it.  An agent without columns (a
critical load) has its relaxed optimum in closed form, the bits a cold
simplex returns, and solves no LP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import DimensionError, LocalBlock
from .solver import (OPTIMAL, LpSolution, NodeLimitError, SolverError,
                     solve_lp, solve_milp)
from .stochastic import ScenarioSet, build_h, two_stage_lp


class AgentSolveError(RuntimeError):
    """A local subproblem failed; carries the agent index and status."""

    def __init__(self, agent: int, status: str, stage: str):
        self.agent = agent
        self.status = status
        self.stage = stage
        super().__init__(f"agent {agent}: {stage} solve ended {status}")

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone
        return type(self), (self.agent, self.status, self.stage)


class GraphError(ValueError):
    """Malformed communication graph."""


# --------------------------------------------------------------------------
# communication graph
# --------------------------------------------------------------------------


@dataclass
class CommGraph:
    n: int
    edges: list  # (i, j) with i < j, no duplicates

    def __post_init__(self):
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge ({i},{j}) outside node range")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        self.edges = sorted(seen)
        if not self.is_connected():
            raise GraphError("graph is not connected")

    @property
    def neighbors(self):
        out = [[] for _ in range(self.n)]
        for i, j in self.edges:
            out[i].append(j)
            out[j].append(i)
        return out

    def degree(self):
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = self.neighbors
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def metropolis_weights(self) -> np.ndarray:
        """Symmetric doubly stochastic averaging matrix."""
        deg = self.degree()
        W = np.zeros((self.n, self.n))
        for i, j in self.edges:
            w = 1.0 / (1.0 + max(deg[i], deg[j]))
            W[i, j] = W[j, i] = w
        np.fill_diagonal(W, 1.0 - W.sum(axis=1))
        return W


def generate_graph(N: int, kind: str = "random", seed=None,
                   p: float = 0.3) -> CommGraph:
    """Connected undirected test graphs: path, cycle, or random with retry.

    The random kind redraws up to 100 times and falls back to a cycle,
    so the result is always connected and deterministic per seed.
    """
    if kind not in ("path", "cycle", "random"):
        raise GraphError(f"unknown graph kind {kind!r}")
    if N < 1:
        raise GraphError(f"need at least one node, got {N}")
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must lie in [0, 1], got {p}")
    if N == 1:
        return CommGraph(1, [])
    path = [(i, i + 1) for i in range(N - 1)]
    if kind == "path" or N == 2:
        return CommGraph(N, path)
    if kind == "random":
        rng = np.random.default_rng(seed)
        for _ in range(100):
            edges = [(i, j) for i in range(N) for j in range(i + 1, N)
                     if rng.random() < p]
            try:
                return CommGraph(N, edges)
            except GraphError:
                continue
    return CommGraph(N, path + [(0, N - 1)])


# --------------------------------------------------------------------------
# step sizes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StepSizeSchedule:
    """alpha(t) factory.

    diminishing: a / (t + b), square-summable but not summable, the
    shape the convergence result assumes.  piecewise: alpha0 scaled by
    `factor` every `period` rounds (the experiment-style schedule; it is
    geometric, hence not covered by the convergence assumption, but
    works well in practice).
    """

    kind: str
    a: float = 1.0
    b: float = 1.0
    alpha0: float = 3.0
    factor: float = 0.5
    period: int = 100

    @classmethod
    def diminishing(cls, a: float, b: float) -> "StepSizeSchedule":
        if a <= 0 or b <= 0:
            raise ValueError("diminishing schedule needs a > 0, b > 0")
        return cls(kind="diminishing", a=a, b=b)

    @classmethod
    def piecewise(cls, alpha0: float, factor: float,
                  period: int) -> "StepSizeSchedule":
        if alpha0 <= 0 or factor <= 0 or period < 1:
            raise ValueError("piecewise schedule needs positive parameters")
        return cls(kind="piecewise", alpha0=alpha0, factor=factor,
                   period=period)

    def __call__(self, t: int) -> float:
        if self.kind == "diminishing":
            return self.a / (t + self.b)
        return self.alpha0 * self.factor ** (t // self.period)


# --------------------------------------------------------------------------
# the local problem and the agent state
# --------------------------------------------------------------------------

MAX_CAP_DOUBLINGS = 60
DEFAULT_FINALIZE_EVERY = 10


class LocalProblem:
    """One agent's two-stage program (`two_stage_lp` of its block):
    min c'z + d'eta over the block and H z - eta <= y, eta >= 0 (d > 0),
    with H = `lift_coupling(base.A, R)`.

    The rounds solve it relaxed for the multiplier of the allocation
    rows and mixed-integer to recover a feasible point; the certificate
    solves the block's floor LPs and the program at y = ell.  Each solve
    goes through `solve_program`.
    """

    def __init__(self, base: LocalBlock, R: int, d: np.ndarray,
                 index: int = 0):
        self.base, self.R, self.d, self.index = base, R, d, index
        self.lp = two_stage_lp([base], R, d)
        self.n, self.m0 = base.n, base.G.shape[0]
        self.H = np.ascontiguousarray(self.lp.G[self.m0:, :self.n])

    @property
    def closed_form(self) -> bool:
        """No block columns or rows: min d'eta s.t. -eta <= y, eta >= 0
        needs no simplex."""
        return self.n == 0 and self.m0 == 0

    def split(self, x: np.ndarray):
        """(z, eta): copies of the block and recourse parts of x."""
        return x[:self.n].copy(), x[self.n:].copy()

    def multiplier(self, sol: LpSolution) -> np.ndarray:
        """mu: a copy of the duals of the allocation rows."""
        return sol.duals[self.m0:].copy()

    def solve_program(self, solver, lp, stage: str, **options):
        """`solver` (solve_lp or solve_milp) on `lp` with `options`.  A
        status other than optimal, a simplex failure or a tree past its
        node limit raises an AgentSolveError naming the agent and
        `stage`."""
        try:
            sol = solver(lp, **options)
        except (NodeLimitError, SolverError) as e:
            raise AgentSolveError(self.index, str(e), stage) from e
        if sol.status != OPTIMAL:
            raise AgentSolveError(self.index, sol.status, stage)
        return sol

    def solve(self, solver, y: np.ndarray, stage: str, **options):
        """`solve_program` of the local problem at allocation y."""
        self.lp.g[self.m0:] = y
        return self.solve_program(solver, self.lp, stage, **options)

    def relax(self, y: np.ndarray, prev=None) -> LpSolution:
        """The relaxed optimum at allocation y: by `solve_lp`, cold or
        warm from the earlier solution `prev`, or for an agent without
        columns in closed form.

        The closed form is the cold simplex's vertex, bit for bit: eta
        = max(0, -y), basic where y < 0 with the dual d there (d > 0)
        and 0 elsewhere, a tie at y = 0 included; eta and the value are
        computed by the operations the cold solve reports them with.
        """
        if self.closed_form:
            self.lp.g[:] = y
            short = self.lp.g < 0.0
            x = np.where(short, -self.lp.g, 0.0)
            return LpSolution(status=OPTIMAL, x=x,
                              value=float(self.lp.c @ x),
                              duals=np.where(short, self.d, 0.0))
        return self.solve(solve_lp, y, "allocation LP", start=prev)


@dataclass
class AgentState:
    """Everything one agent carries between rounds."""

    lifted: LocalProblem
    y: np.ndarray
    mu: np.ndarray | None = None
    relaxed: LpSolution | None = None    # the round's relaxed solve,
                                         # with its factor in a run
    z: np.ndarray | None = None          # relaxed primal block
    eta_relax: np.ndarray | None = None
    x_mi: np.ndarray | None = None       # last mixed-integer finalize
    eta_mi: np.ndarray | None = None


def make_agents(blocks, scen: ScenarioSet, d: np.ndarray, ys) -> list:
    """One agent per block, agent i holding allocation ys[i] and a copy
    of the recourse prices d."""
    return [AgentState(LocalProblem(blk, scen.R, d.copy(), i), ys[i])
            for i, blk in enumerate(blocks)]


def local_multiplier_step(agent: AgentState, warm: bool = False) -> np.ndarray:
    """Solve the relaxed local problem at the current allocation.

    Returns the multiplier of the allocation rows (duals of
    H z - eta <= y); keeps the solution, the root of the round's
    finalize, and the relaxed primal pair for integrality detection.
    The solve is cold unless `warm`, which starts it from the kept
    solution's basis and factor (`solve_lp`'s start rule may still send
    it cold); a warm solve may end on another optimal vertex than a
    cold one, with the same value to roundoff.
    """
    sol = agent.lifted.relax(agent.y, agent.relaxed if warm else None)
    agent.relaxed = sol
    agent.mu = agent.lifted.multiplier(sol)
    agent.z, agent.eta_relax = agent.lifted.split(sol.x)
    return agent.mu


def finalize_mixed_integer(agent: AgentState):
    """Mixed-integer recovery at the round's allocation, rooted at its
    relaxed solve (the local problem depends on nothing else)."""
    sol = agent.lifted.solve(solve_milp, agent.y, "recovery MILP",
                             root=agent.relaxed)
    agent.x_mi, agent.eta_mi = agent.lifted.split(sol.x)
    return agent.x_mi, agent.eta_mi


def cover_recourse(cap: float, eta, agent: int, stage: str) -> float:
    """`cap` doubled (a zero cap stepped to 1) until it exceeds every
    entry of `eta`, else, past MAX_CAP_DOUBLINGS doublings (a nan or inf
    recourse), an AgentSolveError naming `agent` and `stage`."""
    top = np.max(eta, initial=0.0)
    for _ in range(MAX_CAP_DOUBLINGS + 1):
        if top < cap * (1 - 1e-9):
            return cap
        cap = 2.0 * cap if cap > 0.0 else 1.0
    raise AgentSolveError(agent, f"recourse {top} beyond "
                          f"{MAX_CAP_DOUBLINGS} cap doublings", stage)


def init_allocations(h: np.ndarray, N: int) -> list:
    """Equal shares of h, the last agent absorbing the floating-point
    remainder, so the allocations sum to h exactly."""
    if N < 1:
        raise ValueError("need at least one agent")
    h = np.asarray(h, dtype=float)
    share = h / N
    ys = [share.copy() for _ in range(N - 1)]
    last = h.copy()
    for y in ys:
        last = last - y
    ys.append(last)
    return ys


def exchange_and_update(states, graph: CommGraph, alpha: float):
    """One synchronous allocation trade along every edge.

    Applied per edge with exactly opposite increments, so the total
    allocation is conserved to roundoff.
    """
    mus = [a.mu for a in states]
    for i, j in graph.edges:
        delta = alpha * (mus[i] - mus[j])
        states[i].y += delta
        states[j].y -= delta


# --------------------------------------------------------------------------
# the full run
# --------------------------------------------------------------------------


@dataclass
class RunTrace:
    """Per-round series and, at each logged round, the finalized point.

    Only what cannot be derived is stored; `rows` derives the extreme
    coupling values and looks up the round's allocation residual.
    """

    # one entry per round
    relax_cost_all: list = field(default_factory=list)
    alloc_residual_all: list = field(default_factory=list)
    # one entry per logged round
    iters: list = field(default_factory=list)
    incumbent_cost: list = field(default_factory=list)
    coupling_vectors: list = field(default_factory=list)   # 2RK-dim

    def rows(self):
        """(round, incumbent cost, max coupling above the band, max slack
        below it, allocation residual) per logged round."""
        for t, cost, c in zip(self.iters, self.incumbent_cost,
                              self.coupling_vectors):
            yield (t, cost,
                   float(np.max(np.maximum(c, 0.0), initial=0.0)),
                   float(np.max(np.maximum(-c, 0.0), initial=0.0)),
                   self.alloc_residual_all[t])


@dataclass
class RunResult:
    agents: list
    trace: RunTrace
    h: np.ndarray
    eta_cap: float
    converged_label: str
    T_f: int

    def incumbent_cost(self) -> float:
        return float(sum(a.lifted.base.c @ a.x_mi + a.lifted.d @ a.eta_mi
                         for a in self.agents))

    def total_coupling(self) -> np.ndarray:
        out = -self.h.copy()
        for a in self.agents:
            out += a.lifted.H @ a.x_mi - a.eta_mi
        return out


def recourse_cap(blocks, scen: ScenarioSet) -> float:
    """The cap a run starts from: a crude overestimate of any useful
    recourse magnitude, read off the native bounds without an LP.

    Twice (max |b_r(k)| + total coupling mass), where block i's mass
    max_k sum_j |A_kj| max(|lo_j|, |hi_j|) over the columns A_i touches
    bounds |A_i x_i| over its relaxation.  No solve reads the cap; its
    size sets only the certificate's floor (see `compute_lower_bound`).
    Raises DimensionError when a block's bounds cross or a coupled
    column has an infinite bound.
    """
    b_max = max(float(np.max(np.abs(b))) for b in scen.b_r)
    mass = 0.0
    for blk in blocks:
        if np.any(blk.lo > blk.hi):
            raise DimensionError(f"{blk.kind} block polyhedron is empty")
        weight = np.abs(blk.A)
        coupled = weight.any(axis=0)
        radius = np.maximum(np.abs(blk.lo), np.abs(blk.hi))
        unbounded = np.flatnonzero(coupled & np.isinf(radius))
        if unbounded.size:
            raise DimensionError(f"{blk.kind} block column {unbounded[0]} "
                                 "has an infinite bound")
        mass += float(np.max(weight @ np.where(coupled, radius, 0.0)))
    return 2.0 * (b_max + mass)


def run(blocks, scen: ScenarioSet, d: np.ndarray, graph: CommGraph,
        schedule: StepSizeSchedule, T_f: int,
        finalize_every: int = DEFAULT_FINALIZE_EVERY, ys=None,
        eta_cap: float | None = None) -> RunResult:
    """Execute T_f rounds and return the finalized solution plus trace.

    Round 0 starts from the allocations `ys` (one per block, summing to
    the stacked band h; default the equal split of `init_allocations`).
    Logged iterations are {0, 1, multiples of finalize_every, T_f}; the
    allocation LPs of a logged round solve cold, those of the rounds
    between warm from the agent's previous round.  The allocation
    conservation residual is recorded at every round.  The
    recourse cap, which no local solve reads, starts at `eta_cap`
    (default `recourse_cap`) and is doubled past every recourse a solve
    returns (`cover_recourse`).  A failed solve raises an AgentSolveError
    naming the agent, the round and the stage.
    """
    if T_f < 0:
        raise ValueError("T_f must be >= 0")
    if finalize_every < 1:
        raise ValueError("finalize_every must be >= 1")
    if graph.n != len(blocks):
        raise DimensionError(
            f"graph has {graph.n} nodes but {len(blocks)} blocks given")
    h = build_h(scen)
    if eta_cap is None:
        eta_cap = recourse_cap(blocks, scen)
    if ys is None:
        ys = init_allocations(h, len(blocks))
    agents = make_agents(blocks, scen, d,
                         [np.array(y, dtype=float) for y in ys])
    trace = RunTrace()
    result = RunResult(agents=agents, trace=trace, h=h, eta_cap=eta_cap,
                       converged_label="empirical", T_f=T_f)
    log_set = {0, 1, T_f} | set(range(0, T_f + 1, finalize_every))
    prev_logged_y = None

    for t in range(T_f + 1):
        residual = float(np.max(np.abs(sum(a.y for a in agents) - h)))
        trace.alloc_residual_all.append(residual)
        try:
            for a in agents:
                local_multiplier_step(a, warm=t not in log_set)
                eta_cap = cover_recourse(eta_cap, a.eta_relax,
                                         a.lifted.index, "allocation LP")
            if t in log_set:
                for a in agents:
                    finalize_mixed_integer(a)
                    eta_cap = cover_recourse(eta_cap, a.eta_mi,
                                             a.lifted.index, "recovery MILP")
        except AgentSolveError as e:
            raise AgentSolveError(e.agent, e.status,
                                  f"round {t} {e.stage}") from e
        trace.relax_cost_all.append(float(sum(
            a.lifted.base.c @ a.z + a.lifted.d @ a.eta_relax for a in agents)))
        if t in log_set:
            trace.iters.append(t)
            trace.incumbent_cost.append(result.incumbent_cost())
            trace.coupling_vectors.append(result.total_coupling())
            y_snapshot = np.concatenate([a.y for a in agents])
            if prev_logged_y is not None and t == T_f:
                moved = float(np.max(np.abs(y_snapshot - prev_logged_y)))
                result.converged_label = ("converged" if moved < 1e-6
                                          else "empirical")
            prev_logged_y = y_snapshot
        if t < T_f:
            exchange_and_update(agents, graph, schedule(t))

    result.eta_cap = eta_cap
    # a kept factor serves only the next warm round: results held after
    # the run stay small
    for a in agents:
        a.relaxed.factor = None
    return result
