"""Worst-case violation certificate and run diagnostics.

After a run, each agent is either integral (its relaxed block solution
already lands in the mixed-integer set) or not.  The certificate bounds
the asymptotic violation of the lifted balance band componentwise:
integral agents contribute their relaxed recourse vector, the others a
scalar built from an auxiliary problem at the componentwise resource
lower bound.  Both solve through the agent's `LocalProblem`: the
floors its block and coupling H, the auxiliary its two-stage program
at y = ell.  The bound is a sum of per-agent terms, so agents can also
average it over the communication graph and everyone ends up with the
network-wide certificate without a collector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dialgo import LocalProblem
from .solver import solve_lp, solve_milp

# a fixed count: running until the deviation is small would read the
# exact network average, which no agent knows
CONSENSUS_ROUNDS = 500


# --------------------------------------------------------------------------
# per-agent pieces
# --------------------------------------------------------------------------


def compute_lower_bound(problem: LocalProblem, cap: float) -> np.ndarray:
    """Componentwise floor of H x - eta over the relaxed block and
    0 <= eta <= cap, `cap` being a number no recourse of the run reached.

    One LP per distinct component; the eta part separates and
    contributes -cap exactly, so each LP only minimizes the coupling row
    over the block.  H = 1_R kron (A; -A) repeats its first 2K rows in
    every scenario, so those floors are solved once and tiled R times.
    Each goes through the agent's `LocalProblem.solve_program`, so a
    failure is an AgentSolveError of stage `certificate floor LP j`.

    What the certificate needs from the cap.  The violation theorem of
    the paper (arXiv 2104.06346) bounds the asymptotic violation of the
    recovered solution by per-agent terms built at the resource floor,
    as the primal-decomposition bound of Vujanic et al. (2016,
    Automatica 67) builds its tightening from each agent's whole local
    set.  Read that way the floor ranges over the whole relaxed block,
    recourse included, and the cap would have to bound the recourse
    there.  For the bound `violation_certificate` reports, at the
    allocation a finished run stopped at, a cap that no relaxed solve
    of its last round exceeded is enough:

    1. The agent's last relaxed solve gives z in the relaxed block and
       0 <= eta <= cap (`run` doubles the cap past every recourse a
       solve returns) with H z - eta <= y, so ell <= y.
    2. The auxiliary optimum (x_l, eta_l) at y = ell is then feasible at
       y, so the recovery MILP's optimum (x, eta_mi) there costs no
       more, and with eta_mi >= 0 and d >= d_min every entry of eta_mi
       is at most (c'(x_l - x) + d'eta_l) / d_min, the agent's scalar.
    3. The allocations sum to h and H x - eta_mi <= y for every agent,
       so the measured violation sum H x - h is at most sum eta_mi.
       An integral agent's tree returns its relaxed root, so its eta_mi
       is its relaxed recourse.

    No hull assumption enters.  A smaller cap gives a higher floor and a
    smaller bound: on desk after 300 rounds the largest component is
    9,492.8 kW from the default cap (`recourse_cap`, 127.914) and 427.0
    kW from a run started at cap 0 (ending at 2.0), with the same
    allocations and a measured 3.51 kW.  The last step of 3 needs the
    root integral to the tree's acceptance, and `LocalBlock.is_integral`
    tests at that same `INTEGRALITY`.  Open: `holds` compares with a
    1e-5 slack, and whether the paper's asymptotic statement, at the
    limit of the allocations, holds with the run's own cap is not proved
    here.
    """
    floor = np.empty(problem.d.size // problem.R)
    for j in range(floor.size):
        sol = problem.solve_program(
            solve_lp, problem.base.relaxation_lp(problem.H[j]),
            f"certificate floor LP {j}")
        floor[j] = sol.value - cap
    return np.tile(floor, problem.R)


def compute_auxiliary(problem: LocalProblem, ell: np.ndarray):
    """Mixed-integer optimum (x, eta) of the agent's local problem at
    the floored allocation y = ell."""
    sol = problem.solve(solve_milp, ell, "certificate auxiliary MILP")
    return problem.split(sol.x)


# --------------------------------------------------------------------------
# certificate
# --------------------------------------------------------------------------


@dataclass
class ViolationCertificate:
    bound: np.ndarray
    measured: np.ndarray
    in_integral_set: list
    contributions: list  # per-agent vectors, length 2RK each
    d_min: float
    label: str  # "converged" when allocations had settled, else "empirical"

    @property
    def holds(self) -> bool:
        return bool(np.all(self.measured <= self.bound + 1e-5))

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "d_min": self.d_min,
            "bound": [float(v) for v in self.bound],
            "measured": [float(v) for v in self.measured],
            "in_integral_set": [bool(b) for b in self.in_integral_set],
            "contributions": [[float(v) for v in c]
                              for c in self.contributions],
            "bound_holds_componentwise": self.holds,
        }


def violation_certificate(result) -> ViolationCertificate:
    """Assemble the certificate from a finished run.

    Uses the final allocation as the converged-allocation proxy (the
    run labels whether allocations had actually settled); agents whose
    relaxed block solution is integral to branch-and-bound's
    `INTEGRALITY` (`LocalBlock.is_integral`), so that their tree returns
    that solution, contribute their relaxed recourse, the rest the
    auxiliary-problem scalar spread over all components.  Each agent's
    `LocalProblem` carries the recourse prices d, the scalar dividing by
    their smallest entry d_min.
    """
    agents = result.agents
    d_min = min(float(a.lifted.d.min()) for a in agents)
    if d_min <= 0.0:
        raise ValueError("certificate needs d > 0 componentwise")
    dim = agents[0].lifted.d.size
    bound = np.zeros(dim)
    contributions = []
    flags = []
    measured = -result.h.copy()
    for a in agents:
        measured += a.lifted.H @ a.x_mi
        integral = a.lifted.base.is_integral(a.z)
        flags.append(integral)
        if integral:
            contrib = a.eta_relax.copy()
        else:
            ell = compute_lower_bound(a.lifted, result.eta_cap)
            x_l, eta_l = compute_auxiliary(a.lifted, ell)
            blk = a.lifted.base
            scalar = (blk.c @ (x_l - a.x_mi) + a.lifted.d @ eta_l) / d_min
            contrib = np.full(dim, scalar)
        contributions.append(contrib)
        bound += contrib
    return ViolationCertificate(
        bound=bound, measured=measured, in_integral_set=flags,
        contributions=contributions, d_min=d_min,
        label=result.converged_label)


# --------------------------------------------------------------------------
# distributed averaging of the certificate
# --------------------------------------------------------------------------


def consensus_bound(initial_values, graph, rounds: int):
    """Average-consensus on the per-agent certificate contributions.

    `initial_values` holds one vector per agent, already scaled by the
    agent count (so the average equals the summed bound).  Returns the
    per-agent estimates after `rounds` Metropolis averaging steps and
    the worst deviation from the exact average.
    """
    V = np.array([np.asarray(v, dtype=float) for v in initial_values])
    exact = V.mean(axis=0)
    W = graph.metropolis_weights()
    for _ in range(rounds):
        V = W @ V
    deviation = float(np.max(np.abs(V - exact)))
    return V, deviation


def distributed_certificate(cert: ViolationCertificate, graph):
    """Each agent's view of the network bound after CONSENSUS_ROUNDS
    averaging steps."""
    N = len(cert.contributions)
    initial = [N * c for c in cert.contributions]
    return consensus_bound(initial, graph, CONSENSUS_ROUNDS)

