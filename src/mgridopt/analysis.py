"""Worst-case violation certificate and run diagnostics.

After a run, each agent is either integral (its relaxed block solution
already lands in the mixed-integer set) or not.  The certificate bounds
the asymptotic violation of the lifted balance band componentwise:
integral agents contribute their relaxed recourse vector, the others a
scalar built from an auxiliary problem at the componentwise resource
lower bound.  Both read the agent's `LocalProblem`: the floors its
block and coupling H, the auxiliary its two-stage program at y = ell.
The bound is a sum of per-agent terms, so agents can also average it
over the communication graph and everyone ends up with the
network-wide certificate without a collector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dialgo import LocalProblem
from .solver import OPTIMAL, SolverError, Tolerances, solve_lp, solve_milp


class CertificateError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# per-agent pieces
# --------------------------------------------------------------------------


def compute_lower_bound(problem: LocalProblem, cap: float,
                        tol: Tolerances = Tolerances()) -> np.ndarray:
    """Componentwise floor of H x - eta over the relaxed block and
    0 <= eta <= cap, `cap` being a number no recourse of the run reached.

    One LP per distinct component; the eta part separates and
    contributes -cap exactly, so each LP only minimizes the coupling row
    over the block.  H = 1_R kron (A; -A) repeats its first 2K rows in
    every scenario, so those floors are solved once and tiled R times.
    """
    floor = np.empty(problem.eta_dim // problem.R)
    for j in range(floor.size):
        try:
            sol = solve_lp(problem.base.relaxation_lp(problem.H[j]), tol)
        except SolverError as e:
            raise CertificateError(
                f"lower-bound LP for component {j} failed: {e}") from e
        if sol.status != OPTIMAL:
            raise CertificateError(
                f"lower-bound LP for component {j} ended {sol.status}")
        floor[j] = sol.value - cap
    return np.tile(floor, problem.R)


def compute_auxiliary(problem: LocalProblem, ell: np.ndarray,
                      tol: Tolerances = Tolerances()):
    """Mixed-integer optimum (x, eta) of the agent's local problem at
    the floored allocation y = ell."""
    sol = problem.solve(solve_milp, ell, tol, "certificate auxiliary MILP")
    return problem.split(sol.x)


def is_integral(block, z: np.ndarray,
                tol: float = Tolerances().integrality) -> bool:
    ints = z[block.integrality]
    return bool(np.all(np.abs(ints - np.round(ints)) <= tol))


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


def violation_certificate(result,
                          tol: Tolerances = Tolerances()) -> ViolationCertificate:
    """Assemble the certificate from a finished run.

    Uses the final allocation as the converged-allocation proxy (the
    run labels whether allocations had actually settled); agents whose
    relaxed block solution is integral contribute their relaxed
    recourse, the rest the auxiliary-problem scalar spread over all
    components.  Each agent's `LocalProblem` carries the recourse
    prices d; the scalar divides by their smallest entry d_min.
    """
    agents = result.agents
    d_min = min(float(a.lifted.d.min()) for a in agents)
    if d_min <= 0.0:
        raise CertificateError("certificate needs d > 0 componentwise")
    dim = agents[0].lifted.eta_dim
    bound = np.zeros(dim)
    contributions = []
    flags = []
    measured = -result.h.copy()
    for a in agents:
        measured += a.lifted.H @ a.x_mi
        integral = is_integral(a.lifted.base, a.z, tol.integrality)
        flags.append(integral)
        if integral:
            contrib = a.eta_relax.copy()
        else:
            ell = compute_lower_bound(a.lifted, result.eta_cap, tol)
            x_l, eta_l = compute_auxiliary(a.lifted, ell, tol)
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


def distributed_certificate(cert: ViolationCertificate, graph,
                            rounds: int = 500):
    """Each agent's view of the network bound after consensus rounds."""
    N = len(cert.contributions)
    initial = [N * c for c in cert.contributions]
    return consensus_bound(initial, graph, rounds)

