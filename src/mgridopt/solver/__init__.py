from .branch_bound import (INTEGRALITY, MipSolution, NodeLimitError,
                           solve_milp)
from .lpformat import write_lp_format
from .simplex import (CUTOFF, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram,
                      LpSolution, SolverError, Tolerances, solve_lp)

__all__ = [
    "CUTOFF", "INFEASIBLE", "INTEGRALITY", "OPTIMAL", "UNBOUNDED",
    "LinearProgram", "LpSolution", "MipSolution", "NodeLimitError",
    "SolverError", "Tolerances",
    "solve_lp", "solve_milp", "write_lp_format",
]
