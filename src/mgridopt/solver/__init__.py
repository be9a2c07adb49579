from .branch_bound import (INTEGRALITY, MipSolution, NodeLimitError,
                           solve_milp)
from .lpformat import write_lp_format
from .simplex import (CUTOFF, FEASIBILITY, INFEASIBLE, OPTIMAL, UNBOUNDED,
                      LinearProgram, LpSolution, SolverError, solve_lp)

__all__ = [
    "CUTOFF", "FEASIBILITY", "INFEASIBLE", "INTEGRALITY", "OPTIMAL",
    "UNBOUNDED", "LinearProgram", "LpSolution", "MipSolution",
    "NodeLimitError", "SolverError",
    "solve_lp", "solve_milp", "write_lp_format",
]
