"""Distributed stochastic mixed-integer optimal control of microgrids.

The package builds per-unit mixed-integer blocks (storage, generator,
controllable load, grid connection), lifts them into a two-stage
stochastic resource-allocation problem over sampled renewable
scenarios, solves it with an iterative allocation-exchange algorithm
over a simulated communication graph, and certifies the result with a
worst-case power-balance violation bound.
"""

from .analysis import (ViolationCertificate, consensus_bound,
                       distributed_certificate, violation_certificate)
from .config import ExperimentConfig, build_problem
from .dialgo import (AgentState, CommGraph, RunResult, RunTrace,
                     StepSizeSchedule, generate_graph, run)
from .experiment import run_experiment, run_montecarlo
from .model import (ControllableLoadParams, GeneratorParams, GridParams,
                    LocalBlock, StorageParams, build_controllable_load_block,
                    build_generator_block, build_grid_block,
                    build_storage_block, power_balance_rhs)
from .scenario import ProfileModel, sample_profile, sample_scenarioset
from .solver import (LinearProgram, LpSolution, MipSolution, Tolerances,
                     solve_lp, solve_milp)
from .stochastic import (ScenarioSet, assemble_two_stage, build_h,
                         build_recourse_cost, two_stage_lp)

__version__ = "0.1.0"
