"""Distributed stochastic mixed-integer optimal control of microgrids.

The package builds per-unit mixed-integer blocks (storage, generator,
controllable load, grid connection), lifts them into a two-stage
stochastic resource-allocation problem over sampled renewable
scenarios, solves it with an iterative allocation-exchange algorithm
over a simulated communication graph, and certifies the result with a
worst-case power-balance violation bound.
"""

__version__ = "0.1.0"
