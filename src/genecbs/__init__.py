"""Conflict-based multi-agent motion planning with arbitrary constraint
types, lazy constraint-tree expansion, multiple focal queues, and Dynamic
Thompson Sampling, over a 2D grid domain and a planar multi-link arm domain.
"""

from .core import (
    Configuration,
    Conflict,
    Constraint,
    CTNode,
    Path,
    SolverResult,
    SolverStats,
    path_cost,
    sum_of_costs,
)
from .constraints import ConstraintMenu, MenuEntry, default_menu, make_constraints
from .domain import ArmSpec, Domain, GridDomain, PlanarArmDomain
from .highlevel import SolverConfig, find_conflicts, solve, solve_pp
from .bench import (
    Scenario,
    generate_instances,
    run_benchmark,
    shortcut,
    verify,
)

__version__ = "0.1.0"
