"""Shared data model for the multi-agent planners.

Configurations, paths, conflicts, constraints, constraint-tree nodes, and
solver results. Everything here is immutable and hashable so search code can
use these objects as dict keys and share them between tree nodes without
copying. JSON conversion lives next to each type that files store
(configurations, paths, results); the canonical byte form is produced by
:func:`canonical_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

# Conflict kinds.
VERTEX = "vertex"
EDGE = "edge"

# Constraint kinds.
CT_VERTEX = "vertex"
CT_EDGE = "edge"
CT_SPHERE = "sphere"
CT_AVOIDANCE = "avoidance"
CT_STEP_PRIORITY = "step-priority"
CT_PRIORITY = "priority"

# Constraint-menu kind of the vertex/edge pair.
COMPLETE = "complete"

# Solver statuses.
SOLVED = "solved"
TIMEOUT = "timeout"
EXHAUSTED = "exhausted"


def menu_key(kind: str, radius: Optional[float] = None) -> str:
    """Key of a constraint-menu entry: its kind, with the radius for
    spheres. Focal queues, DTS priors and SolverStats use these keys."""
    if kind == CT_SPHERE:
        return f"sphere:{radius:g}"
    return kind


class MalformedPathError(ValueError):
    """A path contains an invalid transition or is empty."""


class MalformedSolutionError(ValueError):
    """A solution does not contain exactly one path per agent."""


@dataclass(frozen=True)
class Configuration:
    """An agent-local state: integer coordinates.

    On grids the coordinates are the cell (x, y); on arms they are per-joint
    indices, with joint angle = index * delta radians. Integer indices keep
    hashing and equality exact.
    """

    coords: Tuple[int, ...]

    @staticmethod
    def of(*coords: int) -> "Configuration":
        return Configuration(tuple(int(c) for c in coords))

    def __len__(self) -> int:
        return len(self.coords)

    def to_obj(self) -> list:
        return list(self.coords)

    @staticmethod
    def from_obj(obj: Sequence[int]) -> "Configuration":
        return Configuration(tuple(int(c) for c in obj))


@dataclass(frozen=True)
class Path:
    """A time-indexed configuration sequence for one agent.

    steps[t] is the configuration at timestep t. Queries past the end pad
    with the final configuration (an agent rests at its goal forever).
    """

    agent: int
    steps: Tuple[Configuration, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def horizon(self) -> int:
        """Index of the last explicit timestep."""
        return len(self.steps) - 1

    def at(self, t: int) -> Configuration:
        if t < 0:
            raise IndexError(t)
        return self.steps[min(t, len(self.steps) - 1)]

    def to_obj(self) -> dict:
        return {"agent": self.agent, "steps": [s.to_obj() for s in self.steps]}

    @staticmethod
    def from_obj(obj: dict) -> "Path":
        return Path(
            agent=int(obj["agent"]),
            steps=tuple(Configuration.from_obj(s) for s in obj["steps"]),
        )


@dataclass(frozen=True)
class Conflict:
    """A detected pairwise collision.

    Vertex conflicts occupy a single timestep; edge conflicts span [time,
    time + 1] and store both endpoints of each agent's transition. `point`
    is a workspace location inside the intersection of the two occupancies
    (for edge conflicts, at the first colliding interpolation sub-step).
    """

    kind: str
    agents: Tuple[int, int]
    time: int
    configs_i: Tuple[Configuration, ...]
    configs_j: Tuple[Configuration, ...]
    point: Tuple[float, float]

    def sort_key(self) -> tuple:
        return (self.time, self.agents[0], self.agents[1], 0 if self.kind == VERTEX else 1)


@dataclass(frozen=True)
class Constraint:
    """A typed restriction on one agent.

    Payload fields are populated per kind:
      vertex        q
      edge          q, q2
      sphere        point, radius
      avoidance     other, q_other (and q_other2 when created from an edge conflict)
      step-priority other
      priority      other (time is None; applies at every timestep)

    `from_edge` marks constraints created from an edge conflict; volume-style
    constraints then also cover time + 1 and the swept transition, so the
    originating motion is always forbidden.
    """

    agent: int
    ctype: str
    time: Optional[int]
    q: Optional[Configuration] = None
    q2: Optional[Configuration] = None
    point: Optional[Tuple[float, float]] = None
    radius: Optional[float] = None
    other: Optional[int] = None
    q_other: Optional[Configuration] = None
    q_other2: Optional[Configuration] = None
    from_edge: bool = False

    def menu_key(self) -> str:
        """Key of the constraint-menu entry this constraint belongs to."""
        kind = COMPLETE if self.ctype in (CT_VERTEX, CT_EDGE) else self.ctype
        return menu_key(kind, self.radius)


@dataclass(frozen=True)
class CTNode:
    """A constraint-tree node.

    A node with agents_replan != () is lazily generated: its paths, cost,
    conflicts, and bounds are inherited from the parent and approximate.
    Evaluation replaces the node (same id) with updated values. lb_per_agent
    holds certified per-agent lower bounds; lb is their sum.
    """

    id: int
    constraints: Tuple[Constraint, ...]
    paths: Tuple[Path, ...]
    cost: float
    lb_per_agent: Tuple[float, ...]
    conflicts: Tuple[Conflict, ...]
    agents_replan: Tuple[int, ...]

    @property
    def lb(self) -> float:
        return sum(self.lb_per_agent)


@dataclass(frozen=True)
class SolverStats:
    runtime_ms: float = 0.0
    hl_expansions: int = 0
    evaluations: int = 0
    ll_calls: int = 0
    cost: Optional[float] = None
    lb: Optional[float] = None
    dts_rewards: Tuple[Tuple[str, int], ...] = ()
    dts_penalties: Tuple[Tuple[str, int], ...] = ()

    def to_obj(self, include_runtime: bool = True) -> dict:
        obj = {
            "hl_expansions": self.hl_expansions,
            "evaluations": self.evaluations,
            "ll_calls": self.ll_calls,
            "cost": self.cost,
            "lb": self.lb,
            "dts_rewards": {k: v for k, v in self.dts_rewards},
            "dts_penalties": {k: v for k, v in self.dts_penalties},
        }
        if include_runtime:
            obj["runtime_ms"] = self.runtime_ms
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "SolverStats":
        return SolverStats(
            runtime_ms=float(obj.get("runtime_ms", 0.0)),
            hl_expansions=int(obj["hl_expansions"]),
            evaluations=int(obj["evaluations"]),
            ll_calls=int(obj["ll_calls"]),
            cost=obj.get("cost"),
            lb=obj.get("lb"),
            dts_rewards=tuple(sorted(obj.get("dts_rewards", {}).items())),
            dts_penalties=tuple(sorted(obj.get("dts_penalties", {}).items())),
        )


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solve: status, optional solution, and statistics."""

    status: str
    solution: Optional[Tuple[Path, ...]]
    stats: SolverStats

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    def to_obj(self, include_runtime: bool = True) -> dict:
        return {
            "status": self.status,
            "solution": None if self.solution is None else [p.to_obj() for p in self.solution],
            "stats": self.stats.to_obj(include_runtime=include_runtime),
        }

    @staticmethod
    def from_obj(obj: dict) -> "SolverResult":
        sol = obj.get("solution")
        return SolverResult(
            status=obj["status"],
            solution=None if sol is None else tuple(Path.from_obj(p) for p in sol),
            stats=SolverStats.from_obj(obj["stats"]),
        )


def path_cost(path: Path, domain) -> float:
    """Sum of transition costs, with wait-at-goal steps after the final goal
    arrival contributing 0. The agent's occupancy still persists at the goal
    for conflict checking; only the cost accounting ignores the tail.
    """
    if len(path.steps) == 0:
        raise MalformedPathError("empty path")
    for t in range(1, len(path.steps)):
        if not domain.transition_valid(path.agent, path.steps[t - 1], path.steps[t]):
            raise MalformedPathError(
                f"agent {path.agent}: invalid transition at t={t - 1}: "
                f"{path.steps[t - 1].coords} -> {path.steps[t].coords}"
            )
    return unchecked_path_cost(path, domain)


def unchecked_path_cost(path: Path, domain) -> float:
    """`path_cost` of a non-empty path whose transitions the caller checks."""
    goal = domain.goals[path.agent]
    # First index of the terminal run of goal configurations.
    arrival = len(path.steps) - 1
    while arrival > 0 and path.steps[arrival] == goal and path.steps[arrival - 1] == goal:
        arrival -= 1
    return float(
        sum(
            domain.transition_cost(path.agent, path.steps[t - 1], path.steps[t])
            for t in range(1, arrival + 1)
        )
    )


def sum_of_costs(solution: Sequence[Path], domain) -> float:
    """Total cost over all agents; requires exactly one path per agent."""
    agents = sorted(p.agent for p in solution)
    if agents != list(range(domain.n_agents)):
        raise MalformedSolutionError(
            f"expected one path per agent 0..{domain.n_agents - 1}, got agents {agents}"
        )
    return float(sum(path_cost(p, domain) for p in solution))


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for every file this package writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
