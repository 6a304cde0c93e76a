"""Shared data model for the multi-agent planners.

Configurations, paths, conflicts, constraints with the table of their
kinds (`KINDS`), constraint-tree nodes, and solver results. Everything here
is immutable and hashable so search code can use these objects as dict keys
and share them between tree nodes without copying. JSON conversion lives
next to each type that files store (configurations, paths, results); the
canonical byte form is produced by :func:`canonical_json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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


def json_number(value, name: str, kind: type = float):
    """A number read from a file, as `kind` (float or int). JSON numbers
    only, never bools or strings; an int must be integral, and an integral
    float such as 3.0 loads as 3. Raises ValueError naming `name`."""
    if type(value) is kind:  # the common case, and never a bool
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int:
        if not (isinstance(value, int) or value.is_integer()):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of range, got {value!r}") from None


def json_object(value, name: str, *fields: str) -> dict:
    """An object read from a file, with no key outside `fields` (any keys
    when no fields are given). Raises ValueError naming `name`."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    unknown = set(value) - set(fields) if fields else ()
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    return value


def json_list(value, name: str) -> list:
    """A list read from a file. Raises ValueError naming `name`."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def json_pair(values, name: str, kind: type = float) -> Tuple:
    """Two numbers read from a file as one [x, y] list, each as `kind`
    through `json_number`. Raises ValueError naming `name`."""
    values = json_list(values, name)
    if len(values) != 2:
        raise ValueError(f"{name} must be [x, y] pairs, got {values!r}")
    return json_number(values[0], name, kind), json_number(values[1], name, kind)


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

    def to_obj(self) -> list:
        return list(self.coords)

    @staticmethod
    def from_obj(obj: Sequence[int]) -> "Configuration":
        return Configuration(tuple(json_number(c, "coordinates", int) for c in json_list(obj, "coordinates")))


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

    def __hash__(self) -> int:
        # Cached on first use: the low-level request table hashes the same
        # paths in every key. The fields are ints, so the cached value is the
        # same in every process and may travel with a pickled Path.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.agent, self.steps))
            object.__setattr__(self, "_hash", h)
            return h

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
        json_object(obj, "path", "agent", "steps")
        return Path(
            agent=json_number(obj["agent"], "path agent", int),
            steps=tuple(Configuration.from_obj(s) for s in json_list(obj["steps"], "steps")),
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
    """A typed restriction on one agent. `ctype` names its row of `KINDS`,
    whose builder fills the payload fields that the kind reads.

    `from_edge` marks constraints created from an edge conflict.
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

    @property
    def horizon(self) -> int:
        """The timestep from which on this constraint forbids nothing:
        time + 2 where its row's configuration check also bites at time + 1
        (made from an edge conflict, `covers_next`), time + 1 otherwise.
        Undefined for priority constraints, whose time is None."""
        return self.time + (2 if self.from_edge and KINDS[self.ctype].covers_next else 1)


# What a constraint kind's checks compare against.
OWN_CONFIG = "configuration"  # the agent's own configuration at t
OWN_MOVE = "move"  # the agent's own move over [t, t + 1]
DISK = "disk"  # a workspace disk
OTHER_POSE = "other"  # the other agent's pose


@dataclass(frozen=True)
class ConstraintKind:
    """What one constraint kind forbids, when, and against whom.

    `target` is what its checks compare against. The configuration check
    (occupying q at t) bites at the constraint's time, and at time + 1 too
    for one made from an edge conflict when the kind `covers_next`; the
    move check (q -> q2 over [t, t + 1]) bites at its time; an `every_step`
    kind bites at every t (its time is None). A `snapshot` kind copies the
    other agent's pose from the conflict, any other reads it from that
    agent's current path; a move collides with that agent moving as it
    moved where the configuration check also bites at t + 1, else holding
    still. `build(conflict, agent, other, mine, theirs, radius)` makes the
    constraint on `agent`, where `mine` and `theirs` are the conflict's
    configurations of `agent` and `other`. The `complete` kinds (vertex or
    edge, by the conflict) are one menu entry, whose branching keeps the
    tree search complete; each other kind is an incomplete entry.
    """

    target: str
    build: Callable[..., Constraint]
    snapshot: bool = False
    covers_next: bool = False
    every_step: bool = False
    complete: bool = False

    def config_at(self, c: Constraint, t: int) -> bool:
        """Whether c forbids some configuration at t."""
        return self.target != OWN_MOVE and (
            t == c.time or self.every_step or (c.from_edge and self.covers_next and t == c.time + 1)
        )

    def move_at(self, c: Constraint, t: int) -> bool:
        """Whether c forbids some move over [t, t + 1]."""
        return self.target != OWN_CONFIG and (t == c.time or self.every_step)


# Every constraint kind by its `Constraint.ctype`.
KINDS = {
    CT_VERTEX: ConstraintKind(OWN_CONFIG, complete=True, build=lambda cf, a, b, mine, theirs, r: Constraint(
        a, CT_VERTEX, cf.time, q=mine[0])),
    CT_EDGE: ConstraintKind(OWN_MOVE, complete=True, build=lambda cf, a, b, mine, theirs, r: Constraint(
        a, CT_EDGE, cf.time, q=mine[0], q2=mine[1])),
    CT_SPHERE: ConstraintKind(DISK, build=lambda cf, a, b, mine, theirs, r: Constraint(
        a, CT_SPHERE, cf.time, point=cf.point, radius=r, from_edge=cf.kind == EDGE)),
    # Keeps forbidding the other agent's conflicting configuration(s) after
    # that agent replans away from them.
    CT_AVOIDANCE: ConstraintKind(
        OTHER_POSE, snapshot=True, covers_next=True, build=lambda cf, a, b, mine, theirs, r: Constraint(
            a, CT_AVOIDANCE, cf.time, other=b, q_other=theirs[0],
            q_other2=theirs[1] if cf.kind == EDGE else None, from_edge=cf.kind == EDGE)),
    CT_STEP_PRIORITY: ConstraintKind(OTHER_POSE, covers_next=True, build=lambda cf, a, b, mine, theirs, r: Constraint(
        a, CT_STEP_PRIORITY, cf.time, other=b, from_edge=cf.kind == EDGE)),
    CT_PRIORITY: ConstraintKind(OTHER_POSE, every_step=True, build=lambda cf, a, b, mine, theirs, r: Constraint(
        a, CT_PRIORITY, None, other=b)),
}


@dataclass(frozen=True)
class CTNode:
    """A constraint-tree node.

    A node with agents_replan != () is lazily generated: its paths, cost,
    conflicts, and bounds are inherited from the parent and approximate.
    Evaluation replaces the node (same id) with updated values. lb_per_agent
    holds certified per-agent lower bounds; lb is their sum. `tally` counts
    the node's constraints per branching-menu entry, in menu order: all
    zeros at the root, and a child adds one at its entry's index.
    """

    id: int
    constraints: Tuple[Constraint, ...]
    paths: Tuple[Path, ...]
    cost: float
    lb_per_agent: Tuple[float, ...]
    conflicts: Tuple[Conflict, ...]
    agents_replan: Tuple[int, ...]
    tally: Tuple[int, ...]

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
    # Low-level searches run (requests the solve's request table did not
    # answer), which limit ended an unsolved search: "cap" (max_expansions),
    # "clock" (timeout_ms), "budget" (ll_max_expansions) or None, and the
    # tree engine's spine pops.
    # `to_obj` leaves these three and runtime_ms out, so stored runs repeat
    # byte for byte.
    ll_searches: int = 0
    stopped_by: Optional[str] = None
    spine_pops: int = 0

    def to_obj(self) -> dict:
        return {
            "hl_expansions": self.hl_expansions,
            "evaluations": self.evaluations,
            "ll_calls": self.ll_calls,
            "cost": self.cost,
            "lb": self.lb,
            "dts_rewards": {k: v for k, v in self.dts_rewards},
            "dts_penalties": {k: v for k, v in self.dts_penalties},
        }

    @staticmethod
    def from_obj(obj: dict) -> "SolverStats":
        json_object(obj, "stats", *SolverStats().to_obj())
        return SolverStats(
            hl_expansions=json_number(obj["hl_expansions"], "hl_expansions", int),
            evaluations=json_number(obj["evaluations"], "evaluations", int),
            ll_calls=json_number(obj["ll_calls"], "ll_calls", int),
            cost=None if obj.get("cost") is None else json_number(obj["cost"], "cost"),
            lb=None if obj.get("lb") is None else json_number(obj["lb"], "lb"),
            dts_rewards=_json_counts(obj, "dts_rewards"),
            dts_penalties=_json_counts(obj, "dts_penalties"),
        )


def _json_counts(obj: dict, name: str) -> Tuple[Tuple[str, int], ...]:
    """The object `obj[name]` (empty when absent) as sorted (key, count)
    pairs; each count must be an integral JSON number."""
    counts = json_object(obj.get(name, {}), name)
    return tuple(sorted((k, json_number(v, f"{name}.{k}", int)) for k, v in counts.items()))


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solve: status, optional solution, and statistics."""

    status: str
    solution: Optional[Tuple[Path, ...]]
    stats: SolverStats

    @property
    def solved(self) -> bool:
        return self.status == SOLVED

    def to_obj(self) -> dict:
        return {
            "status": self.status,
            "solution": None if self.solution is None else [p.to_obj() for p in self.solution],
            "stats": self.stats.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> "SolverResult":
        json_object(obj, "result", "status", "solution", "stats")
        status = obj["status"]
        if status not in (SOLVED, TIMEOUT, EXHAUSTED):
            raise ValueError(f"status must be one of {SOLVED}, {TIMEOUT} or {EXHAUSTED}, got {status!r}")
        sol = obj.get("solution")
        return SolverResult(
            status=status,
            solution=None if sol is None else tuple(Path.from_obj(p) for p in json_list(sol, "solution")),
            stats=SolverStats.from_obj(obj["stats"]),
        )


def path_cost(path: Path, domain) -> float:
    """Cost of a path whose every transition is valid: transitions cost 1
    (`Domain.successors`), and the wait-at-goal steps after the final goal
    arrival cost 0, so the cost is the arrival index. The agent's occupancy
    still persists at the goal for conflict checking; only the cost
    accounting ignores the tail. Raises MalformedPathError on an empty path or an
    invalid transition.
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
    """`path_cost` of a non-empty path whose transitions the caller checks:
    under unit costs, the first index of the terminal run of goal steps."""
    goal = domain.goals[path.agent]
    steps = path.steps
    arrival = len(steps) - 1
    while arrival > 0 and steps[arrival] == goal and steps[arrival - 1] == goal:
        arrival -= 1
    return float(arrival)


def sum_of_costs(solution: Sequence[Path], domain) -> float:
    """Total cost over all agents; requires exactly one path per agent."""
    agents = sorted(p.agent for p in solution)
    if agents != list(range(domain.n_agents)):
        raise MalformedSolutionError(
            f"expected one path per agent 0..{domain.n_agents - 1}, got agents {agents}"
        )
    return float(sum(path_cost(p, domain) for p in solution))


def canonical_json(obj) -> str:
    """Deterministic JSON encoding used for every file this package writes.
    Strict: NaN and the infinities raise ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
