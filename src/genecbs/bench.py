"""Scenario I/O, seeded instance generation, independent solution
verification, shortcutting, and the benchmark runner.

Scenario files are strict JSON: a `version` field is required and unknown
fields are rejected so format drift fails loudly. All files are written in a
canonical byte form, which makes generation outputs, and the solve outputs
of runs the clock does not stop, reproducible byte for byte under a fixed
seed.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import json
import math
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path as FsPath
from typing import List, Optional, Sequence, Tuple

from . import lowlevel
from .core import (
    Configuration,
    Path,
    canonical_json,
    json_number,
    json_object,
    path_cost,
    sum_of_costs,
    unchecked_path_cost,
)
from .domain import Domain, PlanarArmDomain, domain_from_obj, free_configurations, index_l1
from .highlevel import PRESETS, SolverConfig, solve

SCENARIO_VERSION = 1


class ScenarioError(ValueError):
    """Scenario parsing, validation, or generation failure."""


@dataclass
class Scenario:
    name: str
    seed: int
    domain_obj: dict
    agents: List[Tuple[Configuration, Configuration]]
    solver: Optional[SolverConfig] = None

    def build_domain(self) -> Domain:
        starts = [a[0] for a in self.agents]
        goals = [a[1] for a in self.agents]
        try:
            domain = domain_from_obj(self.domain_obj, starts, goals)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed domain: {type(exc).__name__}: {exc}") from exc
        domain.validate_instance()
        return domain

    def to_obj(self) -> dict:
        obj = {
            "version": SCENARIO_VERSION,
            "name": self.name,
            "seed": self.seed,
            "domain": self.domain_obj,
            "agents": [
                {"start": s.to_obj(), "goal": g.to_obj()} for s, g in self.agents
            ],
        }
        if self.solver is not None:
            obj["solver"] = self.solver.to_obj()
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "Scenario":
        try:
            json_object(obj, "scenario", "version", "name", "seed", "domain", "agents", "solver")
            if obj.get("version") != SCENARIO_VERSION:
                raise ScenarioError(f"unsupported scenario version: {obj.get('version')!r}")
            name = obj.get("name")
            if not isinstance(name, str):
                raise ScenarioError(f"name must be a string, got {name!r}")
            agent_objs = obj.get("agents")
            if not (isinstance(agent_objs, list) and all(isinstance(a, dict) for a in agent_objs)):
                raise ScenarioError(f"agents must be a list of objects, got {agent_objs!r}")
            agents = [
                (Configuration.from_obj(a["start"]), Configuration.from_obj(a["goal"]))
                for a in (json_object(a, "agent", "start", "goal") for a in agent_objs)
            ]
            solver = SolverConfig.from_obj(obj["solver"]) if "solver" in obj else None
            return Scenario(
                name=name,
                seed=json_number(obj["seed"], "seed", int),
                domain_obj=obj["domain"],
                agents=agents,
                solver=solver,
            )
        except ScenarioError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc

    def save(self, path) -> None:
        FsPath(path).write_text(canonical_json(self.to_obj()))

    @staticmethod
    def load(path) -> "Scenario":
        """Read a scenario file and validate its starts and goals."""
        return Scenario.load_with_domain(path)[0]

    @staticmethod
    def load_with_domain(path) -> Tuple["Scenario", Domain]:
        """Read a scenario file; returns it with its validated domain."""
        try:
            obj = json.loads(FsPath(path).read_text())
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        scenario = Scenario.from_obj(obj)
        return scenario, scenario.build_domain()


# ---- verification --------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # endpoint | transition | static | vertex-conflict | edge-conflict | malformed
    agents: Tuple[int, ...]
    time: Optional[int]
    detail: str


@dataclass(frozen=True)
class VerifyResult:
    violations: Tuple[Violation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def verify(domain: Domain, solution: Sequence[Path]) -> VerifyResult:
    """Independent re-check of a solution: endpoints, transition validity,
    static collisions, and pairwise conflicts at twice the solver's
    interpolation resolution. Shares with the solvers only the domain's
    primitives and their pose-level memos (a pose's link segments and box,
    exact link-pair scans keyed by their full input), never a memoised
    collision answer: its sampled edge checks are memoised under their own
    count. Those memos keep integer poses only, so its samples between a
    motion's end poses are computed and dropped."""
    out: List[Violation] = []
    n = domain.n_agents
    agents = sorted(p.agent for p in solution)
    if agents != list(range(n)):
        return VerifyResult(
            (Violation("malformed", tuple(agents), None, "expected one path per agent"),)
        )
    by_agent = {p.agent: p for p in solution}
    for a in range(n):
        p = by_agent[a]
        if len(p.steps) == 0:
            out.append(Violation("malformed", (a,), None, "empty path"))
            continue
        if p.steps[0] != domain.starts[a]:
            out.append(Violation("endpoint", (a,), 0, f"path starts at {p.steps[0].coords}"))
        if p.steps[-1] != domain.goals[a]:
            out.append(
                Violation("endpoint", (a,), p.horizon, f"path ends at {p.steps[-1].coords}")
            )
        for t, q in enumerate(p.steps):
            if not domain.in_bounds(a, q) or not domain.is_static_free(a, q):
                out.append(Violation("static", (a,), t, f"configuration {q.coords}"))
        for t in range(1, len(p.steps)):
            if not domain.transition_valid(a, p.steps[t - 1], p.steps[t]):
                out.append(
                    Violation(
                        "transition",
                        (a,),
                        t - 1,
                        f"{p.steps[t - 1].coords} -> {p.steps[t].coords}",
                    )
                )
    out.extend(_pair_violations(domain, [by_agent[a] for a in range(n)], 2 * domain.substeps))
    return VerifyResult(tuple(out))


def _pair_violations(domain: Domain, paths: Sequence[Path], substeps: int) -> List[Violation]:
    """Vertex and edge conflicts of every agent pair, goal-padded, each
    motion checked at substeps + 1 evenly spaced poses; paths[a] is agent
    a's path. The padding is built here, so the scan shares no path code
    with the solvers."""
    agents_collide = domain.agents_collide
    edge_collides = domain.edge_collides
    horizon = max((p.horizon for p in paths), default=0)
    padded = [p.steps + p.steps[-1:] * (horizon - p.horizon) for p in paths]
    out: List[Violation] = []
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            si, sj = padded[i], padded[j]
            if not si or not sj:
                continue  # `verify` reports an empty path as malformed
            h = max(paths[i].horizon, paths[j].horizon)
            for t in range(h + 1):
                if agents_collide(i, si[t], j, sj[t]) is not None:
                    out.append(Violation("vertex-conflict", (i, j), t, ""))
                if t < h:
                    hit = edge_collides(i, si[t], si[t + 1], j, sj[t], sj[t + 1], substeps)
                    if hit is not None:
                        out.append(Violation("edge-conflict", (i, j), t, f"sub-time {hit[1]:g}"))
    return out


# ---- shortcutting --------------------------------------------------------


def _staircase(a: Configuration, b: Configuration, duration: int) -> Optional[List[Configuration]]:
    """Unit-primitive rediscretization of the straight line in index space:
    moves first (largest remaining axis each step), waits at the end."""
    deltas = [y - x for x, y in zip(a.coords, b.coords)]
    l1 = sum(abs(d) for d in deltas)
    if l1 > duration:
        return None
    remaining = [abs(d) for d in deltas]
    cur = list(a.coords)
    steps = [a]
    for _ in range(l1):
        j = max(range(len(cur)), key=lambda d: (remaining[d], -d))
        cur[j] += 1 if deltas[j] > 0 else -1
        remaining[j] -= 1
        steps.append(Configuration(tuple(cur)))
    while len(steps) < duration + 1:
        steps.append(steps[-1])
    return steps


def _segment_ok(
    domain: Domain,
    agent: int,
    cand: Sequence[Configuration],
    t0: int,
    count,
) -> bool:
    """Whether the candidate segment, run from t0, has valid transitions and
    no conflict that `count(q, q2, t2)`, a `Domain.conflict_counter` over
    the other paths, finds on any of its moves; that count certifies each
    motion, as the solvers do. Every interior pose is the source of a move,
    and `transition_valid` rejects an out-of-bounds or static-blocked
    source."""
    for k in range(1, len(cand)):
        if not domain.transition_valid(agent, cand[k - 1], cand[k]):
            return False
    for k in range(1, len(cand)):
        if count(cand[k - 1], cand[k], t0 + k):
            return False
    return True


def shortcut(solution: Sequence[Path], domain: Domain, passes: int = 1) -> Tuple[Path, ...]:
    """Replace path segments with straight-line joint-index interpolations of
    the same duration when doing so lowers the cost and is collision-free
    against obstacles and the other agents' current paths over every whole
    motion. Costs never increase; a pass over every agent is repeated
    `passes` times."""
    paths: List[Path] = sorted(solution, key=lambda p: p.agent)
    for _ in range(max(0, passes)):
        for agent in range(len(paths)):
            # The heuristic (grid Manhattan, arm exact distance) is at most
            # the length of any route of moves, so no segment shortens a
            # path whose cost already equals it.
            p = paths[agent]
            cost_now = path_cost(p, domain)
            if cost_now == domain.heuristic(agent, p.steps[0], domain.goals[agent]):
                continue
            # The other paths stay fixed while this agent is shortcut.
            count = domain.conflict_counter(agent, [None if i == agent else p for i, p in enumerate(paths)])
            improved = True
            while improved:
                improved = False
                p = paths[agent]
                horizon = p.horizon
                # Unit costs make the cost the goal-arrival index, which a
                # segment (a, b) can only lower when b >= that index: an
                # earlier b keeps every step from the arrival on.
                arrival = int(cost_now)
                segments = (
                    (a, a + length)
                    for length in range(horizon, 1, -1)
                    for a in range(max(0, arrival - length), horizon - length + 1)
                )
                for a, b in segments:
                    cand = _staircase(p.steps[a], p.steps[b], b - a)
                    if cand is None or tuple(cand) == p.steps[a : b + 1]:
                        continue
                    new_path = Path(agent, p.steps[:a] + tuple(cand) + p.steps[b + 1 :])
                    # Cheap test first; _segment_ok checks the transitions.
                    new_cost = unchecked_path_cost(new_path, domain)
                    if new_cost >= cost_now:
                        continue
                    if _segment_ok(domain, agent, cand, a, count):
                        paths[agent], cost_now = new_path, new_cost
                        improved = True
                        break
    return tuple(paths)


# ---- instance generation --------------------------------------------------


# Generated arms: the joint index step, the half-width of each shoulder's
# cone around its aim (both in degrees), and the endpoint draws per instance.
ARM_DELTA_DEG = 15.0
ARM_HALF_CONE_DEG = 60.0
ARM_DRAWS = 300


def _grid_random(rng: random.Random, params: dict) -> Tuple[dict, list]:
    width, height, n_agents = params["width"], params["height"], params["n_agents"]
    density = params["obstacle_density"]
    for _ in range(500):
        cells = [(x, y) for x in range(width) for y in range(height)]
        blocked = set(rng.sample(cells, int(density * len(cells))))
        free = [c for c in cells if c not in blocked]
        if len(free) < 2 * n_agents:
            continue
        picks = rng.sample(free, 2 * n_agents)
        starts = picks[:n_agents]
        goals = picks[n_agents:]
        domain_obj = {
            "type": "grid",
            "width": width,
            "height": height,
            "blocked": sorted(list(c) for c in blocked),
            "substeps": 4,
        }
        agents = [
            (Configuration(s), Configuration(g)) for s, g in zip(starts, goals)
        ]
        domain = domain_from_obj(domain_obj, [a[0] for a in agents], [a[1] for a in agents])
        try:
            domain.validate_instance()
        except ValueError:
            continue
        if all(_reachable(domain, i, s, g) for i, (s, g) in enumerate(agents)):
            return domain_obj, agents
    raise ScenarioError("grid generation rejection limit exceeded")


def _reachable(domain: Domain, agent: int, start: Configuration, goal: Configuration) -> bool:
    """Whether `agent` can move from start to goal, ignoring the others.
    Greedy best-first on `index_l1`, the distance instance generation plans
    with: the answer does not depend on the order, and this one reaches a
    goal in few expansions."""
    seen = {start.coords}
    frontier = [(0.0, start.coords, start)]
    while frontier:
        q = heapq.heappop(frontier)[2]
        if q == goal:
            return True
        for q2 in domain.successors(agent, q):
            if q2.coords not in seen:
                seen.add(q2.coords)
                heapq.heappush(frontier, (index_l1(agent, q2, goal), q2.coords, q2))
    return False


def _hallway_swap(rng: random.Random, params: dict) -> Tuple[dict, list]:
    """Two agents swapping ends of a one-cell-wide hallway with a single
    passing niche. Solvable with coordination; hopeless for strict
    priorities."""
    domain_obj = {
        "type": "grid",
        "width": 5,
        "height": 2,
        "blocked": [[0, 0], [1, 0], [3, 0], [4, 0]],
        "substeps": 4,
    }
    agents = [
        (Configuration((0, 1)), Configuration((4, 1))),
        (Configuration((4, 1)), Configuration((0, 1))),
    ]
    return domain_obj, agents


def _arm_domain_obj(
    bases: Sequence[Tuple[float, float]],
    aim_deg: Sequence[float],
    obstacles: Sequence[Tuple[Tuple[float, float], float]],
    link_lengths=(1.2, 1.0),
    thickness: float = 0.15,
) -> dict:
    arms = []
    for base, aim in zip(bases, aim_deg):
        center_idx = round(aim / ARM_DELTA_DEG)
        span = round(ARM_HALF_CONE_DEG / ARM_DELTA_DEG)
        elbow = round(90.0 / ARM_DELTA_DEG)
        arms.append(
            {
                "base": list(base),
                "link_lengths": list(link_lengths),
                "joint_limits": [
                    [center_idx - span, center_idx + span],
                    [-elbow, elbow],
                ],
                "thickness": thickness,
            }
        )
    return {
        "type": "planar_arm",
        "delta": math.radians(ARM_DELTA_DEG),
        "substeps": 4,
        "obstacles": [{"center": list(c), "radius": r} for c, r in obstacles],
        "arms": arms,
    }


def _arm_poses(
    domain: PlanarArmDomain, agent: int, task_center, task_radius, home_radius
) -> Tuple[List[Configuration], List[Configuration]]:
    """Split the static-free configurations into task poses (end effector
    inside the shared task disk) and home poses (end effector retracted
    beyond the home radius)."""
    task, home = [], []
    for q in free_configurations(domain, agent):
        tip = domain.fk_segments(agent, q.coords)[-1][1]
        dist = math.hypot(tip[0] - task_center[0], tip[1] - task_center[1])
        if dist <= task_radius:
            task.append(q)
        elif dist >= home_radius:
            home.append(q)
    return task, home


def _root_conflicts(domain: Domain, starts, goals) -> int:
    """Pairwise conflicts between the agents' individually optimal paths
    from `starts` to `goals`; a cheap solver-neutral proxy for coordination
    depth. The paths are planned on `index_l1`, which the seeded suites were
    drawn with, whatever heuristic the solvers use: the heuristic breaks
    ties between optimal paths, so another one would redraw the suites."""
    paths = []
    for agent in range(domain.n_agents):
        ctx = lowlevel.ConstraintContext(
            agent=agent, constraints=(), other_paths=(None,) * domain.n_agents
        )
        res = lowlevel.plan(
            domain, agent, starts[agent], goals[agent], ctx, count_conflicts=False, heuristic=index_l1
        )
        if res.status != lowlevel.OK:
            return 10**9
        paths.append(res.path)
    # Counted at the sampled resolution, which the seeded suites were drawn
    # with; the certified sweep finds a few more and would reshuffle them.
    return len(_pair_violations(domain, paths, domain.substeps))


def _sample_arm_instance(
    rng: random.Random,
    domain_obj: dict,
    task_center,
    task_radius,
    home_radius,
    max_root_conflicts: Optional[int] = None,
) -> list:
    """Per agent, one endpoint is a task pose in the shared disk and the
    other a retracted home pose (random orientation), so every instance
    routes the arms through the contested region without parking them there
    forever. `max_root_conflicts` caps the interaction density of emitted
    instances (measured on individually optimal paths)."""
    n = len(domain_obj["arms"])
    # Placeholder endpoints: the probe domain samples poses, checks
    # reachability and plans the root paths, and none of these reads its
    # starts or goals. Drawn endpoints are checked on their own domain by
    # `validate_instance`, as `_grid_random` checks its draws.
    rest = [
        Configuration(tuple(lo for lo, _ in arm["joint_limits"]))
        for arm in domain_obj["arms"]
    ]
    probe = domain_from_obj(domain_obj, rest, rest)
    pose_sets = [
        _arm_poses(probe, i, task_center, task_radius, home_radius) for i in range(n)
    ]
    if any(len(task) < 1 or len(home) < 1 for task, home in pose_sets):
        raise ScenarioError("arm template has an empty task or home pose set")
    for _ in range(ARM_DRAWS):
        starts, goals = [], []
        for i in range(n):
            task, home = pose_sets[i]
            a = task[rng.randrange(len(task))]
            b = home[rng.randrange(len(home))]
            if rng.random() < 0.5:
                a, b = b, a
            starts.append(a)
            goals.append(b)
        if any(s == g for s, g in zip(starts, goals)):
            continue
        try:
            domain_from_obj(domain_obj, starts, goals).validate_instance()
        except ValueError:
            continue
        if not all(_reachable(probe, i, starts[i], goals[i]) for i in range(n)):
            continue
        if max_root_conflicts is not None and _root_conflicts(probe, starts, goals) > max_root_conflicts:
            continue
        return list(zip(starts, goals))
    raise ScenarioError("arm generation rejection limit exceeded")


def _arm_pair(rng: random.Random, params: dict) -> Tuple[dict, list]:
    domain_obj = _arm_domain_obj(
        bases=[(0.0, 0.0), (3.0, 0.0)],
        aim_deg=[45.0, 135.0],
        obstacles=[((1.5, 1.8), params["obstacle_radius"])],
    )
    agents = _sample_arm_instance(
        rng,
        domain_obj,
        task_center=(1.5, 1.0),
        task_radius=params["task_radius"],
        home_radius=params["home_radius"],
    )
    return domain_obj, agents


def _arm_quad(rng: random.Random, params: dict) -> Tuple[dict, list]:
    side = 3.0
    domain_obj = _arm_domain_obj(
        bases=[(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)],
        aim_deg=[45.0, 135.0, 225.0, 315.0],
        obstacles=[
            ((side / 2, side / 2), params["obstacle_radius"]),
            ((0.45, side / 2), 0.12),
            ((side - 0.45, side / 2), 0.12),
        ],
        link_lengths=params["links"],
        thickness=params["thickness"],
    )
    agents = _sample_arm_instance(
        rng,
        domain_obj,
        task_center=(side / 2, side / 2),
        task_radius=params["task_radius"],
        home_radius=params["home_radius"],
        max_root_conflicts=params["max_root_conflicts"],
    )
    return domain_obj, agents


# Template name -> (generator, its parameters' defaults).
TEMPLATES = {
    "grid-random": (_grid_random, {"width": 5, "height": 5, "n_agents": 2, "obstacle_density": 0.15}),
    "hallway-swap": (_hallway_swap, {}),
    "arm-pair": (_arm_pair, {"obstacle_radius": 0.2, "task_radius": 0.7, "home_radius": 1.5}),
    "arm-quad": (_arm_quad, {"obstacle_radius": 0.1, "links": (1.05, 0.85), "thickness": 0.12,
                             "task_radius": 0.6, "home_radius": 1.6, "max_root_conflicts": 3}),
}
# Parameter -> the closed range a given value must lie in. The arm
# parameters are checked where they are used: the geometry by the domain,
# the radii by the task and home pose sets, which must not be empty.
PARAM_RANGES = {"width": (1, math.inf), "height": (1, math.inf), "n_agents": (1, math.inf),
                "obstacle_density": (0, 1), "max_root_conflicts": (0, math.inf)}


def _template_params(template: str, defaults: dict, given: dict) -> dict:
    """The defaults overridden by `given`, each value read through
    `json_number` as its default's type and kept in its `PARAM_RANGES`
    range: a tuple default takes a list of as many such numbers, and
    `max_root_conflicts` may also be null, for no cap."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise ScenarioError(f"unknown {template} parameters: {sorted(unknown)}")
    params = dict(defaults)
    for key, value in given.items():
        default = defaults[key]
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise ScenarioError(f"{key} must be a list of numbers, got {value!r}")
            if len(value) != len(default):
                raise ScenarioError(f"{key} must be a list of {len(default)} numbers, got {value!r}")
            value = tuple(json_number(x, key, type(default[0])) for x in value)
        elif value is not None or key != "max_root_conflicts":
            value = json_number(value, key, type(default))
            lo, hi = PARAM_RANGES.get(key, (-math.inf, math.inf))
            if not lo <= value <= hi:
                raise ScenarioError(f"{key} must be in [{lo}, {hi}], got {value!r}")
        params[key] = value
    return params


def generate_instances(
    template: str, count: int, seed: int, params: Optional[dict] = None
) -> List[Scenario]:
    """Deterministically sample `count` scenarios from a named template;
    `params` override the template's defaults (`TEMPLATES`)."""
    if template not in TEMPLATES:
        raise ScenarioError(f"unknown template {template!r}; have {sorted(TEMPLATES)}")
    generator, defaults = TEMPLATES[template]
    params = _template_params(template, defaults, params or {})
    out = []
    for i in range(count):
        rng = random.Random((seed * 1_000_003 + i) & 0x7FFFFFFFFFFFFFFF)
        domain_obj, agents = generator(rng, params)
        out.append(Scenario(
            name=f"{template}-s{seed}-{i:03d}",
            seed=(seed * 1_000_003 + i) & 0x7FFFFFFFFFFFFFFF,
            domain_obj=domain_obj,
            agents=agents,
            solver=SolverConfig(seed=i),
        ))
    return out


# ---- benchmark runner ------------------------------------------------------


@dataclass
class RunRecord:
    scenario: str
    algo: str
    success: bool
    runtime_ms: float
    hl_expansions: int
    ll_calls: int
    cost: Optional[float]
    cost_shortcut: Optional[float]
    lb: Optional[float]
    subopt: Optional[float]
    ll_searches: int = 0
    stopped_by: Optional[str] = None

    def csv_row(self) -> list:
        return [
            self.scenario,
            self.algo,
            int(self.success),
            f"{self.runtime_ms:.3f}",
            self.hl_expansions,
            self.ll_calls,
            "" if self.cost is None else f"{self.cost:g}",
            "" if self.cost_shortcut is None else f"{self.cost_shortcut:g}",
            "" if self.lb is None else f"{self.lb:g}",
            "" if self.subopt is None else f"{self.subopt:.6f}",
            self.ll_searches,
            self.stopped_by or "",
        ]


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


def stable_hash(name: str) -> int:
    return int.from_bytes(hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")


def cell_seed(scenario: Scenario, algo: str) -> int:
    return (scenario.seed * 1_000_003 ^ stable_hash(algo)) & 0x7FFFFFFFFFFFFFFF


def run_cell(
    scenario_obj: dict,
    algo: str,
    overrides: Optional[dict] = None,
    shortcut_passes: int = 1,
) -> Tuple[RunRecord, Optional[list]]:
    """Run one (scenario, algorithm) cell; returns (record, frames).

    Standalone so a process pool can execute cells in parallel; every cell
    builds its own domain and RNG state.
    """
    scenario = Scenario.from_obj(scenario_obj)
    domain = scenario.build_domain()
    config = scenario.solver or SolverConfig()
    config.algorithm = algo
    config.seed = cell_seed(scenario, algo)
    for key, value in (overrides or {}).items():
        setattr(config, key, value)
    result = solve(domain, config)
    success = False
    cost = cost_short = subopt = None
    frames = None
    if result.solved:
        check = verify(domain, result.solution)
        success = check.clean
        if success:
            cost = sum_of_costs(result.solution, domain)
            lb = result.stats.lb or 0.0
            shorter = result.solution
            # Every preset branches on the complete pair, so its lb is at
            # most the optimum: a solution at its lb is optimal, and
            # `shortcut`, which takes only strictly cheaper segments, would
            # return it unchanged.
            if not (algo in PRESETS and cost <= lb):
                shorter = shortcut(result.solution, domain, passes=shortcut_passes)
                if not verify(domain, shorter).clean:
                    shorter = result.solution  # never emit a worse-than-input artifact
            cost_short = sum_of_costs(shorter, domain)
            subopt = cost / lb if lb > 0 else None
            horizon = max(p.horizon for p in shorter)
            frames = [
                [list(p.at(t).coords) for p in sorted(shorter, key=lambda p: p.agent)]
                for t in range(horizon + 1)
            ]
    record = RunRecord(
        scenario=scenario.name,
        algo=algo,
        success=success,
        runtime_ms=result.stats.runtime_ms,
        hl_expansions=result.stats.hl_expansions,
        ll_calls=result.stats.ll_calls,
        cost=cost,
        cost_shortcut=cost_short,
        lb=result.stats.lb,
        subopt=subopt,
        ll_searches=result.stats.ll_searches,
        stopped_by=result.stats.stopped_by,
    )
    return record, frames


def aggregate_records(records: Sequence[RunRecord]) -> List[dict]:
    """Per-algorithm success rate and mean/stddev of runtime and cost over
    the successful runs (population stddev)."""
    out = []
    algos = sorted({r.algo for r in records})
    for algo in algos:
        rows = [r for r in records if r.algo == algo]
        wins = [r for r in rows if r.success]
        entry = {
            "algo": algo,
            "runs": len(rows),
            "success_pct": 100.0 * len(wins) / len(rows) if rows else 0.0,
        }
        for key, values in (
            ("runtime_ms", [r.runtime_ms for r in wins]),
            ("cost", [r.cost_shortcut for r in wins if r.cost_shortcut is not None]),
        ):
            if values:
                entry[f"{key}_mean"] = statistics.fmean(values)
                entry[f"{key}_std"] = statistics.pstdev(values)
            else:
                entry[f"{key}_mean"] = None
                entry[f"{key}_std"] = None
        out.append(entry)
    return out


def run_benchmark(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str],
    out_csv,
    overrides: Optional[dict] = None,
    shortcut_passes: int = 1,
    jobs: int = 1,
) -> Tuple[List[RunRecord], List[dict]]:
    """Run every (scenario, algorithm) cell, verify and shortcut solutions,
    and emit the results CSV plus a JSON plot-data file next to it."""
    cells = [(s.to_obj(), algo) for s in scenarios for algo in algorithms]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(run_cell, obj, algo, overrides, shortcut_passes)
                for obj, algo in cells
            ]
            results = [f.result() for f in futures]
    else:
        results = [run_cell(obj, algo, overrides, shortcut_passes) for obj, algo in cells]

    records = [record for record, _ in results]
    plot_runs = []
    for record, frames in results:
        if frames is not None:
            plot_runs.append(
                {"scenario": record.scenario, "algo": record.algo, "frames": frames}
            )

    out_csv = FsPath(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with out_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.csv_row())
    plot_path = out_csv.with_suffix(".plot.json")
    plot_path.write_text(canonical_json({"runs": plot_runs}))
    return records, aggregate_records(records)


def format_aggregate(rows: Sequence[dict]) -> str:
    lines = [f"{'algo':<22} {'succ%':>6} {'runtime ms':>22} {'cost':>20}"]
    for row in rows:
        def pm(mean, std):
            if mean is None:
                return "-"
            return f"{mean:.1f} +/- {std:.1f}"

        lines.append(
            f"{row['algo']:<22} {row['success_pct']:>6.1f}"
            f" {pm(row['runtime_ms_mean'], row['runtime_ms_std']):>22}"
            f" {pm(row['cost_mean'], row['cost_std']):>20}"
        )
    return "\n".join(lines)
