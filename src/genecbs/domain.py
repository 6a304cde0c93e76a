"""Planning domains: successor generation, heuristics, and collision geometry.

Two implementations share one interface: a 2D grid with point robots (the
fast oracle domain) and a planar N-link arm domain where each link is a
segment inflated to a capsule of radius ``thickness``. All collision
predicates are closed (<= thresholds) so tangency behaves deterministically.
Grid motion checks are exact, and arm motion checks are certified over the
whole motion. `edge_collides` alone also takes a sample count: its sampled
check is the verifier's independent reference. Domains are immutable after
construction; the internal memo caches only store results of pure queries.
`in_bounds` alone says whether a configuration is well formed. Arm moves
are written once, in `successors`, which `transition_valid` reads; grid
moves once, in `GRID_MOVES`.

The arm domain's conflict counter settles each other arm on one ladder:
the box gaps at both ends of the move (`_sweep`'s top-level test,
`_certified`), then `_pair_gap` on the t2 pose pair (the end gap and the
vertex contact in one call), then on the t1 pair, then `edge_collides`.
Below the primitives, one memo keeps each pose's link segments with their
bounding box (`_shape`, built in one pass), another the exact link-pair
scan of a pose pair, both keyed by their full input, and `edge_collides`
memoises its answers. The two pose memos keep a pose iff its joint
indices are ints (`_integral`): a motion's end poses, never a pose between
them (sample or bisection point, `_lerp`). Whether a pose touches a disk,
a static obstacle or a sphere constraint's, has one answer: `_circle_gap`.

The arm heuristic is the exact distance to the goal: one breadth-first
search per (agent, goal) over the arm's joint box, built the first time it
is asked for. It learns which poses are static-free from one byte per pose
of that box (unknown, free or blocked), which `is_static_free` fills as it
is asked and the table build completes; the build places poses without
storing them (`_place`), so the pose memo only holds what the solvers ask
about. Grids keep Manhattan distance, `index_l1`.
"""

from __future__ import annotations

import itertools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .core import KINDS, OWN_CONFIG, OWN_MOVE, Configuration, Constraint, Path
from .core import json_list, json_number, json_object, json_pair

Point = Tuple[float, float]
Segment = Tuple[Point, Point]
Box = Tuple[float, float, float, float]  # (x0, y0, x1, y1)

# Fixed successor ordering keeps every search deterministic.
GRID_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))

# Certified arm sweeps: an interval of sub-time narrower than this that the
# speed bound cannot certify counts as a contact (errs on the safe side).
SWEEP_MIN_WIDTH = 1.0 / 1024
# Slack on the certification test against floating-point rounding.
SWEEP_CERT_MARGIN = 1e-9
# Size cap of each arm pose memo: a pose's link segments with their box,
# and the exact gap of a pose pair.
POSE_MEMO_CAP = 400_000
# Size cap of the arm motion memo: certified and sampled edge answers.
EDGE_MEMO_CAP = 1_000_000
# States of a pose in an arm's static map.
UNKNOWN, FREE, BLOCKED = 0, 1, 2


def index_l1(agent: int, q: Configuration, goal: Configuration) -> float:
    """L1 distance between the coordinate tuples: Manhattan distance on a
    grid, joint-index L1 on an arm. Each move changes one coordinate by 1,
    so it is admissible and consistent on both domains. It is the grid
    heuristic, and instance generation plans with it whatever heuristic the
    solvers use, so the seeded suites keep their bytes. Grid cells and the
    shipped arms have two coordinates, which are summed without a loop."""
    a, b = q.coords, goal.coords
    if len(a) == 2:
        return float(abs(a[0] - b[0]) + abs(a[1] - b[1]))
    return float(sum(map(abs, map(operator.sub, a, b))))


class Domain(ABC):
    """Shared interface over planning domains.

    Implementations provide the shape rule (`in_bounds`), per-agent
    successor sets (which `transition_valid` reads), an admissible and
    consistent heuristic under unit costs, and pairwise collision queries
    returning workspace points. The heuristic is Manhattan distance on grids
    (`index_l1`) and the exact distance to the goal on arms; it reads
    infinity where the goal cannot be reached, and `lowlevel.plan` then
    returns INFEASIBLE at once.
    """

    n_agents: int
    starts: Tuple[Configuration, ...]
    goals: Tuple[Configuration, ...]
    substeps: int

    @abstractmethod
    def in_bounds(self, agent: int, q: Configuration) -> bool:
        """Whether q is a well-formed configuration of the agent: the right
        number of coordinates, each within its range. The one shape rule."""

    @abstractmethod
    def is_static_free(self, agent: int, q: Configuration) -> bool: ...

    @abstractmethod
    def successors(self, agent: int, q: Configuration) -> List[Configuration]:
        """The configurations one transition from q reaches, in a fixed
        order with the wait (q) last. Every transition costs 1: the low
        level's g is its timestep, and `path_cost` a goal-arrival index."""

    @abstractmethod
    def heuristic(self, agent: int, q: Configuration, goal: Configuration) -> float: ...

    @abstractmethod
    def agents_collide(self, i: int, q_i: Configuration, j: int, q_j: Configuration) -> Optional[Point]: ...

    @abstractmethod
    def edge_collides(
        self,
        i: int,
        q_i: Configuration,
        q_i2: Configuration,
        j: int,
        q_j: Configuration,
        q_j2: Configuration,
        substeps: Optional[int] = None,
    ) -> Optional[Tuple[Point, float]]:
        """First contact (point, sub-time) of the two agents' simultaneous
        motions, or None. Without `substeps`, None means contact-free at
        every sub-time; with it, only substeps + 1 evenly spaced poses are
        checked."""

    @abstractmethod
    def occupancy_intersects_circle(
        self, agent: int, q: Configuration, center: Point, radius: float
    ) -> bool: ...

    @abstractmethod
    def edge_intersects_circle(
        self,
        agent: int,
        q: Configuration,
        q2: Configuration,
        center: Point,
        radius: float,
    ) -> bool:
        """Whether the motion q -> q2 touches the disk at any sub-time,
        certified over the whole motion."""

    @abstractmethod
    def state_slack(self, agent: int) -> int:
        """Upper bound on any shortest constraint-free path length, used to
        cap low-level horizons."""

    def conflict_counter(
        self, agent: int, other_paths: Sequence[Optional[Path]]
    ) -> Callable[[Configuration, Configuration, int], int]:
        """Build, once per set of other paths, the conflict count against
        them; other_paths[j] is agent j's path or None.

        The returned `count(q, q2, t2)` is the number of non-None paths that
        the agent's move q -> q2 into timestep t2 conflicts with: a vertex
        collision at t2, else an edge collision over [t2 - 1, t2], certified
        over the whole motion. This default checks every path with
        `agents_collide` and `edge_collides`.
        """
        others = [(j, p.steps, len(p.steps) - 1) for j, p in enumerate(other_paths) if p is not None]
        agents_collide = self.agents_collide
        edge_collides = self.edge_collides

        def count(q: Configuration, q2: Configuration, t2: int) -> int:
            n = 0
            for j, steps, last in others:
                at_t2 = steps[t2 if t2 < last else last]
                if agents_collide(agent, q2, j, at_t2) is not None:
                    n += 1
                elif edge_collides(agent, q, q2, j, steps[t2 - 1 if t2 <= last else last], at_t2) is not None:
                    n += 1
            return n

        return count

    def constraint_key(self, c: Constraint) -> Hashable:
        """A hashable value that two constraints share only when they forbid
        the same (configuration, t) and (move, t) sets and share
        `Constraint.horizon`, which `lowlevel._compile` reads. The tree
        engine keys its low-level memo on these values. This default is the
        constraint itself."""
        return c

    def transition_valid(self, agent: int, a: Configuration, b: Configuration) -> bool:
        """Whether a is an in-bounds static-free configuration and b one of
        its `successors` (a wait or a primitive move)."""
        if not (self.in_bounds(agent, a) and self.is_static_free(agent, a)):
            return False
        return b in self.successors(agent, a)

    def validate_instance(self) -> None:
        """Check starts/goals: bounds (a wrong number of coordinates is out
        of bounds), static freedom, and mutual conflict freedom. Raises
        ValueError on the first failure, and on an instance without agents."""
        if self.n_agents == 0:
            raise ValueError("an instance needs at least one agent")
        for agent in range(self.n_agents):
            for label, q in (("start", self.starts[agent]), ("goal", self.goals[agent])):
                if not self.in_bounds(agent, q):
                    raise ValueError(f"agent {agent} {label} out of bounds: {q.coords}")
                if not self.is_static_free(agent, q):
                    raise ValueError(f"agent {agent} {label} collides with static obstacles")
        for i in range(self.n_agents):
            for j in range(i + 1, self.n_agents):
                if self.agents_collide(i, self.starts[i], j, self.starts[j]) is not None:
                    raise ValueError(f"starts of agents {i} and {j} are in conflict")
                if self.agents_collide(i, self.goals[i], j, self.goals[j]) is not None:
                    raise ValueError(f"goals of agents {i} and {j} are in conflict")


def _checked_substeps(substeps) -> int:
    if not isinstance(substeps, int) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    return substeps


class GridDomain(Domain):
    """Unit-cell grid with point robots; cell (x, y) has workspace center
    (x + 0.5, y + 0.5)."""

    def __init__(
        self,
        width: int,
        height: int,
        blocked: Sequence[Tuple[int, int]],
        starts: Sequence[Configuration],
        goals: Sequence[Configuration],
        substeps: int = 4,
    ):
        self.width = width
        self.height = height
        self.blocked = frozenset((int(x), int(y)) for x, y in blocked)
        self.starts = tuple(starts)
        self.goals = tuple(goals)
        self.n_agents = len(self.starts)
        self.substeps = _checked_substeps(substeps)
        if len(self.goals) != self.n_agents:
            raise ValueError("starts and goals must have the same length")

    def in_bounds(self, agent: int, q: Configuration) -> bool:
        """A cell of the grid: two coordinates, within width and height."""
        c = q.coords
        return len(c) == 2 and 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def is_static_free(self, agent: int, q: Configuration) -> bool:
        return q.coords not in self.blocked

    def successors(self, agent: int, q: Configuration) -> List[Configuration]:
        x, y = q.coords
        out = []
        for dx, dy in GRID_MOVES:
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height and (nx, ny) not in self.blocked:
                out.append(Configuration((nx, ny)))
        out.append(q)  # wait
        return out

    def heuristic(self, agent: int, q: Configuration, goal: Configuration) -> float:
        return index_l1(agent, q, goal)

    def transition_valid(self, agent: int, a: Configuration, b: Configuration) -> bool:
        """The base rule decided from coordinates, as grids keep no successor
        memo: a is a free in-bounds cell, and b is a or a free in-bounds cell
        one `GRID_MOVES` offset from a."""
        ca, c = a.coords, b.coords
        if not self.in_bounds(agent, a) or ca in self.blocked:
            return False
        if c == ca:
            return True
        return self.in_bounds(agent, b) and (c[0] - ca[0], c[1] - ca[1]) in GRID_MOVES and c not in self.blocked

    def constraint_key(self, c: Constraint) -> Hashable:
        """What a constraint on the agent's own configuration or move, or
        on a snapshot of the other agent's pose, forbids, as the tuple
        (horizon, item, ...): cells (cell, t) and moves (cell, cell2, t), in
        a fixed order per target. A point robot collides only on a cell or
        in a swap, so a snapshot of a vertex conflict forbids the cell of
        the vertex constraint and gets its key. One that bites at t + 1 too,
        where the other agent moved q_other -> q_other2, forbids q_other at
        t, q_other2 at t + 1 and the swap q_other2 -> q_other over
        [t, t + 1]. Disks (a scan of the grid to list) and the other agent's
        current path (not in the constraint) keep their identity."""
        kind, t = KINDS[c.ctype], c.time
        if kind.target == OWN_CONFIG:
            return (c.horizon, (c.q.coords, t))
        if kind.target == OWN_MOVE:
            return (c.horizon, (c.q.coords, c.q2.coords, t))
        if not kind.snapshot:
            return c
        a = c.q_other.coords
        if not kind.config_at(c, t + 1):
            return (c.horizon, (a, t))
        b = c.q_other2.coords
        if a == b:
            return (c.horizon, (a, t), (b, t + 1))
        return (c.horizon, (a, t), (b, t + 1), (b, a, t))

    def cell_center(self, q: Configuration) -> Point:
        return (q.coords[0] + 0.5, q.coords[1] + 0.5)

    def agents_collide(self, i, q_i, j, q_j) -> Optional[Point]:
        if q_i.coords == q_j.coords:
            return self.cell_center(q_i)
        return None

    def edge_collides(self, i, q_i, q_i2, j, q_j, q_j2, substeps=None):
        # Point robots on a grid only conflict mid-transition on a swap.
        if q_i2.coords == q_j.coords and q_j2.coords == q_i.coords and q_i.coords != q_j.coords:
            a = self.cell_center(q_i)
            b = self.cell_center(q_j)
            return ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0), 0.5
        return None

    def occupancy_intersects_circle(self, agent, q, center, radius) -> bool:
        cx, cy = self.cell_center(q)
        return math.hypot(cx - center[0], cy - center[1]) <= radius

    def edge_intersects_circle(self, agent, q, q2, center, radius) -> bool:
        """Exact: the robot's centre sweeps the segment between the two cell
        centres."""
        return _seg_point_dist((self.cell_center(q), self.cell_center(q2)), center) <= radius

    def conflict_counter(self, agent, other_paths):
        """Count conflicts from two tables built from the other paths, each
        padded to H, the longest other horizon: how many agents occupy each
        cell at t, and how many move from cell a at t - 1 to cell b at t.

        One agent cannot both sit on q2 at t2 (a vertex hit) and move
        q2 -> q into t2 (a swap), so the per-agent "vertex, else edge" count
        is the sum of the two lookups. Past H every agent waits at its goal:
        row H holds the occupancy and no moves happen.
        """
        paths = [p.steps for p in other_paths if p is not None]
        horizon = max((len(steps) - 1 for steps in paths), default=0)
        occupied: List[Dict[Tuple[int, ...], int]] = [{} for _ in range(horizon + 1)]
        moves: List[Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]] = [{} for _ in range(horizon + 1)]
        for steps in paths:
            last = len(steps) - 1
            prev = None
            for t in range(horizon + 1):
                cell = steps[t if t < last else last].coords
                row = occupied[t]
                row[cell] = row.get(cell, 0) + 1
                if prev is not None and prev != cell:
                    row = moves[t]
                    row[(prev, cell)] = row.get((prev, cell), 0) + 1
                prev = cell

        def count(q: Configuration, q2: Configuration, t2: int) -> int:
            if t2 > horizon:
                return occupied[horizon].get(q2.coords, 0)
            return occupied[t2].get(q2.coords, 0) + moves[t2].get((q2.coords, q.coords), 0)

        return count

    def state_slack(self, agent: int) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class ArmSpec:
    """Geometry of one planar arm: base position, link lengths, inclusive
    per-joint index ranges, and capsule thickness."""

    base: Point
    link_lengths: Tuple[float, ...]
    joint_limits: Tuple[Tuple[int, int], ...]
    thickness: float

    @property
    def reach(self) -> float:
        return sum(self.link_lengths)


def _box_gap(a: Box, b: Box) -> float:
    """Distance between two boxes: a lower bound on that of their contents."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    gx = ax0 - bx1 if ax0 > bx1 else (bx0 - ax1 if bx0 > ax1 else 0.0)
    gy = ay0 - by1 if ay0 > by1 else (by0 - ay1 if by0 > ay1 else 0.0)
    return math.hypot(gx, gy)


def _certified(g0: float, g1: float, travel: float, margin: float) -> bool:
    """The sweep certificate (adaptive dynamic collision checking, Schwarzer,
    Saha & Latombe 2005): an interval whose end gaps are g0 and g1, over
    which the separation changes by at most `travel`, keeps a separation
    above `margin` throughout when (g0 + g1 - travel) / 2 > margin."""
    return g0 + g1 - travel > 2.0 * margin


def _seg_point_dist(seg: Segment, p: Point) -> float:
    (ax, ay), (bx, by) = seg
    px, py = p
    dx, dy = bx - ax, by - ay
    ln2 = dx * dx + dy * dy
    if ln2 <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / ln2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _seg_seg_closest(s1: Segment, s2: Segment) -> Tuple[float, Point, Point]:
    """Distance between two segments and the closest point pair."""
    (p1x, p1y), (q1x, q1y) = s1
    (p2x, p2y), (q2x, q2y) = s2
    d1x, d1y = q1x - p1x, q1y - p1y
    d2x, d2y = q2x - p2x, q2y - p2y
    rx, ry = p1x - p2x, p1y - p2y
    a = d1x * d1x + d1y * d1y
    e = d2x * d2x + d2y * d2y
    f = d2x * rx + d2y * ry
    eps = 1e-12
    if a <= eps and e <= eps:
        s = t = 0.0
    elif a <= eps:
        s = 0.0
        t = max(0.0, min(1.0, f / e))
    else:
        c = d1x * rx + d1y * ry
        if e <= eps:
            t = 0.0
            s = max(0.0, min(1.0, -c / a))
        else:
            b = d1x * d2x + d1y * d2y
            denom = a * e - b * b
            s = max(0.0, min(1.0, (b * f - c * e) / denom)) if denom > eps else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = max(0.0, min(1.0, -c / a))
            elif t > 1.0:
                t = 1.0
                s = max(0.0, min(1.0, (b - c) / a))
    c1 = (p1x + d1x * s, p1y + d1y * s)
    c2 = (p2x + d2x * t, p2y + d2y * t)
    return math.hypot(c1[0] - c2[0], c1[1] - c2[1]), c1, c2


def _closest_links(
    segs_i: Sequence[Segment], segs_j: Sequence[Segment], threshold: float
) -> Tuple[float, Optional[Point]]:
    """Scan the link pairs in order: the first pair within the threshold
    gives its distance and contact point (the midpoint of its closest
    points); with no such pair, the exact distance and None."""
    best, point = math.inf, None
    for si in segs_i:
        for sj in segs_j:
            dist, c1, c2 = _seg_seg_closest(si, sj)
            if dist < best:
                best, point = dist, ((c1[0] + c2[0]) / 2.0, (c1[1] + c2[1]) / 2.0)
                if dist <= threshold < math.inf:
                    return best, point
    return best, (point if best <= threshold else None)


def _circle_gap(shape, center: Point, threshold: float, enough: float) -> Tuple[float, Optional[Point]]:
    """Lower bound on the distance from center to the link axes of a pose's
    (segments, box), and center itself when that distance is <= threshold;
    the bounding box stands in as in `PlanarArmDomain._pair_gap`."""
    segs, (x0, y0, x1, y1) = shape
    cx, cy = center
    gx = max(x0 - cx, cx - x1, 0.0)
    gy = max(y0 - cy, cy - y1, 0.0)
    if gx > enough or gy > enough:
        return math.hypot(gx, gy), None
    best = math.inf
    for seg in segs:
        dist = _seg_point_dist(seg, center)
        if dist <= threshold:
            return dist, center
        best = min(best, dist)
    return best, None


def _lerp(a: Tuple[int, ...], b: Tuple[int, ...], s: float) -> Tuple[float, ...]:
    """Joint indices at sub-time s of the linear motion a -> b: the integer
    end pose at s = 0 and s = 1 and for a wait, else x + (y - x) * s per
    joint. Those end values equal, hash and place links as the formula's
    floats do, so every answer is the formula's."""
    if s == 0.0 or a == b:
        return a
    if s == 1.0:
        return b
    return tuple([x + (y - x) * s for x, y in zip(a, b)])


def _integral(coords: Tuple[float, ...]) -> bool:
    """Whether the pose memos keep a pose: no joint index is a float, as
    `_lerp` gives a motion's ends and a wait, never a pose between."""
    return float not in map(type, coords)


class PlanarArmDomain(Domain):
    """Planar kinematic chains sharing a workspace.

    Joint angles are absolute-cumulative: link k points at the sum of the
    first k joint angles, each angle being index * delta radians. The
    occupancy of a configuration is the union of its link capsules. Static
    obstacles are circles; successor generation filters configurations that
    touch any of them.
    """

    def __init__(
        self,
        arms: Sequence[ArmSpec],
        obstacles: Sequence[Tuple[Point, float]],
        delta: float,
        starts: Sequence[Configuration],
        goals: Sequence[Configuration],
        substeps: int = 4,
    ):
        if not 0 < delta < math.inf:  # also rejects NaN
            raise ValueError(f"delta must be a finite number > 0, got {delta!r}")
        if not arms or not all(a.link_lengths for a in arms):
            raise ValueError("an arm domain needs at least one arm, each with at least one link")
        for a in arms:
            if not all(map(math.isfinite, a.base)):
                raise ValueError(f"arm bases must be finite, got {a.base!r}")
            if not all(0 < x < math.inf for x in a.link_lengths):
                raise ValueError(f"link lengths must be finite numbers > 0, got {a.link_lengths!r}")
            if not 0 <= a.thickness < math.inf:
                raise ValueError(f"arm thickness must be a finite number >= 0, got {a.thickness!r}")
            if len(a.joint_limits) != len(a.link_lengths) or any(lo > hi for lo, hi in a.joint_limits):
                raise ValueError(f"joint limits must be one [lo, hi], lo <= hi, per link, got {a.joint_limits!r}")
        self.arms = tuple(arms)
        self.obstacles = tuple(((float(c[0]), float(c[1])), float(r)) for c, r in obstacles)
        for center, radius in self.obstacles:
            if not (all(map(math.isfinite, center)) and 0 <= radius < math.inf):
                raise ValueError(f"obstacles need a finite center and radius >= 0, got {center!r}, {radius!r}")
        self.delta = float(delta)
        self.starts = tuple(starts)
        self.goals = tuple(goals)
        self.n_agents = len(self.arms)
        self.substeps = _checked_substeps(substeps)
        if not (len(self.starts) == len(self.goals) == self.n_agents):
            raise ValueError("arms, starts, and goals must have the same length")
        # (agent, integer joint indices) -> (link segments, their bounding box).
        self._pose_cache: Dict[Tuple[int, Tuple[float, ...]], Tuple[Tuple[Segment, ...], Box]] = {}
        # Per arm, made on first use (`_box`): the position of each pose of
        # its joint box, and the static map over those positions.
        self._boxes: List[Optional[Tuple[Dict[Tuple[int, ...], int], bytearray]]] = [None] * len(self.arms)
        # (agent, goal coords) -> the exact distance to the goal by position.
        self._tables: Dict[Tuple[int, Tuple[int, ...]], List[float]] = {}
        self._succ_cache: Dict[Tuple[int, Tuple[int, ...]], List[Configuration]] = {}
        self._edge_cache: Dict[tuple, Optional[Tuple[Point, float]]] = {}
        # Exact branch of _pair_gap at integer poses: (i, coords_i, j,
        # coords_j, threshold) -> (distance bound, contact point).
        self._gap_cache: Dict[tuple, Tuple[float, Optional[Point]]] = {}
        # in_reach[i][j]: whether arms i and j can touch at all.
        self._in_reach = tuple(
            tuple(
                math.hypot(a.base[0] - b.base[0], a.base[1] - b.base[1])
                <= a.reach + b.reach + a.thickness + b.thickness
                for b in self.arms
            )
            for a in self.arms
        )

    def in_bounds(self, agent: int, q: Configuration) -> bool:
        limits = self.arms[agent].joint_limits
        if len(q.coords) != len(limits):
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(q.coords, limits))

    def fk_segments(self, agent: int, coords: Sequence[float]) -> Tuple[Segment, ...]:
        """Link segments of the arm at (possibly fractional) joint indices."""
        return self._shape(agent, tuple(coords))[0]

    def _shape(self, agent: int, coords: Tuple[float, ...]):
        """Link segments of the pose and their bounding box (`_place`): the
        one memoised pose accessor. A computed pose is stored iff it is
        `_integral`, so no pose between a motion's ends (sample or bisection
        point) grows the memo."""
        key = (agent, coords)
        hit = self._pose_cache.get(key)
        if hit is not None:
            return hit
        out = self._place(agent, coords)
        if _integral(coords) and len(self._pose_cache) < POSE_MEMO_CAP:
            self._pose_cache[key] = out
        return out

    def _place(self, agent: int, coords: Tuple[float, ...]):
        """Link segments of the pose and their bounding box, stored nowhere.
        One pass places the links and keeps a running min/max of their
        endpoints, so the box holds the endpoints' own floats."""
        arm = self.arms[agent]
        delta, cos, sin = self.delta, math.cos, math.sin
        x, y = arm.base
        x0 = x1 = x
        y0 = y1 = y
        theta = 0.0
        segs = []
        for length, c in zip(arm.link_lengths, coords):
            theta += c * delta
            nx = x + length * cos(theta)
            ny = y + length * sin(theta)
            segs.append(((x, y), (nx, ny)))
            if nx < x0:
                x0 = nx
            elif nx > x1:
                x1 = nx
            if ny < y0:
                y0 = ny
            elif ny > y1:
                y1 = ny
            x, y = nx, ny
        return tuple(segs), (x0, y0, x1, y1)

    def _clear_of_obstacles(self, agent: int, shape) -> bool:
        """Whether the arm's pose, given as its (segments, box), touches no
        obstacle."""
        thickness = self.arms[agent].thickness
        for center, r in self.obstacles:
            if _circle_gap(shape, center, thickness + r, thickness + r)[1] is not None:
                return False
        return True

    def _box(self, agent: int) -> Optional[Tuple[Dict[Tuple[int, ...], int], bytearray]]:
        """The arm's joint box: each pose's position, in `itertools.product`
        order, and the static map, one UNKNOWN/FREE/BLOCKED byte per
        position. None for a box of more than POSE_MEMO_CAP poses, whose
        poses are checked every time."""
        box = self._boxes[agent]
        if box is None:
            limits = self.arms[agent].joint_limits
            if math.prod(hi - lo + 1 for lo, hi in limits) <= POSE_MEMO_CAP:
                poses = itertools.product(*(range(lo, hi + 1) for lo, hi in limits))
                position = {coords: i for i, coords in enumerate(poses)}
                box = self._boxes[agent] = (position, bytearray(len(position)))
        return box

    def is_static_free(self, agent: int, q: Configuration) -> bool:
        box = self._box(agent)
        i = None if box is None else box[0].get(q.coords)
        if i is None:
            return self._clear_of_obstacles(agent, self._shape(agent, q.coords))
        static = box[1]
        state = static[i]
        if state == UNKNOWN:
            state = static[i] = FREE if self._clear_of_obstacles(agent, self._shape(agent, q.coords)) else BLOCKED
        return state == FREE

    def successors(self, agent: int, q: Configuration) -> List[Configuration]:
        key = (agent, q.coords)
        hit = self._succ_cache.get(key)
        if hit is not None:
            return hit
        limits = self.arms[agent].joint_limits
        out = []
        for j in range(len(q.coords)):
            for dj in (1, -1):
                c = q.coords[j] + dj
                if limits[j][0] <= c <= limits[j][1]:
                    cfg = Configuration(q.coords[:j] + (c,) + q.coords[j + 1 :])
                    if self.is_static_free(agent, cfg):
                        out.append(cfg)
        out.append(q)  # wait
        self._succ_cache[key] = out
        return out

    def heuristic(self, agent: int, q: Configuration, goal: Configuration) -> float:
        """The exact distance from q to the goal, in moves (`_distance_table`),
        infinity where no path of moves reaches it. An arm whose joint box
        holds more than POSE_MEMO_CAP poses keeps `index_l1`."""
        table = self._tables.get((agent, goal.coords))
        if table is None:
            box = self._box(agent)
            if box is None:
                return index_l1(agent, q, goal)
            table = self._tables[(agent, goal.coords)] = self._distance_table(agent, goal.coords, *box)
        i = self._boxes[agent][0].get(q.coords)
        return math.inf if i is None else table[i]

    def _distance_table(
        self, agent: int, goal: Tuple[int, ...], position: Dict[Tuple[int, ...], int], static: bytearray
    ) -> List[float]:
        """Breadth-first search from the goal over the arm's joint box: the
        number of moves to the goal from each pose, by position, infinity
        where the goal cannot be reached.

        A move turns one joint by one index to a static-free pose within its
        limits, as `successors` lists them, and can be made both ways, so
        the distance to the goal is the distance from it; it changes by at
        most 1 per move, so it is admissible and consistent. The static
        map is completed first; no pose is stored in the pose memo.
        """
        poses = list(position)
        for i, coords in enumerate(poses):
            if static[i] == UNKNOWN:
                static[i] = FREE if self._clear_of_obstacles(agent, self._place(agent, coords)) else BLOCKED
        dist = [math.inf] * len(poses)
        start = position.get(goal)
        if start is None or static[start] != FREE:
            return dist
        # Position step of each joint: later joints vary fastest.
        limits = self.arms[agent].joint_limits
        strides = []
        stride = 1
        for lo, hi in reversed(limits):
            strides.append(stride)
            stride *= hi - lo + 1
        strides.reverse()
        dist[start] = 0.0
        # A stride walk, not `successors`: it builds no Configuration per pose.
        frontier, d = [start], 0.0
        while frontier:
            d += 1.0
            near = []
            for i in frontier:
                for c, (lo, hi), stride in zip(poses[i], limits, strides):
                    if c < hi:
                        near.append(i + stride)
                    if c > lo:
                        near.append(i - stride)
            frontier = []
            for n in near:
                if static[n] == FREE and dist[n] == math.inf:
                    dist[n] = d
                    frontier.append(n)
        return dist

    def _sweep_speed(self, agent: int, a: Sequence[float], b: Sequence[float]) -> float:
        """Upper bound on the workspace speed, per unit of sub-time, of any
        point of the arm while its joint indices move linearly from a to b.

        Link k points at delta times the cumulative index sum up to k, so a
        point on link k moves at most sum_{l<=k} L_l * delta * |change of the
        cumulative index up to l|; the last link's sum bounds every link.
        """
        total = 0.0
        cum = 0.0
        for length, x, y in zip(self.arms[agent].link_lengths, a, b):
            cum += y - x
            total += length * abs(cum)
        return total * self.delta

    def _pair_gap(
        self,
        i: int,
        coords_i: Tuple[float, ...],
        j: int,
        coords_j: Tuple[float, ...],
        threshold: float,
        enough: float,
    ) -> Tuple[float, Optional[Point]]:
        """Lower bound on the distance between the two arms' link axes, and
        the contact point when that distance is <= threshold. The pair is
        read lower arm index first, whichever order it comes in.

        When the bounding boxes are more than `enough` (>= threshold) apart
        on an axis, their gap is the bound. Otherwise the link pairs
        are scanned in order: the first pair within the threshold gives the
        contact point (the midpoint of its closest points), and with no such
        pair the bound is the exact distance. A threshold of infinity asks
        for the closest pair.

        The scan's result depends only on the two poses and the threshold,
        so `_gap_cache` keeps it when both poses are `_integral`; `enough`
        only decides whether the box shortcut is taken.
        """
        if i > j:
            i, coords_i, j, coords_j = j, coords_j, i, coords_i
        segs_i, box_i = self._shape(i, coords_i)
        segs_j, box_j = self._shape(j, coords_j)
        ax0, ay0, ax1, ay1 = box_i
        bx0, by0, bx1, by1 = box_j
        if ax0 - enough > bx1 or bx0 - enough > ax1 or ay0 - enough > by1 or by0 - enough > ay1:
            return _box_gap(box_i, box_j), None
        key = (i, coords_i, j, coords_j, threshold)
        out = self._gap_cache.get(key)
        if out is None:
            out = _closest_links(segs_i, segs_j, threshold)
            if _integral(coords_i) and _integral(coords_j) and len(self._gap_cache) < POSE_MEMO_CAP:
                self._gap_cache[key] = out
        return out

    def _sweep(self, gap, speed: float, threshold: float) -> Optional[Tuple[Point, float]]:
        """Certified check of a motion over sub-time [0, 1].

        `gap(s, threshold, enough)` returns a lower bound on the separation
        at sub-time s (exact unless it exceeds `enough`) and a contact point
        when the separation is <= threshold; it reads its poses with
        `_lerp`, so the memos keep them only at s = 0 and s = 1. The separation
        changes at most `speed` per unit of sub-time, so an interval of
        width w is contact-free throughout when its end gaps pass
        `_certified` with travel speed * w and margin threshold +
        SWEEP_CERT_MARGIN. The whole motion is tried first, on its two end
        gaps; `conflict_counter` runs that same test before it asks
        `edge_collides`. Then the `substeps` sample points are probed, in
        order, so a hit there is reported where the sampled check reports
        it; each gap between neighbouring samples is then bisected until it
        is certified, a midpoint is in contact, or it is narrower than
        SWEEP_MIN_WIDTH, which counts as a contact at its midpoint. Returns
        the first (point, sub-time) found, or None when the whole motion is
        certified clear.
        """
        margin = threshold + SWEEP_CERT_MARGIN
        g0, p0 = gap(0.0, threshold, margin + speed / 2.0)
        if p0 is not None:
            return p0, 0.0
        if speed == 0.0:
            return None  # neither arm moves
        g1, p1 = gap(1.0, threshold, margin + speed / 2.0)
        if _certified(g0, g1, speed, margin):
            return None
        m = self.substeps
        samples = [(0.0, g0)]
        for k in range(1, m):
            s = k / m
            g, p = gap(s, threshold, margin + speed / (2.0 * m))
            if p is not None:
                return p, s
            samples.append((s, g))
        if p1 is not None:
            return p1, 1.0
        samples.append((1.0, g1))
        for left, right in zip(samples, samples[1:]):
            stack = [left + right]
            while stack:
                s0, g0, s1, g1 = stack.pop()
                width = s1 - s0
                if _certified(g0, g1, speed * width, margin):
                    continue
                sm = s0 + width / 2.0
                if width <= SWEEP_MIN_WIDTH:
                    return gap(sm, math.inf, math.inf)[1], sm
                gm, pm = gap(sm, threshold, margin + speed * width / 4.0)
                if pm is not None:
                    return pm, sm
                stack.append((sm, gm, s1, g1))
                stack.append((s0, g0, sm, gm))
        return None

    def agents_collide(self, i, q_i, j, q_j) -> Optional[Point]:
        if not self._in_reach[i][j]:
            return None
        threshold = self.arms[i].thickness + self.arms[j].thickness
        return self._pair_gap(i, q_i.coords, j, q_j.coords, threshold, threshold)[1]

    def edge_collides(self, i, q_i, q_i2, j, q_j, q_j2, substeps=None):
        """First contact of the two simultaneous linear motions, as (point,
        sub-time), or None.

        Without `substeps` the whole motion is certified (`_sweep`), so None
        means contact-free at every sub-time. With `substeps` only the
        substeps + 1 evenly spaced poses are tested; that sampled check is
        the independent reference the verifier uses at twice the resolution.
        Answers are memoised under both motions, lower arm index first, and
        the sample count.
        """
        if not self._in_reach[i][j]:
            return None
        a_i, b_i, a_j, b_j = q_i.coords, q_i2.coords, q_j.coords, q_j2.coords
        if i > j:
            i, j, a_i, b_i, a_j, b_j = j, i, a_j, b_j, a_i, b_i
        key = (i, a_i, b_i, j, a_j, b_j, substeps)
        if key in self._edge_cache:
            return self._edge_cache[key]
        threshold = self.arms[i].thickness + self.arms[j].thickness

        def gap(s, thr, enough):
            return self._pair_gap(i, _lerp(a_i, b_i, s), j, _lerp(a_j, b_j, s), thr, enough)

        if substeps is None:
            speed = self._sweep_speed(i, a_i, b_i) + self._sweep_speed(j, a_j, b_j)
            out = self._sweep(gap, speed, threshold)
        else:
            out = None
            for k in range(substeps + 1):
                s = k / substeps
                point = gap(s, threshold, threshold)[1]
                if point is not None:
                    out = (point, s)
                    break
        if len(self._edge_cache) < EDGE_MEMO_CAP:
            self._edge_cache[key] = out
        return out

    def conflict_counter(self, agent, other_paths):
        """The default's count ("vertex, else edge" per other arm). Each
        other arm's t1 -> t2 step goes down one ladder against the move
        q -> q2, and stops at the first rung that settles it:

        1. The box gaps at both ends pass `_sweep`'s top-level test
           (`_certified`): clear. The motion then keeps a separation above
           the margin at every sub-time, s = 1 (the vertex poses) included.
        2. `_pair_gap` on the t2 pose pair gives the end gap g1 and the
           vertex contact, which counts 1; its `enough` is at least the
           threshold, so the contact is the one `agents_collide` gives.
        3. `_pair_gap` on the t1 pose pair gives g0: with no contact there
           and g0, g1 certified, clear.
        4. `edge_collides` decides.

        A certified motion is clear at every sub-time, so the count equals
        the default's. Each other arm in reach has its poses, boxes and
        step speeds tabled once per call; past its last step it waits, with
        speed 0. Arms out of reach can never conflict and are dropped.
        """
        shape = self._shape
        sweep_speed = self._sweep_speed
        pair_gap = self._pair_gap
        thickness = self.arms[agent].thickness
        others = []
        for j, p in enumerate(other_paths):
            if p is None or not self._in_reach[agent][j]:
                continue
            coords = [q.coords for q in p.steps]
            speeds = [sweep_speed(j, a, b) for a, b in zip(coords, coords[1:])] + [0.0]
            threshold = thickness + self.arms[j].thickness
            others.append((
                j, p.steps, coords, [shape(j, c)[1] for c in coords], speeds, len(coords) - 1,
                threshold, threshold + SWEEP_CERT_MARGIN,
            ))
        edge_collides = self.edge_collides
        # (q, q2) -> the planning arm's boxes at q and q2 and its speed.
        motions: Dict[tuple, Tuple[Box, Box, float]] = {}

        def count(q: Configuration, q2: Configuration, t2: int) -> int:
            c, c2 = q.coords, q2.coords
            motion = motions.get((c, c2))
            if motion is None:
                motion = motions[(c, c2)] = (shape(agent, c)[1], shape(agent, c2)[1], sweep_speed(agent, c, c2))
            box, box2, speed = motion
            n = 0
            for j, steps, coords, boxes, speeds, last, threshold, margin in others:
                k2 = t2 if t2 < last else last
                k1 = t2 - 1 if t2 <= last else last
                travel = speed + speeds[k1]
                if _certified(_box_gap(box, boxes[k1]), _box_gap(box2, boxes[k2]), travel, margin):
                    continue
                enough = margin + travel / 2.0
                g1, p1 = pair_gap(agent, c2, j, coords[k2], threshold, enough)
                if p1 is not None:
                    n += 1
                    continue
                g0, p0 = pair_gap(agent, c, j, coords[k1], threshold, enough)
                if p0 is None and _certified(g0, g1, travel, margin):
                    continue
                if edge_collides(agent, q, q2, j, steps[k1], steps[k2]) is not None:
                    n += 1
            return n

        return count

    def occupancy_intersects_circle(self, agent, q, center, radius) -> bool:
        threshold = self.arms[agent].thickness + radius
        return _circle_gap(self._shape(agent, q.coords), center, threshold, threshold)[1] is not None

    def edge_intersects_circle(self, agent, q, q2, center, radius) -> bool:
        """Whether the arm's motion q -> q2 touches the disk, certified over
        the whole motion (see `_sweep`)."""
        threshold = self.arms[agent].thickness + radius
        a, b = q.coords, q2.coords

        def gap(s, thr, enough):
            return _circle_gap(self._shape(agent, _lerp(a, b, s)), center, thr, enough)

        return self._sweep(gap, self._sweep_speed(agent, a, b), threshold) is not None

    def state_slack(self, agent: int) -> int:
        return 2 * sum(hi - lo for lo, hi in self.arms[agent].joint_limits) + 2


def free_configurations(domain: Domain, agent: int) -> Iterator[Configuration]:
    """The agent's static-free configurations in `itertools.product` order:
    grid cells (x, y), arm joint indices within their limits."""
    if isinstance(domain, GridDomain):
        ranges = [range(domain.width), range(domain.height)]
    else:
        ranges = [range(lo, hi + 1) for lo, hi in domain.arms[agent].joint_limits]
    for coords in itertools.product(*ranges):
        q = Configuration(coords)
        if domain.is_static_free(agent, q):
            yield q


def domain_from_obj(obj: dict, starts: Sequence[Configuration], goals: Sequence[Configuration]) -> Domain:
    """The domain a scenario's `domain` object describes; every number goes
    through `json_number`, the domain, its arms and its obstacles go
    through `json_object`, every list through `json_list`, and every pair
    through `json_pair`."""

    kind = json_object(obj, "domain").get("type")
    if kind == "grid":
        json_object(obj, "grid domain", "type", "width", "height", "blocked", "substeps")
        return GridDomain(
            width=json_number(obj["width"], "width", int),
            height=json_number(obj["height"], "height", int),
            blocked=[json_pair(c, "blocked cells", int) for c in json_list(obj.get("blocked", []), "blocked")],
            starts=starts,
            goals=goals,
            substeps=json_number(obj.get("substeps", 4), "substeps", int),
        )
    if kind == "planar_arm":
        json_object(obj, "planar_arm domain", "type", "delta", "substeps", "obstacles", "arms")
        arms = [
            ArmSpec(
                base=json_pair(a["base"], "arm bases"),
                link_lengths=tuple(
                    json_number(x, "link lengths") for x in json_list(a["link_lengths"], "link_lengths")
                ),
                joint_limits=tuple(
                    json_pair(lim, "joint limits", int) for lim in json_list(a["joint_limits"], "joint_limits")
                ),
                thickness=json_number(a["thickness"], "arm thickness"),
            )
            for a in (
                json_object(a, "arm", "base", "link_lengths", "joint_limits", "thickness")
                for a in json_list(obj["arms"], "arms")
            )
        ]
        obstacles = [
            (json_pair(o["center"], "obstacle centers"), json_number(o["radius"], "obstacle radii"))
            for o in (
                json_object(o, "obstacle", "center", "radius") for o in json_list(obj.get("obstacles", []), "obstacles")
            )
        ]
        return PlanarArmDomain(
            arms=arms,
            obstacles=obstacles,
            delta=json_number(obj["delta"], "delta"),
            starts=starts,
            goals=goals,
            substeps=json_number(obj.get("substeps", 4), "substeps", int),
        )
    raise ValueError(f"unknown domain type: {kind!r}")
