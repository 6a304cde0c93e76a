"""Planning domains: successor generation, heuristics, and collision geometry.

Two implementations share one interface: a 2D grid with point robots (the
fast oracle domain) and a planar N-link arm domain where each link is a
segment inflated to a capsule of radius ``thickness``. All collision
predicates are closed (<= thresholds) so tangency behaves deterministically.
Arm motion checks are certified over the whole motion unless a sample count
is given; sampled checks are the verifier's independent reference.
Domains are immutable after construction; the internal memo caches only store
results of pure queries.

The arm domain's conflict counter decides each (move, other arm) part from
the primitives' memo entry, else from a bounding-box certificate, and calls
the primitive only when neither settles it. Below the primitives, the exact
link-pair scan of two sample poses is memoised per threshold.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import Configuration, Path

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
# Size cap of each arm pose memo: link segments, boxes and exact pair gaps.
POSE_MEMO_CAP = 400_000


class Domain(ABC):
    """Shared interface over planning domains.

    Implementations provide per-agent successor sets, an admissible and
    consistent heuristic under unit-cost primitives, and pairwise collision
    queries returning workspace points.
    """

    n_agents: int
    starts: Tuple[Configuration, ...]
    goals: Tuple[Configuration, ...]
    substeps: int

    @abstractmethod
    def dimension(self, agent: int) -> int: ...

    @abstractmethod
    def in_bounds(self, agent: int, q: Configuration) -> bool: ...

    @abstractmethod
    def is_static_free(self, agent: int, q: Configuration) -> bool: ...

    @abstractmethod
    def successors(self, agent: int, q: Configuration) -> List[Tuple[Configuration, float]]: ...

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
        substeps: Optional[int] = None,
    ) -> bool:
        """Whether the motion touches the disk."""

    @abstractmethod
    def state_slack(self, agent: int) -> int:
        """Upper bound on any shortest constraint-free path length, used to
        cap low-level horizons."""

    def conflict_counter(
        self, agent: int, other_paths: Sequence[Optional[Path]], substeps: Optional[int] = None
    ) -> Callable[[Configuration, Configuration, int], int]:
        """Build, once per set of other paths, the conflict count against
        them; other_paths[j] is agent j's path or None.

        The returned `count(q, q2, t2)` is the number of non-None paths that
        the agent's move q -> q2 into timestep t2 conflicts with: a vertex
        collision at t2, else an edge collision over [t2 - 1, t2]. This
        default checks every path with `agents_collide` and `edge_collides`,
        which it passes `substeps`.
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
                elif edge_collides(
                    agent, q, q2, j, steps[t2 - 1 if t2 <= last else last], at_t2, substeps
                ) is not None:
                    n += 1
            return n

        return count

    def transition_cost(self, agent: int, a: Configuration, b: Configuration) -> float:
        return 1.0

    def transition_valid(self, agent: int, a: Configuration, b: Configuration) -> bool:
        """b must be a (wait or primitive) successor of a."""
        if not (self.in_bounds(agent, a) and self.is_static_free(agent, a)):
            return False
        return any(b == succ for succ, _ in self.successors(agent, a))

    def validate_instance(self) -> None:
        """Check starts/goals: dimensionality, bounds, static freedom, and
        mutual conflict freedom. Raises ValueError on the first failure."""
        for agent in range(self.n_agents):
            for label, q in (("start", self.starts[agent]), ("goal", self.goals[agent])):
                if len(q) != self.dimension(agent):
                    raise ValueError(f"agent {agent} {label} has wrong dimensionality")
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
        self.substeps = substeps
        if len(self.goals) != self.n_agents:
            raise ValueError("starts and goals must have the same length")

    def dimension(self, agent: int) -> int:
        return 2

    def in_bounds(self, agent: int, q: Configuration) -> bool:
        x, y = q.coords
        return 0 <= x < self.width and 0 <= y < self.height

    def is_static_free(self, agent: int, q: Configuration) -> bool:
        return (q.coords[0], q.coords[1]) not in self.blocked

    def successors(self, agent: int, q: Configuration) -> List[Tuple[Configuration, float]]:
        x, y = q.coords
        out = []
        for dx, dy in GRID_MOVES:
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.width and 0 <= ny < self.height and (nx, ny) not in self.blocked:
                out.append((Configuration((nx, ny)), 1.0))
        out.append((q, 1.0))  # wait
        return out

    def heuristic(self, agent: int, q: Configuration, goal: Configuration) -> float:
        return float(abs(q.coords[0] - goal.coords[0]) + abs(q.coords[1] - goal.coords[1]))

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

    def edge_intersects_circle(self, agent, q, q2, center, radius, substeps=None) -> bool:
        m = self.substeps if substeps is None else substeps
        ax, ay = self.cell_center(q)
        bx, by = self.cell_center(q2)
        for k in range(m + 1):
            s = k / m
            x = ax + (bx - ax) * s
            y = ay + (by - ay) * s
            if math.hypot(x - center[0], y - center[1]) <= radius:
                return True
        return False

    def conflict_counter(self, agent, other_paths, substeps=None):
        """Count conflicts from two tables built from the other paths, each
        padded to H, the longest other horizon: how many agents occupy each
        cell at t, and how many move from cell a at t - 1 to cell b at t.
        `substeps` is ignored: a swap is a conflict at any resolution.

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


def _segs_bbox(segs: Sequence[Segment]) -> Box:
    xs = [p[0] for seg in segs for p in seg]
    ys = [p[1] for seg in segs for p in seg]
    return (min(xs), min(ys), max(xs), max(ys))


def _pair_key(i: int, c_i: tuple, j: int, c_j: tuple) -> tuple:
    """Memo key of arms i and j at poses c_i and c_j, lower index first."""
    return (i, c_i, j, c_j) if i < j else (j, c_j, i, c_i)


def _edge_key(i: int, a_i: tuple, b_i: tuple, j: int, a_j: tuple, b_j: tuple, substeps) -> tuple:
    """Memo key of the simultaneous motions a_i -> b_i and a_j -> b_j."""
    if i < j:
        return (i, a_i, b_i, j, a_j, b_j, substeps)
    return (j, a_j, b_j, i, a_i, b_i, substeps)


def _boxes_apart(a: Box, b: Box, enough: float) -> bool:
    """Whether the boxes are more than `enough` apart on an axis."""
    return a[0] - enough > b[2] or b[0] - enough > a[2] or a[1] - enough > b[3] or b[1] - enough > a[3]


def _box_gap(a: Box, b: Box) -> float:
    """Distance between two boxes: a lower bound on that of their contents."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    gx = ax0 - bx1 if ax0 > bx1 else (bx0 - ax1 if bx0 > ax1 else 0.0)
    gy = ay0 - by1 if ay0 > by1 else (by0 - ay1 if by0 > ay1 else 0.0)
    return math.hypot(gx, gy)


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
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.arms = tuple(arms)
        self.obstacles = tuple(((float(c[0]), float(c[1])), float(r)) for c, r in obstacles)
        self.delta = float(delta)
        self.starts = tuple(starts)
        self.goals = tuple(goals)
        self.n_agents = len(self.arms)
        self.substeps = substeps
        if not (len(self.starts) == len(self.goals) == self.n_agents):
            raise ValueError("arms, starts, and goals must have the same length")
        self._fk_cache: Dict[Tuple[int, Tuple[float, ...]], Tuple[Segment, ...]] = {}
        self._bbox_cache: Dict[Tuple[int, Tuple[float, ...]], Box] = {}
        self._static_cache: Dict[Tuple[int, Tuple[int, ...]], bool] = {}
        self._succ_cache: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[Configuration, float]]] = {}
        self._pair_cache: Dict[tuple, Optional[Point]] = {}
        self._edge_cache: Dict[tuple, Optional[Tuple[Point, float]]] = {}
        # Exact branch of _pair_gap: (i, coords_i, j, coords_j, threshold)
        # -> (distance bound, contact point).
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

    def dimension(self, agent: int) -> int:
        return len(self.arms[agent].link_lengths)

    def in_bounds(self, agent: int, q: Configuration) -> bool:
        limits = self.arms[agent].joint_limits
        if len(q.coords) != len(limits):
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(q.coords, limits))

    def fk_segments(self, agent: int, coords: Sequence[float]) -> Tuple[Segment, ...]:
        """Link segments of the arm at (possibly fractional) joint indices."""
        key = (agent, tuple(coords))
        hit = self._fk_cache.get(key)
        if hit is not None:
            return hit
        out = self._fk(agent, coords)
        if len(self._fk_cache) < POSE_MEMO_CAP:
            self._fk_cache[key] = out
        return out

    def _fk(self, agent: int, coords: Sequence[float]) -> Tuple[Segment, ...]:
        arm = self.arms[agent]
        x, y = arm.base
        theta = 0.0
        segs = []
        for length, c in zip(arm.link_lengths, coords):
            theta += c * self.delta
            nx = x + length * math.cos(theta)
            ny = y + length * math.sin(theta)
            segs.append(((x, y), (nx, ny)))
            x, y = nx, ny
        return tuple(segs)

    def _static_free_coords(self, agent: int, coords: Sequence[float]) -> bool:
        eps = self.arms[agent].thickness
        for seg in self.fk_segments(agent, coords):
            for center, radius in self.obstacles:
                if _seg_point_dist(seg, center) <= eps + radius:
                    return False
        return True

    def is_static_free(self, agent: int, q: Configuration) -> bool:
        key = (agent, q.coords)
        hit = self._static_cache.get(key)
        if hit is None:
            hit = self._static_free_coords(agent, q.coords)
            self._static_cache[key] = hit
        return hit

    def successors(self, agent: int, q: Configuration) -> List[Tuple[Configuration, float]]:
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
                        out.append((cfg, 1.0))
        out.append((q, 1.0))  # wait
        self._succ_cache[key] = out
        return out

    def heuristic(self, agent: int, q: Configuration, goal: Configuration) -> float:
        return float(sum(abs(a - b) for a, b in zip(q.coords, goal.coords)))

    def _bbox(self, agent: int, coords: Tuple[float, ...]) -> Box:
        key = (agent, coords)
        hit = self._bbox_cache.get(key)
        if hit is not None:
            return hit
        out = _segs_bbox(self.fk_segments(agent, coords))
        if len(self._bbox_cache) < POSE_MEMO_CAP:
            self._bbox_cache[key] = out
        return out

    def _shape(self, agent: int, coords: Tuple[float, ...], memo: bool):
        """Link segments and their bounding box; `memo` stores them in the
        caches (sample points of the default resolution only, so bisection
        points never grow them)."""
        if memo:
            return self.fk_segments(agent, coords), self._bbox(agent, coords)
        segs = self._fk(agent, coords)
        return segs, _segs_bbox(segs)

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
        memo: bool = True,
    ) -> Tuple[float, Optional[Point]]:
        """Lower bound on the distance between the two arms' link axes, and
        the contact point when that distance is <= threshold.

        When the bounding boxes are more than `enough` (>= threshold) apart
        on an axis, their gap is the bound. Otherwise the link pairs
        are scanned in order: the first pair within the threshold gives the
        contact point (the midpoint of its closest points), and with no such
        pair the bound is the exact distance. A threshold of infinity asks
        for the closest pair.

        The scan's result depends only on the two poses and the threshold,
        so `memo` calls keep it in `_gap_cache`; `enough` only decides
        whether the box shortcut is taken.
        """
        if memo:
            box_i, box_j = self._bbox(i, coords_i), self._bbox(j, coords_j)
        else:
            segs_i, box_i = self._shape(i, coords_i, False)
            segs_j, box_j = self._shape(j, coords_j, False)
        if _boxes_apart(box_i, box_j, enough):
            return _box_gap(box_i, box_j), None
        if not memo:
            return _closest_links(segs_i, segs_j, threshold)
        key = (i, coords_i, j, coords_j, threshold)
        out = self._gap_cache.get(key)
        if out is None:
            out = _closest_links(self.fk_segments(i, coords_i), self.fk_segments(j, coords_j), threshold)
            if len(self._gap_cache) < POSE_MEMO_CAP:
                self._gap_cache[key] = out
        return out

    def _circle_gap(
        self,
        agent: int,
        coords: Tuple[float, ...],
        center: Point,
        threshold: float,
        enough: float,
        memo: bool = True,
    ) -> Tuple[float, Optional[Point]]:
        """Lower bound on the distance from center to the arm's link axes,
        and center itself when that distance is <= threshold; the bounding
        box stands in as in `_pair_gap`."""
        segs, (x0, y0, x1, y1) = self._shape(agent, coords, memo)
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

    def _sweep(self, gap, speed: float, threshold: float) -> Optional[Tuple[Point, float]]:
        """Certified check of a motion over sub-time [0, 1].

        `gap(s, memo, threshold, enough)` returns a lower bound on the
        separation at sub-time s (exact unless it exceeds `enough`) and a
        contact point when the separation is <= threshold. The separation
        changes at most `speed` per unit of sub-time, so an interval whose
        end gaps g0, g1 satisfy (g0 + g1 - speed * width) / 2 > threshold is
        contact-free throughout (adaptive dynamic collision checking,
        Schwarzer, Saha & Latombe 2005). The `substeps` sample points are
        probed first, in order, so a hit there is reported where the sampled
        check reports it; each gap between neighbouring samples is then
        bisected until it is certified, a midpoint is in contact, or it is
        narrower than SWEEP_MIN_WIDTH, which counts as a contact at its
        midpoint. Returns the first (point, sub-time) found, or None when
        the whole motion is certified clear.
        """
        margin = threshold + SWEEP_CERT_MARGIN
        g0, p0 = gap(0.0, True, threshold, margin + speed / 2.0)
        if p0 is not None:
            return p0, 0.0
        if speed == 0.0:
            return None  # neither arm moves
        g1, p1 = gap(1.0, True, threshold, margin + speed / 2.0)
        if g0 + g1 - speed > 2.0 * margin:
            return None
        m = self.substeps
        samples = [(0.0, g0)]
        for k in range(1, m):
            s = k / m
            g, p = gap(s, True, threshold, margin + speed / (2.0 * m))
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
                if g0 + g1 - speed * width > 2.0 * margin:
                    continue
                sm = s0 + width / 2.0
                if width <= SWEEP_MIN_WIDTH:
                    return gap(sm, False, math.inf, math.inf)[1], sm
                gm, pm = gap(sm, False, threshold, margin + speed * width / 4.0)
                if pm is not None:
                    return pm, sm
                stack.append((sm, gm, s1, g1))
                stack.append((s0, g0, sm, gm))
        return None

    def agents_collide(self, i, q_i, j, q_j) -> Optional[Point]:
        if not self._in_reach[i][j]:
            return None
        key = _pair_key(i, q_i.coords, j, q_j.coords)
        if key in self._pair_cache:
            return self._pair_cache[key]
        if i > j:
            i, j, q_i, q_j = j, i, q_j, q_i
        threshold = self.arms[i].thickness + self.arms[j].thickness
        out = self._pair_gap(i, q_i.coords, j, q_j.coords, threshold, threshold)[1]
        if len(self._pair_cache) < 1_000_000:
            self._pair_cache[key] = out
        return out

    def edge_collides(self, i, q_i, q_i2, j, q_j, q_j2, substeps=None):
        """First contact of the two simultaneous linear motions, as (point,
        sub-time), or None.

        Without `substeps` the whole motion is certified (`_sweep`), so None
        means contact-free at every sub-time. With `substeps` only the
        substeps + 1 evenly spaced poses are tested; that sampled check is
        the independent reference the verifier uses at twice the resolution.
        """
        if not self._in_reach[i][j]:
            return None
        key = _edge_key(i, q_i.coords, q_i2.coords, j, q_j.coords, q_j2.coords, substeps)
        if key in self._edge_cache:
            return self._edge_cache[key]
        if i > j:
            i, j, q_i, q_j, q_i2, q_j2 = j, i, q_j, q_i, q_j2, q_i2
        a_i, b_i = q_i.coords, q_i2.coords
        a_j, b_j = q_j.coords, q_j2.coords
        threshold = self.arms[i].thickness + self.arms[j].thickness

        def gap(s, memo, thr, enough):
            ci = tuple(a + (b - a) * s for a, b in zip(a_i, b_i))
            cj = tuple(a + (b - a) * s for a, b in zip(a_j, b_j))
            return self._pair_gap(i, ci, j, cj, thr, enough, memo)

        if substeps is None:
            speed = self._sweep_speed(i, a_i, b_i) + self._sweep_speed(j, a_j, b_j)
            out = self._sweep(gap, speed, threshold)
        else:
            out = None
            for k in range(substeps + 1):
                s = k / substeps
                point = gap(s, True, threshold, threshold)[1]
                if point is not None:
                    out = (point, s)
                    break
        if len(self._edge_cache) < 1_000_000:
            self._edge_cache[key] = out
        return out

    def conflict_counter(self, agent, other_paths, substeps=None):
        """The default's count ("vertex, else edge" per other arm), with
        each part decided by the first of these that applies:

        1. the answer `agents_collide` / `edge_collides` would read from
           their memos;
        2. on a miss, the bounding boxes, when they already prove the part
           clear: the vertex part when the boxes are more than the
           threshold apart on an axis (`_pair_gap`'s shortcut), the edge
           part when the box gaps g0, g1 at both ends pass `_sweep`'s
           top-level test g0 + g1 - speed > 2 * (threshold +
           SWEEP_CERT_MARGIN);
        3. the primitive itself.

        A certified-clear motion is clear at every sub-time, so the count
        equals the default's at any `substeps`. Box-certified answers are
        not stored in the memos. Each other arm in reach has its poses,
        boxes and step speeds tabled once per call; past its last step it
        waits, with speed 0. Arms out of reach can never conflict and are
        dropped.
        """
        bbox = self._bbox
        sweep_speed = self._sweep_speed
        thickness = self.arms[agent].thickness
        others = []
        for j, p in enumerate(other_paths):
            if p is None or not self._in_reach[agent][j]:
                continue
            coords = [q.coords for q in p.steps]
            speeds = [sweep_speed(j, a, b) for a, b in zip(coords, coords[1:])] + [0.0]
            threshold = thickness + self.arms[j].thickness
            others.append((
                j, p.steps, coords, [bbox(j, c) for c in coords], speeds, len(coords) - 1,
                threshold, 2.0 * (threshold + SWEEP_CERT_MARGIN),
            ))
        pair_cache = self._pair_cache
        edge_cache = self._edge_cache
        agents_collide = self.agents_collide
        edge_collides = self.edge_collides
        miss = object()
        # (q, q2) -> the planning arm's boxes at q and q2 and its speed.
        motions: Dict[tuple, Tuple[Box, Box, float]] = {}

        def count(q: Configuration, q2: Configuration, t2: int) -> int:
            c, c2 = q.coords, q2.coords
            box2 = motion = None  # looked up on a first miss
            n = 0
            for j, steps, coords, boxes, speeds, last, threshold, cert in others:
                k2 = t2 if t2 < last else last
                hit = pair_cache.get(_pair_key(agent, c2, j, coords[k2]), miss)
                if hit is miss:
                    if box2 is None:
                        box2 = bbox(agent, c2)
                    if _boxes_apart(box2, boxes[k2], threshold):
                        hit = None
                    else:
                        hit = agents_collide(agent, q2, j, steps[k2])
                if hit is not None:
                    n += 1
                    continue
                k1 = t2 - 1 if t2 <= last else last
                hit = edge_cache.get(_edge_key(agent, c, c2, j, coords[k1], coords[k2], substeps), miss)
                if hit is miss:
                    if motion is None:
                        motion = motions.get((c, c2))
                        if motion is None:
                            motion = (bbox(agent, c), bbox(agent, c2), sweep_speed(agent, c, c2))
                            motions[(c, c2)] = motion
                    box, box2, speed = motion
                    g = _box_gap(box, boxes[k1]) + _box_gap(box2, boxes[k2])
                    if g - (speed + speeds[k1]) > cert:
                        continue
                    hit = edge_collides(agent, q, q2, j, steps[k1], steps[k2], substeps)
                if hit is not None:
                    n += 1
            return n

        return count

    def occupancy_intersects_circle(self, agent, q, center, radius) -> bool:
        eps = self.arms[agent].thickness
        return any(
            _seg_point_dist(seg, center) <= eps + radius
            for seg in self.fk_segments(agent, q.coords)
        )

    def edge_intersects_circle(self, agent, q, q2, center, radius, substeps=None) -> bool:
        """Whether the arm's motion q -> q2 touches the disk. Certified over
        the whole motion without `substeps` (see `_sweep`), sampled at
        substeps + 1 poses with it."""
        threshold = self.arms[agent].thickness + radius
        a, b = q.coords, q2.coords

        def gap(s, memo, thr, enough):
            coords = tuple(x + (y - x) * s for x, y in zip(a, b))
            return self._circle_gap(agent, coords, center, thr, enough, memo)

        if substeps is None:
            return self._sweep(gap, self._sweep_speed(agent, a, b), threshold) is not None
        return any(
            gap(k / substeps, True, threshold, threshold)[1] is not None for k in range(substeps + 1)
        )

    def state_slack(self, agent: int) -> int:
        return 2 * sum(hi - lo for lo, hi in self.arms[agent].joint_limits) + 2


def domain_from_obj(obj: dict, starts: Sequence[Configuration], goals: Sequence[Configuration]) -> Domain:
    kind = obj.get("type")
    if kind == "grid":
        allowed = {"type", "width", "height", "blocked", "substeps"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown grid domain fields: {sorted(unknown)}")
        return GridDomain(
            width=int(obj["width"]),
            height=int(obj["height"]),
            blocked=[tuple(c) for c in obj.get("blocked", [])],
            starts=starts,
            goals=goals,
            substeps=int(obj.get("substeps", 4)),
        )
    if kind == "planar_arm":
        allowed = {"type", "delta", "substeps", "obstacles", "arms"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown planar_arm domain fields: {sorted(unknown)}")
        arms = [
            ArmSpec(
                base=(float(a["base"][0]), float(a["base"][1])),
                link_lengths=tuple(float(x) for x in a["link_lengths"]),
                joint_limits=tuple((int(lo), int(hi)) for lo, hi in a["joint_limits"]),
                thickness=float(a["thickness"]),
            )
            for a in obj["arms"]
        ]
        obstacles = [
            ((float(o["center"][0]), float(o["center"][1])), float(o["radius"]))
            for o in obj.get("obstacles", [])
        ]
        return PlanarArmDomain(
            arms=arms,
            obstacles=obstacles,
            delta=float(obj["delta"]),
            starts=starts,
            goals=goals,
            substeps=int(obj.get("substeps", 4)),
        )
    raise ValueError(f"unknown domain type: {kind!r}")
