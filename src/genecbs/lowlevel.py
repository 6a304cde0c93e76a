"""Time-indexed single-agent planner.

A focal search over (configuration, timestep) states returns a
constraint-satisfying path together with a certified lower bound on the
optimal constrained cost, with cost <= w * lb.

Time starts at 0 and every transition, including waits, costs one unit while
searching, so g(q, t) == t; the wait-at-goal discount is applied by ending
the path at the final goal arrival rather than by zero-cost edges. A goal
arrival terminates the search only when the agent may rest at the goal
forever without violating any remaining constraint.

Focal search orders OPEN's near-best states by the number of conflicts with
the other agents' current paths. Those counts come from
`Domain.conflict_counter`, built once per `plan` call: grids look them up in
per-timestep occupancy and move tables, other domains check every other path
with the pairwise collision primitives.

Constraint checks are compiled once per `plan` call too (`_compile`).
Priority constraints become one more `conflict_counter` over the
constrained agents' paths: a move is forbidden by them iff it conflicts with
one of those paths. Every other constraint is filed under the timesteps at
which it can bite, so `is_forbidden` and `is_forbidden_edge` only see the
constraints of the timestep being checked, and a call without constraints
checks nothing per expansion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import (
    CT_AVOIDANCE,
    CT_EDGE,
    CT_PRIORITY,
    CT_SPHERE,
    CT_STEP_PRIORITY,
    CT_VERTEX,
    Configuration,
    Constraint,
    Path,
)
from .domain import Domain

OK = "ok"
INFEASIBLE = "infeasible"
BUDGET = "budget"


@dataclass(frozen=True)
class Focal:
    """Focal search: returned cost <= w * lb with lb certified from OPEN."""

    w: float = 1.0
    count_conflicts: bool = True


@dataclass(frozen=True)
class ConstraintContext:
    """Everything the low level needs from a constraint-tree node: the
    constraints scoped to the planning agent and a read-only view of the
    other agents' current paths (used by priority-style constraints and by
    focal conflict counting)."""

    agent: int
    constraints: Tuple[Constraint, ...]
    other_paths: Tuple[Optional[Path], ...]

    @staticmethod
    def for_agent(agent: int, constraints, paths) -> "ConstraintContext":
        scoped = tuple(c for c in constraints if c.agent == agent)
        others = tuple(
            None if (p is None or p.agent == agent) else p for p in paths
        )
        return ConstraintContext(agent=agent, constraints=scoped, other_paths=others)

    def other_path(self, other: int) -> Optional[Path]:
        if 0 <= other < len(self.other_paths):
            return self.other_paths[other]
        return None


@dataclass(frozen=True)
class LLResult:
    status: str
    path: Optional[Path] = None
    lb: float = 0.0
    expansions: int = 0


def is_forbidden(domain: Domain, ctx: ConstraintContext, q: Configuration, t: int) -> bool:
    """True iff some constraint in ctx forbids the agent occupying q at t."""
    agent = ctx.agent
    for c in ctx.constraints:
        ctype = c.ctype
        if ctype == CT_VERTEX:
            if c.time == t and c.q == q:
                return True
        elif ctype == CT_EDGE:
            continue
        elif ctype == CT_SPHERE:
            if c.time == t and domain.occupancy_intersects_circle(agent, q, c.point, c.radius):
                return True
        elif ctype == CT_AVOIDANCE:
            if c.time == t and domain.agents_collide(agent, q, c.other, c.q_other) is not None:
                return True
            if (
                c.from_edge
                and c.time is not None
                and t == c.time + 1
                and domain.agents_collide(agent, q, c.other, c.q_other2) is not None
            ):
                return True
        elif ctype == CT_STEP_PRIORITY:
            times = (c.time, c.time + 1) if c.from_edge else (c.time,)
            if t in times:
                other = ctx.other_path(c.other)
                if other is not None and domain.agents_collide(agent, q, c.other, other.at(t)) is not None:
                    return True
        elif ctype == CT_PRIORITY:
            other = ctx.other_path(c.other)
            if other is not None and domain.agents_collide(agent, q, c.other, other.at(t)) is not None:
                return True
    return False


def is_forbidden_edge(
    domain: Domain, ctx: ConstraintContext, q: Configuration, q2: Configuration, t: int
) -> bool:
    """True iff some constraint forbids the transition q -> q2 over [t, t+1].

    Volume-style constraints at time t also block transitions starting at t:
    the swept motion is interpolated against the constraint volume, which
    guarantees the conflict a constraint was created from can never recur in
    the replanned path.
    """
    agent = ctx.agent
    for c in ctx.constraints:
        ctype = c.ctype
        if ctype == CT_VERTEX:
            continue
        elif ctype == CT_EDGE:
            if c.time == t and c.q == q and c.q2 == q2:
                return True
        elif ctype == CT_SPHERE:
            if c.time == t and domain.edge_intersects_circle(agent, q, q2, c.point, c.radius):
                return True
        elif ctype == CT_AVOIDANCE:
            if c.time == t:
                other_to = c.q_other2 if c.from_edge else c.q_other
                if domain.edge_collides(agent, q, q2, c.other, c.q_other, other_to) is not None:
                    return True
        elif ctype == CT_STEP_PRIORITY:
            if c.time == t:
                other = ctx.other_path(c.other)
                if other is not None:
                    other_to = other.at(t + 1) if c.from_edge else other.at(t)
                    if domain.edge_collides(agent, q, q2, c.other, other.at(t), other_to) is not None:
                        return True
        elif ctype == CT_PRIORITY:
            other = ctx.other_path(c.other)
            if other is not None:
                if domain.edge_collides(agent, q, q2, c.other, other.at(t), other.at(t + 1)) is not None:
                    return True
    return False


def _constraint_horizon(ctx: ConstraintContext) -> int:
    """Latest timestep any constraint can still bite."""
    h = 0
    for c in ctx.constraints:
        if c.time is not None:
            h = max(h, c.time + (2 if c.from_edge else 1))
        if c.ctype in (CT_PRIORITY,):
            other = ctx.other_path(c.other)
            if other is not None:
                h = max(h, other.horizon)
    return h


def _compile(domain: Domain, ctx: ConstraintContext):
    """The constraint checks of one `plan` call.

    Returns (priority, vertex_at, edge_at). `priority(q, q2, t2)` is nonzero
    iff the move q -> q2 into t2 conflicts with the path of an agent that a
    priority constraint names (None without such constraints). `vertex_at[t]`
    and `edge_at[t]` are contexts holding the other constraints that
    `is_forbidden` at t and `is_forbidden_edge` over [t, t + 1] can fire on.
    """
    prio_paths: List[Optional[Path]] = [None] * len(ctx.other_paths)
    vertex: Dict[int, List[Constraint]] = {}
    edge: Dict[int, List[Constraint]] = {}
    for c in ctx.constraints:
        if c.ctype == CT_PRIORITY:
            other = ctx.other_path(c.other)
            if other is not None:
                prio_paths[c.other] = other
            continue
        if c.time is None:
            continue
        if c.ctype != CT_EDGE:
            vertex.setdefault(c.time, []).append(c)
            if c.from_edge and c.ctype in (CT_AVOIDANCE, CT_STEP_PRIORITY):
                vertex.setdefault(c.time + 1, []).append(c)
        if c.ctype != CT_VERTEX:
            edge.setdefault(c.time, []).append(c)
    priority = None
    if any(p is not None for p in prio_paths):
        priority = domain.conflict_counter(ctx.agent, prio_paths)

    def contexts(buckets):
        return {
            t: ConstraintContext(ctx.agent, tuple(cs), ctx.other_paths) for t, cs in buckets.items()
        }

    return priority, contexts(vertex), contexts(edge)


def _earliest_rest_time(domain: Domain, ctx: ConstraintContext, goal: Configuration) -> Optional[int]:
    """Smallest T such that resting at the goal from T onward violates
    nothing; None when resting is forbidden forever (priority constraint
    against an agent parked on a colliding configuration)."""
    for c in ctx.constraints:
        if c.ctype == CT_PRIORITY:
            other = ctx.other_path(c.other)
            if other is not None and domain.agents_collide(ctx.agent, goal, c.other, other.steps[-1]) is not None:
                return None
    horizon = _constraint_horizon(ctx)
    rest = 0
    for t in range(horizon + 2):
        if is_forbidden(domain, ctx, goal, t) or is_forbidden_edge(domain, ctx, goal, goal, t):
            rest = t + 1
    return rest


def plan(
    domain: Domain,
    agent: int,
    start: Configuration,
    goal: Configuration,
    ctx: ConstraintContext,
    mode=Focal(1.0),
    max_expansions: int = 200_000,
    horizon_factor: int = 4,
) -> LLResult:
    """Find a constraint-satisfying path from start to goal.

    Returns OK with (path, lb), INFEASIBLE when the constrained search space
    is exhausted under the horizon cap, or BUDGET when the expansion cap is
    hit. The invariant cost <= w * lb is asserted per call.
    """
    rest_time = _earliest_rest_time(domain, ctx, goal)
    if rest_time is None:
        return LLResult(INFEASIBLE)
    if is_forbidden(domain, ctx, start, 0):
        return LLResult(INFEASIBLE)

    h0 = domain.heuristic(agent, start, goal)
    horizon = _constraint_horizon(ctx)
    longest_other = max(
        (p.horizon for p in ctx.other_paths if p is not None), default=0
    )
    t_max = horizon + longest_other + domain.state_slack(agent) + horizon_factor * max(int(h0), 1)

    w = mode.w
    count = domain.conflict_counter(agent, ctx.other_paths) if mode.count_conflicts else None
    priority, vertex_at, edge_at = _compile(domain, ctx)
    h_cache: Dict[Tuple[int, ...], float] = {}
    succ_cache: Dict[Tuple[int, ...], List[Tuple[Configuration, float]]] = {}

    def h_of(q: Configuration) -> float:
        v = h_cache.get(q.coords)
        if v is None:
            v = domain.heuristic(agent, q, goal)
            h_cache[q.coords] = v
        return v

    start_key = (start.coords, 0)
    # node bookkeeping: key -> (parent key, config, nconf)
    info: Dict[Tuple[Tuple[int, ...], int], tuple] = {start_key: (None, start, 0)}
    f0 = h_of(start)
    open_heap: List[tuple] = [(f0, 0, start.coords, 0)]  # (f, -g, coords, t)
    mig_heap: List[tuple] = [(f0, 0, start.coords, 0)]
    focal_heap: List[tuple] = []  # (nconf, f, -g, coords, t)
    in_focal = set()
    closed = set()
    lb_seen = 0.0
    expansions = 0

    while open_heap:
        # Current certified lower bound: best f over not-yet-expanded states.
        while open_heap and (open_heap[0][2], open_heap[0][3]) in closed:
            heapq.heappop(open_heap)
        if not open_heap:
            break
        f_min = open_heap[0][0]
        lb_seen = max(lb_seen, f_min)
        bound = w * f_min + 1e-9

        while mig_heap and mig_heap[0][0] <= bound:
            f, ng, coords, t = heapq.heappop(mig_heap)
            key = (coords, t)
            if key in closed or key in in_focal:
                continue
            nconf = info[key][2]
            heapq.heappush(focal_heap, (nconf, f, ng, coords, t))
            in_focal.add(key)

        key = None
        while focal_heap:
            nconf, f, ng, coords, t = heapq.heappop(focal_heap)
            if (coords, t) not in closed:
                key = (coords, t)
                break
        if key is None:
            break
        closed.add(key)
        coords, t = key
        _, q, nconf = info[key]

        if q == goal and t >= rest_time:
            lb = max(lb_seen, float(min(t, f_min)))  # goal f == g == t; h == 0
            cost = float(t)
            assert cost <= w * lb + 1e-9, (cost, w, lb)
            return LLResult(OK, _reconstruct(info, key, agent), lb, expansions)

        expansions += 1
        if expansions > max_expansions:
            return LLResult(BUDGET, expansions=expansions)
        t2 = t + 1
        if t2 > t_max:
            continue
        vertex_ctx = vertex_at.get(t2)
        edge_ctx = edge_at.get(t)
        successors = succ_cache.get(coords)
        if successors is None:
            successors = succ_cache[coords] = domain.successors(agent, q)
        for q2, _cost in successors:
            key2 = (q2.coords, t2)
            known = info.get(key2)
            if known is None:
                if (
                    (priority is not None and priority(q, q2, t2))
                    or (vertex_ctx is not None and is_forbidden(domain, vertex_ctx, q2, t2))
                    or (edge_ctx is not None and is_forbidden_edge(domain, edge_ctx, q, q2, t))
                ):
                    continue
            nconf2 = nconf if count is None else nconf + count(q, q2, t2)
            if known is not None:
                # Same g at every arrival to (q2, t2); keep the route with the
                # fewest accumulated conflicts (stale focal entries sort after
                # the fresh one and are skipped as closed). Its vertex checks
                # passed when it was first generated, so only the edge is
                # left: `priority` counts no vertex hit on it.
                if key2 in closed or nconf2 >= known[2]:
                    continue
                if (priority is not None and priority(q, q2, t2)) or (
                    edge_ctx is not None and is_forbidden_edge(domain, edge_ctx, q, q2, t)
                ):
                    continue
                info[key2] = (key, q2, nconf2)
                f2 = t2 + h_of(q2)
                if key2 in in_focal and f2 <= bound:
                    heapq.heappush(focal_heap, (nconf2, f2, -t2, q2.coords, t2))
                continue
            info[key2] = (key, q2, nconf2)
            f2 = t2 + h_of(q2)
            heapq.heappush(open_heap, (f2, -t2, q2.coords, t2))
            heapq.heappush(mig_heap, (f2, -t2, q2.coords, t2))
            if f2 <= bound:
                heapq.heappush(focal_heap, (nconf2, f2, -t2, q2.coords, t2))
                in_focal.add(key2)
    return LLResult(INFEASIBLE, expansions=expansions)


def _reconstruct(info, key, agent: int) -> Path:
    steps = []
    while key is not None:
        parent, q, _ = info[key]
        steps.append(q)
        key = parent
    steps.reverse()
    return Path(agent=agent, steps=tuple(steps))
