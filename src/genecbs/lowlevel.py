"""Time-indexed single-agent planner.

A focal search over (configuration, timestep) states returns a
constraint-satisfying path together with a certified lower bound on the
optimal constrained cost, with cost <= w * lb.

Time starts at 0 and transitions cost one unit (`Domain.successors`), so
g(q, t) == t; the wait-at-goal discount is applied by ending the path at
the final goal arrival rather than by zero-cost edges. A goal
arrival terminates the search only when the agent may rest at the goal
forever without violating any remaining constraint.

Focal search orders OPEN's near-best states by the number of conflicts with
the other agents' current paths. Those counts come from
`Domain.conflict_counter`, built once per `plan` call: grids look them up in
per-timestep occupancy and move tables, arms take each other arm down the
box-gap ladder of `PlanarArmDomain.conflict_counter`, and the base class
checks every other path with the pairwise collision primitives.

Constraint checks are compiled once per `plan` call too (`_compile`).
Priority constraints become one more `conflict_counter` over the
constrained agents' paths: a move is forbidden by them iff it conflicts with
one of those paths. Every other constraint is filed under the timesteps at
which it can bite, so `is_forbidden` and `is_forbidden_edge` only see the
constraints of the timestep being checked, and a call without constraints
checks nothing per expansion.

Each state (coords, t) has one mutable record [parent key, config, nconf,
f, where]. OPEN, the generated states not yet expanded, is a count per f
value plus a heap of the distinct values, so f_min is the least value with a
nonzero count. A state waits on the migration heap only when its f was above
the focal bound at generation, and moves to FOCAL once the bound reaches it.

Conflicts are counted only where the count decides the search. A state
generated within the focal bound is counted at once. A state generated
above it keeps its arrivals, and is counted when it migrates into FOCAL, so
a state that never migrates is never counted. The arrivals are settled in
order: the first is kept, and a later one replaces it only when its count is
strictly lower and its move passes the constraint checks. A state reached
again once it is in FOCAL is counted only when the new parent has fewer
conflicts than its record, and never once it is expanded: counts are never
negative, so no other arrival could replace the record.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import DISK, KINDS, OWN_CONFIG, OWN_MOVE, Configuration, Constraint, ConstraintKind, Path
from .domain import Domain

OK = "ok"
INFEASIBLE = "infeasible"
BUDGET = "budget"


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
        kind = KINDS[c.ctype]
        if kind.config_at(c, t):
            if kind.target == OWN_CONFIG:
                hit = c.q == q
            elif kind.target == DISK:
                hit = domain.occupancy_intersects_circle(agent, q, c.point, c.radius)
            else:
                pose = _other_pose(ctx, c, kind, t)
                hit = pose is not None and domain.agents_collide(agent, q, c.other, pose) is not None
            if hit:
                return True
    return False


def is_forbidden_edge(
    domain: Domain, ctx: ConstraintContext, q: Configuration, q2: Configuration, t: int
) -> bool:
    """True iff some constraint forbids the transition q -> q2 over [t, t+1].
    A constraint's volume at its time also blocks the moves that start then
    (the swept motion is checked against it), so the conflict it was made
    from cannot recur in the replanned path."""
    agent = ctx.agent
    for c in ctx.constraints:
        kind = KINDS[c.ctype]
        if kind.move_at(c, t):
            if kind.target == OWN_MOVE:
                hit = c.q == q and c.q2 == q2
            elif kind.target == DISK:
                hit = domain.edge_intersects_circle(agent, q, q2, c.point, c.radius)
            else:
                pose = _other_pose(ctx, c, kind, t)
                to = _other_pose(ctx, c, kind, t + 1) if kind.config_at(c, t + 1) else pose
                hit = pose is not None and domain.edge_collides(agent, q, q2, c.other, pose, to) is not None
            if hit:
                return True
    return False


def _other_pose(ctx: ConstraintContext, c: Constraint, kind: ConstraintKind, t: int) -> Optional[Configuration]:
    """The other agent's pose at t as c reads it: a snapshot holds it at
    q_other, and at q_other2 after c's time when c was made from an edge
    conflict; None when c reads a path that ctx lacks."""
    if kind.snapshot:
        return c.q_other2 if c.from_edge and t > c.time else c.q_other
    path = ctx.other_path(c.other)
    return None if path is None else path.at(t)


def _compile(domain: Domain, ctx: ConstraintContext):
    """The constraint checks of one `plan` call.

    Returns (priority, vertex_at, edge_at, horizon). `priority(q, q2, t2)` is
    nonzero iff the move q -> q2 into t2 conflicts with the path of an agent
    that an every-step (priority) constraint names (None without such
    constraints). `vertex_at[t]` and `edge_at[t]` are contexts holding the
    other constraints that `is_forbidden` at t and `is_forbidden_edge` over
    [t, t + 1] can fire on, filed by their rows' `config_at` and `move_at`
    from each constraint's time up to its `Constraint.horizon`. `horizon`
    is the latest timestep any constraint can still bite.
    """
    prio_paths: List[Optional[Path]] = [None] * len(ctx.other_paths)
    vertex: Dict[int, List[Constraint]] = {}
    edge: Dict[int, List[Constraint]] = {}
    horizon = 0
    for c in ctx.constraints:
        kind = KINDS[c.ctype]
        if kind.every_step:
            other = ctx.other_path(c.other)
            if other is not None:
                prio_paths[c.other] = other
                horizon = max(horizon, other.horizon)
            continue
        horizon = max(horizon, c.horizon)
        for t in range(c.time, c.horizon):
            if kind.config_at(c, t):
                vertex.setdefault(t, []).append(c)
            if kind.move_at(c, t):
                edge.setdefault(t, []).append(c)
    priority = None
    if any(p is not None for p in prio_paths):
        priority = domain.conflict_counter(ctx.agent, prio_paths)

    def contexts(buckets):
        return {
            t: ConstraintContext(ctx.agent, tuple(cs), ctx.other_paths) for t, cs in buckets.items()
        }

    return priority, contexts(vertex), contexts(edge), horizon


def _earliest_rest_time(
    domain: Domain, ctx: ConstraintContext, goal: Configuration, vertex_at, edge_at
) -> Optional[int]:
    """Smallest T such that resting at the goal from T onward violates
    nothing; None when resting is forbidden forever (priority constraint
    against an agent parked on a colliding configuration).

    Scans each priority path backwards from its last step, then reads
    `_compile`'s `vertex_at`/`edge_at` buckets latest timestep first; each
    scan stops at the first hit or where no hit could raise T."""
    agent = ctx.agent
    rest = 0
    for c in ctx.constraints:
        other = ctx.other_path(c.other) if KINDS[c.ctype].every_step else None
        if other is None:
            continue
        steps = other.steps
        if domain.agents_collide(agent, goal, c.other, steps[-1]) is not None:
            return None
        for t in range(len(steps) - 2, rest - 1, -1):
            if (
                domain.agents_collide(agent, goal, c.other, steps[t]) is not None
                or domain.edge_collides(agent, goal, goal, c.other, steps[t], steps[t + 1]) is not None
            ):
                rest = t + 1
                break
    for t in sorted(vertex_at.keys() | edge_at.keys(), reverse=True):
        if t < rest:
            break
        vertex_ctx, edge_ctx = vertex_at.get(t), edge_at.get(t)
        if (vertex_ctx is not None and is_forbidden(domain, vertex_ctx, goal, t)) or (
            edge_ctx is not None and is_forbidden_edge(domain, edge_ctx, goal, goal, t)
        ):
            rest = t + 1
            break
    return rest


# Where a state's record stands: waiting to migrate, in FOCAL, or expanded.
_OPEN, _FOCAL, _CLOSED = 0, 1, 2


def plan(
    domain: Domain,
    agent: int,
    start: Configuration,
    goal: Configuration,
    ctx: ConstraintContext,
    w: float = 1.0,
    count_conflicts: bool = True,
    max_expansions: int = 200_000,
    heuristic: Optional[Callable[[int, Configuration, Configuration], float]] = None,
) -> LLResult:
    """Find a constraint-satisfying path from start to goal.

    `heuristic(agent, q, goal)` defaults to `domain.heuristic`; instance
    generation passes `index_l1`. A start it reads as infinitely far
    from the goal is INFEASIBLE at once, with no expansion.

    States with f <= w * f_min form the focal list, which pops the fewest
    accumulated conflicts with `ctx.other_paths` first when
    `count_conflicts` is set, then the lowest f, then the deepest state.
    Without counting the pop is the lowest f whatever w is. Returns OK with
    (path, lb), INFEASIBLE when the constrained search space is exhausted
    under the horizon cap, or BUDGET when the expansion cap is hit. The
    invariant cost <= w * lb is asserted per call.

    Bookkeeping: one record per state, counts per f value for OPEN, and
    the migration heap for states generated above the focal bound (see the
    module docstring). A state's conflict count is taken only when it can
    decide the record: when the state is generated within the focal bound,
    when it migrates into FOCAL, or when it is reached again in FOCAL from a
    parent with fewer conflicts than its record. The answers are those of
    counting every arrival.
    """
    if heuristic is None:
        heuristic = domain.heuristic
    h0 = heuristic(agent, start, goal)
    if h0 == math.inf:
        return LLResult(INFEASIBLE)
    priority, vertex_at, edge_at, horizon = _compile(domain, ctx)
    rest_time = _earliest_rest_time(domain, ctx, goal, vertex_at, edge_at)
    if rest_time is None:
        return LLResult(INFEASIBLE)
    if is_forbidden(domain, ctx, start, 0):
        return LLResult(INFEASIBLE)

    longest_other = max(
        (p.horizon for p in ctx.other_paths if p is not None), default=0
    )
    t_max = horizon + longest_other + domain.state_slack(agent) + 4 * max(int(h0), 1)

    count = domain.conflict_counter(agent, ctx.other_paths) if count_conflicts else None
    h_cache: Dict[Tuple[int, ...], float] = {}
    succ_cache: Dict[Tuple[int, ...], List[Configuration]] = {}
    push, pop = heapq.heappush, heapq.heappop

    goal_coords = goal.coords
    key = (start.coords, 0)
    states: Dict[Tuple[Tuple[int, ...], int], list] = {key: [None, start, 0, h0, _OPEN]}
    open_count: Dict[float, int] = {h0: 1}  # f -> OPEN states with that f
    open_fs: List[float] = [h0]  # the keys of open_count
    # Heap entries end in the state key (coords, t), which orders as the
    # pair coords, t would.
    mig_heap: List[tuple] = [(h0, 0, key)]  # (f, -g, key)
    focal_heap: List[tuple] = []  # (nconf, f, -g, key)
    # OPEN state -> the parents of its arrivals after the first, in order.
    later: Dict[Tuple[Tuple[int, ...], int], list] = {}
    lb_seen = 0.0
    expansions = 0

    def move_forbidden(q: Configuration, q2: Configuration, t2: int) -> bool:
        # The move q -> q2 into t2, once (q2, t2) has passed its vertex
        # bucket: a priority path, then the edge bucket at t2 - 1. A later
        # arrival at a state asks only this, as its vertex checks passed
        # at the first.
        if priority is not None and priority(q, q2, t2):
            return True
        edge_ctx = edge_at.get(t2 - 1)
        return edge_ctx is not None and is_forbidden_edge(domain, edge_ctx, q, q2, t2 - 1)

    while True:
        # Current certified lower bound: best f over not-yet-expanded states.
        while open_fs and not open_count[open_fs[0]]:
            del open_count[pop(open_fs)]
        if not open_fs:
            break
        f_min = open_fs[0]
        if f_min > lb_seen:
            lb_seen = f_min
        bound = w * f_min + 1e-9

        while mig_heap and mig_heap[0][0] <= bound:
            f, ng, key = pop(mig_heap)
            rec = states[key]
            rec[4] = _FOCAL
            if count is not None and rec[0] is not None:
                # Settle the arrivals in order, as if each had been counted
                # on arrival. Every parent is expanded, so its nconf is final.
                q2, t2 = rec[1], key[1]
                best = rec[2] + count(states[rec[0]][1], q2, t2)
                for pkey in later.pop(key, ()):
                    _, q, nconf = states[pkey][:3]
                    if nconf < best:
                        nconf2 = nconf + count(q, q2, t2)
                        if nconf2 < best and not move_forbidden(q, q2, t2):
                            rec[0], best = pkey, nconf2
                rec[2] = best
            push(focal_heap, (rec[2], f, ng, key))

        while focal_heap:
            nconf, f, ng, key = pop(focal_heap)
            rec = states[key]
            if rec[4] != _CLOSED:
                break
        else:  # FOCAL is empty
            break
        rec[4] = _CLOSED
        open_count[f] -= 1
        coords, t = key
        q, nconf = rec[1], rec[2]

        if coords == goal_coords and t >= rest_time:
            lb = max(lb_seen, float(min(t, f_min)))  # goal f == g == t; h == 0
            cost = float(t)
            assert cost <= w * lb + 1e-9, (cost, w, lb)
            return LLResult(OK, _reconstruct(states, key, agent), lb, expansions)

        expansions += 1
        if expansions > max_expansions:
            return LLResult(BUDGET, expansions=expansions)
        t2 = t + 1
        if t2 > t_max:
            continue
        vertex_ctx = vertex_at.get(t2)
        successors = succ_cache.get(coords)
        if successors is None:
            successors = succ_cache[coords] = domain.successors(agent, q)
        for q2 in successors:
            c2 = q2.coords
            key2 = (c2, t2)
            known = states.get(key2)
            if known is not None:
                # Same g at every arrival to (q2, t2); keep the route with the
                # fewest accumulated conflicts (stale focal entries sort after
                # the fresh one and are skipped as closed).
                where = known[4]
                if where == _OPEN:
                    if count is not None:
                        later.setdefault(key2, []).append(key)
                elif where == _FOCAL and nconf < known[2]:
                    # Without counting every nconf is 0, so count is set here.
                    nconf2 = nconf + count(q, q2, t2)
                    if nconf2 < known[2] and not move_forbidden(q, q2, t2):
                        known[0], known[2] = key, nconf2
                        if known[3] <= bound:
                            push(focal_heap, (nconf2, known[3], -t2, key2))
                continue
            if (vertex_ctx is not None and is_forbidden(domain, vertex_ctx, q2, t2)) or move_forbidden(q, q2, t2):
                continue
            h = h_cache.get(c2)
            if h is None:
                h = h_cache[c2] = heuristic(agent, q2, goal)
            f2 = t2 + h
            if f2 not in open_count:
                push(open_fs, f2)
            open_count[f2] = open_count.get(f2, 0) + 1
            if f2 <= bound:
                nconf2 = nconf if count is None else nconf + count(q, q2, t2)
                states[key2] = [key, q2, nconf2, f2, _FOCAL]
                push(focal_heap, (nconf2, f2, -t2, key2))
            else:
                # The move's count, if any, is added when the state migrates.
                states[key2] = [key, q2, nconf, f2, _OPEN]
                push(mig_heap, (f2, -t2, key2))
    return LLResult(INFEASIBLE, expansions=expansions)


def _reconstruct(states, key, agent: int) -> Path:
    steps = []
    while key is not None:
        key, q = states[key][:2]
        steps.append(q)
    steps.reverse()
    return Path(agent=agent, steps=tuple(steps))
