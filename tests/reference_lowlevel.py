"""Reference copies of the low-level search loop, rest-time scan and
constraint checks that `genecbs.lowlevel` replaced, kept for differential
tests only.

`plan` keeps three heaps (every generated state on OPEN and on the
migration heap, plus FOCAL) and the `closed` and `in_focal` sets;
`earliest_rest_time` tests every constraint at every timestep up to the
horizon; `per_kind_is_forbidden` and `per_kind_is_forbidden_edge` check each
constraint kind in a branch of its own, as the checks did before they read
`core.KINDS`. All must give exactly the package's answers.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from genecbs.core import (
    CT_AVOIDANCE,
    CT_EDGE,
    CT_PRIORITY,
    CT_SPHERE,
    CT_STEP_PRIORITY,
    CT_VERTEX,
    Configuration,
    Path,
)
from genecbs.domain import Domain
from genecbs.lowlevel import (
    BUDGET,
    INFEASIBLE,
    OK,
    ConstraintContext,
    LLResult,
    _compile,
    is_forbidden,
    is_forbidden_edge,
)


def per_kind_is_forbidden(domain: Domain, ctx: ConstraintContext, q: Configuration, t: int) -> bool:
    agent = ctx.agent
    for c in ctx.constraints:
        ctype = c.ctype
        if ctype == CT_VERTEX:
            if c.time == t and c.q == q:
                return True
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
        elif ctype == CT_PRIORITY or (
            ctype == CT_STEP_PRIORITY and (t == c.time or (c.from_edge and t == c.time + 1))
        ):
            other = ctx.other_path(c.other)
            if other is not None and domain.agents_collide(agent, q, c.other, other.at(t)) is not None:
                return True
    return False


def per_kind_is_forbidden_edge(
    domain: Domain, ctx: ConstraintContext, q: Configuration, q2: Configuration, t: int
) -> bool:
    agent = ctx.agent
    for c in ctx.constraints:
        ctype = c.ctype
        if ctype == CT_EDGE:
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
        elif ctype == CT_PRIORITY or (ctype == CT_STEP_PRIORITY and c.time == t):
            other = ctx.other_path(c.other)
            if other is not None:
                other_to = other.at(t + 1) if (ctype == CT_PRIORITY or c.from_edge) else other.at(t)
                if domain.edge_collides(agent, q, q2, c.other, other.at(t), other_to) is not None:
                    return True
    return False


def earliest_rest_time(
    domain: Domain, ctx: ConstraintContext, goal: Configuration, horizon: int
) -> Optional[int]:
    for c in ctx.constraints:
        if c.ctype == CT_PRIORITY:
            other = ctx.other_path(c.other)
            if other is not None and domain.agents_collide(ctx.agent, goal, c.other, other.steps[-1]) is not None:
                return None
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
    w: float = 1.0,
    count_conflicts: bool = True,
    max_expansions: int = 200_000,
) -> LLResult:
    priority, vertex_at, edge_at, horizon = _compile(domain, ctx)
    rest_time = earliest_rest_time(domain, ctx, goal, horizon)
    if rest_time is None:
        return LLResult(INFEASIBLE)
    if is_forbidden(domain, ctx, start, 0):
        return LLResult(INFEASIBLE)

    h0 = domain.heuristic(agent, start, goal)
    longest_other = max(
        (p.horizon for p in ctx.other_paths if p is not None), default=0
    )
    t_max = horizon + longest_other + domain.state_slack(agent) + 4 * max(int(h0), 1)

    count = domain.conflict_counter(agent, ctx.other_paths) if count_conflicts else None
    h_cache: Dict[Tuple[int, ...], float] = {}
    succ_cache: Dict[Tuple[int, ...], List[Configuration]] = {}

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
            lb = max(lb_seen, float(min(t, f_min)))
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
        for q2 in successors:
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
