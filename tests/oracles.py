"""Independent reference implementations used only by tests.

These deliberately share no search code with the package: the composite
planner runs A* in the joint configuration space with explicit goal-commit
flags (an agent may declare its final arrival only while standing on its
goal; committed agents stop paying per-timestep cost but keep occupying the
goal), which reproduces the sum-of-costs objective exactly. The constrained
single-agent oracle is a plain Dijkstra over the time-expanded graph.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from genecbs.core import Configuration
from genecbs.domain import Domain, GridDomain


def bfs_distances(domain: GridDomain, goal: Tuple[int, int]) -> Dict[Tuple[int, int], int]:
    """Unit-cost grid distances to `goal` (ignoring other agents)."""
    dist = {goal: 0}
    dq = deque([goal])
    while dq:
        x, y = dq.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (x + dx, y + dy)
            if (
                0 <= nxt[0] < domain.width
                and 0 <= nxt[1] < domain.height
                and nxt not in domain.blocked
                and nxt not in dist
            ):
                dist[nxt] = dist[(x, y)] + 1
                dq.append(nxt)
    return dist


def composite_optimal_cost(
    domain: Domain, max_expansions: int = 2_000_000
) -> Optional[float]:
    """Optimal sum of costs over all agents jointly, or None if unsolvable
    (or the expansion cap is hit). The search is its own, but it shares the
    domain's primitives (`successors`, `agents_collide`, `edge_collides`)
    with the solvers, as `bench.verify` does: it checks their search and
    bounds, not their geometry."""
    n = domain.n_agents
    starts, goals = domain.starts, domain.goals

    if isinstance(domain, GridDomain):
        tables = [bfs_distances(domain, goals[a].coords) for a in range(n)]

        def h_agent(a: int, q: Configuration) -> float:
            d = tables[a].get(q.coords)
            return float(d) if d is not None else float("inf")

    else:

        def h_agent(a: int, q: Configuration) -> float:
            return domain.heuristic(a, q, goals[a])

    start = (tuple(starts), (False,) * n)
    h0 = sum(h_agent(a, starts[a]) for a in range(n))
    if h0 == float("inf"):
        return None
    best_g: Dict[tuple, float] = {start: 0.0}
    tie = 0
    heap: List[tuple] = [(h0, 0.0, 0, start)]
    expanded = 0

    while heap:
        f, g, _, state = heapq.heappop(heap)
        if g > best_g.get(state, float("inf")):
            continue
        configs, done = state
        if all(done):
            return g
        expanded += 1
        if expanded > max_expansions:
            return None

        per_agent: List[List[Tuple[Configuration, float, bool]]] = []
        for a in range(n):
            if done[a]:
                per_agent.append([(configs[a], 0.0, True)])
                continue
            moves: List[Tuple[Configuration, float, bool]] = [
                (q2, 1.0, False) for q2 in domain.successors(a, configs[a])
            ]
            if configs[a] == goals[a]:
                moves.append((configs[a], 0.0, True))
            per_agent.append(moves)

        def product(idx: int, cfgs: list, costs: float, flags: list):
            nonlocal tie
            if idx == n:
                ns = (tuple(cfgs), tuple(flags))
                ng = g + costs
                if ng < best_g.get(ns, float("inf")):
                    best_g[ns] = ng
                    h = sum(
                        0.0 if flags[a] else h_agent(a, cfgs[a]) for a in range(n)
                    )
                    if h == float("inf"):
                        return
                    tie += 1
                    heapq.heappush(heap, (ng + h, ng, tie, ns))
                return
            for q2, c, flag in per_agent[idx]:
                bad = False
                for b in range(idx):
                    if domain.agents_collide(idx, q2, b, cfgs[b]) is not None:
                        bad = True
                        break
                    if (
                        domain.edge_collides(
                            idx, configs[idx], q2, b, configs[b], cfgs[b]
                        )
                        is not None
                    ):
                        bad = True
                        break
                if bad:
                    continue
                cfgs.append(q2)
                flags.append(flag)
                product(idx + 1, cfgs, costs + c, flags)
                cfgs.pop()
                flags.pop()

        product(0, [], 0.0, [])
    return None


def constrained_optimal_cost(
    domain: Domain,
    agent: int,
    start: Configuration,
    goal: Configuration,
    forbidden_vertex: Callable[[Configuration, int], bool],
    forbidden_edge: Callable[[Configuration, Configuration, int], bool],
    horizon: int,
    rest_after: int = 0,
) -> Optional[int]:
    """Optimal single-agent cost over the time-expanded graph up to
    `horizon`, under caller-supplied forbidden predicates. The goal counts
    only at t >= rest_after and only if resting there violates nothing
    afterwards (checked through `horizon`)."""

    def can_rest(t: int) -> bool:
        if t < rest_after:
            return False
        for tt in range(t, horizon + 1):
            if forbidden_vertex(goal, tt) or forbidden_edge(goal, goal, tt):
                return False
        return True

    if forbidden_vertex(start, 0):
        return None
    if start == goal and can_rest(0):
        return 0
    frontier = {start}
    for t in range(1, horizon + 1):
        nxt = set()
        for q in frontier:
            for q2 in domain.successors(agent, q):
                if q2 in nxt:
                    continue
                if forbidden_vertex(q2, t) or forbidden_edge(q, q2, t - 1):
                    continue
                nxt.add(q2)
        if goal in nxt and can_rest(t):
            return t
        frontier = nxt
        if not frontier:
            return None
    return None
