"""High-level constraint-tree solvers.

One engine drives the whole family. The algorithms differ only in data: each
row of `PRESETS` sets the engine's flags, and `solve` looks the row up. Every
row picks nodes through the same focal loop over one open set.

  cbs           the focal loop at w = 1 with the key (cost, id), which pops
                the cheapest open node; complete constraints, eager children
  ecbs          focal search (conflict count within w of the lower bound)
  ac-ecbs       ecbs branching over every enabled constraint type (eager)
  ac-ecbs-lazy  same, children generated lazily with inherited values
  gen-ecbs      lazy children, one focal queue per constraint type, Dynamic
                Thompson Sampling to pick the queue each iteration
  gen-cbs       gen-ecbs at w = 1 with conflict-count-free priorities
  ecbs-sub:*    ablation: the ac-ecbs row on a menu of a single incomplete
                type, which replaces the complete pair (no guarantees)

plus prioritized planning (pp, `solve_pp`), which has no tree at all.

Lazily generated nodes inherit their parent's paths, cost, conflicts, and
bounds; selecting such a node evaluates it (replans the pending agent,
recomputes cost and conflicts) and re-queues it instead of expanding.
Inherited lower bounds stay valid because constraint sets only grow, so the
focal condition cost <= w * min lb(OPEN) keeps the w-bound proof intact.

The spine rule raises that bound where incomplete branches hold it flat.
A node is on the spine when every constraint on its path from the root is
complete (vertex or edge). Each node tallies its constraints per menu entry
(`CTNode.tally`); the spine is read from that tally, as are the focal
queues' rho_k. Rows whose menu holds the complete entry
and at least one incomplete one (ac-ecbs, ac-ecbs-lazy, gen-ecbs and
gen-cbs on their default menus, never cbs, ecbs or ecbs-sub:*) keep the open
spine nodes in a third lb heap. Once LB has not risen for `SPINE_STALL` HL
expansions, the rule stays on for the rest of the solve:

  - LB = max(min lb(OPEN), min lb(open spine)).
  - The spine's min-lb node is popped in place of a focal pop whenever DTS
    draws the complete queue (multi-queue rows), or on every other iteration
    (single-queue rows). The paper does not fix what the complete queue
    pops; this is EECBS's cleanup pop (Li, Ruml & Koenig, AAAI 2021)
    restricted to the spine.

It is sound because every collision-free solution satisfies the
constraints of one of the two complete children. For a vertex conflict's
pair, `constraints.mutually_disjunctive_check` finds no counterexample. The
edge pair forbids each agent its move of the conflict (on a grid, the two
moves of a swap), and no collision-free solution makes both moves together;
the probe reads an edge constraint as its start occupancy, so it does report
a counterexample for this pair. The optimum thus stays feasible under some
open spine node, whose lb bounds OPT from below. A spine node costs at most
w * lb <= w * LB, so every spine pop lies within the focal bound. If a node
is dropped on a low-level budget hit, the optimum may have been under it:
the reported lb is at most that node's lb, running out of nodes ends
`timeout` with `stopped_by="budget"` rather than `exhausted`, and after a
spine node the rule is off for the rest of the solve. The bound proved before stays a valid
floor, which is why the focal bound reads the running max of LB. An empty
spine falls back to min lb(OPEN). A search whose LB keeps rising never turns
the rule on.

Sibling subtrees that forbid the same thing under two constraint types repeat
their replans call for call, so each engine answers a low-level request that
repeats one of the same solve from a table (`_CTEngine._plan_agent`), keyed
on what the constraints forbid (`Domain.constraint_key`) rather than on how
they are named. `ll_calls` counts every request, answered from the table or
not; `ll_searches` counts the searches that ran.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    CT_PRIORITY,
    CT_SPHERE,
    EDGE,
    EXHAUSTED,
    KINDS,
    SOLVED,
    TIMEOUT,
    VERTEX,
    Conflict,
    Constraint,
    CTNode,
    Path,
    SolverResult,
    SolverStats,
    json_number,
    json_object,
    json_pair,
    menu_key,
)
from .constraints import (
    COMPLETE,
    ConstraintMenu,
    MenuEntry,
    default_menu,
    make_constraints,
)
from .domain import Domain
from . import lowlevel
from .lowlevel import ConstraintContext


def _pair_conflicts(paths: Sequence[Path], domain: Domain, i: int, j: int) -> List[Conflict]:
    si, sj = paths[i].steps, paths[j].steps
    h = max(len(si), len(sj)) - 1
    # Goal-pad both step tuples to the pair's horizon once.
    si += (si[-1],) * (h + 1 - len(si))
    sj += (sj[-1],) * (h + 1 - len(sj))
    agents_collide = domain.agents_collide
    edge_collides = domain.edge_collides
    out: List[Conflict] = []
    for t in range(h + 1):
        a, b = si[t], sj[t]
        point = agents_collide(i, a, j, b)
        if point is not None:
            out.append(Conflict(VERTEX, (i, j), t, (a,), (b,), point))
        if t < h:
            a2, b2 = si[t + 1], sj[t + 1]
            hit = edge_collides(i, a, a2, j, b, b2)
            if hit is not None:
                out.append(Conflict(EDGE, (i, j), t, (a, a2), (b, b2), hit[0]))
    return out


def find_conflicts(
    paths: Sequence[Path],
    domain: Domain,
    known: Optional[Tuple[Conflict, ...]] = None,
    replanned: Optional[Sequence[int]] = None,
) -> Tuple[Conflict, ...]:
    """All pairwise vertex and edge conflicts, goal-padded, ordered by
    (time, agent pair, kind).

    When `known` conflicts of a previous path set and the `replanned` agents
    are given, pairs not touching a replanned agent are copied instead of
    re-scanned (their paths are unchanged). Edge conflicts use the domain's
    certified check: none found means none at any sub-time."""
    n = len(paths)
    out: List[Conflict] = []
    changed = set(replanned or [])
    by_pair: Dict[Tuple[int, int], List[Conflict]] = {}
    for c in known or ():
        by_pair.setdefault(c.agents, []).append(c)
    for i in range(n):
        for j in range(i + 1, n):
            if known is not None and i not in changed and j not in changed:
                out.extend(by_pair.get((i, j), ()))
            else:
                out.extend(_pair_conflicts(paths, domain, i, j))
    out.sort(key=Conflict.sort_key)
    return tuple(out)


# Bound on alpha + beta of each DTS belief.
DTS_CAP = 10.0

# HL expansions without a rise of LB after which the spine rule turns on.
SPINE_STALL = 16


class DTSState:
    """Dynamic Thompson Sampling over the focal queues.

    Each queue keeps a Beta(alpha, beta) belief. Rewards bump alpha,
    penalties bump beta; afterwards both are rescaled so alpha + beta <=
    DTS_CAP, which dampens old history, and floored at 1.
    """

    def __init__(self, keys: Sequence[str], prior=None, seed: int = 0):
        self.keys = tuple(keys)
        self.alpha = {k: 1.0 for k in self.keys}
        self.beta = {k: 1.0 for k in self.keys}
        if prior:
            for k, (a, b) in prior.items():
                if k not in self.alpha:
                    raise ValueError(f"DTS prior for unknown queue {k!r}")
                # NaN hangs `betavariate`; the cap rescales an infinite sum to 0.
                if not (a >= 1.0 and b >= 1.0 and math.isfinite(a + b)):
                    raise ValueError(
                        f"DTS prior for {k!r} must be two numbers >= 1 with a finite sum, got [{a:g}, {b:g}]"
                    )
                self.alpha[k] = float(a)
                self.beta[k] = float(b)
                self._enforce_cap(k)
        self.rng = random.Random(seed)
        self.rewards = {k: 0 for k in self.keys}
        self.penalties = {k: 0 for k in self.keys}

    def _enforce_cap(self, k: str) -> None:
        total = self.alpha[k] + self.beta[k]
        if total > DTS_CAP:
            scale = DTS_CAP / total
            self.alpha[k] *= scale
            self.beta[k] *= scale
            if self.alpha[k] < 1.0:
                self.alpha[k] = 1.0
                self.beta[k] = min(self.beta[k], DTS_CAP - 1.0)
            elif self.beta[k] < 1.0:
                self.beta[k] = 1.0
                self.alpha[k] = min(self.alpha[k], DTS_CAP - 1.0)

    def sample(self) -> str:
        if len(self.keys) == 1:
            return self.keys[0]
        best_key = self.keys[0]
        best_v = -1.0
        for k in self.keys:
            v = self.rng.betavariate(self.alpha[k], self.beta[k])
            if v > best_v:
                best_v = v
                best_key = k
        return best_key

    def reward(self, k: str) -> None:
        self.alpha[k] += 1.0
        self._enforce_cap(k)
        self.rewards[k] += 1

    def penalize(self, k: str) -> None:
        self.beta[k] += 1.0
        self._enforce_cap(k)
        self.penalties[k] += 1


class _CTEngine:
    """Shared constraint-tree search. The preset row of `config.algorithm`
    selects the family member; `config` supplies w, menu, prior, seed and
    caps."""

    def __init__(self, domain: Domain, config: SolverConfig):
        preset, menu = _preset_and_menu(domain, config)
        w = 1.0 if preset.unit_w else config.w
        if not 1.0 <= w < math.inf:  # also rejects NaN
            raise ValueError(f"w must be a finite number >= 1, got {w:g}")
        self.domain = domain
        self.config = config
        self.preset = preset
        self.menu = menu
        self.w = w

        self.queue_keys: Tuple[str, ...] = menu.keys if preset.multi_queue else (menu.keys[0],)
        prior = resolve_prior(config.dts_prior, menu) if preset.multi_queue and config.dts_prior else None
        self.dts = DTSState(self.queue_keys, prior=prior, seed=config.seed)

        # Entry number -> open node version; see `_migrate` for liveness.
        self.nodes: Dict[int, CTNode] = {}
        self.entries = itertools.count()
        self.open_lb: List[tuple] = []  # (lb, entry)
        self.open_cost: List[tuple] = []  # (cost, entry); feeds the focal queues
        self.focal: Dict[str, List[tuple]] = {k: [] for k in self.queue_keys}  # (key, entry)
        # (lb, entry) of the spine nodes on menus with the complete entry and
        # an incomplete one; None where no spine rule applies or once a spine
        # node was dropped on a low-level budget hit.
        keys = menu.keys
        self.open_spine: Optional[List[tuple]] = [] if len(keys) > 1 and keys[0] == COMPLETE else None
        self.spine_on = False
        self.spine_turn = False
        self.lb_rose_at = 0  # hl_expansions when LB last rose
        self.ids = itertools.count()

        self.hl_expansions = 0
        self.evaluations = 0
        self.ll_calls = 0
        self.ll_searches = 0
        self.spine_pops = 0
        self.min_lb_final: float = 0.0
        self.budget_lb = math.inf  # least lb of a node dropped on a low-level budget hit
        # (agent, frozenset of its constraints' keys, other paths) -> LLResult.
        self.ll_memo: Dict[tuple, lowlevel.LLResult] = {}

    # ---- node plumbing -------------------------------------------------

    def _focal_keys(self, node: CTNode) -> List[tuple]:
        """The node version's key in each of `queue_keys`, as `_migrate`
        states it."""
        head = (node.cost,) if self.preset.unit_w else (len(node.conflicts), node.cost)
        if not self.preset.multi_queue:
            return [head + (node.id,)]
        depth = len(node.constraints)
        return [
            head + (node.id,) if k == COMPLETE else head + (1.0 - n / depth if depth else 1.0, node.id)
            for k, n in zip(self.queue_keys, node.tally)
        ]

    def _on_spine(self, node: CTNode) -> bool:
        """Whether `node` is on a spine this engine keeps: its tally is zero
        outside the complete entry, which such menus list first."""
        return self.open_spine is not None and not any(node.tally[1:])

    def _insert(self, node: CTNode) -> None:
        entry = next(self.entries)
        self.nodes[entry] = node
        heapq.heappush(self.open_lb, (node.lb, entry))
        heapq.heappush(self.open_cost, (node.cost, entry))
        if self._on_spine(node):
            heapq.heappush(self.open_spine, (node.lb, entry))

    def _min_lb(self, heap: List[tuple]) -> Optional[float]:
        """The least lb of a live entry of `open_lb` or `open_spine`."""
        while heap:
            lb, entry = heap[0]
            if entry in self.nodes:
                return lb
            heapq.heappop(heap)
        return None

    def _spine_lb(self) -> Optional[float]:
        """min lb over the open spine nodes while the spine rule is on; None
        while it is off or the spine is empty. Turns the rule on once LB has
        not risen for `SPINE_STALL` HL expansions."""
        if self.open_spine is None:
            return None
        if not self.spine_on:
            if self.hl_expansions - self.lb_rose_at < SPINE_STALL:
                return None
            self.spine_on = True
        return self._min_lb(self.open_spine)

    def _migrate(self, bound: float) -> None:
        """Flow node versions whose cost fits under the focal bound into every
        focal queue. Queue k's key is (conflicts, cost, rho_k, id), without
        the conflicts on `unit_w` rows and without rho_k in the complete
        queue and on single-queue rows; rho_k is 1 minus the share of the
        node's constraints of type k, read from its tally (1 at the root).
        `_focal_keys` builds a version's keys once.

        Liveness, one rule for every heap: an entry is live iff its number is
        in `nodes`, and `_pop_focal` or `_pop_spine` pops it out. A spine pop
        can take a version before its migration, so its `open_cost` entry is
        skipped here. An evaluated version keeps its lazy version's id, so
        every tie-break holds."""
        while self.open_cost and self.open_cost[0][0] <= bound:
            _, entry = heapq.heappop(self.open_cost)
            node = self.nodes.get(entry)
            if node is not None:
                for k, key in zip(self.queue_keys, self._focal_keys(node)):
                    heapq.heappush(self.focal[k], (key, entry))

    def _pop(self, heap: List[tuple]) -> Optional[CTNode]:
        while heap:
            node = self.nodes.pop(heapq.heappop(heap)[1], None)
            if node is not None:
                return node
        return None

    def _pop_focal(self, k: str) -> Optional[CTNode]:
        return self._pop(self.focal[k])

    def _pop_spine(self) -> Optional[CTNode]:
        self.spine_pops += 1
        return self._pop(self.open_spine)

    # ---- planning ------------------------------------------------------

    def _plan_agent(self, agent: int, constraints, paths) -> lowlevel.LLResult:
        """One low-level request of the tree, answered from `ll_memo` when
        it repeats one of this solve.

        `plan` reads only the context and per-solve constants (start, goal,
        w, count_conflicts, budget). It reads the constraints only through
        what they forbid at each timestep, the priority counter and the
        horizon, and neither order nor repeats matter, so the agent, the set
        of its constraints' `constraint_key`s and the other paths decide the
        result, whatever its status. Only the root plans without
        constraints, once per agent, so those requests skip the memo."""
        ctx = ConstraintContext.for_agent(agent, constraints, paths)
        self.ll_calls += 1
        key = None
        if ctx.constraints:
            forbids = frozenset(map(self.domain.constraint_key, ctx.constraints))
            key = (agent, forbids, ctx.other_paths)
        res = None if key is None else self.ll_memo.get(key)
        if res is None:
            self.ll_searches += 1
            res = lowlevel.plan(
                self.domain,
                agent,
                self.domain.starts[agent],
                self.domain.goals[agent],
                ctx,
                w=self.w,
                count_conflicts=self.preset.count_conflicts,
                max_expansions=self.config.ll_max_expansions,
            )
            if key is not None:
                self.ll_memo[key] = res
        return res

    def _evaluate_node(self, node: CTNode) -> Optional[CTNode]:
        """Replan the pending agents; None when any subproblem is infeasible
        or over budget (the node is then discarded)."""
        paths = list(node.paths)
        lbs = list(node.lb_per_agent)
        for agent in sorted(node.agents_replan):
            res = self._plan_agent(agent, node.constraints, tuple(paths))
            if res.status != lowlevel.OK:
                if res.status == lowlevel.BUDGET:
                    self.budget_lb = min(self.budget_lb, node.lb)
                    if self._on_spine(node):
                        # The optimum may lie under this node: no spine bound.
                        self.open_spine = None
                        self.spine_on = False
                return None
            paths[agent] = res.path
            lbs[agent] = max(lbs[agent], res.lb)
        paths_t = tuple(paths)
        # Inherited conflicts are the parent's true set, so pairs of untouched
        # agents carry over; the root has none and replans every agent.
        return CTNode(
            id=node.id,
            constraints=node.constraints,
            paths=paths_t,
            cost=float(sum(p.horizon for p in paths_t)),
            lb_per_agent=tuple(lbs),
            conflicts=find_conflicts(
                paths_t, self.domain, known=node.conflicts, replanned=node.agents_replan
            ),
            agents_replan=(),
            tally=node.tally,
        )

    def _make_root(self) -> Optional[CTNode]:
        root = CTNode(
            id=next(self.ids),
            constraints=(),
            paths=tuple(Path(a, (self.domain.starts[a],)) for a in range(self.domain.n_agents)),
            cost=0.0,
            lb_per_agent=tuple(0.0 for _ in range(self.domain.n_agents)),
            conflicts=(),
            agents_replan=tuple(range(self.domain.n_agents)),
            tally=(0,) * len(self.menu.enabled),
        )
        return self._evaluate_node(root)

    def _children(self, node: CTNode) -> List[CTNode]:
        """Two children per menu entry, in menu order. Each inherits the
        node's paths, cost, bounds and conflicts, and replans the agent of
        its one new constraint."""
        out = []
        for index, (_, c_i, c_j) in enumerate(make_constraints(node.conflicts[0], self.menu)):
            tally = node.tally[:index] + (node.tally[index] + 1,) + node.tally[index + 1:]
            for c in (c_i, c_j):
                constraints = node.constraints + (c,)
                out.append(CTNode(
                    id=next(self.ids),
                    constraints=constraints,
                    paths=node.paths,
                    cost=node.cost,
                    lb_per_agent=node.lb_per_agent,
                    conflicts=node.conflicts,
                    agents_replan=(c.agent,),
                    tally=tally,
                ))
        return out

    # ---- main loop -----------------------------------------------------

    def run(self) -> SolverResult:
        start_time = time.perf_counter()

        def out_of_time() -> bool:
            return (time.perf_counter() - start_time) * 1000.0 > self.config.timeout_ms

        def finish(status: str, node: Optional[CTNode], stopped_by: Optional[str] = None) -> SolverResult:
            runtime_ms = (time.perf_counter() - start_time) * 1000.0
            stats = SolverStats(
                runtime_ms=runtime_ms,
                hl_expansions=self.hl_expansions,
                evaluations=self.evaluations,
                ll_calls=self.ll_calls,
                cost=None if node is None else node.cost,
                lb=min(self.min_lb_final, self.budget_lb),
                dts_rewards=tuple(sorted(self.dts.rewards.items())),
                dts_penalties=tuple(sorted(self.dts.penalties.items())),
                ll_searches=self.ll_searches,
                stopped_by=stopped_by,
                spine_pops=self.spine_pops,
            )
            solution = None if node is None else node.paths
            return SolverResult(status=status, solution=solution, stats=stats)

        root = self._make_root()
        if root is not None:
            self._insert(root)

        while True:
            min_lb = self._min_lb(self.open_lb)
            if min_lb is None:
                return finish(TIMEOUT, None, "budget") if self.budget_lb < math.inf else finish(EXHAUSTED, None)
            if out_of_time():
                return finish(TIMEOUT, None, "clock")
            spine_lb = self._spine_lb()
            if spine_lb is not None:
                min_lb = max(min_lb, spine_lb)
            if min_lb > self.min_lb_final:
                self.min_lb_final = min_lb
                self.lb_rose_at = self.hl_expansions

            bound = self.w * self.min_lb_final + 1e-9
            self._migrate(bound)
            k = self.dts.sample()
            if spine_lb is None:
                spine_pop = False
            elif self.preset.multi_queue:
                spine_pop = k == COMPLETE
            else:
                self.spine_turn = spine_pop = not self.spine_turn
            node = self._pop_spine() if spine_pop else self._pop_focal(k)
            # The focal low level keeps every node's cost within w of its own
            # lb (lazy children inherit both), so the min-lb open node and the
            # min-lb spine node are under the bound and focal cannot be empty
            # here.
            assert node is not None and node.cost <= bound, (k, bound)

            if node.agents_replan:
                inherited = len(node.conflicts)
                updated = self._evaluate_node(node)
                self.evaluations += 1
                if updated is not None:
                    self._insert(updated)
                if self.preset.multi_queue:
                    if updated is not None and len(updated.conflicts) < inherited:
                        self.dts.reward(k)
                    else:
                        self.dts.penalize(k)
                continue

            if not node.conflicts:
                return finish(SOLVED, node)

            if self.hl_expansions >= self.config.max_expansions:
                return finish(TIMEOUT, None, "cap")
            self.hl_expansions += 1

            for child in self._children(node):
                if self.preset.lazy:
                    self._insert(child)
                else:
                    evaluated = self._evaluate_node(child)
                    self.evaluations += 1
                    if evaluated is not None:
                        self._insert(evaluated)


def parse_sub_type(spec: str, menu: ConstraintMenu) -> MenuEntry:
    """Resolve an `ecbs-sub:<type>` suffix against a menu.

    Accepts avoidance, step-priority, priority, sphere:<radius>, and the
    size aliases sphere:S / sphere:M / sphere:L (also written sphere(S)
    etc.), which rank the configured radii ascending.
    """
    spec = spec.strip().replace("(", ":").replace(")", "")
    radii = menu.sphere_radii
    if spec.startswith(CT_SPHERE):
        if not radii:
            raise ValueError("no sphere radii configured in the menu")
        suffix = spec[len(CT_SPHERE):].lstrip(":")
        aliases = {"s": 0, "m": min(1, len(radii) - 1), "l": len(radii) - 1}
        if suffix.lower() in aliases:
            return MenuEntry(CT_SPHERE, radius=radii[aliases[suffix.lower()]])
        try:
            radius = float(suffix)
        except ValueError:
            raise ValueError(f"unknown substitution type: {spec!r}") from None
        return MenuEntry(CT_SPHERE, radius=radius)
    if spec in KINDS and not KINDS[spec].complete:
        return MenuEntry(spec)
    raise ValueError(f"unknown substitution type: {spec!r}")


def resolve_prior(
    prior: Dict[str, Tuple[float, float]], menu: ConstraintMenu
) -> Dict[str, Tuple[float, float]]:
    """Map DTS prior keys onto the menu's queue keys.

    A key naming a menu entry exactly is kept. Any other sphere key resolves
    by radius, since the configured radii depend on the domain (arm radii
    scale with the first link's length): sphere:S / M / L as `parse_sub_type`
    ranks them, and sphere:<r> to the nearest configured radius (the smaller
    one on a tie). Raises ValueError for a sphere key when the menu has no
    spheres and for two keys that name one queue; other unknown keys are
    left for `DTSState` to reject.
    """
    radii = menu.sphere_radii
    out: Dict[str, Tuple[float, float]] = {}
    for name, params in prior.items():
        if name not in menu.keys and name.strip().startswith(CT_SPHERE):
            r = parse_sub_type(name, menu).radius
            name = menu_key(CT_SPHERE, min(radii, key=lambda x: (abs(x - r), x)))
        if name in out:
            raise ValueError(f"two DTS prior keys name the queue {name!r}")
        out[name] = params
    return out


# ---- configuration and entry points -------------------------------------


@dataclass
class SolverConfig:
    """Scenario/CLI-facing solver configuration."""

    algorithm: str = "gen-ecbs"
    w: float = 1.3
    menu: Optional[ConstraintMenu] = None
    dts_prior: Optional[Dict[str, Tuple[float, float]]] = None
    seed: int = 0
    timeout_ms: float = 10_000.0
    max_expansions: int = 20_000
    ll_max_expansions: int = 200_000
    pp_retries: int = 8

    def to_obj(self) -> dict:
        obj = {
            "algorithm": self.algorithm,
            "w": self.w,
            "seed": self.seed,
            "timeout_ms": self.timeout_ms,
            "max_expansions": self.max_expansions,
        }
        # Written only when set, so files that never set them keep their bytes.
        for name in ("ll_max_expansions", "pp_retries"):
            if getattr(self, name) != getattr(SolverConfig, name):
                obj[name] = getattr(self, name)
        if self.menu is not None:
            obj["menu"] = self.menu.to_obj()
        if self.dts_prior:
            obj["dts_prior"] = {k: list(v) for k, v in sorted(self.dts_prior.items())}
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "SolverConfig":
        json_object(obj, "solver", *(f.name for f in fields(SolverConfig)))
        cfg = SolverConfig()
        cfg.algorithm = obj.get("algorithm", cfg.algorithm)
        if not isinstance(cfg.algorithm, str):
            raise ValueError(f"algorithm must be a string, got {cfg.algorithm!r}")
        if "menu" in obj:
            cfg.menu = ConstraintMenu.from_obj(obj["menu"])
        if "dts_prior" in obj:
            prior = json_object(obj["dts_prior"], "dts_prior")
            cfg.dts_prior = {k: json_pair(v, "dts_prior") for k, v in prior.items()}
        # Numbers keep their default's type: w and the timeout are floats,
        # the seed and the caps integers.
        for name in ("w", "seed", "timeout_ms", "max_expansions", "ll_max_expansions", "pp_retries"):
            default = getattr(cfg, name)
            value = json_number(obj.get(name, default), name, type(default))
            if name not in ("w", "seed") and not value >= 0:  # also rejects NaN
                raise ValueError(f"{name} must be >= 0, got {value:g}")
            setattr(cfg, name, value)
        return cfg


@dataclass(frozen=True)
class Preset:
    """Engine flags of one tree algorithm.

    lazy             children inherit their parent's values and replan only
                     when selected
    multi_queue      one focal queue per menu entry, picked by DTS; only these
                     rows read `dts_prior`
    count_conflicts  the low level orders its focal list by conflict count
    complete_only    branch on vertex/edge only, whatever the configured menu
    unit_w           run at w = 1, whatever the configured w, and leave the
                     conflict count out of focal keys: the single queue's
                     key (cost, id) then pops the cheapest open node (CBS)
    """

    lazy: bool = False
    multi_queue: bool = False
    count_conflicts: bool = True
    complete_only: bool = False
    unit_w: bool = False


PRESETS: Dict[str, Preset] = {
    "cbs": Preset(complete_only=True, unit_w=True),
    "ecbs": Preset(complete_only=True),
    "ac-ecbs": Preset(),
    "ac-ecbs-lazy": Preset(lazy=True),
    "gen-ecbs": Preset(lazy=True, multi_queue=True),
    "gen-cbs": Preset(lazy=True, multi_queue=True, count_conflicts=False, unit_w=True),
}

SUB_PREFIX = "ecbs-sub:"


def _preset_and_menu(domain: Domain, config: SolverConfig) -> Tuple[Preset, ConstraintMenu]:
    """The preset row and branching menu that `config.algorithm` names.

    `ecbs-sub:<type>` is the substitution ablation: the ac-ecbs row on a
    menu whose one incomplete type replaces the complete pair, so it carries
    no completeness or bound guarantees."""
    algo = config.algorithm
    menu = config.menu if config.menu is not None else default_menu(domain)
    if algo.startswith(SUB_PREFIX):
        entry = parse_sub_type(algo[len(SUB_PREFIX):], menu)
        return PRESETS["ac-ecbs"], ConstraintMenu(enabled=(entry,), allow_incomplete_only=True)
    preset = PRESETS.get(algo)
    if preset is None:
        known = ", ".join(list(PRESETS) + ["pp", SUB_PREFIX + "<type>"])
        raise ValueError(f"unknown algorithm {algo!r}; known: {known}")
    return preset, ConstraintMenu.complete_only() if preset.complete_only else menu


def solve_pp(
    domain: Domain, config: SolverConfig, order: Optional[Sequence[int]] = None
) -> SolverResult:
    """Prioritized planning: agents plan sequentially, each constrained to
    avoid every previously planned agent along its whole path. Incomplete by
    design; failures reshuffle the order up to `config.pp_retries` extra
    times. `order`, when given, is the first attempt's planning order."""
    rng = random.Random(config.seed)
    n = domain.n_agents
    start_time = time.perf_counter()
    ll_calls = 0

    def finish(status: str, solution: Optional[Tuple[Path, ...]] = None) -> SolverResult:
        solved = solution is not None
        stats = SolverStats(
            runtime_ms=(time.perf_counter() - start_time) * 1000.0,
            ll_calls=ll_calls,
            cost=float(sum(p.horizon for p in solution)) if solved else None,
            lb=0.0 if solved else None,
            ll_searches=ll_calls,
            stopped_by="clock" if status == TIMEOUT else None,
        )
        return SolverResult(status, solution, stats)

    for attempt in range(1 + config.pp_retries):
        if (time.perf_counter() - start_time) * 1000.0 > config.timeout_ms:
            return finish(TIMEOUT)
        if attempt == 0 and order is not None:
            perm = list(order)
            if sorted(perm) != list(range(n)):
                raise ValueError(f"order must be a permutation of 0..{n - 1}")
        else:
            perm = list(range(n))
            rng.shuffle(perm)

        paths: List[Optional[Path]] = [None] * n
        planned: List[int] = []
        failed = False
        for agent in perm:
            constraints = tuple(
                Constraint(agent=agent, ctype=CT_PRIORITY, time=None, other=b) for b in planned
            )
            ctx = ConstraintContext(
                agent=agent, constraints=constraints, other_paths=tuple(paths)
            )
            ll_calls += 1
            res = lowlevel.plan(
                domain,
                agent,
                domain.starts[agent],
                domain.goals[agent],
                ctx,
                count_conflicts=False,
                max_expansions=config.ll_max_expansions,
            )
            if res.status != lowlevel.OK:
                failed = True
                break
            paths[agent] = res.path
            planned.append(agent)
        if not failed:
            return finish(SOLVED, tuple(paths))  # type: ignore[arg-type]
    return finish(EXHAUSTED)


def solve(domain: Domain, config: SolverConfig) -> SolverResult:
    """Run `config.algorithm`: `pp`, a `PRESETS` row or `ecbs-sub:<type>`."""
    if config.algorithm == "pp":
        return solve_pp(domain, config)
    return _CTEngine(domain, config).run()
