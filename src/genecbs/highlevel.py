"""High-level constraint-tree solvers.

One engine drives the whole family. The algorithms differ only in data: each
row of `PRESETS` sets the engine's flags, and `solve` looks the row up.

  cbs           best-first on cost, complete constraints, eager children
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
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    CT_SPHERE,
    EDGE,
    EXHAUSTED,
    SOLVED,
    TIMEOUT,
    VERTEX,
    Conflict,
    Constraint,
    CTNode,
    Path,
    SolverResult,
    SolverStats,
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
from .lowlevel import ConstraintContext, Focal


def _pair_conflicts(
    paths: Sequence[Path], domain: Domain, i: int, j: int, substeps: Optional[int] = None
) -> List[Conflict]:
    pi, pj = paths[i], paths[j]
    out: List[Conflict] = []
    h = max(pi.horizon, pj.horizon)
    for t in range(h + 1):
        point = domain.agents_collide(i, pi.at(t), j, pj.at(t))
        if point is not None:
            out.append(Conflict(VERTEX, (i, j), t, (pi.at(t),), (pj.at(t),), point))
        if t < h:
            hit = domain.edge_collides(i, pi.at(t), pi.at(t + 1), j, pj.at(t), pj.at(t + 1), substeps)
            if hit is not None:
                out.append(
                    Conflict(
                        EDGE,
                        (i, j),
                        t,
                        (pi.at(t), pi.at(t + 1)),
                        (pj.at(t), pj.at(t + 1)),
                        hit[0],
                    )
                )
    return out


def find_conflicts(
    paths: Sequence[Path],
    domain: Domain,
    known: Optional[Tuple[Conflict, ...]] = None,
    replanned: Optional[Sequence[int]] = None,
    substeps: Optional[int] = None,
) -> Tuple[Conflict, ...]:
    """All pairwise vertex and edge conflicts, goal-padded, ordered by
    (time, agent pair, kind).

    When `known` conflicts of a previous path set and the `replanned` agents
    are given, pairs not touching a replanned agent are copied instead of
    re-scanned (their paths are unchanged). Edge conflicts use the domain's
    certified check unless `substeps` asks for the sampled one."""
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
                out.extend(_pair_conflicts(paths, domain, i, j, substeps))
    out.sort(key=Conflict.sort_key)
    return tuple(out)


class DTSState:
    """Dynamic Thompson Sampling over the focal queues.

    Each queue keeps a Beta(alpha, beta) belief. Rewards bump alpha,
    penalties bump beta; afterwards both are rescaled so alpha + beta <= cap,
    which dampens old history, and floored at 1.
    """

    def __init__(self, keys: Sequence[str], cap: float = 10.0, prior=None, seed: int = 0):
        self.keys = tuple(keys)
        self.cap = float(cap)
        self.alpha = {k: 1.0 for k in self.keys}
        self.beta = {k: 1.0 for k in self.keys}
        if prior:
            for k, (a, b) in prior.items():
                if k not in self.alpha:
                    raise ValueError(f"DTS prior for unknown queue {k!r}")
                if a < 1.0 or b < 1.0:
                    raise ValueError("DTS prior parameters must be >= 1")
                self.alpha[k] = float(a)
                self.beta[k] = float(b)
                self._enforce_cap(k)
        self.rng = random.Random(seed)
        self.rewards = {k: 0 for k in self.keys}
        self.penalties = {k: 0 for k in self.keys}

    def _enforce_cap(self, k: str) -> None:
        total = self.alpha[k] + self.beta[k]
        if total > self.cap:
            scale = self.cap / total
            self.alpha[k] *= scale
            self.beta[k] *= scale
            if self.alpha[k] < 1.0:
                self.alpha[k] = 1.0
                self.beta[k] = min(self.beta[k], self.cap - 1.0)
            elif self.beta[k] < 1.0:
                self.beta[k] = 1.0
                self.alpha[k] = min(self.alpha[k], self.cap - 1.0)

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
        if w < 1.0:
            raise ValueError("w must be >= 1")
        self.domain = domain
        self.config = config
        self.preset = preset
        self.menu = menu
        self.w = w
        self.ll_mode = Focal(w, count_conflicts=preset.count_conflicts)

        self.queue_keys: Tuple[str, ...] = menu.keys if preset.multi_queue else (menu.keys[0],)
        prior = resolve_prior(config.dts_prior, menu) if preset.multi_queue and config.dts_prior else None
        self.dts = DTSState(self.queue_keys, cap=10.0, prior=prior, seed=config.seed)

        self.nodes: Dict[int, CTNode] = {}
        self.in_open: set = set()
        self.open_lb: List[tuple] = []  # (lb, id)
        self.open_cost: List[tuple] = []  # (cost, id); CBS open or focal feed
        self.focal: Dict[str, List[tuple]] = {k: [] for k in self.queue_keys}
        self.next_id = 0

        self.hl_expansions = 0
        self.evaluations = 0
        self.ll_calls = 0
        self.min_lb_final: float = 0.0

    # ---- node plumbing -------------------------------------------------

    def _f_key(self, node: CTNode, k: str) -> tuple:
        parts: List = []
        if self.preset.count_conflicts:
            parts.append(len(node.conflicts))
        parts.append(node.cost)
        if k != COMPLETE:
            total = len(node.constraints)
            if total == 0:
                rho = 1.0
            else:
                rho = 1.0 - sum(1 for c in node.constraints if c.menu_key() == k) / total
            parts.append(rho)
        parts.append(node.id)
        return tuple(parts)

    def _insert(self, node: CTNode) -> None:
        self.nodes[node.id] = node
        self.in_open.add(node.id)
        heapq.heappush(self.open_lb, (node.lb, node.id))
        heapq.heappush(self.open_cost, (node.cost, node.id))

    def _requeue(self, node: CTNode) -> None:
        """Refresh heap entries after an in-place update (same id)."""
        self.nodes[node.id] = node
        heapq.heappush(self.open_lb, (node.lb, node.id))
        heapq.heappush(self.open_cost, (node.cost, node.id))

    def _min_lb(self) -> Optional[float]:
        while self.open_lb:
            lb, nid = self.open_lb[0]
            if nid in self.in_open and self.nodes[nid].lb == lb:
                return lb
            heapq.heappop(self.open_lb)
        return None

    def _migrate(self, bound: float) -> None:
        """Flow nodes whose cost fits under the focal bound into the focal
        queues, keyed by their current priorities."""
        while self.open_cost and self.open_cost[0][0] <= bound:
            cost, nid = heapq.heappop(self.open_cost)
            if nid not in self.in_open:
                continue
            node = self.nodes[nid]
            if node.cost != cost:
                continue  # stale entry; a fresh one exists
            for k in self.queue_keys:
                heapq.heappush(self.focal[k], (self._f_key(node, k), nid))

    def _pop_focal(self, k: str) -> Optional[CTNode]:
        heap = self.focal[k]
        while heap:
            key, nid = heapq.heappop(heap)
            if nid not in self.in_open:
                continue
            node = self.nodes[nid]
            if self._f_key(node, k) != key:
                continue
            return node
        return None

    def _pop_cheapest(self) -> Optional[CTNode]:
        while self.open_cost:
            cost, nid = heapq.heappop(self.open_cost)
            if nid not in self.in_open:
                continue
            node = self.nodes[nid]
            if node.cost != cost:
                continue
            return node
        return None

    # ---- planning ------------------------------------------------------

    def _plan_agent(self, agent: int, constraints, paths):
        ctx = ConstraintContext.for_agent(agent, constraints, paths)
        self.ll_calls += 1
        return lowlevel.plan(
            self.domain,
            agent,
            self.domain.starts[agent],
            self.domain.goals[agent],
            ctx,
            mode=self.ll_mode,
            max_expansions=self.config.ll_max_expansions,
        )

    def _evaluate_node(self, node: CTNode) -> Optional[CTNode]:
        """Replan the pending agents; None when any subproblem is infeasible
        or over budget (the node is then discarded)."""
        paths = list(node.paths)
        lbs = list(node.lb_per_agent)
        for agent in sorted(node.agents_replan):
            res = self._plan_agent(agent, node.constraints, tuple(paths))
            if res.status != lowlevel.OK:
                return None
            paths[agent] = res.path
            lbs[agent] = max(lbs[agent], res.lb)
        paths_t = tuple(paths)
        cost = float(sum(p.horizon for p in paths_t))
        if len(node.agents_replan) < self.domain.n_agents:
            # Inherited conflicts are the parent's true set; untouched pairs
            # carry over.
            conflicts = find_conflicts(
                paths_t, self.domain, known=node.conflicts, replanned=node.agents_replan
            )
        else:
            conflicts = find_conflicts(paths_t, self.domain)
        return replace(
            node,
            paths=paths_t,
            cost=cost,
            lb_per_agent=tuple(lbs),
            conflicts=conflicts,
            agents_replan=(),
        )

    def _make_root(self) -> Optional[CTNode]:
        root = CTNode(
            id=self._take_id(),
            constraints=(),
            paths=tuple(Path(a, (self.domain.starts[a],)) for a in range(self.domain.n_agents)),
            cost=0.0,
            lb_per_agent=tuple(0.0 for _ in range(self.domain.n_agents)),
            conflicts=(),
            agents_replan=tuple(range(self.domain.n_agents)),
        )
        return self._evaluate_node(root)

    def _take_id(self) -> int:
        nid = self.next_id
        self.next_id += 1
        return nid

    def _children(self, node: CTNode) -> List[CTNode]:
        conflict = node.conflicts[0]
        out = []
        for _, c_i, c_j in make_constraints(conflict, self.menu):
            for c in (c_i, c_j):
                out.append(
                    CTNode(
                        id=self._take_id(),
                        constraints=node.constraints + (c,),
                        paths=node.paths,
                        cost=node.cost,
                        lb_per_agent=node.lb_per_agent,
                        conflicts=node.conflicts,
                        agents_replan=(c.agent,),
                    )
                )
        return out

    # ---- main loop -----------------------------------------------------

    def run(self) -> SolverResult:
        start_time = time.perf_counter()

        def out_of_time() -> bool:
            return (time.perf_counter() - start_time) * 1000.0 > self.config.timeout_ms

        def finish(status: str, node: Optional[CTNode]) -> SolverResult:
            runtime_ms = (time.perf_counter() - start_time) * 1000.0
            stats = SolverStats(
                runtime_ms=runtime_ms,
                hl_expansions=self.hl_expansions,
                evaluations=self.evaluations,
                ll_calls=self.ll_calls,
                cost=None if node is None else node.cost,
                lb=self.min_lb_final,
                dts_rewards=tuple(sorted(self.dts.rewards.items())),
                dts_penalties=tuple(sorted(self.dts.penalties.items())),
            )
            solution = None if node is None else node.paths
            return SolverResult(status=status, solution=solution, stats=stats)

        root = self._make_root()
        if root is None:
            return finish(EXHAUSTED, None)
        self._insert(root)

        while True:
            if out_of_time():
                return finish(TIMEOUT, None)
            min_lb = self._min_lb()
            if min_lb is None:
                return finish(EXHAUSTED, None)
            self.min_lb_final = max(self.min_lb_final, min_lb)

            if self.preset.order_by_cost:
                node = self._pop_cheapest()
                if node is None:
                    return finish(EXHAUSTED, None)
                self.in_open.discard(node.id)
            else:
                bound = self.w * min_lb + 1e-9
                self._migrate(bound)
                k = self.dts.sample()
                node = self._pop_focal(k)
                # The focal low level keeps every node's cost within w of its
                # own lb (lazy children inherit both), so the min-lb open node
                # is under the bound and focal cannot be empty here.
                assert node is not None and node.cost <= bound, (k, bound)

                if node.agents_replan:
                    inherited = len(node.conflicts)
                    updated = self._evaluate_node(node)
                    self.evaluations += 1
                    if updated is None:
                        self.in_open.discard(node.id)
                        if self.preset.multi_queue:
                            self.dts.penalize(k)
                        continue
                    self._requeue(updated)
                    if self.preset.multi_queue:
                        if len(updated.conflicts) < inherited:
                            self.dts.reward(k)
                        else:
                            self.dts.penalize(k)
                    continue
                self.in_open.discard(node.id)

            if not node.conflicts:
                return finish(SOLVED, node)

            if self.hl_expansions >= self.config.max_expansions:
                return finish(TIMEOUT, None)
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
    radii = sorted(e.radius for e in menu.enabled if e.kind == "sphere")
    if spec in ("avoidance", "step-priority", "priority"):
        return MenuEntry(spec)
    if spec.startswith("sphere"):
        if not radii:
            raise ValueError("no sphere radii configured in the menu")
        suffix = spec[len("sphere"):].lstrip(":")
        aliases = {"s": 0, "m": min(1, len(radii) - 1), "l": len(radii) - 1}
        if suffix.lower() in aliases:
            return MenuEntry("sphere", radius=radii[aliases[suffix.lower()]])
        radius = float(suffix)
        return MenuEntry("sphere", radius=radius)
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
    radii = sorted(e.radius for e in menu.enabled if e.kind == "sphere")
    out: Dict[str, Tuple[float, float]] = {}
    for name, params in prior.items():
        if name not in menu.keys and name.strip().startswith("sphere"):
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
        allowed = {
            "algorithm", "w", "menu", "dts_prior", "seed",
            "timeout_ms", "max_expansions", "ll_max_expansions", "pp_retries",
        }
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown solver fields: {sorted(unknown)}")
        cfg = SolverConfig()
        cfg.algorithm = obj.get("algorithm", cfg.algorithm)
        cfg.w = float(obj.get("w", cfg.w))
        if "menu" in obj:
            cfg.menu = ConstraintMenu.from_obj(obj["menu"])
        if "dts_prior" in obj:
            cfg.dts_prior = {k: (float(v[0]), float(v[1])) for k, v in obj["dts_prior"].items()}
        cfg.seed = int(obj.get("seed", cfg.seed))
        cfg.timeout_ms = float(obj.get("timeout_ms", cfg.timeout_ms))
        cfg.max_expansions = int(obj.get("max_expansions", cfg.max_expansions))
        cfg.ll_max_expansions = int(obj.get("ll_max_expansions", cfg.ll_max_expansions))
        cfg.pp_retries = int(obj.get("pp_retries", cfg.pp_retries))
        return cfg


@dataclass(frozen=True)
class Preset:
    """Engine flags of one tree algorithm.

    lazy             children inherit their parent's values and replan only
                     when selected
    multi_queue      one focal queue per menu entry, picked by DTS; only these
                     rows read `dts_prior`
    count_conflicts  focal queues and the low level order by conflict count
    order_by_cost    best-first on cost instead of focal selection
    complete_only    branch on vertex/edge only, whatever the configured menu
    unit_w           run at w = 1, whatever the configured w
    """

    lazy: bool = False
    multi_queue: bool = False
    count_conflicts: bool = True
    order_by_cost: bool = False
    complete_only: bool = False
    unit_w: bool = False


PRESETS: Dict[str, Preset] = {
    "cbs": Preset(order_by_cost=True, complete_only=True, unit_w=True),
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

    for attempt in range(1 + config.pp_retries):
        if (time.perf_counter() - start_time) * 1000.0 > config.timeout_ms:
            return SolverResult(
                TIMEOUT, None, SolverStats(
                    runtime_ms=(time.perf_counter() - start_time) * 1000.0,
                    ll_calls=ll_calls,
                )
            )
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
                Constraint(agent=agent, ctype="priority", time=None, other=b) for b in planned
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
                mode=Focal(1.0, count_conflicts=False),
                max_expansions=config.ll_max_expansions,
            )
            if res.status != lowlevel.OK:
                failed = True
                break
            paths[agent] = res.path
            planned.append(agent)
        if not failed:
            solution = tuple(paths)  # type: ignore[arg-type]
            cost = float(sum(p.horizon for p in solution))
            runtime_ms = (time.perf_counter() - start_time) * 1000.0
            return SolverResult(
                SOLVED,
                solution,
                SolverStats(runtime_ms=runtime_ms, ll_calls=ll_calls, cost=cost, lb=0.0),
            )
    runtime_ms = (time.perf_counter() - start_time) * 1000.0
    return SolverResult(
        EXHAUSTED, None, SolverStats(runtime_ms=runtime_ms, ll_calls=ll_calls)
    )


def solve(domain: Domain, config: SolverConfig) -> SolverResult:
    """Run `config.algorithm`: `pp`, a `PRESETS` row or `ecbs-sub:<type>`."""
    if config.algorithm == "pp":
        return solve_pp(domain, config)
    return _CTEngine(domain, config).run()
