"""Constraint factory: one conflict in, one symmetric constraint pair out per
enabled constraint type, plus a sampling utility that probes whether a pair
of constraints is mutually disjunctive (no conflict-free configuration pair
violates both).

The complete (vertex/edge) type is always present: branching on it is what
preserves completeness of the tree search, so a menu cannot drop it. Every
incomplete entry adds one more candidate pair, giving 2K + 2 children per
expansion for K incomplete types.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import (
    CT_AVOIDANCE,
    CT_EDGE,
    CT_PRIORITY,
    CT_SPHERE,
    CT_STEP_PRIORITY,
    CT_VERTEX,
    COMPLETE,
    EDGE,
    Configuration,
    Conflict,
    Constraint,
    json_number,
    menu_key,
)
from .domain import Domain, GridDomain, free_configurations

INCOMPLETE_KINDS = (CT_SPHERE, CT_AVOIDANCE, CT_STEP_PRIORITY, CT_PRIORITY)


@dataclass(frozen=True)
class MenuEntry:
    kind: str  # "complete" or one of INCOMPLETE_KINDS
    radius: Optional[float] = None  # spheres only

    def __post_init__(self):
        if self.kind == CT_SPHERE and not (self.radius is not None and 0 < self.radius < math.inf):
            raise ValueError(f"sphere radii must be finite and > 0, got {self.radius!r}")

    @property
    def key(self) -> str:
        return menu_key(self.kind, self.radius)

    def to_obj(self) -> dict:
        obj = {"type": self.kind}
        if self.radius is not None:
            obj["radius"] = self.radius
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "MenuEntry":
        allowed = {"type", "radius"}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown menu entry fields: {sorted(unknown)}")
        kind = obj["type"]
        if kind == CT_SPHERE:
            return MenuEntry(kind=kind, radius=json_number(obj["radius"], "sphere radius"))
        if "radius" in obj:
            raise ValueError(f"radius only applies to sphere entries, not {kind!r}")
        return MenuEntry(kind=kind)


@dataclass(frozen=True)
class ConstraintMenu:
    """Ordered set of enabled constraint types.

    `allow_incomplete_only` exists solely for the substitution ablation mode
    (a single incomplete type replacing the complete pair); regular solvers
    must never set it.
    """

    enabled: Tuple[MenuEntry, ...]
    allow_incomplete_only: bool = False

    def __post_init__(self):
        keys = [e.key for e in self.enabled]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate menu entries: {keys}")
        for e in self.enabled:
            if e.kind not in (COMPLETE,) + INCOMPLETE_KINDS:
                raise ValueError(f"unknown constraint type: {e.kind!r}")
        if not self.allow_incomplete_only:
            if COMPLETE not in keys:
                raise ValueError("the complete constraint type cannot be disabled")
            if keys[0] != COMPLETE:
                raise ValueError("the complete entry must come first")

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(e.key for e in self.enabled)

    @staticmethod
    def complete_only() -> "ConstraintMenu":
        return ConstraintMenu(enabled=(MenuEntry(COMPLETE),))

    @staticmethod
    def of(*entries: MenuEntry) -> "ConstraintMenu":
        return ConstraintMenu(enabled=tuple(entries))

    def to_obj(self) -> list:
        return [e.to_obj() for e in self.enabled]

    @staticmethod
    def from_obj(obj: list) -> "ConstraintMenu":
        return ConstraintMenu(enabled=tuple(MenuEntry.from_obj(e) for e in obj))


def default_menu(domain: Domain) -> ConstraintMenu:
    """Complete plus avoidance, step-priority, and three sphere radii.

    Grid radii are in cells; arm radii scale with the first arm's link
    length (small / medium / large at 0.1 / 0.3 / 0.6 per unit of length).
    """
    if isinstance(domain, GridDomain):
        radii = (1.0, 2.0, 3.0)
    else:
        unit = domain.arms[0].link_lengths[0]
        radii = tuple(round(f * unit, 6) for f in (0.1, 0.3, 0.6))
    return ConstraintMenu(
        enabled=(
            MenuEntry(COMPLETE),
            MenuEntry(CT_AVOIDANCE),
            MenuEntry(CT_STEP_PRIORITY),
            MenuEntry(CT_SPHERE, radius=radii[0]),
            MenuEntry(CT_SPHERE, radius=radii[1]),
            MenuEntry(CT_SPHERE, radius=radii[2]),
        )
    )


def _constraint_for(
    entry: MenuEntry,
    conflict: Conflict,
    agent: int,
    other: int,
    mine: Tuple[Configuration, ...],
    theirs: Tuple[Configuration, ...],
) -> Constraint:
    """The constraint of `entry` on `agent` for `conflict`, where `mine` and
    `theirs` are the conflict's configurations of `agent` and `other`."""
    t = conflict.time
    is_edge = conflict.kind == EDGE
    if entry.kind == COMPLETE:
        return Constraint(
            agent=agent, ctype=CT_EDGE if is_edge else CT_VERTEX, time=t,
            q=mine[0], q2=mine[1] if is_edge else None,
        )
    if entry.kind == CT_SPHERE:
        return Constraint(
            agent=agent, ctype=CT_SPHERE, time=t, point=conflict.point, radius=entry.radius, from_edge=is_edge
        )
    if entry.kind == CT_AVOIDANCE:
        # Snapshot the other agent's conflicting configuration(s); the
        # constraint keeps forbidding this volume even after the other
        # agent replans away from it.
        return Constraint(
            agent=agent, ctype=CT_AVOIDANCE, time=t, other=other,
            q_other=theirs[0], q_other2=theirs[1] if is_edge else None, from_edge=is_edge,
        )
    if entry.kind == CT_STEP_PRIORITY:
        # No snapshot: resolved against the other agent's current path at
        # satisfaction-check time.
        return Constraint(agent=agent, ctype=CT_STEP_PRIORITY, time=t, other=other, from_edge=is_edge)
    if entry.kind == CT_PRIORITY:
        return Constraint(agent=agent, ctype=CT_PRIORITY, time=None, other=other)
    raise ValueError(f"unknown menu entry kind: {entry.kind!r}")


def _pair_for_entry(entry: MenuEntry, conflict: Conflict) -> Tuple[Constraint, Constraint]:
    i, j = conflict.agents
    return (
        _constraint_for(entry, conflict, i, j, conflict.configs_i, conflict.configs_j),
        _constraint_for(entry, conflict, j, i, conflict.configs_j, conflict.configs_i),
    )


def make_constraints(
    conflict: Conflict, menu: ConstraintMenu
) -> List[Tuple[MenuEntry, Constraint, Constraint]]:
    """One symmetric (c_i, c_j) pair per enabled menu entry, menu order."""
    return [(entry,) + _pair_for_entry(entry, conflict) for entry in menu.enabled]


@dataclass(frozen=True)
class DisjunctiveCheck:
    confirmed: bool
    counterexample: Optional[Tuple[Configuration, Configuration]] = None


def _violates(domain: Domain, c: Constraint, q: Configuration, other_q: Optional[Configuration]) -> bool:
    """Configuration-level violation check used by the disjunctiveness probe.

    Step-priority and priority constraints depend on the other agent's path;
    here the other agent's probe configuration stands in for it.
    """
    if c.ctype in (CT_VERTEX, CT_EDGE):
        return c.q == q  # an edge's start occupancy; the probe is per configuration
    if c.ctype == CT_SPHERE:
        return domain.occupancy_intersects_circle(c.agent, q, c.point, c.radius)
    if c.ctype == CT_AVOIDANCE:
        return domain.agents_collide(c.agent, q, c.other, c.q_other) is not None
    if c.ctype in (CT_STEP_PRIORITY, CT_PRIORITY):
        return other_q is not None and domain.agents_collide(c.agent, q, c.other, other_q) is not None
    raise ValueError(c.ctype)


def mutually_disjunctive_check(
    c_i: Constraint,
    c_j: Constraint,
    domain: Domain,
    sample_budget: int = 100_000,
    seed: int = 0,
) -> DisjunctiveCheck:
    """Search for a conflict-free configuration pair violating both
    constraints; finding one certifies the constraint type incomplete.

    Grids are swept exhaustively. Arm domains are sampled uniformly up to
    `sample_budget` pairs (falling back to exhaustive enumeration when the
    joint configuration product is smaller than the budget).
    """
    i, j = c_i.agent, c_j.agent

    def probe(q_i: Configuration, q_j: Configuration) -> Optional[DisjunctiveCheck]:
        if not _violates(domain, c_i, q_i, q_j):
            return None
        if not _violates(domain, c_j, q_j, q_i):
            return None
        if domain.agents_collide(i, q_i, j, q_j) is None:
            return DisjunctiveCheck(confirmed=False, counterexample=(q_i, q_j))
        return None

    configs_i = list(free_configurations(domain, i))
    configs_j = list(free_configurations(domain, j))
    n_pairs = len(configs_i) * len(configs_j)
    if isinstance(domain, GridDomain) or n_pairs <= sample_budget:
        for q_i in configs_i:
            if not _violates(domain, c_i, q_i, None) and c_i.ctype not in (CT_STEP_PRIORITY, CT_PRIORITY):
                continue
            for q_j in configs_j:
                hit = probe(q_i, q_j)
                if hit is not None:
                    return hit
        return DisjunctiveCheck(confirmed=True)
    rng = random.Random(seed)
    for _ in range(sample_budget):
        q_i = configs_i[rng.randrange(len(configs_i))]
        q_j = configs_j[rng.randrange(len(configs_j))]
        hit = probe(q_i, q_j)
        if hit is not None:
            return hit
    return DisjunctiveCheck(confirmed=True)
