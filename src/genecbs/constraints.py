"""Constraint factory: one conflict in, one symmetric constraint pair out per
enabled constraint type, plus an exhaustive probe of whether a pair of
constraints is mutually disjunctive (no conflict-free configuration pair
violates both), which asks the low level's own `is_forbidden`.

The complete (vertex/edge) type is always present: branching on it is what
preserves completeness of the tree search, so a menu cannot drop it. Every
incomplete entry adds one more candidate pair, giving 2K + 2 children per
expansion for K incomplete types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .core import (
    CT_AVOIDANCE,
    CT_EDGE,
    CT_SPHERE,
    CT_STEP_PRIORITY,
    CT_VERTEX,
    COMPLETE,
    EDGE,
    KINDS,
    OWN_MOVE,
    Configuration,
    Conflict,
    Constraint,
    Path,
    json_list,
    json_number,
    json_object,
    menu_key,
)
from .domain import Domain, GridDomain, free_configurations
from .lowlevel import ConstraintContext, is_forbidden


@dataclass(frozen=True)
class MenuEntry:
    kind: str  # "complete" or the name of an incomplete kind of `KINDS`
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
        kind = json_object(obj, "menu entry", "type", "radius")["type"]
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
            if e.kind != COMPLETE and (e.kind not in KINDS or KINDS[e.kind].complete):
                raise ValueError(f"unknown constraint type: {e.kind!r}")
        if not self.allow_incomplete_only:
            if COMPLETE not in keys:
                raise ValueError("the complete constraint type cannot be disabled")
            if keys[0] != COMPLETE:
                raise ValueError("the complete entry must come first")

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(e.key for e in self.enabled)

    @property
    def sphere_radii(self) -> List[float]:
        """The radii of the sphere entries, ascending."""
        return sorted(e.radius for e in self.enabled if e.kind == CT_SPHERE)

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
        return ConstraintMenu(enabled=tuple(MenuEntry.from_obj(e) for e in json_list(obj, "menu")))


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


def _pair_for_entry(entry: MenuEntry, conflict: Conflict) -> Tuple[Constraint, Constraint]:
    name = (CT_EDGE if conflict.kind == EDGE else CT_VERTEX) if entry.kind == COMPLETE else entry.kind
    kind = KINDS.get(name)
    if kind is None or kind.complete != (entry.kind == COMPLETE):
        raise ValueError(f"unknown menu entry kind: {entry.kind!r}")
    i, j = conflict.agents
    return (
        kind.build(conflict, i, j, conflict.configs_i, conflict.configs_j, entry.radius),
        kind.build(conflict, j, i, conflict.configs_j, conflict.configs_i, entry.radius),
    )


def make_constraints(
    conflict: Conflict, menu: ConstraintMenu
) -> List[Tuple[MenuEntry, Constraint, Constraint]]:
    """One symmetric (c_i, c_j) pair per enabled menu entry, menu order."""
    return [(entry,) + _pair_for_entry(entry, conflict) for entry in menu.enabled]


@dataclass(frozen=True)
class DisjunctiveCheck:
    counterexample: Optional[Tuple[Configuration, Configuration]] = None

    @property
    def confirmed(self) -> bool:
        return self.counterexample is None


def mutually_disjunctive_check(c_i: Constraint, c_j: Constraint, domain: Domain) -> DisjunctiveCheck:
    """Sweep every pair of static-free configurations of the two agents for
    one that violates both constraints without colliding; finding one
    certifies the constraint type incomplete.

    Whether c forbids its agent at q is `is_forbidden` at c's time (0 for
    priority), with the other agent's probe configuration standing in for
    its path. An edge constraint is read as its start occupancy, since the
    probe is per configuration.
    """

    def forbids(c: Constraint, q: Configuration, other: int, other_q: Configuration) -> bool:
        if KINDS[c.ctype].target == OWN_MOVE:
            return c.q == q
        other_paths = (None,) * other + (Path(other, (other_q,)),)
        return is_forbidden(domain, ConstraintContext(c.agent, (c,), other_paths), q, c.time or 0)

    i, j = c_i.agent, c_j.agent
    configs_j = list(free_configurations(domain, j))
    for q_i in free_configurations(domain, i):
        for q_j in configs_j:
            if (
                forbids(c_i, q_i, j, q_j)
                and forbids(c_j, q_j, i, q_i)
                and domain.agents_collide(i, q_i, j, q_j) is None
            ):
                return DisjunctiveCheck(counterexample=(q_i, q_j))
    return DisjunctiveCheck()
