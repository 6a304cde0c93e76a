import dataclasses
import math
import types

import pytest

from genecbs.constraints import (
    COMPLETE,
    ConstraintMenu,
    MenuEntry,
    default_menu,
    make_constraints,
    mutually_disjunctive_check,
)
from genecbs.core import EDGE, KINDS, VERTEX, Configuration, Conflict, Constraint
from genecbs.domain import ArmSpec, GridDomain, PlanarArmDomain, free_configurations
from genecbs.lowlevel import ConstraintContext, is_forbidden, is_forbidden_edge

DELTA = math.radians(15.0)


def C(*coords):
    return Configuration(tuple(coords))


def vertex_conflict(cell=(2, 2), t=3):
    return Conflict(
        kind=VERTEX,
        agents=(0, 1),
        time=t,
        configs_i=(C(*cell),),
        configs_j=(C(*cell),),
        point=(cell[0] + 0.5, cell[1] + 0.5),
    )


def edge_conflict():
    return Conflict(
        kind=EDGE,
        agents=(0, 1),
        time=2,
        configs_i=(C(1, 1), C(2, 1)),
        configs_j=(C(2, 1), C(1, 1)),
        point=(2.5, 1.5),
    )


def paper_style_menu():
    return ConstraintMenu.of(
        MenuEntry(COMPLETE),
        MenuEntry("avoidance"),
        MenuEntry("step-priority"),
        MenuEntry("sphere", radius=0.5),
        MenuEntry("sphere", radius=1.5),
        MenuEntry("sphere", radius=3.0),
    )


class TestMenu:
    def test_complete_cannot_be_disabled(self):
        with pytest.raises(ValueError):
            ConstraintMenu.of(MenuEntry("avoidance"))

    def test_duplicate_radii_rejected(self):
        with pytest.raises(ValueError):
            ConstraintMenu.of(
                MenuEntry(COMPLETE), MenuEntry("sphere", radius=1.0), MenuEntry("sphere", radius=1.0)
            )

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            ConstraintMenu.of(MenuEntry(COMPLETE), MenuEntry("sphere", radius=0.0))

    def test_round_trip(self):
        menu = paper_style_menu()
        assert ConstraintMenu.from_obj(menu.to_obj()) == menu

    def test_radius_must_be_a_json_number(self):
        for radius in ("0.5", True, None):
            with pytest.raises(ValueError, match="sphere radius must be a number"):
                MenuEntry.from_obj({"type": "sphere", "radius": radius})
        assert MenuEntry.from_obj({"type": "sphere", "radius": 1}) == MenuEntry("sphere", radius=1.0)


class TestMakeConstraints:
    def test_complete_only_yields_two_children(self):
        pairs = make_constraints(vertex_conflict(), ConstraintMenu.complete_only())
        assert len(pairs) == 1
        entry, ci, cj = pairs[0]
        assert (ci.agent, cj.agent) == (0, 1)
        assert ci.ctype == cj.ctype == "vertex"
        assert ci.q == cj.q == C(2, 2)

    def test_full_menu_yields_twelve_children(self):
        pairs = make_constraints(vertex_conflict(), paper_style_menu())
        assert len(pairs) == 6  # one symmetric pair per enabled type
        assert sum(2 for _ in pairs) == 12

    def test_edge_conflict_uses_edge_constraints(self):
        pairs = make_constraints(edge_conflict(), ConstraintMenu.complete_only())
        _, ci, cj = pairs[0]
        assert ci.ctype == cj.ctype == "edge"
        assert (ci.q, ci.q2) == (C(1, 1), C(2, 1))
        assert (cj.q, cj.q2) == (C(2, 1), C(1, 1))

    def test_sphere_pair_is_identical_volume(self):
        pairs = make_constraints(vertex_conflict(), paper_style_menu())
        spheres = [(ci, cj) for e, ci, cj in pairs if e.kind == "sphere"]
        for ci, cj in spheres:
            assert ci.point == cj.point == (2.5, 2.5)
            assert ci.radius == cj.radius

    def test_avoidance_snapshots_other_agent(self):
        conflict = Conflict(
            kind=VERTEX, agents=(0, 1), time=1,
            configs_i=(C(1, 2),), configs_j=(C(1, 3),), point=(1.5, 3.0),
        )
        pairs = dict(
            (e.key, (ci, cj)) for e, ci, cj in make_constraints(conflict, paper_style_menu())
        )
        ci, cj = pairs["avoidance"]
        assert ci.q_other == C(1, 3) and ci.other == 1
        assert cj.q_other == C(1, 2) and cj.other == 0

    def test_symmetry_under_role_swap(self):
        c = Conflict(
            kind=VERTEX, agents=(0, 1), time=3,
            configs_i=(C(1, 1),), configs_j=(C(1, 1),), point=(1.5, 1.5),
        )
        mirrored = Conflict(
            kind=VERTEX, agents=(0, 1), time=3,
            configs_i=c.configs_j, configs_j=c.configs_i, point=c.point,
        )
        menu = paper_style_menu()
        a = make_constraints(c, menu)
        b = make_constraints(mirrored, menu)
        for (e1, ci1, cj1), (e2, ci2, cj2) in zip(a, b):
            assert e1 == e2
            assert ci1.ctype == cj2.ctype and cj1.ctype == ci2.ctype


class TestForbidsOriginal:
    """Replanning under any produced constraint can never reproduce the
    conflict it was created from."""

    @pytest.fixture()
    def grid(self):
        return GridDomain(5, 5, [], [C(0, 0), C(4, 4)], [C(4, 0), C(0, 4)])

    def _paths_for(self, conflict):
        if conflict.kind == VERTEX:
            pi = Path_like(0, conflict.configs_i[0], conflict.time)
            pj = Path_like(1, conflict.configs_j[0], conflict.time)
        else:
            pi = Path_like(0, conflict.configs_i[0], conflict.time, conflict.configs_i[1])
            pj = Path_like(1, conflict.configs_j[0], conflict.time, conflict.configs_j[1])
        return pi, pj

    @pytest.mark.parametrize("conflict", [vertex_conflict(), edge_conflict()], ids=["vertex", "edge"])
    def test_every_type_forbids_original(self, grid, conflict):
        from genecbs.core import Path

        # Current paths that realize the conflict (padded elsewhere).
        def flat_path(agent, confs, t):
            steps = [confs[0]] * (t + 1)
            if len(confs) > 1:
                steps.append(confs[1])
            return Path(agent, tuple(steps))

        pi = flat_path(0, conflict.configs_i, conflict.time)
        pj = flat_path(1, conflict.configs_j, conflict.time)
        for entry, ci, cj in make_constraints(conflict, paper_style_menu()):
            for c, confs, other_path in ((ci, conflict.configs_i, pj), (cj, conflict.configs_j, pi)):
                paths = (pi, pj)
                ctx = ConstraintContext.for_agent(c.agent, (c,), paths)
                if conflict.kind == VERTEX:
                    forbidden = is_forbidden(grid, ctx, confs[0], conflict.time)
                else:
                    forbidden = is_forbidden(
                        grid, ctx, confs[0], conflict.time
                    ) or is_forbidden_edge(grid, ctx, confs[0], confs[1], conflict.time)
                assert forbidden, (entry.key, c.agent, conflict.kind)


def Path_like(agent, q, t, q2=None):
    from genecbs.core import Path

    steps = [q] * (t + 1)
    if q2 is not None:
        steps.append(q2)
    return Path(agent, tuple(steps))


def facing_arm_domain(thickness=0.08):
    arms = [
        ArmSpec(base=(0.0, 0.0), link_lengths=(1.2, 1.0), joint_limits=((-2, 8), (-6, 6)), thickness=thickness),
        ArmSpec(base=(3.0, 0.0), link_lengths=(1.2, 1.0), joint_limits=((4, 14), (-6, 6)), thickness=thickness),
    ]
    return PlanarArmDomain(
        arms, [], DELTA, [C(0, 0), C(12, 0)], [C(0, 0), C(12, 0)]
    )


class TestMutuallyDisjunctive:
    def test_vertex_pair_confirmed_on_grid(self):
        d = GridDomain(4, 4, [], [C(0, 0), C(3, 3)], [C(3, 0), C(0, 3)])
        pairs = make_constraints(vertex_conflict(cell=(1, 1), t=2), ConstraintMenu.complete_only())
        _, ci, cj = pairs[0]
        out = mutually_disjunctive_check(ci, cj, d)
        assert out.confirmed

    def test_positive_sphere_incomplete_on_arms(self):
        d = facing_arm_domain()
        point = (1.5, 0.9)
        conflict = Conflict(
            kind=VERTEX, agents=(0, 1), time=0,
            configs_i=(C(3, 0),), configs_j=(C(9, 0),), point=point,
        )
        menu = ConstraintMenu.of(MenuEntry(COMPLETE), MenuEntry("sphere", radius=0.6))
        _, ci, cj = make_constraints(conflict, menu)[1]
        out = mutually_disjunctive_check(ci, cj, d)
        assert not out.confirmed
        q_i, q_j = out.counterexample
        # both violate (touch the sphere) yet do not collide
        assert d.occupancy_intersects_circle(0, q_i, point, 0.6)
        assert d.occupancy_intersects_circle(1, q_j, point, 0.6)
        assert d.agents_collide(0, q_i, 1, q_j) is None

    def test_zero_radius_sphere_complete_on_arms(self):
        d = facing_arm_domain()
        from genecbs.core import Constraint

        point = (1.5, 0.9)
        ci = Constraint(agent=0, ctype="sphere", time=0, point=point, radius=0.0)
        cj = Constraint(agent=1, ctype="sphere", time=0, point=point, radius=0.0)
        out = mutually_disjunctive_check(ci, cj, d)
        assert out.confirmed


def reference_violates(domain, c, q, other_q):
    """The per-kind violation check the probe used before it asked
    `is_forbidden`, kept as the differential reference: the other agent's
    probe configuration `other_q` stands in for its path."""
    if c.ctype in ("vertex", "edge"):
        return c.q == q
    if c.ctype == "sphere":
        return domain.occupancy_intersects_circle(c.agent, q, c.point, c.radius)
    if c.ctype == "avoidance":
        return domain.agents_collide(c.agent, q, c.other, c.q_other) is not None
    if c.ctype in ("step-priority", "priority"):
        return domain.agents_collide(c.agent, q, c.other, other_q) is not None
    raise ValueError(c.ctype)


def reference_counterexample(domain, c_i, c_j):
    """The first collision-free pair, in sweep order, that violates both
    constraints under `reference_violates`, or None."""
    i, j = c_i.agent, c_j.agent
    for q_i in free_configurations(domain, i):
        for q_j in free_configurations(domain, j):
            if (
                reference_violates(domain, c_i, q_i, q_j)
                and reference_violates(domain, c_j, q_j, q_i)
                and domain.agents_collide(i, q_i, j, q_j) is None
            ):
                return q_i, q_j
    return None


class TestProbeMatchesReference:
    """`mutually_disjunctive_check` gives the verdict and the first
    counterexample of an exhaustive sweep over `reference_violates`, for
    every menu kind (spheres of radius 0 too) on vertex and edge conflicts."""

    def _check(self, domain, conflicts, radii):
        menu = ConstraintMenu.of(
            MenuEntry(COMPLETE),
            MenuEntry("avoidance"),
            MenuEntry("step-priority"),
            MenuEntry("priority"),
            *(MenuEntry("sphere", radius=r) for r in radii),
        )
        seen = set()
        for conflict in conflicts:
            pairs = [(ci, cj) for _, ci, cj in make_constraints(conflict, menu)]
            ci, cj = pairs[-1]  # a sphere pair; a menu entry cannot have radius 0
            pairs.append((dataclasses.replace(ci, radius=0.0), dataclasses.replace(cj, radius=0.0)))
            for ci, cj in pairs:
                out = mutually_disjunctive_check(ci, cj, domain)
                ref = reference_counterexample(domain, ci, cj)
                assert out.counterexample == ref, (conflict.kind, ci)
                assert out.confirmed == (ref is None)
                seen.add((ci.ctype, ci.from_edge, out.confirmed))
        assert {kind for kind, *_ in seen} == {"vertex", "edge", "avoidance", "step-priority", "priority", "sphere"}
        assert {confirmed for *_, confirmed in seen} == {True, False}
        return seen

    def test_small_grid(self):
        d = GridDomain(5, 4, [(4, 0)], [C(0, 0), C(4, 3)], [C(4, 3), C(0, 0)])
        seen = self._check(d, [vertex_conflict(cell=(2, 2), t=3), UNEVEN_VERTEX, edge_conflict()], (1.0, 2.0))
        assert ("avoidance", True, False) in seen  # from-edge avoidance

    def test_facing_arms(self):
        d = facing_arm_domain()
        point = (1.5, 0.9)
        vertex = Conflict(
            kind=VERTEX, agents=(0, 1), time=0, configs_i=(C(3, 0),), configs_j=(C(9, 0),), point=point,
        )
        edge = Conflict(
            kind=EDGE, agents=(0, 1), time=1,
            configs_i=(C(3, 0), C(4, 0)), configs_j=(C(9, 0), C(8, 0)), point=point,
        )
        seen = self._check(d, [vertex, edge], (0.12, 0.6))
        assert ("sphere", False, True) in seen and ("sphere", False, False) in seen
        assert ("avoidance", True, False) in seen


class TestDefaultMenu:
    def test_grid_default(self):
        d = GridDomain(4, 4, [], [C(0, 0)], [C(3, 3)])
        menu = default_menu(d)
        assert menu.keys[0] == COMPLETE
        assert sum(1 for e in menu.enabled if e.kind != COMPLETE) == 5

    def test_arm_default_scales_with_link_length(self):
        d = facing_arm_domain()
        menu = default_menu(d)
        radii = sorted(e.radius for e in menu.enabled if e.kind == "sphere")
        assert radii == [pytest.approx(0.12), pytest.approx(0.36), pytest.approx(0.72)]


def every_kind_menu():
    return ConstraintMenu.of(
        MenuEntry(COMPLETE),
        MenuEntry("avoidance"),
        MenuEntry("step-priority"),
        MenuEntry("priority"),
        MenuEntry("sphere", radius=1.0),
    )


def swapped(conflict):
    return Conflict(
        kind=conflict.kind,
        agents=conflict.agents[::-1],
        time=conflict.time,
        configs_i=conflict.configs_j,
        configs_j=conflict.configs_i,
        point=conflict.point,
    )


# A vertex conflict whose agents stand in different configurations (as arms
# do), so a pair that swaps "mine" and "theirs" would show.
UNEVEN_VERTEX = Conflict(
    kind=VERTEX, agents=(0, 1), time=3, configs_i=(C(2, 2),), configs_j=(C(3, 2),), point=(3.0, 2.5)
)


class TestConstraintPairs:
    """Each kind's pair, written out field by field."""

    def test_every_kind_menu_builds_every_row(self):
        """A new row of `core.KINDS` fails here until `every_kind_menu`,
        and so the pair tests below, cover it."""
        built = {
            c.ctype
            for conflict in (UNEVEN_VERTEX, edge_conflict())
            for _, ci, cj in make_constraints(conflict, every_kind_menu())
            for c in (ci, cj)
        }
        assert built == set(KINDS)
        assert {e.kind for e in every_kind_menu().enabled} == {COMPLETE} | {k for k in KINDS if not KINDS[k].complete}

    def test_vertex_conflict_pairs(self):
        pairs = {e.key: (ci, cj) for e, ci, cj in make_constraints(UNEVEN_VERTEX, every_kind_menu())}
        assert pairs == {
            "complete": (
                Constraint(agent=0, ctype="vertex", time=3, q=C(2, 2)),
                Constraint(agent=1, ctype="vertex", time=3, q=C(3, 2)),
            ),
            "avoidance": (
                Constraint(agent=0, ctype="avoidance", time=3, other=1, q_other=C(3, 2)),
                Constraint(agent=1, ctype="avoidance", time=3, other=0, q_other=C(2, 2)),
            ),
            "step-priority": (
                Constraint(agent=0, ctype="step-priority", time=3, other=1),
                Constraint(agent=1, ctype="step-priority", time=3, other=0),
            ),
            "priority": (
                Constraint(agent=0, ctype="priority", time=None, other=1),
                Constraint(agent=1, ctype="priority", time=None, other=0),
            ),
            "sphere:1": (
                Constraint(agent=0, ctype="sphere", time=3, point=(3.0, 2.5), radius=1.0),
                Constraint(agent=1, ctype="sphere", time=3, point=(3.0, 2.5), radius=1.0),
            ),
        }

    def test_edge_conflict_pairs(self):
        pairs = {e.key: (ci, cj) for e, ci, cj in make_constraints(edge_conflict(), every_kind_menu())}
        assert pairs == {
            "complete": (
                Constraint(agent=0, ctype="edge", time=2, q=C(1, 1), q2=C(2, 1)),
                Constraint(agent=1, ctype="edge", time=2, q=C(2, 1), q2=C(1, 1)),
            ),
            "avoidance": (
                Constraint(
                    agent=0, ctype="avoidance", time=2, other=1,
                    q_other=C(2, 1), q_other2=C(1, 1), from_edge=True,
                ),
                Constraint(
                    agent=1, ctype="avoidance", time=2, other=0,
                    q_other=C(1, 1), q_other2=C(2, 1), from_edge=True,
                ),
            ),
            "step-priority": (
                Constraint(agent=0, ctype="step-priority", time=2, other=1, from_edge=True),
                Constraint(agent=1, ctype="step-priority", time=2, other=0, from_edge=True),
            ),
            "priority": (
                Constraint(agent=0, ctype="priority", time=None, other=1),
                Constraint(agent=1, ctype="priority", time=None, other=0),
            ),
            "sphere:1": (
                Constraint(agent=0, ctype="sphere", time=2, point=(2.5, 1.5), radius=1.0, from_edge=True),
                Constraint(agent=1, ctype="sphere", time=2, point=(2.5, 1.5), radius=1.0, from_edge=True),
            ),
        }

    @pytest.mark.parametrize("conflict", [UNEVEN_VERTEX, edge_conflict()], ids=["vertex", "edge"])
    def test_second_constraint_is_the_first_of_the_swapped_conflict(self, conflict):
        menu = every_kind_menu()
        for (e, _, cj), (e2, ci2, _) in zip(
            make_constraints(conflict, menu), make_constraints(swapped(conflict), menu)
        ):
            assert e == e2
            assert cj == ci2

    def test_unknown_kind_raises(self):
        menu = types.SimpleNamespace(enabled=(MenuEntry("bogus"),))
        with pytest.raises(ValueError, match="unknown menu entry kind: 'bogus'"):
            make_constraints(UNEVEN_VERTEX, menu)
