import dataclasses
import inspect
import itertools
import math
import random

import pytest

from genecbs.bench import generate_instances, shortcut, verify
from genecbs.core import Configuration, Path
from genecbs import domain as domain_module
from genecbs.domain import (
    ArmSpec,
    Domain,
    GridDomain,
    PlanarArmDomain,
    _seg_seg_closest,
    domain_from_obj,
    free_configurations,
    index_l1,
)
from genecbs.highlevel import SolverConfig, solve
from genecbs.lowlevel import INFEASIBLE, ConstraintContext, plan

from oracles import bfs_distances

DELTA = math.radians(15.0)


def C(*coords):
    return Configuration(tuple(coords))


def make_grid(blocked=(), starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4))):
    return GridDomain(
        6, 6, blocked,
        [C(*s) for s in starts],
        [C(*g) for g in goals],
    )


def make_arms(
    bases=((0.0, 0.0), (3.0, 0.0)),
    links=((1.0, 1.0), (1.0, 1.0)),
    limits=(((-6, 6), (-6, 6)), ((6, 18), (-6, 6))),
    thickness=0.1,
    obstacles=(),
    starts=None,
    goals=None,
):
    arms = [
        ArmSpec(base=b, link_lengths=tuple(l), joint_limits=tuple(jl), thickness=thickness)
        for b, l, jl in zip(bases, links, limits)
    ]
    starts = starts or [C(lims[0][0], lims[1][0]) for lims in limits]
    goals = goals or starts
    return PlanarArmDomain(arms, obstacles, DELTA, starts, goals)


class TestInterface:
    @pytest.mark.parametrize("cls", [GridDomain, PlanarArmDomain])
    def test_every_abstract_method_is_defined_with_its_parameter_names(self, cls):
        # perfbench's tracer patches the primitives by name on each class,
        # and callers pass their arguments by the names the interface gives.
        assert Domain.__abstractmethods__
        for name in sorted(Domain.__abstractmethods__):
            assert name in cls.__dict__, (cls.__name__, name)
            expected = list(inspect.signature(getattr(Domain, name)).parameters)
            assert list(inspect.signature(cls.__dict__[name]).parameters) == expected, (cls.__name__, name)


class TestGridSuccessors:
    def test_interior_cell_has_five_successors(self):
        d = make_grid()
        succ = d.successors(0, C(2, 2))
        assert len(succ) == 5
        assert C(2, 2) in succ  # wait

    def test_corner_cell(self):
        d = make_grid()
        assert len(d.successors(0, C(0, 0))) == 3

    def test_blocked_neighbors_filtered(self):
        d = make_grid(blocked=[(2, 3), (3, 2)])
        succ = [q.coords for q in d.successors(0, C(2, 2))]
        assert (2, 3) not in succ and (3, 2) not in succ
        assert len(succ) == 3

    def test_transition_valid_matches_successors(self):
        # Every pair of cells within one cell of a 4x4 grid: out-of-bounds,
        # blocked, diagonal and two-step moves, waits and 4-neighbour moves,
        # plus wrong-dimension configurations as target and as source. From
        # a free in-bounds cell the moves are its successors; from any other
        # cell there are none.
        assert "transition_valid" not in GridDomain.__dict__
        d = GridDomain(4, 4, [(1, 1), (2, 1), (3, 3)], [C(0, 0)], [C(3, 0)])
        cells = [C(x, y) for x in range(-1, 5) for y in range(-1, 5)]
        valid = 0
        for a in cells:
            succ = d.successors(0, a) if d.in_bounds(0, a) and d.is_static_free(0, a) else []
            for b in cells:
                expected = b in succ
                assert d.transition_valid(0, a, b) == expected, (a, b)
                valid += expected
            wrong = (C(a.coords[0], a.coords[1], 0), C(a.coords[0] + 1, a.coords[1], 0), C(a.coords[0]), C())
            for b in wrong:
                assert not d.in_bounds(0, b)
                assert not d.transition_valid(0, a, b)
                assert not d.transition_valid(0, b, a)
                assert not d.transition_valid(0, b, b)
        assert valid == sum(len(d.successors(0, q)) for q in free_configurations(d, 0))


def arm_coordinate_rule(d, agent, a, b):
    """The arm's move rule decided from coordinates, without a successor
    list: a is an in-bounds static-free pose, and b is a or moves one joint
    of a by one step, within that joint's limits, to a static-free pose.
    The reference, joint by joint, that the base rule over `index_l1` and
    the arm's `successors` must both match."""
    if not (d.in_bounds(agent, a) and d.is_static_free(agent, a)):
        return False
    ca, cb = a.coords, b.coords
    if cb == ca:
        return True
    if len(cb) != len(ca):
        return False
    moved = [j for j, (x, y) in enumerate(zip(ca, cb)) if x != y]
    if len(moved) != 1:
        return False
    j = moved[0]
    lo, hi = d.arms[agent].joint_limits[j]
    return abs(cb[j] - ca[j]) == 1 and lo <= cb[j] <= hi and d.is_static_free(agent, b)


class TestArmSuccessors:
    def test_both_joints_at_limit_maxima(self):
        d = make_arms()
        q = C(6, 6)
        succ = d.successors(0, q)
        coords = [s.coords for s in succ]
        assert coords == [(5, 6), (6, 5), (6, 6)]

    def test_obstacle_blocks_one_primitive(self):
        # Arm along +x at (0,0)->(1,0)->(2,0); a small circle sits just above
        # the elbow where only the +1 move of joint 2 sweeps into it.
        tip_up = (1.0 + math.cos(DELTA), math.sin(DELTA))
        d = make_arms(obstacles=[((tip_up[0], tip_up[1]), 0.05)])
        succ = [s.coords for s in d.successors(0, C(0, 0))]
        assert (0, 1) not in succ  # raising the second joint hits the circle
        assert (0, -1) in succ and (1, 0) in succ and (-1, 0) in succ and (0, 0) in succ

    def test_transition_valid_matches_base_rule(self):
        # Every pair of poses within two steps per joint, one step past the
        # limits: out-of-limit and blocked poses, two-joint and two-step
        # moves, waits and single-joint moves, plus wrong-dimension poses.
        # Arms answer through the base rule, checked against the coordinate
        # rule and against membership in the arm's `successors`.
        assert "transition_valid" not in PlanarArmDomain.__dict__
        tip_up = (1.0 + math.cos(DELTA), math.sin(DELTA))
        d = make_arms(
            limits=(((-3, 3), (-3, 3)), ((9, 15), (-3, 3))),
            obstacles=[((tip_up[0], tip_up[1]), 0.05), ((0.0, 1.6), 0.3)],
        )
        poses = [C(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        valid = blocked = 0
        for a in poses:
            blocked += d.in_bounds(0, a) and not d.is_static_free(0, a)
            succ = d.successors(0, a) if d.in_bounds(0, a) and d.is_static_free(0, a) else []
            for b in poses:
                if max(abs(u - v) for u, v in zip(a.coords, b.coords)) <= 2:
                    expected = arm_coordinate_rule(d, 0, a, b)
                    assert d.transition_valid(0, a, b) == expected == (b in succ), (a, b)
                    valid += expected
            for b in (C(*a.coords, 0), C(a.coords[0] + 1), C(*a.coords[:1])):
                assert not d.transition_valid(0, a, b) and not arm_coordinate_rule(d, 0, a, b)
                assert not d.transition_valid(0, b, a) and not d.transition_valid(0, b, b)
        assert blocked > 0 and 0 < valid < 49 * 5
        assert valid == sum(len(d.successors(0, q)) for q in free_configurations(d, 0))

    def test_transition_valid_matches_base_rule_on_random_pairs(self):
        d = generate_instances("arm-quad", 1, seed=2024)[0].build_domain()
        rng = random.Random(3)
        checked = 0
        for agent in range(d.n_agents):
            limits = d.arms[agent].joint_limits
            for _ in range(300):
                a = C(*(rng.randint(lo - 1, hi + 1) for lo, hi in limits))
                b = C(*(c + rng.choice((-1, 0, 0, 1)) for c in a.coords))
                free = d.in_bounds(agent, a) and d.is_static_free(agent, a)
                succ = d.successors(agent, a) if free else []
                for q in (b, C(*(rng.randint(lo, hi) for lo, hi in limits)), C(*b.coords[:-1])):
                    expected = arm_coordinate_rule(d, agent, a, q)
                    assert d.transition_valid(agent, a, q) == expected == (q in succ), (agent, a, q)
                    checked += expected
        assert checked > 0


class TestHeuristic:
    def test_zero_at_goal(self):
        d = make_grid()
        assert d.heuristic(0, C(3, 3), C(3, 3)) == 0.0

    def test_manhattan(self):
        d = make_grid()
        assert d.heuristic(0, C(0, 0), C(2, 3)) == 5.0

    def test_arm_l1_over_indices(self):
        d = make_arms()
        assert d.heuristic(0, C(2, 5), C(4, 4)) == 3.0

    def test_admissible_and_consistent_on_grid(self):
        d = make_grid(blocked=[(1, 1), (2, 3), (4, 2)])
        goal = (5, 5)
        dist = bfs_distances(d, goal)
        for (x, y), true_cost in dist.items():
            h = d.heuristic(0, C(x, y), C(*goal))
            assert h <= true_cost
        for (x, y), true_cost in dist.items():
            for q2 in d.successors(0, C(x, y)):
                if q2.coords in dist:
                    assert d.heuristic(0, C(x, y), C(*goal)) <= 1 + d.heuristic(0, q2, C(*goal))


def brute_force_distances(d, agent, goal):
    """Moves from each pose to the goal: breadth-first over
    `free_configurations` and `successors`."""
    free = set(free_configurations(d, agent))
    dist = {goal: 0}
    frontier = [goal]
    while frontier:
        grown = []
        for q in frontier:
            for q2 in d.successors(agent, q):
                if q2 in free and q2 not in dist:
                    dist[q2] = dist[q] + 1
                    grown.append(q2)
        frontier = grown
    return free, dist


def walled_off_arm():
    """One single-link arm whose pose 4 touches an obstacle, so poses 0-3
    cannot reach poses 5-8."""
    arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0,), joint_limits=((0, 8),), thickness=0.1)
    wall = (math.cos(4 * DELTA), math.sin(4 * DELTA))
    return PlanarArmDomain([arm], [(wall, 0.05)], DELTA, [C(0)], [C(8)])


class TestDistanceTable:
    @pytest.fixture(scope="class")
    def domains(self):
        return [
            generate_instances("arm-pair", 1, seed=1)[0].build_domain(),
            generate_instances("arm-quad", 1, seed=2024)[0].build_domain(),
        ]

    def test_entries_are_the_brute_force_distances(self, domains):
        blocked = 0
        for d in domains:
            for agent in range(d.n_agents):
                goal = d.goals[agent]
                free, dist = brute_force_distances(d, agent, goal)
                lo_hi = d.arms[agent].joint_limits
                for coords in itertools.product(*(range(lo, hi + 1) for lo, hi in lo_hi)):
                    q = C(*coords)
                    want = float(dist[q]) if q in dist else math.inf
                    assert d.heuristic(agent, q, goal) == want, (agent, q)
                blocked += len(free) < math.prod(hi - lo + 1 for lo, hi in lo_hi)
        # Obstacles block poses, so the table is not the L1 distance.
        assert blocked > 0

    def test_consistent_and_above_l1(self, domains):
        above = 0
        for d in domains:
            for agent in range(d.n_agents):
                goal = d.goals[agent]
                assert d.heuristic(agent, goal, goal) == 0.0
                for q in free_configurations(d, agent):
                    h = d.heuristic(agent, q, goal)
                    assert h >= index_l1(agent, q, goal)
                    above += h > index_l1(agent, q, goal)
                    for q2 in d.successors(agent, q):
                        assert abs(h - d.heuristic(agent, q2, goal)) <= 1, (agent, q, q2)
        assert above > 0

    def test_building_stores_no_pose(self):
        # Fresh domains: the table build places every pose of the box, and
        # completes the static map, without storing a pose.
        for template, seed in (("arm-pair", 1), ("arm-quad", 2024)):
            d = generate_instances(template, 1, seed=seed)[0].build_domain()
            for agent in range(d.n_agents):
                before = len(d._pose_cache)
                d.heuristic(agent, d.starts[agent], d.goals[agent])
                assert len(d._pose_cache) == before
                assert domain_module.UNKNOWN not in d._boxes[agent][1]

    def test_walled_off_goal_fails_at_once(self):
        d = walled_off_arm()
        assert not d.is_static_free(0, C(4)) and d.is_static_free(0, C(8))
        assert d.heuristic(0, C(0), C(8)) == math.inf and d.heuristic(0, C(5), C(8)) == 3.0
        ctx = ConstraintContext(agent=0, constraints=(), other_paths=(None,))
        res = plan(d, 0, C(0), C(8), ctx)
        assert res.status == INFEASIBLE and res.expansions == 0
        for algo in ("ecbs", "gen-ecbs", "pp"):
            assert solve(walled_off_arm(), SolverConfig(algorithm=algo)).status == "exhausted", algo

    @pytest.mark.parametrize("cap", [117, 116])
    def test_boxes_above_the_pose_memo_cap_keep_l1(self, monkeypatch, cap):
        # The shipped arms' boxes hold 9 x 13 = 117 poses.
        scenario = generate_instances("arm-quad", 1, seed=2024)[0]
        mapped = scenario.build_domain()
        monkeypatch.setattr(domain_module, "POSE_MEMO_CAP", cap)
        d = scenario.build_domain()
        table = cap >= 117
        above = 0
        for agent in range(d.n_agents):
            goal = d.goals[agent]
            assert math.prod(hi - lo + 1 for lo, hi in d.arms[agent].joint_limits) == 117
            free, dist = brute_force_distances(d, agent, goal)
            # Without a static map, poses are checked every time, alike.
            assert free == set(free_configurations(mapped, agent))
            for q in free:
                above += dist.get(q, math.inf) > index_l1(agent, q, goal)
                want = float(dist.get(q, math.inf)) if table else index_l1(agent, q, goal)
                assert d.heuristic(agent, q, goal) == want, (agent, q)
            assert ((agent, goal.coords) in d._tables) == table
            assert (d._boxes[agent] is not None) == table
        assert above > 0


class TestAgentsCollide:
    def test_grid_same_cell_center_convention(self):
        d = make_grid()
        assert d.agents_collide(0, C(3, 3), 1, C(3, 3)) == (3.5, 3.5)
        assert d.agents_collide(0, C(3, 3), 1, C(3, 4)) is None

    def test_disjoint_workspaces(self):
        d = make_arms(bases=((0.0, 0.0), (10.0, 0.0)))
        assert d.agents_collide(0, C(0, 0), 1, C(12, 0)) is None

    def test_crossing_one_link_arms_hit_analytic_intersection(self):
        # Two single-link arms whose segments cross: (0,0)->(2,0) at 0 deg and
        # (1,-1)->(1,1) at 90 deg intersect at exactly (1, 0).
        arms = [
            ArmSpec(base=(0.0, 0.0), link_lengths=(2.0,), joint_limits=((-6, 6),), thickness=0.1),
            ArmSpec(base=(1.0, -1.0), link_lengths=(2.0,), joint_limits=((0, 12),), thickness=0.1),
        ]
        d = PlanarArmDomain(arms, [], DELTA, [C(0), C(0)], [C(0), C(0)])
        point = d.agents_collide(0, C(0), 1, C(6))  # 6 * 15 deg = 90 deg
        assert point is not None
        assert math.hypot(point[0] - 1.0, point[1] - 0.0) <= 0.1

    def test_symmetry(self):
        d = make_arms()
        for qa, qb in [(C(0, 0), C(12, 0)), (C(6, -3), C(9, 2)), (C(3, 3), C(15, -4))]:
            hit_ab = d.agents_collide(0, qa, 1, qb) is not None
            hit_ba = d.agents_collide(1, qb, 0, qa) is not None
            assert hit_ab == hit_ba


class TestEdgeCollides:
    def test_grid_swap_conflict_at_midpoint(self):
        d = make_grid()
        hit = d.edge_collides(0, C(2, 2), C(3, 2), 1, C(3, 2), C(2, 2))
        assert hit is not None
        point, s = hit
        assert point == (3.0, 2.5) and s == 0.5

    def test_grid_non_swap_is_clear(self):
        d = make_grid()
        assert d.edge_collides(0, C(2, 2), C(3, 2), 1, C(3, 3), C(3, 2)) is None

    def test_both_waiting_disjoint(self):
        d = make_arms()
        # Arm 0 vertical at the origin, arm 1 folded back along the x axis.
        assert d.agents_collide(0, C(6, 0), 1, C(12, 0)) is None
        assert d.edge_collides(0, C(6, 0), C(6, 0), 1, C(12, 0), C(12, 0)) is None

    def test_mid_transition_crossing_detected(self):
        # One-link arms sweeping through each other: endpoints are clear but
        # the segments cross mid-rotation.
        arms = [
            ArmSpec(base=(0.0, 0.0), link_lengths=(2.0,), joint_limits=((-12, 12),), thickness=0.05),
            ArmSpec(base=(2.5, 0.0), link_lengths=(2.0,), joint_limits=((0, 24),), thickness=0.05),
        ]
        d = PlanarArmDomain(arms, [], DELTA, [C(0), C(12)], [C(0), C(12)], substeps=4)
        # agent 0 swings -60deg..+60deg while agent 1 swings 240deg..120deg;
        # at s = 0.5 both lie flat on the x axis and overlap.
        start_clear = d.agents_collide(0, C(-4), 1, C(16)) is None
        end_clear = d.agents_collide(0, C(4), 1, C(8)) is None
        assert start_clear and end_clear
        hit = d.edge_collides(0, C(-4), C(4), 1, C(16), C(8))
        assert hit is not None
        point, s = hit
        assert 0.0 < s < 1.0

    def test_refinement_monotonicity(self):
        arms = [
            ArmSpec(base=(0.0, 0.0), link_lengths=(2.0,), joint_limits=((-12, 12),), thickness=0.05),
            ArmSpec(base=(2.5, 0.0), link_lengths=(2.0,), joint_limits=((0, 24),), thickness=0.05),
        ]
        d = PlanarArmDomain(arms, [], DELTA, [C(0), C(12)], [C(0), C(12)])
        cases = [
            (C(-2), C(2), C(14), C(10)),
            (C(-4), C(4), C(16), C(8)),
            (C(0), C(1), C(12), C(11)),
            (C(-12), C(-8), C(20), C(24)),
        ]
        for qa, qa2, qb, qb2 in cases:
            for m in (2, 4, 8):
                if d.edge_collides(0, qa, qa2, 1, qb, qb2, substeps=m) is not None:
                    assert d.edge_collides(0, qa, qa2, 1, qb, qb2, substeps=2 * m) is not None


ARM_QUAD = {}


def arm_quad_037():
    if "037" not in ARM_QUAD:
        ARM_QUAD["037"] = generate_instances("arm-quad", 38, seed=2024)[37]
    return ARM_QUAD["037"].build_domain()


# Agents 2 and 3 of arm-quad-s2024-037 at t = 4: their links cross at
# sub-time 0.125, between the 4 poses of the default sampled check.
MOTION_037 = (2, C(13, -3), C(12, -3), 3, C(25, 6), C(24, 6))


# (i, from, to, j, from, to) motion pairs of arm-quad-s2024-037 that are
# clear at their end poses but not over the whole motion, with bounding
# boxes so far apart that the sweep certificate would clear them if it left
# out the speed of a moving arm.
FAST_PASSES_037 = (
    (0, (-1, 6), (-1, 6), 1, (9, 4), (8, 4)),
    (1, (12, -6), (12, -6), 0, (-1, 3), (-1, 4)),
    (2, (18, -6), (18, -6), 1, (7, 1), (8, 1)),
    (3, (22, -1), (21, -1), 2, (14, 2), (15, 2)),
)


def motions_near(d, agent, center):
    """Every motion starting within one index of center on each joint."""
    for offset in itertools.product((-1, 0, 1), repeat=len(center)):
        q = C(*(c + o for c, o in zip(center, offset)))
        if d.in_bounds(agent, q) and d.is_static_free(agent, q):
            for q2 in d.successors(agent, q):
                yield q, q2


def random_motion(rng, d, agent):
    q = C(*(rng.randint(lo, hi) for lo, hi in d.arms[agent].joint_limits))
    return q, rng.choice(d.successors(agent, q))


def sweep_subtimes(m):
    """The sub-times a motion check reads with m default samples: the ends,
    the default and verifier samples (k / m, k / 2m) and the sweep's
    bisection midpoints of intervals down to 1/512 wide."""
    subtimes = {0.0, 1.0} | {k / m for k in range(m + 1)} | {k / (2 * m) for k in range(2 * m + 1)}
    edges = [(k / m, (k + 1) / m) for k in range(m)]
    for _ in range(8):
        subtimes.update(s0 + (s1 - s0) / 2.0 for s0, s1 in edges)
        edges = [e for s0, s1 in edges for e in ((s0, s0 + (s1 - s0) / 2.0), (s0 + (s1 - s0) / 2.0, s1))]
    return sorted(subtimes)


def arm_touches_disk(d, agent, coords, center, radius):
    """Brute force, sharing no collision code with the domain: some link
    axis of the pose lies within thickness + radius of center."""
    return any(
        _seg_point_distance(seg, center) <= d.arms[agent].thickness + radius
        for seg in d.fk_segments(agent, coords)
    )


def sampled_arm_motion_hits(d, agent, q, q2, center, radius, m):
    """The arm's former sampled sphere motion check: the disk against m + 1
    evenly spaced poses of the straight joint-space move."""
    a, b = q.coords, q2.coords
    return any(
        arm_touches_disk(d, agent, tuple(x + (y - x) * k / m for x, y in zip(a, b)), center, radius)
        for k in range(m + 1)
    )


class TestCertifiedSweep:
    def test_reports_contact_between_default_samples(self):
        d = arm_quad_037()
        assert d.edge_collides(*MOTION_037, substeps=d.substeps) is None
        assert d.edge_collides(*MOTION_037, substeps=2 * d.substeps) is not None
        hit = d.edge_collides(*MOTION_037)
        assert hit is not None
        point, s = hit
        assert 0.0 < s < 1.0 / d.substeps

    def test_separated_pair_is_clear(self):
        d = make_arms()
        # Arm 0 points up from (0, 0); arm 1 folds back from (3, 0) towards
        # (1, 0) and lifts its tip: at least 0.8 apart throughout.
        assert d.edge_collides(0, C(6, 0), C(7, 0), 1, C(12, 0), C(12, -1)) is None
        assert d.edge_collides(0, C(6, 0), C(7, 0), 1, C(12, 0), C(12, -1), substeps=64) is None

    def test_never_clear_where_sampling_hits(self):
        d = arm_quad_037()
        # All motion pairs around the 037 contact, then random pairs.
        cases = [
            (2, a, a2, 3, b, b2)
            for a, a2 in motions_near(d, 2, (13, -3))
            for b, b2 in motions_near(d, 3, (25, 6))
        ]
        rng = random.Random(7)
        pairs = [(i, j) for i in range(d.n_agents) for j in range(i + 1, d.n_agents)]
        for _ in range(400):
            i, j = pairs[rng.randrange(len(pairs))]
            cases.append((i,) + random_motion(rng, d, i) + (j,) + random_motion(rng, d, j))
        sampled_hits = 0
        for case in cases:
            if any(d.edge_collides(*case, substeps=m) is not None for m in (8, 16, 64)):
                sampled_hits += 1
                assert d.edge_collides(*case) is not None, case
        assert sampled_hits > 0

    def test_circle_never_clear_where_sampling_hits(self):
        d = arm_quad_037()
        # Disks around the 037 contact point against agent 2's nearby
        # motions, then random disks against random motions.
        (cx, cy), _ = d.edge_collides(*MOTION_037)
        cases = [
            (2, q, q2, (cx + 0.05 * dx, cy + 0.05 * dy), radius)
            for q, q2 in motions_near(d, 2, (13, -3))
            for dx, dy in itertools.product((-2, -1, 0, 1, 2), repeat=2)
            for radius in (0.0, 0.105)
        ]
        rng = random.Random(11)
        for _ in range(400):
            agent = rng.randrange(d.n_agents)
            center = (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
            cases.append((agent,) + random_motion(rng, d, agent) + (center, rng.choice((0.105, 0.315, 0.63))))
        sampled_hits = 0
        for case in cases:
            if any(sampled_arm_motion_hits(d, *case, m=m) for m in (8, 16, 64)):
                sampled_hits += 1
                assert d.edge_intersects_circle(*case), case
        assert sampled_hits > 0

    def test_sphere_from_between_sample_contact_forbids_both_motions(self):
        d = arm_quad_037()
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        point, _ = d.edge_collides(*MOTION_037)
        for agent, q, q2 in ((i, q_i, q_i2), (j, q_j, q_j2)):
            assert d.edge_intersects_circle(agent, q, q2, point, 0.105)


class TestCircleIntersection:
    def test_radius_zero_point_on_link(self):
        d = make_arms()
        # Arm 0 at zero configuration lies along +x from (0,0) to (2,0).
        assert d.occupancy_intersects_circle(0, C(0, 0), (1.0, 0.0), 0.0)

    def test_unreachable_center(self):
        d = make_arms()
        assert not d.occupancy_intersects_circle(0, C(0, 0), (5.0, 0.0), 0.5)

    def test_tangency_is_closed(self):
        d = make_arms(thickness=0.1)
        # Center exactly thickness + radius above the first link.
        assert d.occupancy_intersects_circle(0, C(0, 0), (0.5, 0.35), 0.25)
        assert not d.occupancy_intersects_circle(0, C(0, 0), (0.5, 0.35 + 1e-9), 0.25)

    def test_arm_pose_disk_matches_brute_force(self):
        # Random arm-quad poses against random disks, and against disks
        # 1e-9 inside and outside tangency with the pose's nearest link.
        d = arm_quad_037()
        rng = random.Random(23)
        touching = cases = 0
        for _ in range(300):
            agent = rng.randrange(d.n_agents)
            q = C(*(rng.randint(lo, hi) for lo, hi in d.arms[agent].joint_limits))
            center = (rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0))
            gap = min(_seg_point_distance(seg, center) for seg in d.fk_segments(agent, q.coords))
            gap -= d.arms[agent].thickness
            radii = [rng.uniform(0.0, 0.6)]
            if gap > 1e-6:
                radii += [gap - 1e-9, gap + 1e-9]
            for radius in radii:
                expected = arm_touches_disk(d, agent, q.coords, center, radius)
                touching += expected
                cases += 1
                case = (agent, q, center, radius)
                assert d.occupancy_intersects_circle(*case) == expected, case
                # The disk as the only static obstacle, then beside a far one.
                for obstacles in ([(center, radius)], [((9.0, 9.0), 0.1), (center, radius)]):
                    cluttered = PlanarArmDomain(d.arms, obstacles, d.delta, d.starts, d.goals)
                    assert cluttered.is_static_free(agent, q) == (not expected), case
        assert 0 < touching < cases

    def test_grid_cell_center_rule(self):
        d = make_grid()
        assert d.occupancy_intersects_circle(0, C(2, 2), (2.5, 2.5), 0.0)
        assert d.occupancy_intersects_circle(0, C(2, 2), (3.5, 2.5), 1.0)
        assert not d.occupancy_intersects_circle(0, C(2, 2), (3.5, 2.5), 0.999)


def sampled_grid_motion_hits(d, q, q2, center, radius, m):
    """The grid's former sphere motion check: m + 1 evenly spaced points of
    the straight move between the two cell centres."""
    (ax, ay), (bx, by) = d.cell_center(q), d.cell_center(q2)
    return any(
        math.hypot(ax + (bx - ax) * k / m - center[0], ay + (by - ay) * k / m - center[1]) <= radius
        for k in range(m + 1)
    )


class TestGridSphereMotion:
    def test_contact_between_samples_is_found(self):
        d = GridDomain(6, 6, [], [C(0, 0)], [C(5, 5)], substeps=1)
        # The disk touches the move only at its midpoint (1.0, 0.5).
        case = (C(0, 0), C(1, 0), (1.0, 1.5), 1.0)
        assert not sampled_grid_motion_hits(d, *case, m=1)
        assert d.edge_intersects_circle(0, *case)
        assert not d.edge_intersects_circle(0, C(0, 0), C(1, 0), (1.0, 1.5), 0.999)

    def test_matches_four_samples_on_the_lattice(self):
        # Sphere centres of the grid solvers: cell centres and swap
        # midpoints. Every move and wait of a 6x6 grid, radii 0.25 to 3.
        d = make_grid()
        cells = [C(x, y) for x in range(6) for y in range(6)]
        centers = {d.cell_center(q) for q in cells}
        motions = [(q, q2) for q in cells for q2 in d.successors(0, q)]
        for q, q2 in motions:
            a, b = d.cell_center(q), d.cell_center(q2)
            centers.add(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        radii = [k / 4 for k in range(1, 13)]
        hits = 0
        for q, q2 in motions:
            for center in centers:
                for radius in radii:
                    got = d.edge_intersects_circle(0, q, q2, center, radius)
                    assert got == sampled_grid_motion_hits(d, q, q2, center, radius, 4), (q, q2, center, radius)
                    hits += got
        assert 0 < hits < len(motions) * len(centers) * len(radii)


class TestForwardKinematics:
    def test_total_reach(self):
        d = make_arms(links=((1.5, 0.75), (1.0, 1.0)))
        assert d.arms[0].reach == 2.25

    def test_zero_configuration_layout(self):
        d = make_arms()
        segs = d.fk_segments(0, (0, 0))
        assert segs[0] == ((0.0, 0.0), (1.0, 0.0))
        assert segs[1][1] == pytest.approx((2.0, 0.0))

    def test_cumulative_angles(self):
        d = make_arms()
        segs = d.fk_segments(0, (6, 6))  # 90 deg then +90 deg
        assert segs[0][1] == pytest.approx((0.0, 1.0))
        assert segs[1][1] == pytest.approx((-1.0, 1.0))

    @staticmethod
    def two_pass_shape(d, agent, coords):
        """The reference: place the links, then take the box over their
        endpoints in a second pass."""
        arm = d.arms[agent]
        x, y = arm.base
        theta = 0.0
        segs = []
        for length, c in zip(arm.link_lengths, coords):
            theta += c * d.delta
            nx = x + length * math.cos(theta)
            ny = y + length * math.sin(theta)
            segs.append(((x, y), (nx, ny)))
            x, y = nx, ny
        xs = [p[0] for seg in segs for p in seg]
        ys = [p[1] for seg in segs for p in seg]
        return tuple(segs), (min(xs), min(ys), max(xs), max(ys))

    def test_one_pass_shape_equals_the_two_pass_formula(self):
        """Segments and box equal the reference float for float (repr
        tells -0.0 from 0.0) at integer poses, at k/m and k/2m samples and
        at bisection midpoints of random motions of every arm."""
        d = arm_quad_037()
        rng = random.Random(4)
        subtimes = sweep_subtimes(d.substeps)
        for agent, arm in enumerate(d.arms):
            for _ in range(10):
                a = tuple(rng.randint(lo, hi) for lo, hi in arm.joint_limits)
                b = tuple(rng.randint(lo, hi) for lo, hi in arm.joint_limits)
                for s in subtimes:
                    coords = domain_module._lerp(a, b, s)
                    got = d._shape(agent, coords)
                    assert repr(got) == repr(self.two_pass_shape(d, agent, coords)), (agent, coords)


class TestValidation:
    def test_start_goal_conflicts_rejected(self):
        d = GridDomain(4, 4, [], [C(0, 0), C(0, 0)], [C(1, 1), C(2, 2)])
        with pytest.raises(ValueError):
            d.validate_instance()

    def test_blocked_start_rejected(self):
        d = GridDomain(4, 4, [(0, 0)], [C(0, 0)], [C(1, 1)])
        with pytest.raises(ValueError):
            d.validate_instance()

    def test_out_of_bounds_goal_rejected(self):
        d = GridDomain(4, 4, [], [C(0, 0)], [C(4, 4)])
        with pytest.raises(ValueError):
            d.validate_instance()

    @pytest.mark.parametrize("label", ["start", "goal"])
    @pytest.mark.parametrize("wrong", [(1,), (1, 2, 3), ()])
    def test_wrong_length_grid_endpoint_is_out_of_bounds(self, label, wrong):
        ends = {"start": C(0, 0), "goal": C(1, 1), label: C(*wrong)}
        d = GridDomain(4, 4, [], [ends["start"]], [ends["goal"]])
        with pytest.raises(ValueError, match=f"agent 0 {label} out of bounds"):
            d.validate_instance()

    @pytest.mark.parametrize("label", ["start", "goal"])
    @pytest.mark.parametrize("wrong", [(0,), (0, 0, 0)])
    def test_wrong_length_arm_endpoint_is_out_of_bounds(self, label, wrong):
        arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0, 1.0), joint_limits=((-6, 6), (-6, 6)), thickness=0.1)
        ends = {"start": C(0, 0), "goal": C(1, 1), label: C(*wrong)}
        d = PlanarArmDomain([arm], [], DELTA, [ends["start"]], [ends["goal"]])
        with pytest.raises(ValueError, match=f"agent 0 {label} out of bounds"):
            d.validate_instance()

    @pytest.mark.parametrize("substeps", [0, -1, 2.5, None])
    def test_substeps_must_be_a_positive_integer(self, substeps):
        with pytest.raises(ValueError, match="substeps"):
            GridDomain(4, 4, [], [C(0, 0)], [C(1, 1)], substeps=substeps)
        arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0,), joint_limits=((-6, 6),), thickness=0.1)
        with pytest.raises(ValueError, match="substeps"):
            PlanarArmDomain([arm], [], DELTA, [C(0)], [C(1)], substeps=substeps)
        assert GridDomain(4, 4, [], [C(0, 0)], [C(1, 1)], substeps=1).substeps == 1

    @pytest.mark.parametrize("delta", [0.0, -DELTA, math.nan, math.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0,), joint_limits=((-6, 6),), thickness=0.1)
        with pytest.raises(ValueError, match="delta"):
            PlanarArmDomain([arm], [], delta, [C(0)], [C(1)])

    def test_arm_domain_needs_an_arm_with_links(self):
        with pytest.raises(ValueError, match="arm"):
            PlanarArmDomain([], [], DELTA, [], [])
        no_links = ArmSpec(base=(0.0, 0.0), link_lengths=(), joint_limits=(), thickness=0.1)
        with pytest.raises(ValueError, match="link"):
            PlanarArmDomain([no_links], [], DELTA, [C()], [C()])

    @pytest.mark.parametrize("limits", [((-6, 6),), ((-6, 6), (-6, 6), (-6, 6)), ((-6, 6), (3, 2))])
    def test_arm_needs_one_ordered_joint_limit_per_link(self, limits):
        # Caught here, not later as out of bounds.
        arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0, 1.0), joint_limits=limits, thickness=0.1)
        with pytest.raises(ValueError, match="joint limits must be one"):
            PlanarArmDomain([arm], [], DELTA, [C(0, 0)], [C(1, 1)])


class TestDomainFromObj:
    GRID = {"type": "grid", "width": 6, "height": 4, "blocked": [[2, 1]], "substeps": 4}
    ARM = {
        "type": "planar_arm",
        "delta": DELTA,
        "substeps": 4,
        "obstacles": [{"center": [1.5, 1.8], "radius": 0.2}],
        "arms": [{"base": [0, 0], "link_lengths": [1.0, 1], "joint_limits": [[-6, 6], [-6.0, 6]], "thickness": 0.1}],
    }

    def test_integral_numbers_load_with_their_kind(self):
        d = domain_from_obj({**self.GRID, "width": 6.0, "substeps": 2.0}, [C(0, 0)], [C(5, 3)])
        assert (d.width, d.substeps, d.blocked) == (6, 2, frozenset({(2, 1)}))
        assert type(d.width) is int and type(d.substeps) is int
        d = domain_from_obj(self.ARM, [C(0, 0)], [C(1, 1)])
        assert d.arms[0].joint_limits == ((-6, 6), (-6, 6))
        assert d.arms[0].base == (0.0, 0.0) and d.arms[0].link_lengths == (1.0, 1.0)

    def test_errors_name_the_field(self):
        # Every other bad number is a case of the CLI's malformed-domain test.
        with pytest.raises(ValueError, match="blocked cells must be an integer, got 1.5"):
            domain_from_obj({**self.GRID, "blocked": [[2, 1.5]]}, [C(0, 0)], [C(5, 3)])
        arm = {**self.ARM["arms"][0], "joint_limits": [[-2.5, 3.9], [-6, 6]]}
        with pytest.raises(ValueError, match="joint limits must be an integer, got -2.5"):
            domain_from_obj({**self.ARM, "arms": [arm]}, [C(0, 0)], [C(1, 1)])


class TestSegmentGeometry:
    def test_parallel_segments(self):
        dist, p1, p2 = _seg_seg_closest(((0, 0), (1, 0)), ((0, 1), (1, 1)))
        assert dist == pytest.approx(1.0)

    def test_crossing_segments_distance_zero(self):
        dist, p1, p2 = _seg_seg_closest(((0, -1), (0, 1)), ((-1, 0), (1, 0)))
        assert dist == pytest.approx(0.0)
        assert p1 == pytest.approx((0.0, 0.0)) and p2 == pytest.approx((0.0, 0.0))

    def test_degenerate_point_segment(self):
        dist, _, _ = _seg_seg_closest(((2, 2), (2, 2)), ((0, 0), (4, 0)))
        assert dist == pytest.approx(2.0)


def reference_conflicts(d, agent, other_paths, q, q2, t2):
    """(vertex hits, edge-only hits) of the move q -> q2 into t2, one
    other path at a time, straight from the pairwise primitives."""
    vertex = edge = 0
    for j, path in enumerate(other_paths):
        if path is None:
            continue
        if d.agents_collide(agent, q2, j, path.at(t2)) is not None:
            vertex += 1
        elif d.edge_collides(agent, q, q2, j, path.at(t2 - 1), path.at(t2)) is not None:
            edge += 1
    return vertex, edge


def random_walk(rng, d, agent, start, length):
    steps = [start]
    for _ in range(length):
        steps.append(rng.choice(d.successors(agent, steps[-1])))
    return Path(agent=agent, steps=tuple(steps))


class TestConflictCounter:
    def test_grid_tables_match_pairwise_loop(self):
        rng = random.Random(11)
        d = GridDomain(4, 4, [(1, 1)], [C(0, 0)] * 6, [C(3, 3)] * 6)
        cells = [C(x, y) for x in range(4) for y in range(4) if (x, y) != (1, 1)]
        seen_vertex = seen_edge = 0
        for trial in range(60):
            n = rng.randint(1, 5)
            # Unequal lengths, length-0 paths (an agent resting at its
            # start) and a None slot for the planning agent.
            others = [None] + [
                random_walk(rng, d, j, rng.choice(cells), rng.randint(0, 7)) for j in range(1, n + 1)
            ]
            tables = d.conflict_counter(0, others)
            loop = Domain.conflict_counter(d, 0, others)
            horizon = max(p.horizon for p in others if p is not None)
            for q in cells:
                for q2 in d.successors(0, q):  # moves and the wait
                    for t2 in range(1, horizon + 4):  # past every horizon too
                        vertex, edge = reference_conflicts(d, 0, others, q, q2, t2)
                        assert tables(q, q2, t2) == loop(q, q2, t2) == vertex + edge, (trial, q, q2, t2)
                        seen_vertex += vertex
                        seen_edge += edge
        assert seen_vertex > 0 and seen_edge > 0

    def test_grid_swap_and_goal_padding(self):
        d = make_grid()
        # Agent 1 moves (1, 0) -> (0, 0) into t = 1 and then rests at (0, 0).
        others = [None, Path(agent=1, steps=(C(1, 0), C(0, 0)))]
        count = d.conflict_counter(0, others)
        assert count(C(0, 0), C(1, 0), 1) == 1  # swap
        assert count(C(1, 0), C(0, 0), 1) == 1  # vertex
        assert count(C(0, 0), C(0, 0), 1) == 1  # waiting where it arrives
        assert count(C(1, 1), C(0, 0), 9) == 1  # it rests there forever
        assert count(C(0, 0), C(1, 0), 9) == 0  # no moves past its horizon
        assert d.conflict_counter(0, [None, None])(C(0, 0), C(1, 0), 1) == 0

    def test_arm_default_matches_pairwise_loop(self):
        rng = random.Random(5)

        def arms():
            # Arm 3 stands out of everyone's reach.
            return make_arms(
                bases=((0.0, 0.0), (2.5, 0.0), (1.2, 2.2), (9.0, 0.0)),
                links=((1.0, 1.0),) * 4,
                limits=(((-12, 12), (-12, 12)),) * 4,
                starts=[C(0, 0)] * 4,
                goals=[C(0, 0)] * 4,
            )

        d = arms()
        # The reference runs on a domain of its own, so that no memo it
        # shares with the counters can hide a wrong count.
        ref = arms()
        others = [None] + [
            random_walk(rng, d, j, C(rng.randint(-12, 12), 0), rng.randint(2, 6)) for j in (1, 2, 3)
        ]
        queries = []
        for _ in range(300):
            q = C(rng.randint(-12, 12), rng.randint(-12, 12))
            q2 = rng.choice(d.successors(0, q))
            queries.append((q, q2, rng.randint(1, 8)))
        count = d.conflict_counter(0, others)
        loop = Domain.conflict_counter(d, 0, others)
        hits = 0
        for q, q2, t2 in queries:
            n = count(q, q2, t2)
            assert n == loop(q, q2, t2) == sum(reference_conflicts(ref, 0, others, q, q2, t2))
            hits += n
        assert hits > 0
        assert d.agents_collide(0, C(0, 0), 3, C(12, 0)) is None  # out of reach


def solved_arm_moves(n_instances=3):
    """(scenario, solution) of pp on the first arm-quad s2024 instances."""
    out = []
    for scenario in generate_instances("arm-quad", n_instances, seed=2024):
        d = scenario.build_domain()
        result = solve(d, SolverConfig(algorithm="pp", w=1.3, max_expansions=300))
        assert result.solved
        out.append((scenario, result.solution))
    return out


def counter_decisions(d, agent, others, queries):
    """Yield (q, q2, t2, calls) per query of d's counter over `others`,
    where calls is the set of (part, other arm) the counter asked of the
    geometry: ("vertex", j) when its `_pair_gap` received the move's t2
    pose pair with arm j, ("edge", j) when it called `edge_collides`. A
    part missing from calls was settled by a certificate: the bounding
    boxes, or the end gaps the counter reads through `_pair_gap` (and so
    from d's pose and gap memos, whose hits equal fresh values, see
    TestPairGapMemo)."""
    calls = set()
    pair_gap, edge_collides = d._pair_gap, d.edge_collides
    vertex_poses = {}  # other arm j -> the current query's t2 pose pair with j

    def gap(i, coords_i, j, coords_j, threshold, enough):
        poses = {(i, coords_i), (j, coords_j)}
        calls.update(("vertex", other) for other, pair in vertex_poses.items() if poses == pair)
        return pair_gap(i, coords_i, j, coords_j, threshold, enough)

    def edge(i, q_i, q_i2, j, q_j, q_j2):
        calls.add(("edge", j))
        return edge_collides(i, q_i, q_i2, j, q_j, q_j2)

    d._pair_gap, d.edge_collides = gap, edge
    count = d.conflict_counter(agent, others)
    for q, q2, t2 in queries:
        calls.clear()
        vertex_poses.clear()
        for j, path in enumerate(others):
            if path is not None:
                vertex_poses[j] = {(agent, q2.coords), (j, path.at(t2).coords)}
        count(q, q2, t2)
        yield q, q2, t2, set(calls)


def boxes_certify(d, agent, q, q2, j, q_j, q_j2):
    """Whether the bounding-box gaps at both ends of the two motions pass
    the sweep certificate on their own."""
    threshold = d.arms[agent].thickness + d.arms[j].thickness
    speed = d._sweep_speed(agent, q.coords, q2.coords) + d._sweep_speed(j, q_j.coords, q_j2.coords)
    gaps = [
        domain_module._box_gap(d._shape(agent, a.coords)[1], d._shape(j, b.coords)[1])
        for a, b in ((q, q_j), (q2, q_j2))
    ]
    return gaps[0] + gaps[1] - speed > 2.0 * (threshold + domain_module.SWEEP_CERT_MARGIN)


class TestArmCounterCertificate:
    def check_skips_are_clear(self, build, agent, others, queries):
        """Every part the counter skips is clear for the primitives of a
        fresh domain; returns (vertex skips, edge skips, contacts found,
        edge skips of arms in reach whose boxes alone do not certify the
        motion)."""
        ref = build()
        skipped_vertex = skipped_edge = contacts = end_certified = 0
        for q, q2, t2, calls in counter_decisions(build(), agent, others, queries):
            for j, path in enumerate(others):
                if path is None:
                    continue
                at_t2 = path.at(t2)
                vertex = ref.agents_collide(agent, q2, j, at_t2)
                if ("vertex", j) not in calls:
                    assert vertex is None, (q, q2, t2, j)
                    skipped_vertex += 1
                if vertex is not None:
                    contacts += 1
                    continue
                motion = (agent, q, q2, j, path.at(t2 - 1), at_t2)
                edge = ref.edge_collides(*motion)
                if ("edge", j) not in calls:
                    assert edge is None, (motion, t2)
                    skipped_edge += 1
                    # Arms out of reach are dropped before any certificate.
                    end_certified += ref._in_reach[agent][j] and not boxes_certify(ref, *motion)
                contacts += edge is not None
        return skipped_vertex, skipped_edge, contacts, end_certified

    def test_skipped_pairs_are_clear_on_solved_cells(self):
        totals = [0, 0, 0, 0]
        for scenario, solution in solved_arm_moves():
            paths = sorted(solution, key=lambda p: p.agent)
            for agent, path in enumerate(paths):
                others = [None if j == agent else p for j, p in enumerate(paths)]
                # Each move at its own time and shifted, so that it meets
                # the other arms' poses of nearby timesteps.
                queries = [
                    (path.at(t - 1), path.at(t), t + shift)
                    for t in range(1, path.horizon + 1)
                    for shift in (-2, -1, 0, 1, 2)
                    if t + shift >= 1
                ]
                found = self.check_skips_are_clear(scenario.build_domain, agent, others, queries)
                totals = [a + b for a, b in zip(totals, found)]
        skipped_vertex, skipped_edge, contacts, end_certified = totals
        assert skipped_vertex > 0 and skipped_edge > 0 and contacts > 0
        # Some motions the boxes leave open are settled by the end gaps,
        # without a call to `edge_collides`.
        assert end_certified > 0

    def test_skipped_pairs_are_clear_around_the_037_contact(self):
        d = arm_quad_037()
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        queries = [(q, q2, 1) for q, q2 in motions_near(d, i, q_i.coords)]
        totals = [0, 0, 0, 0]
        # Arm j makes each of its moves from its 037 pose.
        for move in d.successors(j, q_j):
            others = [None] * d.n_agents
            others[j] = Path(agent=j, steps=(q_j, move))
            found = self.check_skips_are_clear(arm_quad_037, i, others, queries)
            totals = [x + y for x, y in zip(totals, found)]
        assert all(n > 0 for n in totals), totals

    def test_skipped_pairs_are_clear_on_fast_passes(self):
        d = arm_quad_037()
        for i, a_i, b_i, j, a_j, b_j in FAST_PASSES_037:
            motion = (i, C(*a_i), C(*b_i), j, C(*a_j), C(*b_j))
            assert d.agents_collide(i, C(*b_i), j, C(*b_j)) is None
            assert d.edge_collides(*motion) is not None
            # Each arm plans in turn against the other's move.
            for agent, q, q2, other, steps in ((i, a_i, b_i, j, (a_j, b_j)), (j, a_j, b_j, i, (a_i, b_i))):
                others = [None] * d.n_agents
                others[other] = Path(agent=other, steps=(C(*steps[0]), C(*steps[1])))
                found = self.check_skips_are_clear(arm_quad_037, agent, others, [(C(*q), C(*q2), 1)])
                assert found[2] == 1

    def test_tangent_arms_are_never_skipped(self):
        # Both arms lie along the x axis, 0.25 apart: exactly the threshold
        # of two 0.125-thick capsules, which counts as a contact.
        def build():
            return make_arms(
                bases=((0.0, 0.0), (2.25, 0.0)),
                limits=(((-12, 12), (-12, 12)),) * 2,
                thickness=0.125,
                starts=[C(0, 6), C(0, 6)],
            )

        d = build()
        assert d.agents_collide(0, C(0, 0), 1, C(0, 0)) is not None
        others = [None, Path(agent=1, steps=(C(0, 0),))]
        queries = [(q, q2, 1) for q, q2 in motions_near(d, 0, (0, 0))]
        count = d.conflict_counter(0, others)
        assert [count(*query) for query in queries] == [
            sum(reference_conflicts(build(), 0, others, *query)) for query in queries
        ]
        _, _, contacts, _ = self.check_skips_are_clear(build, 0, others, queries)
        assert contacts > 0


class TestPairGapMemo:
    def endpoint_pairs(self, d, rng, n):
        """Both endpoints of n random motion pairs of arm-quad-s2024-037."""
        pairs = [(i, j) for i in range(d.n_agents) for j in range(i + 1, d.n_agents)]
        out = []
        for _ in range(n):
            i, j = pairs[rng.randrange(len(pairs))]
            qa, qa2 = random_motion(rng, d, i)
            qb, qb2 = random_motion(rng, d, j)
            out += [(i, qa.coords, j, qb.coords), (i, qa2.coords, j, qb2.coords)]
        return out

    def test_memoised_gaps_equal_fresh_ones(self):
        d = arm_quad_037()
        rng = random.Random(3)
        poses = self.endpoint_pairs(d, rng, 300)
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        poses += [(i, q_i.coords, j, q_j.coords), (i, q_i2.coords, j, q_j2.coords)]
        exact = 0
        for threshold in (0.21, 0.42):
            # The same poses over and over, each `enough` reading what the
            # earlier ones left in the memo.
            for enough in (threshold, 0.3, 1.0, math.inf, threshold):
                for pose in poses:
                    got = d._pair_gap(*pose, threshold, enough)
                    assert got == arm_quad_037()._pair_gap(*pose, threshold, enough), (pose, enough)
            exact += len(d._gap_cache)
        assert exact > 0

    def test_only_end_poses_enter_the_memos(self):
        d = arm_quad_037()
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        threshold = d.arms[i].thickness + d.arms[j].thickness
        before = dict(d._gap_cache)  # the start and goal checks
        poses_before = set(d._pose_cache)
        for s in (0.0625, 0.125, 0.1875, 0.5):
            ci = tuple(a + (b - a) * s for a, b in zip(q_i.coords, q_i2.coords))
            cj = tuple(a + (b - a) * s for a, b in zip(q_j.coords, q_j2.coords))
            d._pair_gap(i, ci, j, cj, threshold, threshold)
        assert d._gap_cache == before
        # The certified check probes the default samples and bisects between
        # them, and the verifier's sampled check probes twice as many poses;
        # only the two end poses may enter the memos.
        assert d.edge_collides(*MOTION_037) is not None
        d.edge_collides(*MOTION_037, substeps=2 * d.substeps)
        ends = {(q_i.coords, q_j.coords), (q_i2.coords, q_j2.coords)}
        added = {(key[1], key[3]) for key in d._gap_cache if key not in before}
        assert added and added <= ends
        end_poses = {(i, q_i.coords), (i, q_i2.coords), (j, q_j.coords), (j, q_j2.coords)}
        assert set(d._pose_cache) - poses_before <= end_poses

    def test_memos_keep_integer_poses_only(self):
        """A whole cell as `bench.run_cell` runs it -- solve, verify,
        shortcut, verify -- leaves only integer poses in both pose memos."""
        d = arm_quad_037()
        result = solve(d, SolverConfig(algorithm="gen-ecbs", w=1.3, max_expansions=300))
        assert result.solved
        assert verify(d, result.solution).clean
        assert verify(d, shortcut(result.solution, d)).clean
        assert d._pose_cache and d._gap_cache

        def integer(coords):
            return all(type(c) is int for c in coords)

        assert all(integer(coords) for _, coords in d._pose_cache)
        assert all(integer(key[1]) and integer(key[3]) for key in d._gap_cache)

    def test_lerp_matches_the_formula(self):
        """`_lerp` gives the formula's joint indices in value, hash and link
        geometry, at the ends, the default and verifier samples and the
        sweep's bisection midpoints, on waits, one-joint and two-joint
        motions."""
        d = arm_quad_037()
        rng = random.Random(11)
        subtimes = sweep_subtimes(d.substeps)
        motions = []
        for _ in range(20):
            agent = rng.randrange(d.n_agents)
            q, q2 = random_motion(rng, d, agent)
            motions += [(agent, q.coords, q2.coords), (agent, q.coords, q.coords)]
            limits = d.arms[agent].joint_limits
            motions.append((agent, q.coords, tuple(rng.randint(lo, hi) for lo, hi in limits)))
        kinds = {sum(x != y for x, y in zip(a, b)) for _, a, b in motions}
        assert kinds == {0, 1, 2}
        for agent, a, b in motions:
            for s in subtimes:
                got = domain_module._lerp(a, b, s)
                want = tuple(x + (y - x) * s for x, y in zip(a, b))
                assert got == want and hash(got) == hash(want), (a, b, s)
                # So `_shape` computes both poses: want's floats are never
                # stored, and got's entry would answer a later want.
                d._pose_cache.clear()
                assert d._shape(agent, want) == d._shape(agent, got), (a, b, s)

    def test_cap_holds(self, monkeypatch):
        monkeypatch.setattr(domain_module, "POSE_MEMO_CAP", 25)
        d = arm_quad_037()
        rng = random.Random(9)
        for pose in self.endpoint_pairs(d, rng, 200):
            d._pair_gap(*pose, math.inf, math.inf)  # never the box shortcut
        assert len(d._gap_cache) == 25
        assert len(d._pose_cache) <= 25


class TestFreeConfigurations:
    def test_grid_with_obstacles_matches_brute_force(self):
        d = make_grid(blocked=[(0, 1), (2, 2), (5, 5), (3, 0)])
        brute = []
        for x in range(d.width):
            for y in range(d.height):
                if (x, y) not in {(0, 1), (2, 2), (5, 5), (3, 0)}:
                    brute.append(C(x, y))
        assert list(free_configurations(d, 0)) == brute
        assert len(brute) == 32

    def test_arm_with_obstacle_matches_brute_force(self):
        d = make_arms(obstacles=[((1.5, 1.0), 0.3)])
        for agent in range(d.n_agents):
            (lo0, hi0), (lo1, hi1) = d.arms[agent].joint_limits
            brute = []
            for a in range(lo0, hi0 + 1):
                for b in range(lo1, hi1 + 1):
                    segs = d.fk_segments(agent, (a, b))
                    clear = all(
                        _seg_point_distance(seg, center) > radius + d.arms[agent].thickness
                        for center, radius in d.obstacles
                        for seg in segs
                    )
                    if clear:
                        brute.append(C(a, b))
            got = list(free_configurations(d, agent))
            assert got == brute
            assert 0 < len(got) < (hi0 - lo0 + 1) * (hi1 - lo1 + 1)  # the obstacle removes some


def _seg_point_distance(seg, p):
    (ax, ay), (bx, by) = seg
    dx, dy = bx - ax, by - ay
    u = max(0.0, min(1.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)))
    return math.hypot(ax + u * dx - p[0], ay + u * dy - p[1])


ARM = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0, 1.0), joint_limits=((-6, 6), (-6, 6)), thickness=0.1)
BAD_ARM_GEOMETRY = {
    "nan thickness": dict(arm=dict(thickness=math.nan)),
    "negative thickness": dict(arm=dict(thickness=-0.1)),
    "infinite thickness": dict(arm=dict(thickness=math.inf)),
    "nan base": dict(arm=dict(base=(math.nan, 0.0))),
    "infinite base": dict(arm=dict(base=(0.0, -math.inf))),
    "infinite link": dict(arm=dict(link_lengths=(math.inf, 1.0))),
    "nan link": dict(arm=dict(link_lengths=(1.0, math.nan))),
    "zero link": dict(arm=dict(link_lengths=(1.0, 0.0))),
    "negative link": dict(arm=dict(link_lengths=(-1.0, 1.0))),
    "nan obstacle radius": dict(obstacle=((1.5, 1.0), math.nan)),
    "negative obstacle radius": dict(obstacle=((1.5, 1.0), -0.2)),
    "infinite obstacle center": dict(obstacle=((math.inf, 1.0), 0.2)),
    "nan obstacle center": dict(obstacle=((1.5, math.nan), 0.2)),
}


class TestArmGeometryValidation:
    @pytest.mark.parametrize("case", sorted(BAD_ARM_GEOMETRY))
    def test_non_finite_or_negative_geometry_rejected(self, case):
        spec = BAD_ARM_GEOMETRY[case]
        arm = dataclasses.replace(ARM, **spec.get("arm", {}))
        obstacles = [spec["obstacle"]] if "obstacle" in spec else []
        with pytest.raises(ValueError, match="finite"):
            PlanarArmDomain([arm], obstacles, DELTA, [C(0, 0)], [C(1, 0)])

    def test_zero_thickness_and_radius_accepted(self):
        arm = dataclasses.replace(ARM, thickness=0.0)
        d = PlanarArmDomain([arm], [((1.5, 1.0), 0.0)], DELTA, [C(0, 0)], [C(1, 0)])
        assert d.arms[0].thickness == 0.0 and d.obstacles[0][1] == 0.0
