import itertools
import math
import random

import pytest

from genecbs.bench import generate_instances
from genecbs.core import Configuration, Path
from genecbs import domain as domain_module
from genecbs.domain import ArmSpec, Domain, GridDomain, PlanarArmDomain, _seg_seg_closest
from genecbs.highlevel import SolverConfig, solve

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


class TestGridSuccessors:
    def test_interior_cell_has_five_successors(self):
        d = make_grid()
        succ = d.successors(0, C(2, 2))
        assert len(succ) == 5
        assert (C(2, 2), 1.0) in succ  # wait

    def test_corner_cell(self):
        d = make_grid()
        assert len(d.successors(0, C(0, 0))) == 3

    def test_blocked_neighbors_filtered(self):
        d = make_grid(blocked=[(2, 3), (3, 2)])
        succ = [q.coords for q, _ in d.successors(0, C(2, 2))]
        assert (2, 3) not in succ and (3, 2) not in succ
        assert len(succ) == 3


class TestArmSuccessors:
    def test_both_joints_at_limit_maxima(self):
        d = make_arms()
        q = C(6, 6)
        succ = d.successors(0, q)
        coords = [s.coords for s, _ in succ]
        assert coords == [(5, 6), (6, 5), (6, 6)]

    def test_obstacle_blocks_one_primitive(self):
        # Arm along +x at (0,0)->(1,0)->(2,0); a small circle sits just above
        # the elbow where only the +1 move of joint 2 sweeps into it.
        tip_up = (1.0 + math.cos(DELTA), math.sin(DELTA))
        d = make_arms(obstacles=[((tip_up[0], tip_up[1]), 0.05)])
        succ = [s.coords for s, _ in d.successors(0, C(0, 0))]
        assert (0, 1) not in succ  # raising the second joint hits the circle
        assert (0, -1) in succ and (1, 0) in succ and (-1, 0) in succ and (0, 0) in succ


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
            for q2, cost in d.successors(0, C(x, y)):
                if q2.coords in dist:
                    assert d.heuristic(0, C(x, y), C(*goal)) <= cost + d.heuristic(0, q2, C(*goal))


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
            for q2, _ in d.successors(agent, q):
                yield q, q2


def random_motion(rng, d, agent):
    q = C(*(rng.randint(lo, hi) for lo, hi in d.arms[agent].joint_limits))
    return q, rng.choice(d.successors(agent, q))[0]


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
            if any(d.edge_intersects_circle(*case, substeps=m) for m in (8, 16, 64)):
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

    def test_grid_cell_center_rule(self):
        d = make_grid()
        assert d.occupancy_intersects_circle(0, C(2, 2), (2.5, 2.5), 0.0)
        assert d.occupancy_intersects_circle(0, C(2, 2), (3.5, 2.5), 1.0)
        assert not d.occupancy_intersects_circle(0, C(2, 2), (3.5, 2.5), 0.999)


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


def reference_conflicts(d, agent, other_paths, q, q2, t2, substeps=None):
    """(vertex hits, edge-only hits) of the move q -> q2 into t2, one
    other path at a time, straight from the pairwise primitives."""
    vertex = edge = 0
    for j, path in enumerate(other_paths):
        if path is None:
            continue
        if d.agents_collide(agent, q2, j, path.at(t2)) is not None:
            vertex += 1
        elif d.edge_collides(agent, q, q2, j, path.at(t2 - 1), path.at(t2), substeps) is not None:
            edge += 1
    return vertex, edge


def random_walk(rng, d, agent, start, length):
    steps = [start]
    for _ in range(length):
        steps.append(rng.choice(d.successors(agent, steps[-1]))[0])
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
                for q2, _ in d.successors(0, q):  # moves and the wait
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
            q2 = rng.choice(d.successors(0, q))[0]
            queries.append((q, q2, rng.randint(1, 8)))
        for substeps in (None, 8):
            count = d.conflict_counter(0, others, substeps)
            loop = Domain.conflict_counter(d, 0, others, substeps)
            hits = 0
            for q, q2, t2 in queries:
                n = count(q, q2, t2)
                assert n == loop(q, q2, t2) == sum(reference_conflicts(ref, 0, others, q, q2, t2, substeps))
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


def counter_decisions(d, agent, others, substeps, queries):
    """Yield (q, q2, t2, calls) per query of d's counter over `others`,
    where calls is the set of (part, other arm) the counter passed to a
    primitive. d's memos are emptied before each query, so a part missing
    from calls was decided by the bounding-box certificate alone."""
    calls = set()
    agents_collide, edge_collides = d.agents_collide, d.edge_collides

    def vertex(i, q_i, j, q_j):
        calls.add(("vertex", j))
        return agents_collide(i, q_i, j, q_j)

    def edge(i, q_i, q_i2, j, q_j, q_j2, substeps=None):
        calls.add(("edge", j))
        return edge_collides(i, q_i, q_i2, j, q_j, q_j2, substeps)

    d.agents_collide, d.edge_collides = vertex, edge
    count = d.conflict_counter(agent, others, substeps)
    for q, q2, t2 in queries:
        d._pair_cache.clear()
        d._edge_cache.clear()
        calls.clear()
        count(q, q2, t2)
        yield q, q2, t2, set(calls)


class TestArmCounterCertificate:
    def check_skips_are_clear(self, build, agent, others, queries, substeps):
        """Every part the counter skips is clear for the primitives of a
        fresh domain; returns (vertex skips, edge skips, contacts found)."""
        ref = build()
        skipped_vertex = skipped_edge = contacts = 0
        for q, q2, t2, calls in counter_decisions(build(), agent, others, substeps, queries):
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
                edge = ref.edge_collides(*motion, substeps)
                if ("edge", j) not in calls:
                    assert edge is None and ref.edge_collides(*motion) is None, (motion, t2)
                    skipped_edge += 1
                contacts += edge is not None
        return skipped_vertex, skipped_edge, contacts

    def test_skipped_pairs_are_clear_on_solved_cells(self):
        totals = [0, 0, 0]
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
                for substeps in (None, 8):
                    found = self.check_skips_are_clear(scenario.build_domain, agent, others, queries, substeps)
                    totals = [a + b for a, b in zip(totals, found)]
        skipped_vertex, skipped_edge, contacts = totals
        assert skipped_vertex > 0 and skipped_edge > 0 and contacts > 0

    def test_skipped_pairs_are_clear_around_the_037_contact(self):
        d = arm_quad_037()
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        queries = [(q, q2, 1) for q, q2 in motions_near(d, i, q_i.coords)]
        totals = [0, 0, 0]
        # Arm j makes each of its moves from its 037 pose.
        for move, _ in d.successors(j, q_j):
            others = [None] * d.n_agents
            others[j] = Path(agent=j, steps=(q_j, move))
            for substeps in (None, 8):
                found = self.check_skips_are_clear(arm_quad_037, i, others, queries, substeps)
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
                for substeps in (None, 8):
                    found = self.check_skips_are_clear(arm_quad_037, agent, others, [(C(*q), C(*q2), 1)], substeps)
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
        for substeps in (None, 8):
            count = d.conflict_counter(0, others, substeps)
            assert [count(*query) for query in queries] == [
                sum(reference_conflicts(build(), 0, others, *query, substeps)) for query in queries
            ]
            _, _, contacts = self.check_skips_are_clear(build, 0, others, queries, substeps)
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
        d, fresh = arm_quad_037(), arm_quad_037()
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
                    assert got == fresh._pair_gap(*pose, threshold, enough, memo=False), (pose, enough)
            exact += len(d._gap_cache)
        assert exact > 0

    def test_bisection_points_never_grow_the_memo(self):
        d = arm_quad_037()
        i, q_i, q_i2, j, q_j, q_j2 = MOTION_037
        threshold = d.arms[i].thickness + d.arms[j].thickness
        before = dict(d._gap_cache)  # the start and goal checks
        for s in (0.0625, 0.125, 0.1875, 0.5):
            ci = tuple(a + (b - a) * s for a, b in zip(q_i.coords, q_i2.coords))
            cj = tuple(a + (b - a) * s for a, b in zip(q_j.coords, q_j2.coords))
            d._pair_gap(i, ci, j, cj, threshold, threshold, memo=False)
        assert d._gap_cache == before
        # The certified check bisects between the default samples; only
        # its sample poses may enter the memo.
        assert d.edge_collides(*MOTION_037) is not None
        m = d.substeps
        samples = {
            (
                tuple(a + (b - a) * (k / m) for a, b in zip(q_i.coords, q_i2.coords)),
                tuple(a + (b - a) * (k / m) for a, b in zip(q_j.coords, q_j2.coords)),
            )
            for k in range(m + 1)
        }
        added = {(key[1], key[3]) for key in d._gap_cache if key not in before}
        assert added and added <= samples

    def test_cap_holds(self, monkeypatch):
        monkeypatch.setattr(domain_module, "POSE_MEMO_CAP", 25)
        d = arm_quad_037()
        rng = random.Random(9)
        for pose in self.endpoint_pairs(d, rng, 200):
            d._pair_gap(*pose, math.inf, math.inf)  # never the box shortcut
        assert len(d._gap_cache) == 25
        assert len(d._fk_cache) <= 25 and len(d._bbox_cache) <= 25
