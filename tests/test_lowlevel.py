import math

import pytest

from genecbs.bench import generate_instances
from genecbs.core import Configuration, Constraint, Path, path_cost
from genecbs.domain import ArmSpec, Domain, GridDomain, PlanarArmDomain
from genecbs.lowlevel import (
    INFEASIBLE,
    OK,
    ConstraintContext,
    Focal,
    is_forbidden,
    is_forbidden_edge,
    plan,
)

from oracles import bfs_distances, constrained_optimal_cost


def C(*coords):
    return Configuration(tuple(coords))


def make_grid(blocked=(), starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)), size=(5, 5)):
    return GridDomain(size[0], size[1], blocked, [C(*s) for s in starts], [C(*g) for g in goals])


def empty_ctx(agent=0):
    return ConstraintContext(agent=agent, constraints=(), other_paths=(None, None))


class TestPlanBasics:
    def test_start_equals_goal(self):
        d = make_grid(starts=((2, 2), (4, 4)), goals=((2, 2), (0, 0)))
        res = plan(d, 0, C(2, 2), C(2, 2), empty_ctx(), Focal(1.0))
        assert res.status == OK
        assert res.path.steps == (C(2, 2),)
        assert res.lb == 0.0

    def test_unconstrained_focal_matches_bfs(self):
        d = make_grid(blocked=[(1, 1), (2, 2), (3, 1)], starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        dist = bfs_distances(d, (4, 0))
        res = plan(d, 0, C(0, 0), C(4, 0), empty_ctx(), Focal(1.0))
        assert res.status == OK
        assert path_cost(res.path, d) == dist[(0, 0)]
        assert res.lb == dist[(0, 0)]

    def test_unreachable_goal_is_infeasible(self):
        d = make_grid(blocked=[(1, 0), (0, 1), (1, 1)], starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        res = plan(d, 0, C(0, 0), C(4, 0), empty_ctx(), Focal(1.0))
        assert res.status == INFEASIBLE


class TestConstrainedPlanning:
    def test_vertex_constraint_forces_detour_or_wait(self):
        # Single corridor row; a vertex constraint blocks the only shortest
        # path at its arrival time, which costs exactly two extra steps
        # under head-on timing (wait is blocked by the edge rule too).
        d = GridDomain(5, 1, [], [C(0, 0)], [C(4, 0)])
        ctx = ConstraintContext(
            agent=0,
            constraints=(Constraint(agent=0, ctype="vertex", time=2, q=C(2, 0)),),
            other_paths=(None,),
        )

        def fv(q, t):
            return t == 2 and q == C(2, 0)

        def fe(q, q2, t):
            return False

        oracle = constrained_optimal_cost(d, 0, C(0, 0), C(4, 0), fv, fe, horizon=20)
        res = plan(d, 0, C(0, 0), C(4, 0), ctx, Focal(1.0))
        assert res.status == OK
        assert path_cost(res.path, d) == oracle == 5
        assert res.lb <= path_cost(res.path, d)

    def test_goal_blocked_late_forces_later_arrival(self):
        d = GridDomain(4, 1, [], [C(0, 0)], [C(3, 0)])
        ctx = ConstraintContext(
            agent=0,
            constraints=(Constraint(agent=0, ctype="vertex", time=6, q=C(3, 0)),),
            other_paths=(None,),
        )
        res = plan(d, 0, C(0, 0), C(3, 0), ctx, Focal(1.0))
        assert res.status == OK
        # resting at the goal before t=6 would violate the constraint at t=6
        assert path_cost(res.path, d) == 7

    def test_lb_validity_against_oracle_sweep(self):
        import random

        rng = random.Random(5)
        d = GridDomain(4, 4, [(1, 1)], [C(0, 0)], [C(3, 3)])
        for trial in range(40):
            cs = []
            for _ in range(rng.randrange(4)):
                cs.append(
                    Constraint(
                        agent=0,
                        ctype="vertex",
                        time=rng.randrange(1, 7),
                        q=C(rng.randrange(4), rng.randrange(4)),
                    )
                )
            ctx = ConstraintContext(agent=0, constraints=tuple(cs), other_paths=(None,))

            def fv(q, t, cs=cs):
                return any(c.time == t and c.q == q for c in cs)

            def fe(q, q2, t):
                return False

            oracle = constrained_optimal_cost(d, 0, C(0, 0), C(3, 3), fv, fe, horizon=24)
            res = plan(d, 0, C(0, 0), C(3, 3), ctx, Focal(1.0))
            if oracle is None:
                assert res.status == INFEASIBLE
            else:
                assert res.status == OK
                assert path_cost(res.path, d) == oracle
                assert res.lb <= oracle

    def test_focal_bound_holds_with_w(self):
        d = make_grid(starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        other = Path(1, tuple(C(x, 0) for x in (4, 3, 2, 1, 0)))
        ctx = ConstraintContext(agent=0, constraints=(), other_paths=(None, other))
        for w in (1.0, 1.3, 1.5, 2.0):
            res = plan(d, 0, C(0, 0), C(4, 0), ctx, Focal(w))
            assert res.status == OK
            assert path_cost(res.path, d) <= w * res.lb + 1e-9

    def test_determinism(self):
        d = make_grid(blocked=[(2, 1)])
        other = Path(1, tuple(C(4 - i, 4) for i in range(5)))
        ctx = ConstraintContext(agent=0, constraints=(), other_paths=(None, other))
        a = plan(d, 0, C(0, 0), C(4, 0), ctx, Focal(1.4))
        b = plan(d, 0, C(0, 0), C(4, 0), ctx, Focal(1.4))
        assert a.path == b.path and a.lb == b.lb


class TestIsForbidden:
    def test_empty_constraints_allow_everything(self):
        d = make_grid()
        ctx = empty_ctx()
        assert not is_forbidden(d, ctx, C(2, 2), 3)
        assert not is_forbidden_edge(d, ctx, C(2, 2), C(3, 2), 3)

    def test_point_sphere_forbids_occupying_configuration(self):
        # Radius 0: the constraint degenerates to the collision point itself.
        d = make_grid()
        c = Constraint(agent=0, ctype="sphere", time=4, point=(2.5, 2.5), radius=0.0)
        ctx = ConstraintContext(agent=0, constraints=(c,), other_paths=(None, None))
        assert is_forbidden(d, ctx, C(2, 2), 4)
        assert not is_forbidden(d, ctx, C(2, 2), 3)
        assert not is_forbidden(d, ctx, C(3, 2), 4)

    def test_avoidance_snapshot_vs_step_priority_current(self):
        # After the other agent replans away, avoidance still forbids the
        # old snapshot volume while step-priority tracks the new path.
        d = make_grid()
        snapshot = C(2, 2)
        new_path = Path(1, (C(4, 4), C(3, 4), C(2, 4)))
        avoid = Constraint(agent=0, ctype="avoidance", time=2, other=1, q_other=snapshot)
        step = Constraint(agent=0, ctype="step-priority", time=2, other=1)
        ctx = ConstraintContext(agent=0, constraints=(avoid, step), other_paths=(None, new_path))
        assert is_forbidden(d, ctx, snapshot, 2)  # avoidance: old volume
        assert is_forbidden(d, ctx, C(2, 4), 2)  # step-priority: new config
        assert not is_forbidden(d, ctx, C(3, 3), 2)

    def test_priority_padded_at_goal(self):
        d = make_grid()
        other = Path(1, (C(4, 4), C(3, 4)))
        c = Constraint(agent=0, ctype="priority", time=None, other=1)
        ctx = ConstraintContext(agent=0, constraints=(c,), other_paths=(None, other))
        assert is_forbidden(d, ctx, C(3, 4), 1)
        assert is_forbidden(d, ctx, C(3, 4), 9)  # parked at goal forever
        assert not is_forbidden(d, ctx, C(4, 4), 9)

    def test_priority_forbids_swap_edges(self):
        d = make_grid()
        other = Path(1, (C(2, 2), C(3, 2)))
        c = Constraint(agent=0, ctype="priority", time=None, other=1)
        ctx = ConstraintContext(agent=0, constraints=(c,), other_paths=(None, other))
        assert is_forbidden_edge(d, ctx, C(3, 2), C(2, 2), 0)

    def test_edge_constraint_matches_exact_transition(self):
        d = make_grid()
        c = Constraint(agent=0, ctype="edge", time=3, q=C(1, 1), q2=C(2, 1))
        ctx = ConstraintContext(agent=0, constraints=(c,), other_paths=(None, None))
        assert is_forbidden_edge(d, ctx, C(1, 1), C(2, 1), 3)
        assert not is_forbidden_edge(d, ctx, C(2, 1), C(1, 1), 3)
        assert not is_forbidden_edge(d, ctx, C(1, 1), C(2, 1), 2)


class TestConstraintSoundness:
    def test_returned_paths_pass_independent_recheck(self):
        d = make_grid(blocked=[(2, 2)], starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        other = Path(1, tuple(C(x, 0) for x in (4, 3, 2, 1, 0)))
        constraints = (
            Constraint(agent=0, ctype="vertex", time=1, q=C(1, 0)),
            Constraint(agent=0, ctype="sphere", time=3, point=(2.5, 0.5), radius=1.0),
            Constraint(agent=0, ctype="priority", time=None, other=1),
        )
        ctx = ConstraintContext(agent=0, constraints=constraints, other_paths=(None, other))
        res = plan(d, 0, C(0, 0), C(4, 0), ctx, Focal(1.2))
        assert res.status == OK
        p = res.path
        horizon = max(p.horizon, other.horizon) + 2
        for t in range(horizon + 1):
            assert not is_forbidden(d, ctx, p.at(t), t)
            assert not is_forbidden_edge(d, ctx, p.at(t), p.at(t + 1), t)


class PairwiseGrid(GridDomain):
    """A grid that counts focal conflicts with the default pairwise loop."""

    conflict_counter = Domain.conflict_counter


class TestConflictCounting:
    def test_grid_tables_give_the_same_plans_as_the_pairwise_loop(self):
        d = generate_instances(
            "grid-random", 1, seed=7,
            params={"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15},
        )[0].build_domain()
        loop = PairwiseGrid(d.width, d.height, d.blocked, d.starts, d.goals, d.substeps)
        paths = [
            plan(d, a, d.starts[a], d.goals[a], ConstraintContext.for_agent(a, (), ()), Focal(1.0)).path
            for a in range(d.n_agents)
        ]
        for a in range(d.n_agents):
            ctx = ConstraintContext.for_agent(a, (), paths)
            for w in (1.0, 1.5):
                res = plan(d, a, d.starts[a], d.goals[a], ctx, Focal(w))
                assert res.status == OK
                assert res == plan(loop, a, d.starts[a], d.goals[a], ctx, Focal(w)), (a, w)
