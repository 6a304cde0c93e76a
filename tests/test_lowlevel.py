import hashlib
import math
import random

import pytest

from genecbs.bench import generate_instances
from genecbs.core import Configuration, Constraint, Path, canonical_json, path_cost
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


def _workspace_point(d, agent, q):
    if isinstance(d, GridDomain):
        return d.cell_center(q)
    return d.fk_segments(agent, q.coords)[-1][1]  # the arm's tip


def _results_digest(results):
    obj = [
        [r.status, None if r.path is None else r.path.to_obj(), r.lb, r.expansions]
        for r in results
    ]
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _pp_results(d, seed):
    """Plan the agents one by one in a seeded order, each under priority
    constraints against every agent planned before it."""
    order = list(range(d.n_agents))
    random.Random(seed).shuffle(order)
    paths = [None] * d.n_agents
    results = []
    for k, a in enumerate(order):
        cs = tuple(Constraint(agent=a, ctype="priority", time=None, other=b) for b in order[:k])
        ctx = ConstraintContext(agent=a, constraints=cs, other_paths=tuple(paths))
        res = plan(d, a, d.starts[a], d.goals[a], ctx, Focal(1.0, count_conflicts=False), max_expansions=20_000)
        results.append(res)
        if res.status == OK:
            paths[a] = res.path
    return results


def _mixed_constraints(d, a, paths, rng, radius, spread):
    """Vertex, edge, sphere, avoidance and step-priority constraints (from
    vertex and from edge conflicts) on the agent's own shortest path, all at
    one timestep t or spread over t - 1, t and t + 1; every other context
    also gets a priority constraint."""
    p = paths[a]
    t = rng.randint(1, max(1, p.horizon))
    before, after = (t - 1, t + 1) if spread else (t, t)
    others = [b for b in range(d.n_agents) if b != a]
    b, c, e = (rng.choice(others) for _ in range(3))
    cs = [
        Constraint(agent=a, ctype="vertex", time=t, q=p.at(t)),
        Constraint(agent=a, ctype="edge", time=before, q=p.at(before), q2=p.at(before + 1)),
        Constraint(
            agent=a, ctype="sphere", time=after, point=_workspace_point(d, a, p.at(after)),
            radius=radius, from_edge=rng.random() < 0.5,
        ),
        Constraint(
            agent=a, ctype="avoidance", time=before, other=b,
            q_other=paths[b].at(before), q_other2=paths[b].at(before + 1), from_edge=True,
        ),
        Constraint(agent=a, ctype="avoidance", time=after, other=c, q_other=paths[c].at(after)),
        Constraint(agent=a, ctype="step-priority", time=t, other=e, from_edge=True),
        Constraint(agent=a, ctype="step-priority", time=after, other=b),
    ]
    if rng.random() < 0.5:
        cs.append(Constraint(agent=a, ctype="priority", time=None, other=c))
    return tuple(cs)


def _mixed_results(d, seed, radius):
    paths = [
        plan(d, a, d.starts[a], d.goals[a], ConstraintContext.for_agent(a, (), ()), Focal(1.0)).path
        for a in range(d.n_agents)
    ]
    rng = random.Random(seed)
    results = []
    for a in range(d.n_agents):
        for spread in (False, True):
            ctx = ConstraintContext.for_agent(a, _mixed_constraints(d, a, paths, rng, radius, spread), paths)
            results.append(plan(d, a, d.starts[a], d.goals[a], ctx, Focal(1.3), max_expansions=20_000))
    return results


class TestConstraintIndexParity:
    """`plan` under priority and mixed constraint contexts gives the same
    `LLResult`s as the per-constraint scan it replaced; the digests were
    recorded with that scan."""

    @pytest.fixture(scope="class")
    def domains(self):
        grid = generate_instances(
            "grid-random", 1, seed=7,
            params={"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15},
        )[0].build_domain()
        arm = generate_instances("arm-quad", 1, seed=2024)[0].build_domain()
        return {"grid": grid, "arm": arm}

    @pytest.mark.parametrize("name,seed,digest", [
        ("grid", 1, "26aa1cf796028983"),
        ("grid", 2, "2170664289eb84b3"),
        ("arm", 1, "a04047f80d64736a"),
        ("arm", 2, "3e69597fdf5794ac"),
    ])
    def test_priority_contexts(self, domains, name, seed, digest):
        assert _results_digest(_pp_results(domains[name], seed)) == digest

    @pytest.mark.parametrize("name,seed,digest", [
        ("grid", 1, "76e76635503d2ba2"),
        ("grid", 2, "d5ea1dec12f0c462"),
        ("arm", 1, "8f033dab0322911d"),
        ("arm", 2, "e0382dd69e73fdcf"),
    ])
    def test_mixed_contexts(self, domains, name, seed, digest):
        radius = 1.0 if name == "grid" else 0.105
        assert _results_digest(_mixed_results(domains[name], seed, radius)) == digest


def _rearrival_case(kind, trial):
    """A small random grid where focal search reaches some state again on a
    route with fewer conflicts whose last move a constraint forbids: edge
    constraints ("edge"), or a priority constraint against a path that
    swaps with that move ("priority")."""
    rng = random.Random(trial)
    if kind == "edge":
        width, height, n, blocked = 5, 5, 5, [(2, 2)]
        cells = [(x, y) for x in range(width) for y in range(height) if (x, y) != (2, 2)]
    else:
        width, height = rng.choice(((3, 3), (4, 2), (5, 2), (4, 3)))
        n = 5
        cells = [(x, y) for x in range(width) for y in range(height)]
        blocked = rng.sample(cells, rng.randint(0, 2))
    d = GridDomain(width, height, blocked, [C(0, 0)] * n, [C(0, 0)] * n)
    free = [C(*c) for c in cells if c not in blocked]

    def walk(j, length):
        steps = [rng.choice(free)]
        for _ in range(length):
            steps.append(rng.choice(d.successors(j, steps[-1]))[0])
        return Path(j, tuple(steps))

    if kind == "edge":
        others = [None] + [walk(j, rng.randint(3, 10)) for j in range(1, n)]
        cs = []
        for _ in range(rng.randint(0, 20)):
            q = rng.choice(free)
            t = rng.randint(0, 5)
            cs.append(Constraint(agent=0, ctype="edge", time=t, q=q, q2=rng.choice(d.successors(0, q))[0]))
        start, goal, w = rng.choice(free), rng.choice(free), rng.choice((1.5, 2.0))
    else:
        others = [None] + [walk(j, rng.randint(1, 6)) for j in range(1, n)]
        cs = [Constraint(agent=0, ctype="priority", time=None, other=1)]
        for _ in range(rng.randint(0, 4)):
            cs.append(Constraint(agent=0, ctype="vertex", time=rng.randint(1, 4), q=rng.choice(free)))
        start, goal, w = rng.choice(free), rng.choice(free), rng.choice((1.0, 1.2, 1.5))
    ctx = ConstraintContext(agent=0, constraints=tuple(cs), other_paths=tuple(others))
    return d, ctx, start, goal, w


class TestRearrivalChecks:
    """A cheaper second route into a known state is still checked against
    the constraints on its last move; the seeds are cases where skipping
    that check returns a path that violates one."""

    @pytest.mark.parametrize("kind,trial", [
        ("edge", 65), ("edge", 287), ("edge", 3745), ("edge", 3805),
        ("priority", 671), ("priority", 885), ("priority", 2879), ("priority", 4520),
    ])
    def test_returned_path_satisfies_every_constraint(self, kind, trial):
        d, ctx, start, goal, w = _rearrival_case(kind, trial)
        res = plan(d, 0, start, goal, ctx, Focal(w))
        assert res.status == OK
        p = res.path
        for t in range(max(p.horizon, *(o.horizon for o in ctx.other_paths[1:])) + 7):
            assert not is_forbidden(d, ctx, p.at(t), t), t
            assert not is_forbidden_edge(d, ctx, p.at(t), p.at(t + 1), t), t
