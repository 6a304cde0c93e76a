import hashlib
import math
import random

import pytest

from genecbs import core
from genecbs.bench import generate_instances
from genecbs.constraints import COMPLETE, ConstraintMenu, MenuEntry, make_constraints
from genecbs.core import EDGE, VERTEX, Configuration, Conflict, Constraint, Path, canonical_json, path_cost
from genecbs.domain import ArmSpec, Domain, GridDomain, PlanarArmDomain, index_l1
from genecbs.lowlevel import (
    BUDGET,
    INFEASIBLE,
    OK,
    ConstraintContext,
    _compile,
    _earliest_rest_time,
    is_forbidden,
    is_forbidden_edge,
    plan,
)

import reference_lowlevel
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
        res = plan(d, 0, C(2, 2), C(2, 2), empty_ctx())
        assert res.status == OK
        assert res.path.steps == (C(2, 2),)
        assert res.lb == 0.0

    def test_unconstrained_focal_matches_bfs(self):
        d = make_grid(blocked=[(1, 1), (2, 2), (3, 1)], starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        dist = bfs_distances(d, (4, 0))
        res = plan(d, 0, C(0, 0), C(4, 0), empty_ctx())
        assert res.status == OK
        assert path_cost(res.path, d) == dist[(0, 0)]
        assert res.lb == dist[(0, 0)]

    def test_unreachable_goal_is_infeasible(self):
        d = make_grid(blocked=[(1, 0), (0, 1), (1, 1)], starts=((0, 0), (4, 4)), goals=((4, 0), (0, 4)))
        res = plan(d, 0, C(0, 0), C(4, 0), empty_ctx())
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
        res = plan(d, 0, C(0, 0), C(4, 0), ctx)
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
        res = plan(d, 0, C(0, 0), C(3, 0), ctx)
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
            res = plan(d, 0, C(0, 0), C(3, 3), ctx)
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
            res = plan(d, 0, C(0, 0), C(4, 0), ctx, w=w)
            assert res.status == OK
            assert path_cost(res.path, d) <= w * res.lb + 1e-9

    def test_determinism(self):
        d = make_grid(blocked=[(2, 1)])
        other = Path(1, tuple(C(4 - i, 4) for i in range(5)))
        ctx = ConstraintContext(agent=0, constraints=(), other_paths=(None, other))
        a = plan(d, 0, C(0, 0), C(4, 0), ctx, w=1.4)
        b = plan(d, 0, C(0, 0), C(4, 0), ctx, w=1.4)
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
        res = plan(d, 0, C(0, 0), C(4, 0), ctx, w=1.2)
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
            plan(d, a, d.starts[a], d.goals[a], ConstraintContext.for_agent(a, (), ())).path
            for a in range(d.n_agents)
        ]
        for a in range(d.n_agents):
            ctx = ConstraintContext.for_agent(a, (), paths)
            for w in (1.0, 1.5):
                res = plan(d, a, d.starts[a], d.goals[a], ctx, w=w)
                assert res.status == OK
                assert res == plan(loop, a, d.starts[a], d.goals[a], ctx, w=w), (a, w)


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


def _pp_results(d, seed, heuristic=None):
    """Plan the agents one by one in a seeded order, each under priority
    constraints against every agent planned before it, with `plan`'s
    `heuristic`."""
    order = list(range(d.n_agents))
    random.Random(seed).shuffle(order)
    paths = [None] * d.n_agents
    results = []
    for k, a in enumerate(order):
        cs = tuple(Constraint(agent=a, ctype="priority", time=None, other=b) for b in order[:k])
        ctx = ConstraintContext(agent=a, constraints=cs, other_paths=tuple(paths))
        res = plan(
            d, a, d.starts[a], d.goals[a], ctx, count_conflicts=False, max_expansions=20_000, heuristic=heuristic
        )
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


def _mixed_results(d, seed, radius, heuristic=None):
    paths = [
        plan(d, a, d.starts[a], d.goals[a], ConstraintContext.for_agent(a, (), ()), heuristic=heuristic).path
        for a in range(d.n_agents)
    ]
    rng = random.Random(seed)
    results = []
    for a in range(d.n_agents):
        for spread in (False, True):
            ctx = ConstraintContext.for_agent(a, _mixed_constraints(d, a, paths, rng, radius, spread), paths)
            results.append(
                plan(d, a, d.starts[a], d.goals[a], ctx, w=1.3, max_expansions=20_000, heuristic=heuristic)
            )
    return results


class TestConstraintIndexParity:
    """`plan` under priority and mixed constraint contexts gives the same
    `LLResult`s as the per-constraint scan it replaced; the digests were
    recorded with that scan, when both domains planned on the index-space L1
    distance, `index_l1`, which these checks pass to `plan`. The arm rows
    under the arm's own distance table are recorded beside them."""

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
        assert _results_digest(_pp_results(domains[name], seed, index_l1)) == digest

    @pytest.mark.parametrize("seed,digest", [(1, "5d9fc2278b349e23"), (2, "3d53eaf109504b47")])
    def test_priority_contexts_on_the_arm_table(self, domains, seed, digest):
        assert _results_digest(_pp_results(domains["arm"], seed)) == digest

    @pytest.mark.parametrize("name,seed,digest", [
        ("grid", 1, "76e76635503d2ba2"),
        ("grid", 2, "d5ea1dec12f0c462"),
        ("arm", 1, "8f033dab0322911d"),
        ("arm", 2, "e0382dd69e73fdcf"),
    ])
    def test_mixed_contexts(self, domains, name, seed, digest):
        radius = 1.0 if name == "grid" else 0.105
        assert _results_digest(_mixed_results(domains[name], seed, radius, index_l1)) == digest

    @pytest.mark.parametrize("seed,digest", [(1, "3c5ead1d7937bfd8"), (2, "6cd068894c19d437")])
    def test_mixed_contexts_on_the_arm_table(self, domains, seed, digest):
        assert _results_digest(_mixed_results(domains["arm"], seed, 0.105)) == digest


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
            steps.append(rng.choice(d.successors(j, steps[-1])))
        return Path(j, tuple(steps))

    if kind == "edge":
        others = [None] + [walk(j, rng.randint(3, 10)) for j in range(1, n)]
        cs = []
        for _ in range(rng.randint(0, 20)):
            q = rng.choice(free)
            t = rng.randint(0, 5)
            cs.append(Constraint(agent=0, ctype="edge", time=t, q=q, q2=rng.choice(d.successors(0, q))))
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
        res = plan(d, 0, start, goal, ctx, w=w)
        assert res.status == OK
        p = res.path
        for t in range(max(p.horizon, *(o.horizon for o in ctx.other_paths[1:])) + 7):
            assert not is_forbidden(d, ctx, p.at(t), t), t
            assert not is_forbidden_edge(d, ctx, p.at(t), p.at(t + 1), t), t


def reference_constraint_horizon(ctx):
    """Latest timestep any constraint can still bite, computed in a pass of
    its own (the rule `_compile` folds into its filing loop)."""
    h = 0
    for c in ctx.constraints:
        if c.time is not None:
            h = max(h, c.time + (2 if c.from_edge and core.KINDS[c.ctype].covers_next else 1))
        if c.ctype in ("priority",):
            other = ctx.other_path(c.other)
            if other is not None:
                h = max(h, other.horizon)
    return h


def _random_context(rng, d, n):
    free = [C(x, y) for x in range(d.width) for y in range(d.height)]

    def walk(agent):
        steps = [rng.choice(free)]
        for _ in range(rng.randint(0, 12)):
            steps.append(rng.choice(d.successors(agent, steps[-1])))
        return Path(agent, tuple(steps))

    # Some other agents have no path, so priority constraints on them name
    # a missing path.
    others = (None,) + tuple(walk(j) if rng.random() < 0.7 else None for j in range(1, n))
    cs = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(KINDS)
        t, q, b = rng.randint(0, 15), rng.choice(free), rng.randint(1, n - 1)
        from_edge = rng.random() < 0.5
        if kind == "vertex":
            c = Constraint(agent=0, ctype=kind, time=t, q=q)
        elif kind == "edge":
            c = Constraint(agent=0, ctype=kind, time=t, q=q, q2=rng.choice(d.successors(0, q)))
        elif kind == "sphere":
            c = Constraint(agent=0, ctype=kind, time=t, point=(q.coords[0] + 0.5, q.coords[1] + 0.5),
                           radius=1.0, from_edge=from_edge)
        elif kind == "avoidance":
            c = Constraint(agent=0, ctype=kind, time=t, other=b, q_other=q,
                           q_other2=q if from_edge else None, from_edge=from_edge)
        elif kind == "step-priority":
            c = Constraint(agent=0, ctype=kind, time=t, other=b, from_edge=from_edge)
        elif kind == "priority":
            c = Constraint(agent=0, ctype=kind, time=None, other=b)
        else:
            raise ValueError(kind)
        cs.append(c)
    return ConstraintContext(agent=0, constraints=tuple(cs), other_paths=others)


class TestCompiledHorizon:
    def test_matches_reference_on_random_contexts(self):
        d = make_grid(blocked=[(2, 2)], size=(6, 6), starts=((0, 0),) * 4, goals=((5, 5),) * 4)
        rng = random.Random(11)
        kinds = set()
        for _ in range(500):
            ctx = _random_context(rng, d, 4)
            kinds.update(
                (c.ctype, c.from_edge, c.other is not None and ctx.other_path(c.other) is None)
                for c in ctx.constraints
            )
            assert _compile(d, ctx)[3] == reference_constraint_horizon(ctx), ctx
        # Every kind was drawn, from-edge constraints and priority
        # constraints against a missing path among them.
        assert {k for k, _, _ in kinds} == set(core.KINDS)
        assert ("step-priority", True, False) in kinds and ("priority", False, True) in kinds


def brute_force_forbidden(d, c, other_paths=None):
    """The (cell, t) and (cell, cell2, t) items that `c` forbids on grid `d`,
    found by asking `is_forbidden` and `is_forbidden_edge` about every free
    cell, every successor move (waits included) and every t up to one past
    the constraint's horizon. The other agents have no path unless
    `other_paths` gives them."""
    ctx = ConstraintContext(agent=c.agent, constraints=(c,), other_paths=other_paths or (None,) * d.n_agents)
    horizon = _compile(d, ctx)[3]
    free = [C(x, y) for x in range(d.width) for y in range(d.height) if (x, y) not in d.blocked]
    items = set()
    for t in range(horizon + 2):
        for q in free:
            if is_forbidden(d, ctx, q, t):
                items.add((q.coords, t))
            for q2 in d.successors(c.agent, q):
                if is_forbidden_edge(d, ctx, q, q2, t):
                    items.add((q.coords, q2.coords, t))
    return frozenset(items), horizon


class TestConstraintHorizonIsTight:
    """`Constraint.horizon` is one past the last timestep at which the
    constraint forbids anything, for every kind with a time (an every-step
    kind has none), made from a vertex and from an edge conflict."""

    # Agent 1 holds (2, 1) until t = 3 and then moves up through (2, 2);
    # the vertex conflict meets agent 0 on (2, 1) at t = 3, the edge
    # conflict is the swap (2, 2) <-> (2, 1) over [3, 4].
    OTHER = Path(1, (C(2, 1),) * 4 + (C(2, 2), C(2, 3), C(2, 4)))
    CONFLICTS = {
        VERTEX: Conflict(VERTEX, (0, 1), 3, (C(2, 1),), (C(2, 1),), (2.5, 1.5)),
        EDGE: Conflict(EDGE, (0, 1), 3, (C(2, 2), C(2, 1)), (C(2, 1), C(2, 2)), (2.5, 2.0)),
    }

    MENU = ConstraintMenu.of(
        MenuEntry(COMPLETE), MenuEntry("sphere", radius=0.4), MenuEntry("avoidance"), MenuEntry("step-priority")
    )

    def test_last_forbidden_timestep_is_horizon_minus_one(self):
        d = make_grid()
        seen = set()
        for conflict in self.CONFLICTS.values():
            for _, c, _ in make_constraints(conflict, self.MENU):
                items, horizon = brute_force_forbidden(d, c, other_paths=(None, self.OTHER))
                assert horizon == c.horizon, c
                assert max(item[-1] for item in items) == c.horizon - 1, (c, sorted(items, key=lambda i: i[-1]))
                seen.add((c.ctype, c.from_edge))
        assert {k for k, _ in seen} == {k for k, row in core.KINDS.items() if not row.every_step}
        assert {k for k, from_edge in seen if from_edge} == {"sphere", "avoidance", "step-priority"}


class TestConstraintKey:
    """`GridDomain.constraint_key` lists what a vertex, edge or avoidance
    constraint forbids, with its horizon; other kinds keep their identity."""

    def test_matches_brute_force_on_random_grids(self):
        rng = random.Random(23)
        seen = set()
        for _ in range(60):
            w, h = rng.randint(3, 6), rng.randint(3, 6)
            cells = [(x, y) for x in range(w) for y in range(h)]
            blocked = rng.sample(cells, rng.randint(0, len(cells) // 4))
            free = [C(*xy) for xy in cells if xy not in blocked]
            d = GridDomain(w, h, blocked, [free[0], free[-1]], [free[-1], free[0]])
            for _ in range(6):
                kind = rng.choice(("vertex", "edge", "avoidance", "avoidance-edge"))
                t, q = rng.randint(0, 6), rng.choice(free)
                q2 = rng.choice(d.successors(0, q))
                if kind == "vertex":
                    c = Constraint(agent=0, ctype="vertex", time=t, q=q)
                elif kind == "edge":
                    c = Constraint(agent=0, ctype="edge", time=t, q=q, q2=q2)
                elif kind == "avoidance":
                    c = Constraint(agent=0, ctype="avoidance", time=t, other=1, q_other=q)
                else:
                    c = Constraint(agent=0, ctype="avoidance", time=t, other=1, q_other=q,
                                   q_other2=q2, from_edge=True)
                horizon, *items = d.constraint_key(c)
                assert len(set(items)) == len(items)
                assert (frozenset(items), horizon) == brute_force_forbidden(d, c), c
                seen.add((kind, q == q2))
        assert {k for k, _ in seen} == {"vertex", "edge", "avoidance", "avoidance-edge"}
        assert ("avoidance-edge", False) in seen and ("avoidance-edge", True) in seen

    def test_vertex_and_avoidance_of_one_vertex_conflict_share_a_key(self):
        d = make_grid(blocked=[(1, 1)])
        conflict = Conflict(VERTEX, (0, 1), 3, (C(2, 2),), (C(2, 2),), (2.5, 2.5))
        menu = ConstraintMenu.of(MenuEntry(COMPLETE), MenuEntry("avoidance"))
        (_, v_i, v_j), (_, a_i, a_j) = make_constraints(conflict, menu)
        assert (v_i.ctype, a_i.ctype) == ("vertex", "avoidance")
        assert d.constraint_key(v_i) == d.constraint_key(a_i)
        assert d.constraint_key(v_j) == d.constraint_key(a_j)
        assert v_i != a_i

    def test_other_kinds_keep_their_identity(self):
        grid = make_grid()
        arm = PlanarArmDomain(
            [ArmSpec((0.0, 0.0), (1.0,), ((0, 7),), 0.1), ArmSpec((5.0, 0.0), (1.0,), ((0, 7),), 0.1)],
            [], math.pi / 4, [C(0), C(4)], [C(2), C(6)],
        )
        cs = (
            Constraint(agent=0, ctype="sphere", time=2, point=(1.5, 1.5), radius=1.0),
            Constraint(agent=0, ctype="step-priority", time=2, other=1, from_edge=True),
            Constraint(agent=0, ctype="priority", time=None, other=1),
        )
        for c in cs:
            assert grid.constraint_key(c) is c
        for c in cs + (
            Constraint(agent=0, ctype="vertex", time=1, q=C(3)),
            Constraint(agent=0, ctype="avoidance", time=1, other=1, q_other=C(3)),
        ):
            assert arm.constraint_key(c) is c


KINDS = ("vertex", "edge", "sphere", "avoidance", "step-priority", "priority")


def test_kinds_are_the_rows_of_the_kind_table():
    """Every random context here draws from KINDS, so a new row of
    `core.KINDS` fails this test until the generators build it."""
    assert KINDS == tuple(core.KINDS)


def _walk(rng, d, agent, q, length):
    steps = [q]
    for _ in range(length):
        steps.append(rng.choice(d.successors(agent, steps[-1])))
    return Path(agent, tuple(steps))


def _differential_case(rng, d, start, goal, radius):
    """A random context for agent 0 of `d`: the other agents walk from
    their starts (or have no path), and every kind of constraint is drawn at
    timesteps near the agent's own random walk, its goal and the other
    walks, from-edge variants included."""
    own = _walk(rng, d, 0, start, rng.randint(0, 10))
    others = (None,) + tuple(
        _walk(rng, d, j, d.starts[j], rng.randint(0, 10)) if rng.random() < 0.85 else None
        for j in range(1, d.n_agents)
    )
    cs = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(KINDS)
        t, b = rng.randint(0, 9), rng.randint(1, d.n_agents - 1)
        q = rng.choice((goal, own.at(t), own.at(t + 1)))
        from_edge = rng.random() < 0.5
        theirs = others[b] or own
        if kind == "vertex":
            c = Constraint(agent=0, ctype=kind, time=t, q=q)
        elif kind == "edge":
            q, q2 = rng.choice(((own.at(t), own.at(t + 1)), (goal, goal), (q, rng.choice(d.successors(0, q)))))
            c = Constraint(agent=0, ctype=kind, time=t, q=q, q2=q2)
        elif kind == "sphere":
            c = Constraint(agent=0, ctype=kind, time=t, point=_workspace_point(d, 0, q),
                           radius=radius, from_edge=from_edge)
        elif kind == "avoidance":
            # On grids, agents collide on equal cells whatever the agent.
            near = goal if isinstance(d, GridDomain) and rng.random() < 0.4 else theirs.at(t + 1)
            c = Constraint(agent=0, ctype=kind, time=t, other=b, q_other=theirs.at(t),
                           q_other2=near if from_edge else None, from_edge=from_edge)
        elif kind == "step-priority":
            c = Constraint(agent=0, ctype=kind, time=t, other=b, from_edge=from_edge)
        else:
            c = Constraint(agent=0, ctype=kind, time=None, other=b)
        cs.append(c)
    return ConstraintContext(agent=0, constraints=tuple(cs), other_paths=others)


def _counting_calls(d, ctx, calls):
    """Make `d.conflict_counter` count, in `calls[-1]`, the calls to the
    counter it builds over `ctx.other_paths`; the counters `_compile` builds
    for priority constraints are left alone. Undo with
    `del d.conflict_counter`."""
    build = d.conflict_counter

    def conflict_counter(agent, other_paths):
        count = build(agent, other_paths)
        if other_paths is not ctx.other_paths:
            return count

        def counted(q, q2, t2):
            calls[-1] += 1
            return count(q, q2, t2)

        return counted

    d.conflict_counter = conflict_counter


class TestPlanMatchesReferenceLoop:
    """`plan` and `_earliest_rest_time` give exactly the answers of the
    three-heap loop and the full rest-time scan kept in
    `tests/reference_lowlevel.py`, over every constraint kind, both focal
    orders, several w, and caps and goals that end in BUDGET or
    INFEASIBLE. `plan` also never calls the conflict counter more often
    than the reference loop, which counts every arrival, and over each
    test calls it strictly less often."""

    def _check(self, d, start, goal, ctx, rng, seen, ws=(1.0, 1.3, 2.0), count=None, caps=(3, 30, 20_000)):
        """Compare one case; returns the counter calls of `plan` and of the
        reference loop."""
        priority, vertex_at, edge_at, horizon = _compile(d, ctx)
        rest = _earliest_rest_time(d, ctx, goal, vertex_at, edge_at)
        assert rest == reference_lowlevel.earliest_rest_time(d, ctx, goal, horizon), ctx
        w = rng.choice(ws)
        if count is None:
            count = rng.random() < 0.5
        cap = rng.choice(caps)
        calls = []
        _counting_calls(d, ctx, calls)
        try:
            calls.append(0)
            res = plan(d, 0, start, goal, ctx, w=w, count_conflicts=count, max_expansions=cap)
            calls.append(0)
            ref = reference_lowlevel.plan(d, 0, start, goal, ctx, w=w, count_conflicts=count, max_expansions=cap)
        finally:
            del d.conflict_counter
        assert res == ref, (ctx, start, goal, w, count, cap)
        assert calls[0] <= calls[1], (calls, ctx, start, goal, w, count, cap)
        seen.update(c.ctype for c in ctx.constraints)
        seen.update((res.status, w, count, rest is None, bool(rest)))
        return calls

    def test_random_grids(self):
        rng = random.Random(5)
        seen = set()
        total = [0, 0]
        for _ in range(400):
            width, height = rng.randint(3, 7), rng.randint(3, 7)
            cells = [(x, y) for x in range(width) for y in range(height)]
            blocked = rng.sample(cells, rng.randint(0, len(cells) // 4))
            free = [C(*xy) for xy in cells if xy not in blocked]
            starts = [rng.choice(free) for _ in range(3)]
            d = GridDomain(width, height, blocked, starts, [rng.choice(free) for _ in range(3)])
            ctx = _differential_case(rng, d, starts[0], d.goals[0], rng.choice((0.5, 1.0)))
            calls = self._check(d, starts[0], d.goals[0], ctx, rng, seen)
            total = [a + b for a, b in zip(total, calls)]
        assert set(KINDS) | {OK, BUDGET, INFEASIBLE, 1.0, 1.3, 2.0, True, False} <= seen
        assert total[0] < total[1], total

    def test_crowded_grids(self):
        """Six to eight agents walk on small open grids and the agent counts
        conflicts with w 1.3 or 2.0, so states above the focal bound are
        reached again, before they migrate, on routes with fewer conflicts.
        On top of the random context, 10% or 30% of all moves at t 1..6
        carry an edge constraint, so the last move of such a route is often
        forbidden."""
        rng = random.Random(19)
        seen = set()
        total = [0, 0]
        for _ in range(200):
            width, height = rng.randint(4, 6), rng.randint(4, 6)
            cells = [(x, y) for x in range(width) for y in range(height)]
            blocked = rng.sample(cells, rng.randint(0, len(cells) // 8))
            free = [C(*xy) for xy in cells if xy not in blocked]
            n = rng.randint(6, 8)
            starts = [rng.choice(free) for _ in range(n)]
            d = GridDomain(width, height, blocked, starts, [rng.choice(free) for _ in range(n)])
            ctx = _differential_case(rng, d, starts[0], d.goals[0], 1.0)
            p = rng.choice((0.1, 0.3))
            dense = tuple(
                Constraint(agent=0, ctype="edge", time=t, q=q, q2=q2)
                for t in range(1, 7) for q in free for q2 in d.successors(0, q) if rng.random() < p
            )
            ctx = ConstraintContext(0, ctx.constraints + dense, ctx.other_paths)
            calls = self._check(d, starts[0], d.goals[0], ctx, rng, seen, ws=(1.3, 2.0), count=True, caps=(20_000,))
            total = [a + b for a, b in zip(total, calls)]
        assert set(KINDS) | {OK, 1.3, 2.0} <= seen
        assert total[0] < total[1], total

    def test_random_arm_pairs(self):
        rng = random.Random(6)
        seen = set()
        total = [0, 0]
        for scenario in generate_instances("arm-pair", 4, seed=3):
            d = scenario.build_domain()
            for _ in range(12):
                goal = rng.choice((d.goals[0], _walk(rng, d, 0, d.goals[0], 3).steps[-1]))
                ctx = _differential_case(rng, d, d.starts[0], goal, rng.choice((0.1, 0.3)))
                calls = self._check(d, d.starts[0], goal, ctx, rng, seen)
                total = [a + b for a, b in zip(total, calls)]
        assert set(KINDS) | {OK, BUDGET, 1.0, 1.3, 2.0, True, False} <= seen
        assert total[0] < total[1], total


PRIMITIVES = ("agents_collide", "edge_collides", "occupancy_intersects_circle", "edge_intersects_circle")


def _logging_primitives(d, log):
    """Make the collision primitives of `d` append (name, *args) to `log`.
    Undo with `_plain_primitives`."""
    for name in PRIMITIVES:
        def logged(*args, _f=getattr(d, name), _name=name):
            log.append((_name,) + args)
            return _f(*args)

        setattr(d, name, logged)


def _plain_primitives(d):
    for name in PRIMITIVES:
        delattr(d, name)


def _one_of_kind(rng, d, kind, from_edge, own, others):
    """A constraint of `kind` on agent 0 at a timestep of its walk `own`,
    with `from_edge` as given whatever the kind, against another agent whose
    path may be missing."""
    t, b = rng.randint(0, 6), rng.randint(1, d.n_agents - 1)
    q, theirs = own.at(t), others[b] or own
    if kind == "vertex":
        return Constraint(agent=0, ctype=kind, time=t, q=q, from_edge=from_edge)
    if kind == "edge":
        return Constraint(agent=0, ctype=kind, time=t, q=q, q2=own.at(t + 1), from_edge=from_edge)
    if kind == "sphere":
        radius = rng.choice((0.5, 1.0) if isinstance(d, GridDomain) else (0.1, 0.3))
        return Constraint(agent=0, ctype=kind, time=t, point=_workspace_point(d, 0, q), radius=radius,
                          from_edge=from_edge)
    if kind == "avoidance":
        return Constraint(agent=0, ctype=kind, time=t, other=b, q_other=theirs.at(t),
                          q_other2=theirs.at(t + 1) if from_edge else None, from_edge=from_edge)
    if kind == "step-priority":
        return Constraint(agent=0, ctype=kind, time=t, other=b, from_edge=from_edge)
    if kind == "priority":
        return Constraint(agent=0, ctype=kind, time=None, other=b, from_edge=from_edge)
    raise ValueError(kind)


class TestChecksMatchPerKindReference:
    """`is_forbidden` and `is_forbidden_edge`, which read each constraint's
    row of `core.KINDS`, answer as the per-kind checks frozen in
    `tests/reference_lowlevel.py` do and make the same collision calls in the
    same order, for every kind made with `from_edge` either way, for
    priority-style constraints against a missing path, on each
    configuration and move tried and at every t in [0, horizon + 2]."""

    def _contexts(self, rng, d, own, others):
        """One context per (kind, from_edge), then two of mixed kinds."""
        for kind in KINDS:
            for from_edge in (False, True):
                yield ConstraintContext(0, (_one_of_kind(rng, d, kind, from_edge, own, others),), others)
        for _ in range(2):
            cs = tuple(
                _one_of_kind(rng, d, rng.choice(KINDS), rng.random() < 0.5, own, others)
                for _ in range(rng.randint(2, 6))
            )
            yield ConstraintContext(0, cs, others)

    def _check(self, d, ctx, configs, seen):
        horizon = _compile(d, ctx)[3]
        queries = [((q,), is_forbidden, reference_lowlevel.per_kind_is_forbidden) for q in configs] + [
            ((q, q2), is_forbidden_edge, reference_lowlevel.per_kind_is_forbidden_edge)
            for q in configs
            for q2 in d.successors(0, q)
        ]
        log = []
        _logging_primitives(d, log)
        try:
            for t in range(horizon + 3):
                for args, check, reference in queries:
                    del log[:]
                    answer = check(d, ctx, *args, t)
                    calls = log[:]
                    del log[:]
                    assert reference(d, ctx, *args, t) == answer, (ctx, args, t)
                    assert log == calls, (ctx, args, t)
                    seen.add((check.__name__, answer))
        finally:
            _plain_primitives(d)
        seen.update(
            (c.ctype, c.from_edge, c.other is not None and ctx.other_path(c.other) is None) for c in ctx.constraints
        )

    def _assert_coverage(self, seen):
        assert {(k, e) for k in KINDS for e in (False, True)} <= {item[:2] for item in seen}
        assert ("priority", False, True) in seen and ("step-priority", True, True) in seen
        assert {(f, a) for f in ("is_forbidden", "is_forbidden_edge") for a in (False, True)} <= seen

    def test_random_grids(self):
        rng = random.Random(29)
        seen = set()
        for _ in range(30):
            width, height = rng.randint(3, 5), rng.randint(3, 5)
            cells = [(x, y) for x in range(width) for y in range(height)]
            blocked = rng.sample(cells, rng.randint(0, len(cells) // 5))
            free = [C(*xy) for xy in cells if xy not in blocked]
            d = GridDomain(width, height, blocked, [rng.choice(free) for _ in range(3)],
                           [rng.choice(free) for _ in range(3)])
            own = _walk(rng, d, 0, d.starts[0], 8)
            others = (None,) + tuple(
                _walk(rng, d, j, d.starts[j], rng.randint(0, 8)) if rng.random() < 0.6 else None for j in (1, 2)
            )
            for ctx in self._contexts(rng, d, own, others):
                self._check(d, ctx, free, seen)
        self._assert_coverage(seen)

    def test_random_arm_pairs(self):
        rng = random.Random(31)
        seen = set()
        for scenario in generate_instances("arm-pair", 6, seed=3):
            d = scenario.build_domain()
            own = _walk(rng, d, 0, d.starts[0], 8)
            others = (None, _walk(rng, d, 1, d.starts[1], 8) if rng.random() < 0.6 else None)
            configs = sorted(set(own.steps), key=lambda q: q.coords)
            for ctx in self._contexts(rng, d, own, others):
                self._check(d, ctx, configs, seen)
        self._assert_coverage(seen)
