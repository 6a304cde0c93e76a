import json

import pytest

from genecbs.core import (
    Configuration,
    Conflict,
    MalformedPathError,
    MalformedSolutionError,
    Path,
    SolverResult,
    SolverStats,
    canonical_json,
    json_number,
    path_cost,
    sum_of_costs,
)
from genecbs.domain import ArmSpec, GridDomain, PlanarArmDomain


def grid(width=5, height=5, blocked=(), starts=((0, 0),), goals=((4, 4),)):
    return GridDomain(
        width,
        height,
        blocked,
        [Configuration(tuple(s)) for s in starts],
        [Configuration(tuple(g)) for g in goals],
    )


def two_joint_arm_domain():
    arm = ArmSpec(base=(0.0, 0.0), link_lengths=(1.0, 1.0), joint_limits=((-6, 6), (-6, 6)), thickness=0.1)
    return PlanarArmDomain(
        arms=[arm],
        obstacles=[],
        delta=0.2617993877991494,
        starts=[Configuration((0, 0))],
        goals=[Configuration((3, 0))],
    )


class TestPathCost:
    def test_single_configuration_path_is_zero(self):
        d = grid()
        assert path_cost(Path(0, (Configuration((0, 0)),)), d) == 0.0

    def test_five_unit_moves(self):
        d = grid(starts=((0, 0),), goals=((3, 2),))
        steps = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
        p = Path(0, tuple(Configuration(s) for s in steps))
        assert path_cost(p, d) == 5.0

    def test_arm_waits_at_goal_are_free(self):
        # Three single-joint moves, then two waits at the goal: the waits
        # land after the final goal arrival so only the moves count.
        d = two_joint_arm_domain()
        steps = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 0), (3, 0)]
        p = Path(0, tuple(Configuration(s) for s in steps))
        assert path_cost(p, d) == 3.0

    def test_wait_away_from_goal_costs_one(self):
        d = grid(starts=((0, 0),), goals=((2, 0),))
        steps = [(0, 0), (0, 0), (1, 0), (2, 0)]
        p = Path(0, tuple(Configuration(s) for s in steps))
        assert path_cost(p, d) == 3.0

    def test_goal_visit_before_final_arrival_still_counts(self):
        d = grid(starts=((0, 0),), goals=((1, 0),))
        steps = [(0, 0), (1, 0), (1, 0), (0, 0), (1, 0)]
        p = Path(0, tuple(Configuration(s) for s in steps))
        assert path_cost(p, d) == 4.0

    def test_invalid_transition_raises(self):
        d = grid()
        p = Path(0, (Configuration((0, 0)), Configuration((2, 2))))
        with pytest.raises(MalformedPathError):
            path_cost(p, d)

    def test_transition_through_blocked_cell_raises(self):
        d = grid(blocked=[(1, 0)])
        p = Path(0, (Configuration((0, 0)), Configuration((1, 0))))
        with pytest.raises(MalformedPathError):
            path_cost(p, d)


class TestSumOfCosts:
    def test_all_agents_at_goal(self):
        d = grid(starts=((0, 0), (4, 4)), goals=((0, 0), (4, 4)))
        sol = [Path(0, (Configuration((0, 0)),)), Path(1, (Configuration((4, 4)),))]
        assert sum_of_costs(sol, d) == 0.0

    def test_additivity(self):
        d = grid(starts=((0, 0), (0, 4)), goals=((3, 0), (4, 4)))
        p0 = Path(0, tuple(Configuration((x, 0)) for x in range(4)))
        p1 = Path(1, tuple(Configuration((x, 4)) for x in range(5)))
        assert sum_of_costs([p0, p1], d) == 3.0 + 4.0

    def test_missing_agent_rejected(self):
        d = grid(starts=((0, 0), (0, 4)), goals=((3, 0), (4, 4)))
        p0 = Path(0, tuple(Configuration((x, 0)) for x in range(4)))
        with pytest.raises(MalformedSolutionError):
            sum_of_costs([p0], d)
        with pytest.raises(MalformedSolutionError):
            sum_of_costs([p0, p0], d)


def sample_conflict():
    return Conflict(
        kind="edge",
        agents=(0, 2),
        time=3,
        configs_i=(Configuration((1, 1)), Configuration((2, 1))),
        configs_j=(Configuration((2, 1)), Configuration((1, 1))),
        point=(2.0, 1.5),
    )


class TestSerialization:
    def test_configuration_round_trip(self):
        q = Configuration((3, -2, 11))
        assert Configuration.from_obj(q.to_obj()) == q

    def test_path_round_trip(self):
        p = Path(1, (Configuration((0, 0)), Configuration((0, 1))))
        assert Path.from_obj(p.to_obj()) == p

    def test_result_round_trip_bytes_identical(self):
        result = SolverResult(
            status="solved",
            solution=(Path(0, (Configuration((0, 0)), Configuration((1, 0)))),),
            stats=SolverStats(
                runtime_ms=12.5,
                hl_expansions=4,
                evaluations=9,
                ll_calls=13,
                cost=1.0,
                lb=1.0,
                dts_rewards=(("complete", 2),),
                dts_penalties=(("complete", 1),),
            ),
        )
        blob = canonical_json(result.to_obj())
        again = SolverResult.from_obj(json.loads(blob))
        assert canonical_json(again.to_obj()) == blob

    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (True, float, "x must be a number, got True"),
            ("2", float, "x must be a number, got '2'"),
            (None, int, "x must be a number, got None"),
            (0.7, int, "x must be an integer, got 0.7"),
            (float("inf"), int, "x must be an integer, got inf"),
            (10**400, float, "x is out of range"),
        ],
    )
    def test_json_number_rejects(self, value, kind, message):
        with pytest.raises(ValueError, match=message):
            json_number(value, "x", kind)

    def test_json_number_keeps_the_kind(self):
        assert [json_number(v, "x", int) for v in (3, 3.0, -2.0)] == [3, 3, -2]
        assert all(type(json_number(v, "x", int)) is int for v in (3, 3.0))
        assert json_number(2, "x") == 2.0 and type(json_number(2, "x")) is float

    def test_configuration_numbers(self):
        assert Configuration.from_obj([3.0, -2]).coords == (3, -2)
        for bad in ([0.7, 1], [0, True], ["1", 2], 5, "12"):
            with pytest.raises(ValueError, match="coordinates"):
                Configuration.from_obj(bad)

    def test_path_and_stats_numbers(self):
        with pytest.raises(ValueError, match="path agent"):
            Path.from_obj({"agent": 1.5, "steps": [[0, 0]]})
        stats = SolverStats(hl_expansions=4, evaluations=9, ll_calls=13).to_obj()
        for field, value in (("hl_expansions", 4.5), ("ll_calls", "13")):
            with pytest.raises(ValueError, match=field):
                SolverStats.from_obj({**stats, field: value})

    def test_canonical_json_is_stable(self):
        obj = {"b": [1.5, 2], "a": {"y": None, "x": "s"}}
        assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_canonical_json_is_strict(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json({"w": value})


class TestImmutability:
    def test_core_types_hashable_and_frozen(self):
        q = Configuration((1, 2))
        with pytest.raises(AttributeError):
            q.coords = (0, 0)
        assert hash(q) == hash(Configuration((1, 2)))
        c = sample_conflict()
        with pytest.raises(AttributeError):
            c.time = 9
        assert len({c, sample_conflict()}) == 1
