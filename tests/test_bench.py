import csv
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path as FsPath

import pytest

import genecbs
from genecbs import bench as bench_module
from genecbs.bench import (
    CSV_COLUMNS,
    TEMPLATES,
    RunRecord,
    Scenario,
    ScenarioError,
    Violation,
    _segment_ok,
    _staircase,
    _template_params,
    aggregate_records,
    cell_seed,
    generate_instances,
    run_benchmark,
    run_cell,
    shortcut,
    verify,
)
from genecbs.cli import main as cli_main
from genecbs.constraints import COMPLETE, ConstraintMenu, MenuEntry
from genecbs.core import (
    EDGE,
    VERTEX,
    Configuration,
    Conflict,
    Path,
    canonical_json,
    path_cost,
    sum_of_costs,
)
from genecbs.domain import GridDomain, PlanarArmDomain, domain_from_obj
from genecbs.highlevel import SolverConfig, solve, find_conflicts


def C(*coords):
    return Configuration(tuple(coords))


def hallway_scenario():
    return Scenario(
        name="hallway",
        seed=1,
        domain_obj={
            "type": "grid",
            "width": 5,
            "height": 2,
            "blocked": [[0, 0], [1, 0], [3, 0], [4, 0]],
            "substeps": 4,
        },
        agents=[(C(0, 1), C(4, 1)), (C(4, 1), C(0, 1))],
        solver=SolverConfig(algorithm="gen-ecbs", w=1.3, seed=0),
    )


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        s = hallway_scenario()
        path = tmp_path / "s.json"
        s.save(path)
        again = Scenario.load(path)
        assert again.to_obj() == s.to_obj()
        again.save(tmp_path / "s2.json")
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    def test_solver_caps_survive_round_trip(self):
        # run_benchmark hands each cell its scenario as to_obj() output.
        s = hallway_scenario()
        s.solver.pp_retries = 0
        s.solver.ll_max_expansions = 5
        again = Scenario.from_obj(json.loads(canonical_json(s.to_obj())))
        assert (again.solver.pp_retries, again.solver.ll_max_expansions) == (0, 5)
        # Defaults stay unwritten, so existing files keep their bytes.
        solver_obj = hallway_scenario().to_obj()["solver"]
        assert "pp_retries" not in solver_obj and "ll_max_expansions" not in solver_obj

    def test_menu_and_prior_survive_round_trip(self):
        s = hallway_scenario()
        s.solver.menu = ConstraintMenu.of(
            MenuEntry(COMPLETE), MenuEntry("avoidance"), MenuEntry("sphere", radius=1.0)
        )
        s.solver.dts_prior = {"sphere:1": (2.0, 1.0), "avoidance": (1.0, 3.0)}
        text = canonical_json(s.to_obj())
        assert '"menu":' in text and '"dts_prior":' in text
        again = Scenario.from_obj(json.loads(text))
        assert (again.solver.menu, again.solver.dts_prior) == (s.solver.menu, s.solver.dts_prior)
        assert canonical_json(again.to_obj()) == text

    def test_unknown_fields_rejected(self):
        obj = hallway_scenario().to_obj()
        obj["extra"] = 1
        with pytest.raises(ScenarioError):
            Scenario.from_obj(obj)

    def test_unknown_solver_fields_rejected(self):
        obj = hallway_scenario().to_obj()
        obj["solver"]["mystery"] = True
        with pytest.raises(ScenarioError):
            Scenario.from_obj(obj)

    def test_version_required(self):
        obj = hallway_scenario().to_obj()
        obj["version"] = 99
        with pytest.raises(ScenarioError):
            Scenario.from_obj(obj)

    def test_invalid_endpoints_rejected_at_load(self, tmp_path):
        obj = hallway_scenario().to_obj()
        obj["agents"][0]["start"] = [0, 0]  # blocked cell
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(obj))
        with pytest.raises((ScenarioError, ValueError)):
            Scenario.load(path)


class TestGeneration:
    def test_count_zero(self):
        assert generate_instances("grid-random", 0, seed=3) == []

    def test_deterministic_files(self, tmp_path):
        a = generate_instances("grid-random", 5, seed=42)
        b = generate_instances("grid-random", 5, seed=42)
        for x, y in zip(a, b):
            assert canonical_json(x.to_obj()) == canonical_json(y.to_obj())

    def test_generated_instances_are_valid(self):
        for s in generate_instances("grid-random", 10, seed=7, params={"n_agents": 3}):
            s.build_domain()  # raises if starts/goals invalid or conflicting

    def test_arm_template_valid_and_conflict_free(self):
        for s in generate_instances("arm-quad", 3, seed=5):
            d = s.build_domain()
            assert d.n_agents == 4

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_every_template_emits_valid_instances(self, template):
        for s in generate_instances(template, 3, seed=11):
            s.build_domain()  # raises if starts/goals invalid or conflicting

    def test_unknown_template(self):
        with pytest.raises(ScenarioError):
            generate_instances("nope", 1, seed=0)

    def test_template_params_keep_their_default_type(self):
        defaults = {"n": 2, "r": 0.5, "links": (1.0, 2.0), "max_root_conflicts": 3}
        given = {"n": 3.0, "r": 1, "links": [1, 2.5], "max_root_conflicts": None}
        params = _template_params("t", defaults, given)
        assert params == {"n": 3, "r": 1.0, "links": (1.0, 2.5), "max_root_conflicts": None}
        assert type(params["n"]) is int and type(params["r"]) is float
        assert defaults["max_root_conflicts"] == 3


ORACLE_PARAMS = (
    {"width": 5, "height": 5, "n_agents": 2, "obstacle_density": 0.12},
    {"width": 6, "height": 6, "n_agents": 2, "obstacle_density": 0.15},
    {"width": 5, "height": 5, "n_agents": 3, "obstacle_density": 0.12},
)
CROWD_PARAMS = {"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15}


class TestSuiteDigests:
    """Generated suites are fixed by their seeds; the digests were recorded
    before arm generation planned its root paths on the template's probe
    domain and enumerated poses through `free_configurations`."""

    @pytest.mark.parametrize("template,seed,count,params,digest", [
        ("arm-quad", 2024, 50, None, "bce23988fe5a75e8"),
        ("arm-quad", 5, 3, None, "cad20dcb07f73a98"),
        ("arm-quad", 3, 1, None, "20abec0f5aa71de7"),
        ("arm-quad", 7, 5, None, "c4b147da9ac4fc4d"),
        ("arm-pair", 0, 5, None, "85c6771e5277acee"),
        ("arm-pair", 1, 3, None, "0765e0ad7976fce7"),
        ("grid-random", 100, 120, ORACLE_PARAMS[0], "a5f2427fec7e9e42"),
        ("grid-random", 200, 44, ORACLE_PARAMS[1], "ca5387646d9094ca"),
        ("grid-random", 300, 44, ORACLE_PARAMS[2], "9c0a2480635e3d27"),
        ("grid-random", 7, 20, CROWD_PARAMS, "d8f91bd76b55fa92"),
        ("grid-random", 42, 10, None, "cbc2f2825d9f870a"),
        ("grid-random", 17, 5, {"width": 7, "height": 7, "n_agents": 6}, "053d1fd15d5ae0c4"),
        ("hallway-swap", 0, 2, None, "91d3e1f68854096b"),
    ])
    def test_suite_bytes(self, template, seed, count, params, digest):
        suite = generate_instances(template, count, seed=seed, params=params)
        text = "".join(canonical_json(s.to_obj()) for s in suite)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestGenerationIgnoresTheSolverHeuristic:
    """Arm generation plans its root paths on `index_l1`, whatever
    heuristic the solvers use, so the arm suites keep the `TestSuiteDigests`
    bytes when the arm heuristic reads 0 everywhere. arm-pair has no
    root-conflict filter, so its rows hold either way; arm-quad seed 2024
    changes bytes when the filter plans with the arm heuristic."""

    @pytest.mark.parametrize("template,seed,count,digest", [
        ("arm-quad", 2024, 50, "bce23988fe5a75e8"),
        ("arm-quad", 5, 3, "cad20dcb07f73a98"),
        ("arm-quad", 3, 1, "20abec0f5aa71de7"),
        ("arm-quad", 7, 5, "c4b147da9ac4fc4d"),
        ("arm-pair", 0, 5, "85c6771e5277acee"),
        ("arm-pair", 1, 3, "0765e0ad7976fce7"),
    ])
    def test_suite_bytes_under_a_zero_heuristic(self, monkeypatch, template, seed, count, digest):
        monkeypatch.setattr(PlanarArmDomain, "heuristic", lambda self, agent, q, goal: 0.0)
        suite = generate_instances(template, count, seed=seed)
        text = "".join(canonical_json(s.to_obj()) for s in suite)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestVerify:
    def test_solver_output_clean(self):
        d = hallway_scenario().build_domain()
        r = solve(d, SolverConfig(algorithm="cbs"))
        assert r.solved
        assert verify(d, r.solution).clean

    def test_pp_arm_quad_037_clean(self):
        # Its links crossed between the solver's sampled poses, which only
        # the verifier's finer resolution caught.
        d = generate_instances("arm-quad", 38, seed=2024)[37].build_domain()
        r = solve(d, SolverConfig(algorithm="pp", w=1.3, max_expansions=300, seed=0))
        assert r.solved
        assert verify(d, r.solution).clean

    def test_shares_no_memoised_answer_with_the_solver(self):
        # The solve leaves the domain's memos full. The verifier may read
        # its pose-level memos (FK, boxes, exact link-pair scans), but not
        # one of the certified motion answers the solvers stored.
        scenario = generate_instances("arm-quad", 1, seed=2024)[0]
        d = scenario.build_domain()
        r = solve(d, SolverConfig(algorithm="pp", w=1.3, max_expansions=300))
        assert r.solved

        class Lookups(dict):
            certified = sampled = 0

            def seen(self, key):
                if key[-1] is None:
                    self.certified += 1
                else:
                    self.sampled += 1

            def __contains__(self, key):
                self.seen(key)
                return super().__contains__(key)

            def __getitem__(self, key):
                self.seen(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.seen(key)
                return super().get(key, default)

        d._edge_cache = Lookups(d._edge_cache)
        assert any(key[-1] is None for key in d._edge_cache)
        assert verify(d, r.solution).clean
        assert d._edge_cache.certified == 0 and d._edge_cache.sampled > 0
        # Agent 1 starts three steps late: vertex and edge conflicts, found
        # alike by the dirty domain and by a fresh one.
        paths = sorted(r.solution, key=lambda p: p.agent)
        paths[1] = Path(1, (paths[1].steps[0],) * 3 + paths[1].steps)
        dirty = verify(d, paths).violations
        assert {v.kind for v in dirty} >= {"vertex-conflict", "edge-conflict"}
        assert dirty == verify(scenario.build_domain(), paths).violations
        assert d._edge_cache.certified == 0

    def test_wrong_goal_endpoint(self):
        d = hallway_scenario().build_domain()
        r = solve(d, SolverConfig(algorithm="cbs"))
        paths = list(r.solution)
        p = paths[0]
        paths[0] = Path(0, p.steps[:-1])  # chop the goal arrival
        out = verify(d, paths)
        assert not out.clean
        assert any(v.kind == "endpoint" for v in out.violations)

    def test_empty_path_is_reported_without_pair_checks(self):
        d = hallway_scenario().build_domain()
        other = Path(1, (C(4, 1), C(3, 1)))
        out = verify(d, [Path(0, ()), other])
        assert [v.kind for v in out.violations] == ["malformed", "endpoint"]

    def test_shifted_path_creates_detected_conflict(self):
        d = hallway_scenario().build_domain()
        r = solve(d, SolverConfig(algorithm="cbs"))
        paths = sorted(r.solution, key=lambda p: p.agent)
        shifted = Path(0, (paths[0].steps[0],) + paths[0].steps)  # one-step delay
        out = verify(d, [shifted, paths[1]])
        assert not out.clean
        assert any(v.kind in ("vertex-conflict", "edge-conflict") for v in out.violations)

    def test_invalid_transition_detected(self):
        d = hallway_scenario().build_domain()
        steps = (C(0, 1), C(2, 1), C(3, 1), C(4, 1))
        bad = Path(0, steps)
        other = Path(1, (C(4, 1),) * 2 + (C(3, 1), C(2, 1), C(2, 0), C(2, 1), C(1, 1), C(0, 1)))
        out = verify(d, [bad, other])
        assert any(v.kind == "transition" for v in out.violations)

    def test_static_collision_detected(self):
        d = GridDomain(3, 3, [(1, 1)], [C(0, 1), C(2, 2)], [C(2, 1), C(0, 0)])
        bad = Path(0, (C(0, 1), C(1, 1), C(2, 1)))
        other = Path(1, (C(2, 2), C(1, 2), C(0, 2), C(0, 1), C(0, 0)))
        out = verify(d, [bad, other])
        assert any(v.kind == "static" for v in out.violations)


def reference_pair_conflicts(paths, domain, i, j):
    """The pair scan of `find_conflicts`, through `Path.at`."""
    pi, pj = paths[i], paths[j]
    out = []
    h = max(pi.horizon, pj.horizon)
    for t in range(h + 1):
        point = domain.agents_collide(i, pi.at(t), j, pj.at(t))
        if point is not None:
            out.append(Conflict(VERTEX, (i, j), t, (pi.at(t),), (pj.at(t),), point))
        if t < h:
            hit = domain.edge_collides(i, pi.at(t), pi.at(t + 1), j, pj.at(t), pj.at(t + 1))
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


def reference_find_conflicts(paths, domain):
    out = []
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            out.extend(reference_pair_conflicts(paths, domain, i, j))
    out.sort(key=Conflict.sort_key)
    return tuple(out)


def reference_verify_conflicts(domain, solution):
    """The pair scan of `verify`, through `Path.at`."""
    out = []
    n = domain.n_agents
    by_agent = {p.agent: p for p in solution}
    fine = 2 * domain.substeps
    for i in range(n):
        for j in range(i + 1, n):
            pi, pj = by_agent[i], by_agent[j]
            h = max(pi.horizon, pj.horizon)
            for t in range(h + 1):
                if domain.agents_collide(i, pi.at(t), j, pj.at(t)) is not None:
                    out.append(Violation("vertex-conflict", (i, j), t, ""))
                if t < h:
                    hit = domain.edge_collides(
                        i, pi.at(t), pi.at(t + 1), j, pj.at(t), pj.at(t + 1), substeps=fine
                    )
                    if hit is not None:
                        out.append(Violation("edge-conflict", (i, j), t, f"sub-time {hit[1]:g}"))
    return tuple(out)


def verify_conflicts(domain, solution):
    return tuple(
        v for v in verify(domain, solution).violations if v.kind in ("vertex-conflict", "edge-conflict")
    )


class TestPaddedScans:
    """`find_conflicts` and `verify` index goal-padded step tuples; they
    must report what the pair scans through `Path.at` report."""

    def test_random_grid_path_sets(self):
        rng = random.Random(17)
        blocked = [(1, 1), (3, 2)]
        cells = [C(x, y) for x in range(5) for y in range(5) if (x, y) not in blocked]
        parked = 0
        for _ in range(200):
            n = rng.randint(2, 5)
            d = GridDomain(5, 5, blocked, [C(0, 0)] * n, [C(4, 4)] * n)
            paths = []
            for agent in range(n):
                steps = [rng.choice(cells)]
                for _ in range(rng.randint(0, 8)):
                    steps.append(rng.choice(d.successors(agent, steps[-1])))
                paths.append(Path(agent, tuple(steps)))
            conflicts = find_conflicts(paths, d)
            assert conflicts == reference_find_conflicts(paths, d)
            assert verify_conflicts(d, paths) == reference_verify_conflicts(d, paths)
            # Conflicts after one of the pair has parked at its last step.
            parked += sum(c.time > min(paths[a].horizon for a in c.agents) for c in conflicts)
        assert parked > 0

    def test_delayed_arm_quad_000_solutions(self):
        scenario = generate_instances("arm-quad", 1, seed=2024)[0]
        rng = random.Random(5)
        found = 0
        for algo in ("pp", "ecbs"):
            d = scenario.build_domain()
            r = solve(d, SolverConfig(algorithm=algo, w=1.3, seed=cell_seed(scenario, algo), max_expansions=300))
            assert r.solved
            for _ in range(4):
                paths = [
                    Path(p.agent, (p.steps[0],) * rng.randint(0, 3) + p.steps)
                    for p in sorted(r.solution, key=lambda p: p.agent)
                ]
                # The references run on a domain of their own, so that no
                # memo shared with the scans can hide a difference.
                ref = scenario.build_domain()
                conflicts = find_conflicts(paths, d)
                assert conflicts == reference_find_conflicts(paths, ref), algo
                found += len(conflicts)
                assert verify_conflicts(d, paths) == reference_verify_conflicts(ref, paths), algo
        assert found > 0


class TestShortcut:
    def test_idempotent_on_straight_path(self):
        d = GridDomain(5, 1, [], [C(0, 0)], [C(4, 0)])
        p = Path(0, tuple(C(x, 0) for x in range(5)))
        out = shortcut([p], d, passes=2)
        assert out == (p,)

    def test_detour_shortened(self):
        # A path that detours and then returns; a straight run plus terminal
        # waits costs strictly less under the wait-at-goal rule.
        d = GridDomain(4, 3, [], [C(0, 0)], [C(3, 0)])
        steps = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (2, 0), (3, 0)]
        p = Path(0, tuple(C(*s) for s in steps))
        before = path_cost(p, d)
        out = shortcut([p], d, passes=2)
        after = path_cost(out[0], d)
        assert after < before
        assert after == 3.0
        assert verify(d, out).clean

    def test_never_increases_cost_and_stays_clean(self):
        rng = random.Random(4)
        for trial in range(10):
            scens = generate_instances(
                "grid-random", 1, seed=trial, params={"width": 5, "height": 5, "n_agents": 3}
            )
            d = scens[0].build_domain()
            r = solve(d, SolverConfig(algorithm="ecbs", w=1.5, seed=trial))
            if not r.solved:
                continue
            before = sum_of_costs(r.solution, d)
            out = shortcut(r.solution, d, passes=2)
            after = sum_of_costs(out, d)
            assert after <= before
            assert verify(d, out).clean


def reference_segment_ok(domain, agent, cand, t0, others):
    """Reference segment check for `shortcut`: every other path, pairwise,
    through `Path.at`, without `Domain.conflict_counter`."""
    for k in range(1, len(cand)):
        if not domain.transition_valid(agent, cand[k - 1], cand[k]):
            return False
    for k, q in enumerate(cand):
        if k in (0, len(cand) - 1):
            continue
        if not domain.in_bounds(agent, q) or not domain.is_static_free(agent, q):
            return False
    for other in others:
        o = other.agent
        for k in range(len(cand)):
            t = t0 + k
            if k > 0 and domain.agents_collide(agent, cand[k], o, other.at(t)) is not None:
                return False
            if k < len(cand) - 1:
                hit = domain.edge_collides(agent, cand[k], cand[k + 1], o, other.at(t), other.at(t + 1))
                if hit is not None:
                    return False
    return True


def reference_shortcut(solution, domain, passes=1):
    """Reference `shortcut`: every candidate segment is checked against the
    other paths with `reference_segment_ok` before its cost is compared."""
    paths = sorted(solution, key=lambda p: p.agent)
    for _ in range(max(0, passes)):
        for agent in range(len(paths)):
            others = [p for p in paths if p.agent != agent]
            improved = True
            while improved:
                improved = False
                p = paths[agent]
                cost_now = path_cost(p, domain)
                segments = sorted(
                    ((a, b) for a in range(p.horizon + 1) for b in range(a + 2, p.horizon + 1)),
                    key=lambda ab: (-(ab[1] - ab[0]), ab[0]),
                )
                for a, b in segments:
                    cand = _staircase(p.steps[a], p.steps[b], b - a)
                    if cand is None or tuple(cand) == p.steps[a : b + 1]:
                        continue
                    if not reference_segment_ok(domain, agent, cand, a, others):
                        continue
                    new_path = Path(agent, p.steps[:a] + tuple(cand) + p.steps[b + 1 :])
                    if path_cost(new_path, domain) < cost_now:
                        paths[agent] = new_path
                        improved = True
                        break
    return tuple(paths)


class TestShortcutParity:
    """`shortcut` returns the same paths as the pairwise reference above,
    with the benchmark's solver settings."""

    @staticmethod
    def _solution(scenario, algo):
        config = SolverConfig(
            algorithm=algo, w=1.3, seed=cell_seed(scenario, algo), timeout_ms=600_000.0,
            max_expansions=300,
        )
        domain = scenario.build_domain()
        r = solve(domain, config)
        assert r.solved and verify(domain, r.solution).clean, algo
        return domain, r.solution

    def _check(self, scenario, algos, delay=0):
        """Compare on each algorithm's solution, with every path first
        delayed by `delay` waits at its start; returns how many outputs
        cost less than their input."""
        improved = 0
        for algo in algos:
            domain, solution = self._solution(scenario, algo)
            solution = tuple(Path(p.agent, (p.steps[0],) * delay + p.steps) for p in solution)
            for passes in (1, 2):
                out = shortcut(solution, domain, passes=passes)
                assert out == reference_shortcut(solution, domain, passes=passes), (algo, passes)
                improved += sum_of_costs(out, domain) < sum_of_costs(solution, domain)
        return improved

    def test_grid_crowd_instance(self):
        scenario = generate_instances(
            "grid-random", 1, seed=7,
            params={"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15},
        )[0]
        assert self._check(scenario, ("ecbs", "gen-ecbs", "ac-ecbs-lazy", "pp")) > 0

    def test_arm_quad_instance(self):
        # The arm solutions leave nothing to shorten, so the delayed start
        # gives each agent a shorter route that the others may block.
        scenario = generate_instances("arm-quad", 1, seed=2024)[0]
        self._check(scenario, ("pp", "ecbs"))
        assert self._check(scenario, ("pp", "ecbs"), delay=3) > 0

    def test_goal_revisits_and_trailing_waits(self):
        # Agent 0 passes through its goal (2, 0) at t = 2 before its terminal
        # goal run; agent 1 detours and then waits at its goal (3, 2).
        d = GridDomain(5, 3, [], [C(0, 0), C(4, 2)], [C(2, 0), C(3, 2)])
        solution = (
            Path(0, (C(0, 0), C(1, 0), C(2, 0), C(2, 1), C(3, 1), C(3, 0), C(2, 0))),
            Path(1, (C(4, 2), C(4, 1), C(4, 2), C(3, 2), C(3, 2), C(3, 2))),
        )
        for passes in (1, 2):
            out = shortcut(solution, d, passes=passes)
            assert out == reference_shortcut(solution, d, passes=passes)
            assert [path_cost(p, d) for p in out] == [2.0, 1.0]

        # Random walks that end at their goal after 0-3 waits, on a grid
        # small enough that many walks visit the goal earlier too.
        rng = random.Random(8)
        grid = GridDomain(4, 4, [(1, 1)], [C(0, 0)] * 3, [C(0, 0)] * 3)
        cells = [C(x, y) for x in range(4) for y in range(4) if (x, y) != (1, 1)]
        revisits = improved = 0
        for _ in range(150):
            walks = []
            for agent in range(3):
                steps = [rng.choice(cells)]
                for _ in range(rng.randint(1, 8)):
                    steps.append(rng.choice(grid.successors(agent, steps[-1])))
                walks.append(steps + [steps[-1]] * rng.randint(0, 3))
            d = GridDomain(4, 4, [(1, 1)], [w[0] for w in walks], [w[-1] for w in walks])
            solution = tuple(Path(a, tuple(w)) for a, w in enumerate(walks))
            revisits += sum(w.index(w[-1]) < path_cost(p, d) for w, p in zip(walks, solution))
            for passes in (1, 2):
                out = shortcut(solution, d, passes=passes)
                assert out == reference_shortcut(solution, d, passes=passes), (solution, passes)
                improved += sum_of_costs(out, d) < sum_of_costs(solution, d)
        assert revisits > 0 and improved > 0

    def test_agents_at_their_heuristic_are_skipped(self, monkeypatch):
        # Random grid solutions with some starts delayed: the agents left at
        # their heuristic get no counter, and the output is the reference's.
        built = []
        original = GridDomain.conflict_counter

        def counted(self, agent, *args, **kwargs):
            built.append(agent)
            return original(self, agent, *args, **kwargs)

        monkeypatch.setattr(GridDomain, "conflict_counter", counted)
        rng = random.Random(4)
        params = {"width": 6, "height": 6, "n_agents": 4, "obstacle_density": 0.2}
        skipped = improved = 0
        for scenario in generate_instances("grid-random", 12, seed=11, params=params):
            d = scenario.build_domain()
            r = solve(d, SolverConfig(algorithm="pp", seed=0))
            assert r.solved
            solution = tuple(
                Path(p.agent, (p.steps[0],) * rng.choice((0, 0, 2)) + p.steps) for p in r.solution
            )
            at_bound = {
                p.agent for p in solution
                if path_cost(p, d) == d.heuristic(p.agent, p.steps[0], d.goals[p.agent])
            }
            for passes in (1, 2):
                built.clear()
                out = shortcut(solution, d, passes=passes)
                assert not at_bound & set(built)
                assert out == reference_shortcut(solution, d, passes=passes), (solution, passes)
                improved += sum_of_costs(out, d) < sum_of_costs(solution, d)
            skipped += len(at_bound)
        assert skipped > 0 and improved > 0

    def test_skip_at_the_arm_table_changes_no_output(self, monkeypatch):
        # The arm-quad benchmark's cells: the arm heuristic is the exact
        # distance, and an agent whose cost equals it gives the output it
        # gives when nothing is skipped.
        scenarios = [s for k, s in enumerate(generate_instances("arm-quad", 17, seed=2024)) if k != 5]
        skipped = improved = 0
        for scenario in scenarios:
            for algo in ("gen-ecbs", "ecbs", "pp", "ecbs-sub:avoidance"):
                domain, solution = self._solution(scenario, algo)
                skipped += sum(
                    path_cost(p, domain) == domain.heuristic(p.agent, p.steps[0], domain.goals[p.agent])
                    for p in solution
                )
                out = shortcut(solution, domain)
                monkeypatch.setattr(domain, "heuristic", lambda agent, q, goal: -1.0)
                assert shortcut(solution, domain) == out, (scenario.name, algo)
                improved += sum_of_costs(out, domain) < sum_of_costs(solution, domain)
        assert skipped > 0 and improved > 0

    def test_segment_check_matches_reference_on_random_segments(self):
        rng = random.Random(3)
        d = GridDomain(4, 4, [(1, 1)], [C(0, 0)] * 5, [C(3, 3)] * 5)
        cells = [C(x, y) for x in range(4) for y in range(4) if (x, y) != (1, 1)]

        def walk(agent, length):
            steps = [rng.choice(cells)]
            for _ in range(length):
                steps.append(rng.choice(d.successors(agent, steps[-1])))
            return Path(agent, tuple(steps))

        seen = set()
        for _ in range(400):
            others = [None] + [walk(j, rng.randint(0, 6)) for j in range(1, 5)]
            count = d.conflict_counter(0, others)
            for _ in range(10):
                cand = _staircase(rng.choice(cells), rng.choice(cells), rng.randint(1, 6))
                if cand is None:
                    continue
                t0 = rng.randint(0, 4)
                ok = _segment_ok(d, 0, cand, t0, count)
                assert ok == reference_segment_ok(d, 0, cand, t0, others[1:]), (cand, t0, others)
                seen.add(ok)
        assert seen == {True, False}

    def test_shortcut_builds_certified_counters(self, monkeypatch):
        # Counters take no sample count; the verifier alone resamples, at
        # twice the resolution.
        d = hallway_scenario().build_domain()
        solution = solve(d, SolverConfig(algorithm="cbs")).solution
        asked = []
        counter = GridDomain.conflict_counter

        def spy(self, agent, other_paths, *args, **kwargs):
            asked.append((args, kwargs))
            return counter(self, agent, other_paths, *args, **kwargs)

        monkeypatch.setattr(GridDomain, "conflict_counter", spy)
        shortcut(solution, d)
        assert asked and all(call == ((), {}) for call in asked)

    def test_arm_counter_sees_contacts_between_samples(self):
        # Two motions of arm-quad-s2024-037 whose contact falls between
        # sampled poses: agents 2 and 3 at t = 4 (missed by 4 samples) and a
        # pair of agents 0 and 1 (missed by 8). The certified counter sees
        # each contact.
        d = generate_instances("arm-quad", 38, seed=2024)[37].build_domain()
        motions = [
            (2, C(13, -3), C(12, -3), 3, C(25, 6), C(24, 6)),
            (0, C(2, 3), C(1, 3), 1, C(8, 4), C(9, 4)),
        ]
        for i, q, q2, j, p, p2 in motions:
            assert d.agents_collide(i, q2, j, p2) is None
            others = [None] * d.n_agents
            others[j] = Path(j, (p, p2))
            assert d.edge_collides(i, q, q2, j, p, p2) is not None
            assert d.conflict_counter(i, others)(q, q2, 1) == 1, (i, j)

    def test_shortcut_keeps_a_motion_that_collides_between_samples(self):
        # The first two arms of arm-quad-s2024-037. Waiting one step keeps
        # agent 0 clear of agent 1; moving at once is the 0/1 motion pair
        # above, whose contact the verifier's 8 samples miss, so no segment
        # may replace the wait.
        s = generate_instances("arm-quad", 38, seed=2024)[37]
        obj = dict(s.domain_obj, arms=s.domain_obj["arms"][:2])
        d = domain_from_obj(obj, [C(2, 3), C(8, 4)], [C(1, 3), C(9, 4)])
        d.validate_instance()
        assert d.edge_collides(0, C(2, 3), C(1, 3), 1, C(8, 4), C(9, 4), substeps=2 * d.substeps) is None
        solution = (Path(0, (C(2, 3), C(2, 3), C(1, 3))), Path(1, (C(8, 4), C(9, 4))))
        assert find_conflicts(solution, d) == ()
        out = shortcut(solution, d)
        assert out == solution
        assert find_conflicts(out, d) == ()


class TestRunBenchmark:
    def test_empty_scenarios_csv_header_only(self, tmp_path):
        out = tmp_path / "results.csv"
        records, agg = run_benchmark([], ["cbs"], out_csv=out)
        rows = list(csv.reader(out.open()))
        assert rows == [CSV_COLUMNS]
        assert records == [] and agg == []

    def test_single_trivial_scenario_all_algorithms(self, tmp_path):
        scenario = Scenario(
            name="trivial",
            seed=3,
            domain_obj={"type": "grid", "width": 5, "height": 5, "blocked": [], "substeps": 4},
            agents=[(C(0, 0), C(4, 0)), (C(0, 4), C(4, 4))],
            solver=SolverConfig(w=1.3, seed=0),
        )
        algos = ["cbs", "ecbs", "pp", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"]
        records, agg = run_benchmark([scenario], algos, out_csv=tmp_path / "r.csv")
        assert all(r.success for r in records)
        costs = {r.algo: r.cost for r in records}
        assert all(c == 8.0 for c in costs.values())
        assert (tmp_path / "r.plot.json").exists()
        plot = json.loads((tmp_path / "r.plot.json").read_text())
        assert len(plot["runs"]) == len(algos)

    def test_csv_ends_with_ll_searches_and_stopped_by(self, tmp_path):
        scenario = hallway_scenario()
        out = tmp_path / "r.csv"
        run_benchmark([scenario], ["cbs", "pp"], out_csv=out, overrides={"max_expansions": 2})
        header, *rows = list(csv.reader(out.open()))
        assert header[-3:] == ["subopt", "ll_searches", "stopped_by"]
        cells = {row[1]: dict(zip(header, row)) for row in rows}
        assert cells["cbs"]["success"] == "0" and cells["cbs"]["stopped_by"] == "cap"
        assert 0 < int(cells["cbs"]["ll_searches"]) <= int(cells["cbs"]["ll_calls"])
        assert cells["pp"]["stopped_by"] == ""
        assert cells["pp"]["ll_searches"] == cells["pp"]["ll_calls"]

    def test_process_pool_matches_serial_run(self, tmp_path):
        # Two worker processes; every cell ends well inside its caps and clock.
        scenarios = [
            generate_instances("grid-random", 1, seed=17, params={"width": 7, "height": 7, "n_agents": 6})[0],
            generate_instances("arm-quad", 2, seed=2024)[1],
        ]
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}.csv"
            records, _ = run_benchmark(scenarios, ["cbs", "pp", "gen-ecbs"], out_csv=out, jobs=jobs)
            assert len(records) == 6 and all(r.success for r in records)
            rows = list(csv.reader(out.open()))
            runtime = rows[0].index("runtime_ms")
            rows = [row[:runtime] + row[runtime + 1:] for row in rows]
            outputs.append((rows, out.with_suffix(".plot.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_aggregate_arithmetic_recomputable(self, tmp_path):
        records = [
            RunRecord("s1", "x", True, 10.0, 1, 2, 4.0, 4.0, 4.0, 1.0),
            RunRecord("s2", "x", True, 20.0, 1, 2, 6.0, 5.0, 5.0, 1.2),
            RunRecord("s3", "x", False, 99.0, 9, 9, None, None, 3.0, None),
            RunRecord("s1", "y", False, 5.0, 1, 1, None, None, None, None),
        ]
        agg = {row["algo"]: row for row in aggregate_records(records)}
        assert agg["x"]["success_pct"] == pytest.approx(100.0 * 2 / 3)
        assert agg["x"]["runtime_ms_mean"] == pytest.approx(statistics.fmean([10.0, 20.0]))
        assert agg["x"]["runtime_ms_std"] == pytest.approx(statistics.pstdev([10.0, 20.0]))
        assert agg["x"]["cost_mean"] == pytest.approx(statistics.fmean([4.0, 5.0]))
        assert agg["y"]["success_pct"] == 0.0
        assert agg["y"]["cost_mean"] is None

    def test_cell_seed_stable(self):
        s = hallway_scenario()
        assert cell_seed(s, "cbs") == cell_seed(s, "cbs")
        assert cell_seed(s, "cbs") != cell_seed(s, "ecbs")


class TestShortcutSkip:
    """`run_cell` does not shortcut a preset's solution at its certified
    lower bound; the records are the ones recorded when it still did."""

    @staticmethod
    def _counted_shortcut(monkeypatch):
        calls = []
        original = bench_module.shortcut

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bench_module, "shortcut", counted)
        return calls

    def test_optimal_preset_solution_is_not_shortcut(self, monkeypatch):
        calls = self._counted_shortcut(monkeypatch)
        scenario = generate_instances("hallway-swap", 1, seed=0)[0]
        record, frames = run_cell(scenario.to_obj(), "cbs")
        record = asdict(record)
        record.pop("runtime_ms")
        assert calls == []
        assert record == {
            "scenario": "hallway-swap-s0-000", "algo": "cbs", "success": True,
            "hl_expansions": 10, "ll_calls": 22, "cost": 11.0, "cost_shortcut": 11.0,
            "lb": 11.0, "subopt": 1.0, "ll_searches": 22, "stopped_by": None,
        }
        assert frames == [
            [[0, 1], [4, 1]], [[1, 1], [3, 1]], [[1, 1], [2, 1]], [[2, 1], [2, 0]],
            [[3, 1], [2, 1]], [[4, 1], [1, 1]], [[4, 1], [0, 1]],
        ]

    def test_pp_solution_is_still_shortcut(self, monkeypatch):
        calls = self._counted_shortcut(monkeypatch)
        scenario = generate_instances(
            "grid-random", 1, seed=17, params={"width": 7, "height": 7, "n_agents": 6}
        )[0]
        record, _ = run_cell(scenario.to_obj(), "pp")
        record = asdict(record)
        record.pop("runtime_ms")
        assert calls == [1]
        assert record == {
            "scenario": "grid-random-s17-000", "algo": "pp", "success": True,
            "hl_expansions": 0, "ll_calls": 6, "cost": 32.0, "cost_shortcut": 32.0,
            "lb": 0.0, "subopt": 1.0, "ll_searches": 6, "stopped_by": None,
        }


class TestCLI:
    def _write_scenario(self, tmp_path):
        path = tmp_path / "hallway.json"
        hallway_scenario().save(path)
        return path

    def test_gen_solve_verify_shortcut_flow(self, tmp_path, capsys):
        rc = cli_main(
            ["gen", "--template", "grid-random", "--count", "2", "--seed", "5", "--out", str(tmp_path / "scen")]
        )
        assert rc == 0
        files = sorted((tmp_path / "scen").glob("*.json"))
        assert len(files) == 2

        run_file = tmp_path / "run.json"
        rc = cli_main(
            ["solve", str(files[0]), "--algo", "cbs", "--seed", "1", "--out", str(run_file)]
        )
        assert rc == 0
        rc = cli_main(["verify", str(files[0]), str(run_file)])
        assert rc == 0
        rc = cli_main(["shortcut", str(run_file), "--passes", "2"])
        assert rc == 0
        rc = cli_main(["verify", str(files[0]), str(run_file)])
        assert rc == 0

    def test_solve_prints_the_limit_that_stopped_it(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "r.json"
        rc = cli_main(["solve", str(scen), "--algo", "cbs", "--max-expansions", "1", "--out", str(run_file)])
        assert rc == 1
        out = capsys.readouterr().out
        assert ": timeout (cap) " in out
        assert re.search(r" ll_searches=\d+ spine_pops=0 runtime_ms=", out), out
        assert "stopped_by" not in run_file.read_text()
        assert "spine_pops" not in run_file.read_text()

    def test_solve_prints_a_low_level_budget_stop(self, tmp_path, capsys):
        # With no low-level expansions allowed the root is dropped over
        # budget, which proves nothing about the instance.
        obj = hallway_scenario().to_obj()
        obj["solver"]["ll_max_expansions"] = 0
        scen = tmp_path / "budget.json"
        scen.write_text(json.dumps(obj))
        for algo in ("cbs", "gen-ecbs"):
            assert cli_main(["solve", str(scen), "--algo", algo]) == 1
            out = capsys.readouterr().out
            assert ": timeout (budget) cost=- lb=0 " in out, out

    def test_solve_unsolvable_returns_one(self, tmp_path):
        scen = self._write_scenario(tmp_path)
        rc = cli_main(["solve", str(scen), "--algo", "pp", "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_invalid_input_returns_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["solve", str(bad)]) == 2
        assert cli_main(["gen", "--template", "nope", "--count", "1", "--out", str(tmp_path)]) == 2

    def test_malformed_fields_return_two_with_one_line(self, tmp_path, capsys):
        no_width = hallway_scenario().to_obj()
        del no_width["domain"]["width"]
        short_prior = hallway_scenario().to_obj()
        short_prior["solver"]["dts_prior"] = {"avoidance": [2]}
        cases = [no_width, short_prior]
        for algorithm in (5, ["cbs"]):
            cases.append(hallway_scenario().to_obj())
            cases[-1]["solver"]["algorithm"] = algorithm
        for obj in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(obj))
            assert cli_main(["solve", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("field, value, message", [
        ("name", None, "name must be a string, got None"),
        ("name", [], "name must be a string, got []"),
        ("name", {}, "name must be a string, got {}"),
        ("name", 7, "name must be a string, got 7"),
        ("agents", "x", "agents must be a list of objects, got 'x'"),
        ("agents", {}, "agents must be a list of objects, got {}"),
        ("agents", ["x"], "agents must be a list of objects, got ['x']"),
        ("agents", None, "agents must be a list of objects, got None"),
    ])
    def test_bad_name_or_agents_return_two_with_one_line(self, tmp_path, capsys, field, value, message):
        obj = hallway_scenario().to_obj()
        obj[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(bad), "--out", str(run_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not run_file.exists()

    def test_instance_without_agents_returns_two_with_one_line(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        assert cli_main(["gen", "--template", "grid-random", "--count", "1", "--seed", "17", "--out", str(scen)]) == 0
        (path,) = scen.glob("*.json")
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(path), "--algo", "ecbs", "--out", str(run_file)]) == 0
        obj = json.loads(path.read_text())
        obj["agents"] = []
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (
            ["solve", str(path), "--algo", "ecbs"],
            ["verify", str(path), str(run_file)],
            ["bench", str(scen), "--algos", "ecbs", "--out", str(tmp_path / "b.csv")],
        ):
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: an instance needs at least one agent\n", err

    def test_wrong_length_endpoints_return_two_with_one_line(self, tmp_path, capsys):
        # A start or goal without the domain's number of coordinates is out
        # of bounds: a grid cell has two, an arm-pair arm two joint indices.
        grid = hallway_scenario().to_obj()
        arm = generate_instances("arm-pair", 1, seed=0)[0].to_obj()
        cases = [(grid, wrong) for wrong in ([1], [1, 2, 3], [])] + [(arm, wrong) for wrong in ([5], [5, -4, 0])]
        for scenario, wrong in cases:
            for label in ("start", "goal"):
                obj = json.loads(json.dumps(scenario))
                obj["agents"][0][label] = wrong
                bad = tmp_path / "bad.json"
                bad.write_text(json.dumps(obj))
                capsys.readouterr()
                assert cli_main(["solve", str(bad), "--algo", "ecbs"]) == 2, (label, wrong)
                captured = capsys.readouterr()
                assert captured.err == f"error: agent 0 {label} out of bounds: {tuple(wrong)}\n", captured.err
                assert captured.out == ""

    def test_malformed_domain_numbers_return_two_with_one_line(self, tmp_path, capsys):
        def edited(obj, **fields):
            obj = json.loads(json.dumps(obj))
            obj["domain"].update(fields)
            return obj

        grid = hallway_scenario().to_obj()
        arm = generate_instances("arm-pair", 1, seed=0)[0].to_obj()
        arms = arm["domain"]["arms"]
        linkless = [dict(a, link_lengths=[], joint_limits=[]) for a in arms]
        obstacle = arm["domain"]["obstacles"][0]
        cases = [
            edited(grid, substeps=0),
            edited(grid, substeps=-1),
            edited(arm, substeps=0),
            edited(arm, delta=math.nan),
            edited(arm, arms=[]),
            edited(arm, arms=linkless),
            # Not a JSON number, or not integral where an integer is expected.
            edited(grid, width=6.9),
            edited(grid, height=True),
            edited(grid, substeps=4.5),
            edited(grid, blocked=[[0, 0], [1.5, 0]]),
            edited(grid, blocked=[["3", 0]]),
            edited(arm, substeps="4"),
            edited(arm, delta=True),
            edited(arm, arms=[dict(a, joint_limits=[[-2.5, 3.9], [-6, 6]]) for a in arms]),
            edited(arm, arms=[dict(a, link_lengths=["1.2", 1.0]) for a in arms]),
            edited(arm, arms=[dict(a, thickness=False) for a in arms]),
            edited(arm, arms=[dict(a, base=[0, "0"]) for a in arms]),
            edited(arm, obstacles=[dict(obstacle, center=[True, 1.8])]),
            edited(arm, obstacles=[dict(obstacle, radius="0.2")]),
            edited(arm, obstacles=[dict(obstacle, radius=10**400)]),
            # Unknown fields in an arm or an obstacle.
            edited(arm, arms=[dict(a, thicknes=9) for a in arms]),
            edited(arm, obstacles=[dict(obstacle, radiuss=9)]),
        ]
        for obj in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(obj))
            for algo in ("gen-ecbs", "ecbs"):
                assert cli_main(["solve", str(bad), "--algo", algo]) == 2, obj["domain"]
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_non_finite_or_negative_arm_geometry_returns_two_with_one_line(self, tmp_path, capsys):
        arm = generate_instances("arm-pair", 1, seed=0)[0].to_obj()

        def edited(arm_fields=None, obstacle_fields=None):
            obj = json.loads(json.dumps(arm))
            for a in obj["domain"]["arms"]:
                a.update(arm_fields or {})
            for o in obj["domain"]["obstacles"]:
                o.update(obstacle_fields or {})
            return obj

        cases = [
            edited(arm_fields={"thickness": math.nan}),
            edited(arm_fields={"thickness": -0.15}),
            edited(arm_fields={"base": [math.nan, 0.0]}),
            edited(arm_fields={"link_lengths": [math.inf, 1.0]}),
            edited(obstacle_fields={"radius": math.nan}),
        ]
        for obj in cases:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(obj))
            for algo in ("gen-ecbs", "ecbs"):
                assert cli_main(["solve", str(bad), "--algo", algo]) == 2, obj["domain"]
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert "finite" in err, err

    @pytest.mark.parametrize("template, param, message", [
        ("grid-random", "width=6.9", "width must be an integer, got 6.9"),
        ("grid-random", "widht=7", "unknown grid-random parameters: ['widht']"),
        ("grid-random", "n_agents=true", "n_agents must be a number, got True"),
        ("arm-quad", "max_root_conflicts=2.5", "max_root_conflicts must be an integer, got 2.5"),
        ("arm-quad", "links=5", "links must be a list of numbers, got 5"),
        ("grid-random", "n_agents=0", "n_agents must be in [1, inf], got 0"),
        ("grid-random", "obstacle_density=1.5", "obstacle_density must be in [0, 1], got 1.5"),
        ("grid-random", "obstacle_density=-0.5", "obstacle_density must be in [0, 1], got -0.5"),
        ("grid-random", "width=-3", "width must be in [1, inf], got -3"),
        ("arm-quad", "max_root_conflicts=-1", "max_root_conflicts must be in [0, inf], got -1"),
        # The arm templates build two joint limits, so two link lengths.
        ("arm-quad", "links=[1.0]", "links must be a list of 2 numbers, got [1.0]"),
        ("arm-quad", "links=[1,2,3]", "links must be a list of 2 numbers, got [1, 2, 3]"),
    ])
    def test_bad_template_parameters_return_two_with_one_line(self, tmp_path, capsys, template, param, message):
        out = tmp_path / "scen"
        argv = ["gen", "--template", template, "--count", "1", "--out", str(out), "--param", param]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
        assert not out.exists()

    def test_conflicting_starts_return_two_with_one_line(self, tmp_path, capsys):
        good = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(good), "--algo", "cbs", "--out", str(run_file)]) == 0
        obj = hallway_scenario().to_obj()
        obj["agents"][1]["start"] = obj["agents"][0]["start"]
        scen_dir = tmp_path / "bad"
        scen_dir.mkdir()
        bad = scen_dir / "bad.json"
        bad.write_text(json.dumps(obj))
        capsys.readouterr()
        for argv in (
            ["solve", str(bad)],
            ["verify", str(bad), str(run_file)],
            ["bench", str(scen_dir), "--algos", "cbs", "--out", str(tmp_path / "r.csv")],
        ):
            assert cli_main(argv) == 2, argv[0]
            captured = capsys.readouterr()
            assert captured.err == "error: starts of agents 0 and 1 are in conflict\n", argv[0]
            assert captured.out == "", argv[0]
        assert not (tmp_path / "r.csv").exists()

    def _malformed_runs(self, tmp_path):
        """A solved run file with one part missing at a time: the result,
        the scenario, or a path's agent."""
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
        good = json.loads(run_file.read_text())
        no_result = dict(good)
        del no_result["result"]
        no_scenario = dict(good)
        del no_scenario["scenario"]
        no_agent = json.loads(run_file.read_text())
        del no_agent["result"]["solution"][0]["agent"]
        return scen, {"result": no_result, "scenario": no_scenario, "agent": no_agent}

    @pytest.mark.parametrize("file, path, value, message", [
        ("grid", ("zz",), 1, "unknown scenario fields: ['zz']"),
        ("grid", ("agents", 0, "zz"), 1, "unknown agent fields: ['zz']"),
        ("grid", ("solver", "zz"), 1, "unknown solver fields: ['zz']"),
        ("grid", ("solver", "menu"), [{"type": "complete", "zz": 1}], "unknown menu entry fields: ['zz']"),
        ("grid", ("domain", "zz"), 1, "unknown grid domain fields: ['zz']"),
        ("arm", ("domain", "zz"), 1, "unknown planar_arm domain fields: ['zz']"),
        ("arm", ("domain", "arms", 0, "zz"), 1, "unknown arm fields: ['zz']"),
        ("arm", ("domain", "obstacles", 0, "zz"), 1, "unknown obstacle fields: ['zz']"),
        ("run", ("zz",), 1, "unknown run file fields: ['zz']"),
        ("run", ("result", "zz"), 1, "unknown result fields: ['zz']"),
        ("run", ("result", "stats", "zz"), 1, "unknown stats fields: ['zz']"),
        ("run", ("result", "solution", 0, "zz"), 1, "unknown path fields: ['zz']"),
        ("grid", ("solver",), [], "solver must be an object, got []"),
        ("grid", ("solver", "menu"), [[]], "menu entry must be an object, got []"),
        ("grid", ("domain",), [], "domain must be an object, got []"),
        ("grid", ("solver", "dts_prior"), [], "dts_prior must be an object, got []"),
        ("run", ("result",), [], "result must be an object, got []"),
        ("run", ("result", "stats"), [], "stats must be an object, got []"),
        ("run", ("result", "solution", 0), [], "path must be an object, got []"),
        ("run", ("result", "status"), 7, "status must be one of solved, timeout or exhausted, got 7"),
        ("grid", ("solver", "menu"), "ab", "menu must be a list, got 'ab'"),
        ("grid", ("solver", "menu"), {"type": "complete"}, "menu must be a list, got {'type': 'complete'}"),
        ("grid", ("domain", "blocked"), {"x": 1}, "blocked must be a list, got {'x': 1}"),
        ("grid", ("domain", "blocked"), [[1]], "blocked cells must be [x, y] pairs, got [1]"),
        ("arm", ("domain", "arms"), {"x": 1}, "arms must be a list, got {'x': 1}"),
        ("arm", ("domain", "obstacles"), "ab", "obstacles must be a list, got 'ab'"),
        ("arm", ("domain", "arms", 0, "link_lengths"), 1.0, "link_lengths must be a list, got 1.0"),
        ("arm", ("domain", "arms", 0, "joint_limits"), {"x": 1}, "joint_limits must be a list, got {'x': 1}"),
        ("arm", ("domain", "arms", 0, "base"), "ab", "arm bases must be a list, got 'ab'"),
        ("run", ("result", "solution"), {"agent": 0}, "solution must be a list, got {'agent': 0}"),
        ("run", ("result", "solution", 0, "steps"), "ab", "steps must be a list, got 'ab'"),
        ("grid", ("agents", 0, "start"), 5, "coordinates must be a list, got 5"),
        ("grid", ("solver", "dts_prior"), {"avoidance": 5}, "dts_prior must be a list, got 5"),
        ("grid", ("solver", "dts_prior"), {"avoidance": [1, 2, 3]}, "dts_prior must be [x, y] pairs, got [1, 2, 3]"),
        ("grid", ("solver", "dts_prior"), {"avoidance": "ab"}, "dts_prior must be a list, got 'ab'"),
    ])
    def test_every_file_reader_applies_the_field_rule(self, tmp_path, capsys, file, path, value, message):
        # Each object a scenario or run file holds rejects a field it does
        # not know, and a value that is no object; each list field rejects
        # a value that is no list.
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
        obj = {
            "grid": hallway_scenario().to_obj(),
            "arm": generate_instances("arm-pair", 1, seed=0)[0].to_obj(),
            "run": json.loads(run_file.read_text()),
        }[file]
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        if file == "run":
            argvs = (["verify", str(scen), str(bad)], ["shortcut", str(bad)])
        else:
            argvs = (["solve", str(bad), "--algo", "cbs"],)
        for argv in argvs:
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(f"{message}\n"), err
        assert json.loads(bad.read_text()) == obj  # left as it was

    def test_non_number_run_stats_return_two_with_one_line(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
        for field in ("cost", "lb"):
            obj = json.loads(run_file.read_text())
            obj["result"]["stats"][field] = "x"
            bad = tmp_path / f"{field}-x.json"
            bad.write_text(json.dumps(obj))
            for argv in (["verify", str(scen), str(bad)], ["shortcut", str(bad)]):
                capsys.readouterr()
                assert cli_main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err == f"error: {field} must be a number, got 'x'\n", err
            assert json.loads(bad.read_text()) == obj  # left as it was

    def test_non_number_dts_counts_return_two_with_one_line(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(scen), "--algo", "gen-ecbs", "--out", str(run_file)]) == 0
        cases = [
            ("dts_rewards", {"complete": "x"}, "dts_rewards.complete must be a number, got 'x'"),
            ("dts_penalties", {"avoidance": 1.5}, "dts_penalties.avoidance must be an integer, got 1.5"),
            ("dts_rewards", [1], "dts_rewards must be an object, got [1]"),
        ]
        for i, (field, value, message) in enumerate(cases):
            obj = json.loads(run_file.read_text())
            obj["result"]["stats"][field] = value
            bad = tmp_path / f"dts-{i}.json"
            bad.write_text(json.dumps(obj))
            for argv in (["verify", str(scen), str(bad)], ["shortcut", str(bad)]):
                capsys.readouterr()
                assert cli_main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err == f"error: {message}\n", err
            assert json.loads(bad.read_text()) == obj  # left as it was

    def test_verify_malformed_run_returns_two_with_one_line(self, tmp_path, capsys):
        scen, runs = self._malformed_runs(tmp_path)
        for missing in ("result", "agent"):
            bad = tmp_path / f"no-{missing}.json"
            bad.write_text(json.dumps(runs[missing]))
            capsys.readouterr()
            assert cli_main(["verify", str(scen), str(bad)]) == 2, missing
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_shortcut_malformed_run_returns_two_with_one_line(self, tmp_path, capsys):
        _, runs = self._malformed_runs(tmp_path)
        for missing, obj in runs.items():
            bad = tmp_path / f"no-{missing}.json"
            bad.write_text(json.dumps(obj))
            capsys.readouterr()
            assert cli_main(["shortcut", str(bad)]) == 2, missing
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert json.loads(bad.read_text()) == obj  # left as it was

    def test_negative_counts_caps_and_timeouts_return_two_with_one_line(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
        before = run_file.read_bytes()
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        hallway_scenario().save(scen_dir / "hallway.json")
        bench = ["bench", str(scen_dir), "--algos", "cbs", "--out", str(tmp_path / "r.csv")]
        for argv, option in (
            (["gen", "--template", "grid-random", "--count", "-1", "--out", str(tmp_path / "g")], "--count"),
            (["solve", str(scen), "--algo", "cbs", "--max-expansions", "-3"], "--max-expansions"),
            (["solve", str(scen), "--algo", "cbs", "--timeout-ms", "-1"], "--timeout-ms"),
            (["solve", str(scen), "--algo", "cbs", "--timeout-ms", "nan"], "--timeout-ms"),
            (["shortcut", str(run_file), "--passes", "-2"], "--passes"),
            (bench + ["--jobs", "0"], "--jobs"),
            (bench + ["--max-expansions", "-1"], "--max-expansions"),
            (bench + ["--timeout-ms", "-5"], "--timeout-ms"),
            (bench + ["--shortcut-passes", "-1"], "--shortcut-passes"),
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {option} must be >= ") and captured.err.count("\n") == 1, argv
            assert captured.out == "", argv
        assert not (tmp_path / "g").exists() and not (tmp_path / "r.csv").exists()
        assert run_file.read_bytes() == before
        # Zero is a valid count, cap and timeout.
        assert cli_main(["gen", "--template", "grid-random", "--count", "0", "--out", str(tmp_path / "g")]) == 0
        assert cli_main(bench + ["--jobs", "1", "--shortcut-passes", "0"]) == 0

    def test_non_finite_w_returns_two_with_one_line(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        obj = hallway_scenario().to_obj()
        obj["solver"]["w"] = float("nan")
        from_file = tmp_path / "nan-w.json"
        from_file.write_text(json.dumps(obj))  # written as NaN, which json reads back
        for argv, shown in (
            (["solve", str(scen), "--algo", "gen-ecbs", "--w", "nan"], "nan"),
            (["solve", str(scen), "--algo", "ecbs", "--w", "inf"], "inf"),
            (["solve", str(scen), "--algo", "ac-ecbs", "--w=-inf"], "-inf"),
            (["solve", str(from_file), "--algo", "gen-ecbs"], "nan"),
        ):
            capsys.readouterr()
            assert cli_main(argv + ["--out", str(run_file)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == f"error: w must be a finite number >= 1, got {shown}\n", argv
            assert captured.out == "", argv
        assert not run_file.exists()
        # The unit-w rows ignore the configured w.
        assert cli_main(["solve", str(scen), "--algo", "gen-cbs", "--w", "nan"]) == 0
        # A non-finite DTS prior would hang or crash the Beta draws.
        for prior, shown in (
            ([math.nan, 1], "[nan, 1]"),
            ([1, math.nan], "[1, nan]"),
            ([math.inf, 1], "[inf, 1]"),
            ([1e308, 1e308], "[1e+308, 1e+308]"),
        ):
            obj = hallway_scenario().to_obj()
            obj["solver"]["dts_prior"] = {"avoidance": prior}
            from_file.write_text(json.dumps(obj))  # NaN and Infinity, which json reads back
            capsys.readouterr()
            assert cli_main(["solve", str(from_file), "--algo", "gen-ecbs", "--out", str(run_file)]) == 2, prior
            captured = capsys.readouterr()
            message = f"DTS prior for 'avoidance' must be two numbers >= 1 with a finite sum, got {shown}"
            assert captured.err == f"error: {message}\n", prior
            assert captured.out == "", prior
        assert not run_file.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout_ms", -1.0),
            ("timeout_ms", float("nan")),
            ("max_expansions", -1),
            ("ll_max_expansions", -2),
            ("pp_retries", -3),
        ],
    )
    def test_bad_solver_caps_in_a_scenario_return_two_with_one_line(self, tmp_path, capsys, field, value):
        obj = hallway_scenario().to_obj()
        obj["solver"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))  # NaN is written as NaN, which json reads back
        run_file = tmp_path / "run.json"
        capsys.readouterr()
        assert cli_main(["solve", str(bad), "--algo", "pp", "--out", str(run_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: malformed scenario: {field} must be >= 0, got {value:g}\n"
        assert captured.out == "" and not run_file.exists()
        obj["solver"][field] = 0  # zero is a valid cap
        bad.write_text(json.dumps(obj))
        assert cli_main(["solve", str(bad), "--algo", "pp"]) in (0, 1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("w", True, "w must be a number, got True"),
            ("seed", 1.9, "seed must be an integer, got 1.9"),
            ("timeout_ms", "10", "timeout_ms must be a number, got '10'"),
            ("max_expansions", 2.7, "max_expansions must be an integer, got 2.7"),
            ("ll_max_expansions", "50", "ll_max_expansions must be a number, got '50'"),
            ("pp_retries", True, "pp_retries must be a number, got True"),
        ],
    )
    def test_solver_fields_of_the_wrong_type_return_two_with_one_line(
        self, tmp_path, capsys, field, value, message
    ):
        obj = hallway_scenario().to_obj()
        obj["solver"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        run_file = tmp_path / "run.json"
        capsys.readouterr()
        assert cli_main(["solve", str(bad), "--algo", "pp", "--out", str(run_file)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: malformed scenario: {message}\n"
        assert captured.out == "" and not run_file.exists()

    def test_solver_numbers_keep_their_type(self):
        cfg = SolverConfig.from_obj({"w": 2, "seed": 3.0, "timeout_ms": 5, "max_expansions": 7.0})
        assert (cfg.w, cfg.seed, cfg.timeout_ms, cfg.max_expansions) == (2.0, 3, 5.0, 7)
        assert [type(x) for x in (cfg.w, cfg.seed, cfg.timeout_ms, cfg.max_expansions)] == [float, int, float, int]

    def test_dts_prior_numbers(self):
        for prior in ([True, 2], [1, "2"], [None, 1.0]):
            with pytest.raises(ValueError, match="dts_prior must be a number"):
                SolverConfig.from_obj({"dts_prior": {"complete": prior}})
        with pytest.raises(ValueError, match=re.escape("dts_prior must be [x, y] pairs, got [1, 2, 3]")):
            SolverConfig.from_obj({"dts_prior": {"complete": [1, 2, 3]}})
        cfg = SolverConfig.from_obj({"dts_prior": {"complete": [1, 2.5]}})
        assert cfg.dts_prior == {"complete": (1.0, 2.5)}

    def test_scenario_seed_must_be_an_integer(self):
        obj = hallway_scenario().to_obj()
        for seed in (1.5, "1", True):
            with pytest.raises(ScenarioError, match="seed must be"):
                Scenario.from_obj({**obj, "seed": seed})
        assert Scenario.from_obj({**obj, "seed": 7.0}).seed == 7

    def test_non_finite_sphere_radius_returns_two_with_one_line(self, tmp_path, capsys):
        scen = self._write_scenario(tmp_path)
        obj = hallway_scenario().to_obj()
        obj["solver"]["menu"] = [{"type": "complete"}, {"type": "sphere", "radius": float("nan")}]
        from_file = tmp_path / "nan-radius.json"
        from_file.write_text(json.dumps(obj))
        for argv, shown in (
            (["solve", str(scen), "--algo", "ecbs-sub:sphere:nan"], "nan"),
            (["solve", str(scen), "--algo", "ecbs-sub:sphere:inf"], "inf"),
            (["solve", str(scen), "--algo", "ecbs-sub:sphere:-1"], "-1.0"),
            (["solve", str(from_file), "--algo", "gen-ecbs"], "nan"),
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
            assert captured.err.endswith(f"sphere radii must be finite and > 0, got {shown}\n"), argv
            assert captured.out == "", argv
        # A radius that is no number names the type, not the conversion.
        obj = hallway_scenario().to_obj()
        obj["solver"]["dts_prior"] = {"sphere:abc": [2, 1]}
        prior_file = tmp_path / "abc-prior.json"
        prior_file.write_text(json.dumps(obj))
        for argv in (
            ["solve", str(scen), "--algo", "ecbs-sub:sphere:abc"],
            ["solve", str(prior_file), "--algo", "gen-ecbs"],
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err == "error: unknown substitution type: 'sphere:abc'\n", argv
            assert captured.out == "", argv
        assert cli_main(["solve", str(scen), "--algo", "ecbs-sub:sphere:1.5"]) in (0, 1)

    def test_solve_and_verify_build_the_domain_once(self, tmp_path, monkeypatch):
        scen = self._write_scenario(tmp_path)
        run_file = tmp_path / "run.json"
        builds = []
        original = Scenario.build_domain

        def counted(self):
            builds.append(self.name)
            return original(self)

        monkeypatch.setattr(Scenario, "build_domain", counted)
        assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
        assert builds == ["hallway"]
        assert cli_main(["verify", str(scen), str(run_file)]) == 0
        assert builds == ["hallway"] * 2

    def test_bench_command(self, tmp_path):
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        hallway_scenario().save(scen_dir / "hallway.json")
        rc = cli_main(
            [
                "bench",
                str(scen_dir),
                "--algos",
                "cbs,gen-ecbs",
                "--out",
                str(tmp_path / "results.csv"),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "results.csv").open()))
        assert {r["algo"] for r in rows} == {"cbs", "gen-ecbs"}
        assert all(r["success"] == "1" for r in rows)

    def test_bench_without_an_algorithm_returns_two_with_one_line(self, tmp_path, capsys):
        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        hallway_scenario().save(scen_dir / "hallway.json")
        out = tmp_path / "results.csv"
        for algos in (",", "", " , "):
            capsys.readouterr()
            assert cli_main(["bench", str(scen_dir), "--algos", algos, "--out", str(out)]) == 2, algos
            captured = capsys.readouterr()
            assert captured.err == f"error: --algos names no algorithm, got {algos!r}\n", algos
            assert captured.out == "", algos
        assert list(tmp_path.iterdir()) == [scen_dir]

    def test_verify_reports_a_step_of_the_wrong_dimension(self, tmp_path, capsys):
        # On a grid as on arms, a configuration without the domain's number
        # of coordinates is a static and a transition violation.
        for template in ("hallway-swap", "arm-pair"):
            scen_dir = tmp_path / template
            assert cli_main(["gen", "--template", template, "--count", "1", "--out", str(scen_dir)]) == 0
            (scen,) = scen_dir.glob("*.json")
            run_file = tmp_path / f"{template}.run.json"
            assert cli_main(["solve", str(scen), "--algo", "cbs", "--out", str(run_file)]) == 0
            good = json.loads(run_file.read_text())
            steps = good["result"]["solution"][0]["steps"]
            assert len(steps) > 2
            for step in (steps[1] + [0], steps[1][:1], []):
                obj = json.loads(json.dumps(good))
                obj["result"]["solution"][0]["steps"][1] = step
                bad = tmp_path / "bad.json"
                bad.write_text(json.dumps(obj))
                capsys.readouterr()
                assert cli_main(["verify", str(scen), str(bad)]) == 1, (template, step)
                out = capsys.readouterr().out
                assert f"violation static agents=(0,) t=1 configuration {tuple(step)}" in out, out
                assert "violation transition agents=(0,) t=0 " in out and "violation transition agents=(0,) t=1 " in out

    def test_solve_determinism_byte_identical(self, tmp_path):
        scen = self._write_scenario(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = cli_main(
                ["solve", str(scen), "--algo", "gen-ecbs", "--seed", "7", "--out", str(out)]
            )
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_module_entrypoint(self, tmp_path):
        scen = self._write_scenario(tmp_path)
        # The subprocess imports the same package as this test process.
        src = str(FsPath(genecbs.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "genecbs", "solve", str(scen), "--algo", "cbs"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "solved" in proc.stdout

    def test_solve_is_byte_identical_across_hash_seeds(self, tmp_path):
        """RUN.json does not depend on string hashing, which differs between
        processes: `genecbs solve` under two PYTHONHASHSEED values writes the
        same bytes on a grid and on an arm-pair scenario."""
        for template, seed, count, params in (
            ("grid-random", 17, 1, ["width=7", "height=7", "n_agents=6"]),
            ("arm-pair", 1, 3, []),
        ):
            argv = ["gen", "--template", template, "--seed", str(seed), "--count", str(count),
                    "--out", str(tmp_path / template)]
            assert cli_main(argv + [a for p in params for a in ("--param", p)]) == 0
        scenarios = [tmp_path / "grid-random" / "grid-random-s17-000.json",
                     tmp_path / "arm-pair" / "arm-pair-s1-002.json"]
        src = str(FsPath(genecbs.__file__).resolve().parent.parent)
        for scen in scenarios:
            for algo in ("gen-ecbs", "ecbs", "pp"):
                runs = []
                for hash_seed in ("1", "2"):
                    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
                    out = tmp_path / f"{scen.stem}-{algo}-{hash_seed}.json"
                    subprocess.run(
                        [sys.executable, "-m", "genecbs", "solve", str(scen), "--algo", algo,
                         "--seed", "11", "--max-expansions", "100", "--timeout-ms", "600000",
                         "--out", str(out)],
                        capture_output=True, check=False, env=env,
                    )
                    runs.append(out.read_bytes())
                assert runs[0] == runs[1], (scen.name, algo)
