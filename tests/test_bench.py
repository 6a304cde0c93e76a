import csv
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from genecbs.bench import (
    CSV_COLUMNS,
    RunRecord,
    Scenario,
    ScenarioError,
    _segment_ok,
    _staircase,
    aggregate_records,
    cell_seed,
    generate_instances,
    run_benchmark,
    shortcut,
    verify,
)
from genecbs.cli import main as cli_main
from genecbs.core import Configuration, Path, canonical_json, path_cost, sum_of_costs
from genecbs.domain import GridDomain
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

    def test_unknown_template(self):
        with pytest.raises(ScenarioError):
            generate_instances("nope", 1, seed=0)


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

    def test_wrong_goal_endpoint(self):
        d = hallway_scenario().build_domain()
        r = solve(d, SolverConfig(algorithm="cbs"))
        paths = list(r.solution)
        p = paths[0]
        paths[0] = Path(0, p.steps[:-1])  # chop the goal arrival
        out = verify(d, paths)
        assert not out.clean
        assert any(v.kind == "endpoint" for v in out.violations)

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
    fine = 2 * domain.substeps
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
                hit = domain.edge_collides(
                    agent, cand[k], cand[k + 1], o, other.at(t), other.at(t + 1), substeps=fine
                )
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

    def test_segment_check_matches_reference_on_random_segments(self):
        rng = random.Random(3)
        d = GridDomain(4, 4, [(1, 1)], [C(0, 0)] * 5, [C(3, 3)] * 5)
        cells = [C(x, y) for x in range(4) for y in range(4) if (x, y) != (1, 1)]

        def walk(agent, length):
            steps = [rng.choice(cells)]
            for _ in range(length):
                steps.append(rng.choice(d.successors(agent, steps[-1]))[0])
            return Path(agent, tuple(steps))

        seen = set()
        for _ in range(400):
            others = [None] + [walk(j, rng.randint(0, 6)) for j in range(1, 5)]
            count = d.conflict_counter(0, others, substeps=2 * d.substeps)
            for _ in range(10):
                cand = _staircase(rng.choice(cells), rng.choice(cells), rng.randint(1, 6))
                if cand is None:
                    continue
                t0 = rng.randint(0, 4)
                ok = _segment_ok(d, 0, cand, t0, count)
                assert ok == reference_segment_ok(d, 0, cand, t0, others[1:]), (cand, t0, others)
                seen.add(ok)
        assert seen == {True, False}

    def test_shortcut_checks_at_twice_the_resolution(self, monkeypatch):
        d = hallway_scenario().build_domain()
        solution = solve(d, SolverConfig(algorithm="cbs")).solution
        asked = []
        counter = GridDomain.conflict_counter

        def spy(self, agent, other_paths, substeps=None):
            asked.append(substeps)
            return counter(self, agent, other_paths, substeps)

        monkeypatch.setattr(GridDomain, "conflict_counter", spy)
        shortcut(solution, d)
        assert asked and set(asked) == {2 * d.substeps}

    def test_arm_counter_keeps_the_sampled_resolution(self):
        # Two motions of arm-quad-s2024-037 whose contact falls between
        # sampled poses: agents 2 and 3 at t = 4 (missed by 4 samples) and a
        # pair of agents 0 and 1 (missed by 8). The counter must see each
        # contact exactly as `edge_collides` does at the same resolution.
        d = generate_instances("arm-quad", 38, seed=2024)[37].build_domain()
        motions = [
            (2, C(13, -3), C(12, -3), 3, C(25, 6), C(24, 6)),
            (0, C(2, 3), C(1, 3), 1, C(8, 4), C(9, 4)),
        ]
        differ = set()
        for i, q, q2, j, p, p2 in motions:
            assert d.agents_collide(i, q2, j, p2) is None
            others = [None] * d.n_agents
            others[j] = Path(j, (p, p2))
            for substeps in (4, 8, None):
                count = d.conflict_counter(i, others, substeps=substeps)
                hit = d.edge_collides(i, q, q2, j, p, p2, substeps=substeps) is not None
                assert count(q, q2, 1) == int(hit), (i, j, substeps)
                if not hit:
                    differ.add(substeps)
        assert differ == {4, 8}


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
        for obj in (no_width, short_prior):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(obj))
            assert cli_main(["solve", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

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
        proc = subprocess.run(
            [sys.executable, "-m", "genecbs", "solve", str(scen), "--algo", "cbs"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "solved" in proc.stdout
