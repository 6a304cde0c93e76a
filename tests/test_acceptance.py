"""Acceptance suite.

Each test prints one pass/fail line per criterion (run with -s to watch).
The oracle-backed criteria share one seeded grid suite (session fixture);
the trend criteria share one seeded 4-arm benchmark. Solver budgets carry an
expansion cap and a wall clock. Where the cap binds first, results are
machine-independent; an arm cell that the clock stops below its cap is a
machine-dependent outcome, so criteria 5 and 6 name such cells in their
detail line.
"""

import random
import time

import pytest

import genecbs.bench as bench_mod
from genecbs.bench import Scenario, generate_instances, shortcut, verify
from genecbs.constraints import (
    COMPLETE,
    ConstraintMenu,
    MenuEntry,
    make_constraints,
    mutually_disjunctive_check,
)
from genecbs.core import TIMEOUT, Configuration, Conflict, Path, sum_of_costs
from genecbs.domain import ArmSpec, GridDomain, PlanarArmDomain
from genecbs.highlevel import DTSState, SolverConfig, solve, solve_pp

from oracles import composite_optimal_cost


def C(*coords):
    return Configuration(tuple(coords))


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


GRID_MENU = ConstraintMenu.of(
    MenuEntry(COMPLETE),
    MenuEntry("avoidance"),
    MenuEntry("step-priority"),
    MenuEntry("sphere", radius=1.0),
    MenuEntry("sphere", radius=2.0),
    MenuEntry("sphere", radius=3.0),
)

ARM_TIMEOUT_MS = 45_000.0
ARM_MAX_EXPANSIONS = 300
ARM_ALGOS = ("gen-ecbs", "ecbs", "pp", "ecbs-sub:avoidance", "ac-ecbs", "ac-ecbs-lazy")


def hallway_domain():
    return GridDomain(
        5, 2, [(0, 0), (1, 0), (3, 0), (4, 0)],
        [C(0, 1), C(4, 1)], [C(4, 1), C(0, 1)],
    )


@pytest.fixture(scope="session")
def oracle_suite():
    """>= 200 small seeded grid instances with composite-space optima and
    the CBS results; shared by criteria 1, 2, 3, and 8."""
    suite = []
    specs = [
        ({"width": 5, "height": 5, "n_agents": 2, "obstacle_density": 0.12}, 120, 100),
        ({"width": 6, "height": 6, "n_agents": 2, "obstacle_density": 0.15}, 44, 200),
        ({"width": 5, "height": 5, "n_agents": 3, "obstacle_density": 0.12}, 44, 300),
    ]
    for params, count, seed in specs:
        for scenario in generate_instances("grid-random", count, seed=seed, params=params):
            domain = scenario.build_domain()
            c_star = composite_optimal_cost(domain)
            if c_star is None:
                continue
            suite.append((scenario.name, domain, c_star))
    assert len(suite) >= 200, f"only {len(suite)} oracle-solvable instances"
    return suite


@pytest.fixture(scope="session")
def cbs_results(oracle_suite):
    out = {}
    for name, domain, c_star in oracle_suite:
        out[name] = solve(domain, SolverConfig(algorithm="cbs", timeout_ms=30_000, max_expansions=50_000))
    return out


@pytest.fixture(scope="session")
def arm_suite():
    """The 50-instance 4-arm cluttered benchmark used by criteria 5 and 6."""
    return generate_instances("arm-quad", 50, seed=2024)


@pytest.fixture(scope="session")
def arm_results(arm_suite):
    """Solve every (scenario, algorithm) cell once; criteria 5, 6, and 8
    read from this cache."""
    results = {}
    for scenario in arm_suite:
        domain = scenario.build_domain()
        for algo in ARM_ALGOS:
            config = SolverConfig(
                algorithm=algo,
                w=1.3,
                timeout_ms=ARM_TIMEOUT_MS,
                max_expansions=ARM_MAX_EXPANSIONS,
                seed=0,
                dts_prior={"sphere:0.11": (3.0, 1.0)} if algo == "gen-ecbs" else None,
            )
            results[(scenario.name, algo)] = (domain, solve(domain, config))
    return results


def clock_stopped(arm_results):
    """Arm cells that ended on the wall clock before the expansion cap."""
    return sorted(
        f"{name}/{algo}"
        for (name, algo), (_, r) in arm_results.items()
        if r.status == TIMEOUT and r.stats.hl_expansions < ARM_MAX_EXPANSIONS
    )


class TestCriterion1CBSOptimality:
    def test_cbs_matches_composite_oracle(self, oracle_suite, cbs_results):
        t0 = time.perf_counter()
        mismatches = []
        unsolved = []
        for name, domain, c_star in oracle_suite:
            r = cbs_results[name]
            if not r.solved:
                unsolved.append(name)
            elif r.stats.cost != c_star:
                mismatches.append((name, r.stats.cost, c_star))
        elapsed = time.perf_counter() - t0
        _report(
            "1 (CBS optimality)",
            not mismatches and not unsolved,
            f"{len(oracle_suite)} instances, mismatches={mismatches[:3]}, unsolved={unsolved[:3]}",
        )

    def test_total_runtime_under_60s(self, oracle_suite):
        # Solve the whole suite again, timed end to end.
        t0 = time.perf_counter()
        for name, domain, c_star in oracle_suite:
            solve(domain, SolverConfig(algorithm="cbs", timeout_ms=30_000, max_expansions=50_000))
        elapsed = time.perf_counter() - t0
        _report("1 (runtime)", elapsed < 60.0, f"{elapsed:.1f}s for {len(oracle_suite)} instances")


class TestCriterion2BoundedSuboptimality:
    @pytest.mark.parametrize("w", [1.0, 1.3, 1.5])
    def test_bound_never_violated(self, oracle_suite, w):
        violations = []
        configs = {
            "ecbs": SolverConfig(algorithm="ecbs", w=w),
            "ac-ecbs": SolverConfig(algorithm="ac-ecbs", w=w, menu=GRID_MENU),
            "ac-ecbs-lazy": SolverConfig(algorithm="ac-ecbs-lazy", w=w, menu=GRID_MENU),
            "gen-ecbs": SolverConfig(algorithm="gen-ecbs", w=w, menu=GRID_MENU, seed=0),
        }
        for name, domain, c_star in oracle_suite:
            for algo, config in configs.items():
                r = solve(domain, config)
                if r.solved and r.stats.cost > w * c_star + 1e-9:
                    violations.append((name, algo, w, r.stats.cost, c_star))
        _report(
            f"2 (cost <= w*C*, w={w})",
            not violations,
            f"{len(oracle_suite)} instances x 4 solvers, violations={violations[:3]}",
        )


class TestSpineBoundOnTheOracleSuite:
    def test_rows_with_a_spine_solve_every_cell_at_the_optimum(self, oracle_suite):
        # Without the spine rule, LB stays flat on s100-045 (four rows) and
        # s300-033 (gen-cbs) until the 300-expansion cap.
        names = {name for name, _, _ in oracle_suite}
        assert {"grid-random-s100-045", "grid-random-s300-033"} <= names
        failures = []
        for name, domain, c_star in oracle_suite:
            for algo in ("ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"):
                config = SolverConfig(algorithm=algo, w=1.0, seed=0, timeout_ms=60_000, max_expansions=300)
                r = solve(domain, config)
                if not (r.solved and r.stats.cost == c_star and r.stats.lb <= c_star):
                    failures.append((name, algo, r.status, r.stats.cost, r.stats.lb, c_star))
        _report(
            "spine (w=1, 300-expansion cap)",
            not failures,
            f"{len(oracle_suite)} instances x 4 solvers, failures={failures[:5]}",
        )


class TestCriterion3CompletenessRegression:
    def test_gen_ecbs_solves_every_cbs_solvable_instance(self, oracle_suite, cbs_results):
        menus = {
            "complete-only": ConstraintMenu.complete_only(),
            "avoid+step": ConstraintMenu.of(
                MenuEntry(COMPLETE), MenuEntry("avoidance"), MenuEntry("step-priority")
            ),
            "priority": ConstraintMenu.of(MenuEntry(COMPLETE), MenuEntry("priority")),
            "all-spheres-largest": ConstraintMenu.of(
                MenuEntry(COMPLETE),
                MenuEntry("sphere", radius=1.0),
                MenuEntry("sphere", radius=2.0),
                MenuEntry("sphere", radius=3.0),
            ),
            "full": GRID_MENU,
        }
        failures = []
        for name, domain, c_star in oracle_suite:
            cbs_exp = cbs_results[name].stats.hl_expansions
            for menu_name, menu in menus.items():
                config = SolverConfig(
                    algorithm="gen-ecbs", w=1.3, menu=menu, seed=0,
                    timeout_ms=60_000, max_expansions=10 * max(cbs_exp, 10),
                )
                r = solve(domain, config)
                if not r.solved:
                    failures.append((name, menu_name))
        _report(
            "3 (completeness regression)",
            not failures,
            f"{len(oracle_suite)} instances x {len(menus)} menus, failures={failures[:5]}",
        )


class TestCriterion4Incompleteness:
    def test_hallway_swap_pp_fails_cbs_and_gen_solve(self):
        domain = hallway_domain()
        pp_failed_every_order = all(
            not solve_pp(domain, SolverConfig(pp_retries=0), order=order).solved
            for order in ((0, 1), (1, 0))
        )
        cbs_ok = solve(domain, SolverConfig(algorithm="cbs")).solved
        gen_ok = solve(domain, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=GRID_MENU, seed=0)).solved
        _report(
            "4a (hallway swap)",
            pp_failed_every_order and cbs_ok and gen_ok,
            f"pp_fails={pp_failed_every_order} cbs={cbs_ok} gen={gen_ok}",
        )

    def test_large_sphere_substitution_collapses(self):
        domain = hallway_domain()
        sub = solve(
            domain,
            SolverConfig(algorithm="ecbs-sub:sphere:3", w=1.3, timeout_ms=20_000, max_expansions=3_000),
        )
        gen = solve(
            domain,
            SolverConfig(
                algorithm="gen-ecbs", w=1.3, menu=GRID_MENU, timeout_ms=20_000, max_expansions=3_000, seed=0
            ),
        )
        _report(
            "4b (sphere(L) substitution)",
            (not sub.solved) and gen.solved,
            f"sub={sub.status} gen={gen.status}",
        )


class TestCriterion5LazyEfficiency:
    def test_lazy_and_gen_use_fewer_ll_calls(self, arm_results, arm_suite):
        common = []
        for scenario in arm_suite:
            cells = {a: arm_results[(scenario.name, a)][1] for a in ("ac-ecbs", "ac-ecbs-lazy", "gen-ecbs")}
            if all(r.solved for r in cells.values()):
                common.append(
                    (
                        scenario.name,
                        cells["ac-ecbs"].stats.ll_calls,
                        cells["ac-ecbs-lazy"].stats.ll_calls,
                        cells["gen-ecbs"].stats.ll_calls,
                    )
                )
        assert common, "no commonly solved instances"
        lazy_ok = sum(1 for _, eager, lazy, _ in common if lazy <= eager)
        gen_ok = sum(1 for _, eager, _, gen in common if gen <= eager)
        frac_lazy = lazy_ok / len(common)
        frac_gen = gen_ok / len(common)
        _report(
            "5 (lazy low-level savings)",
            frac_lazy >= 0.9 and frac_gen >= 0.9,
            f"{len(common)} common instances, lazy<=eager on {frac_lazy:.0%}, gen<=eager on {frac_gen:.0%}, "
            f"clock-stopped={clock_stopped(arm_results)}",
        )


class TestCriterion6TrendReproduction:
    def test_gen_ecbs_success_dominates(self, arm_results, arm_suite):
        success = {algo: 0 for algo in ARM_ALGOS}
        for scenario in arm_suite:
            for algo in ARM_ALGOS:
                domain, result = arm_results[(scenario.name, algo)]
                if result.solved and verify(domain, result.solution).clean:
                    success[algo] += 1
        table = " ".join(f"{a}={success[a]}/{len(arm_suite)}" for a in ARM_ALGOS)
        print(f"  trend table: {table}")
        ok = (
            success["gen-ecbs"] >= success["ecbs"]
            and success["gen-ecbs"] >= success["pp"]
            and success["gen-ecbs"] >= success["ecbs-sub:avoidance"]
        )
        _report("6 (trend directionality)", ok, f"{table} clock-stopped={clock_stopped(arm_results)}")


class TestCriterion7DTS:
    def test_cap_under_fuzzed_update_sequences(self):
        rng = random.Random(97)
        updates = 0
        while updates < 100_000:
            keys = [f"q{i}" for i in range(rng.randrange(1, 5))]
            state = DTSState(keys, seed=rng.randrange(1 << 30))
            for _ in range(rng.randrange(1, 200)):
                k = keys[rng.randrange(len(keys))]
                if rng.random() < 0.5:
                    state.reward(k)
                else:
                    state.penalize(k)
                updates += 1
                for q in keys:
                    assert state.alpha[q] + state.beta[q] <= 10.0 + 1e-12
                    assert state.alpha[q] >= 1.0 and state.beta[q] >= 1.0
        _report("7 (DTS cap)", True, f"{updates} fuzzed updates, cap held")

    def test_beta_argmax_selection_frequency(self):
        state = DTSState(
            ["strong", "weak"], prior={"strong": (9, 1), "weak": (1, 9)}, seed=1234
        )
        picks = sum(1 for _ in range(10_000) if state.sample() == "strong")
        freq = picks / 10_000
        _report("7 (DTS selection frequency)", freq > 0.95, f"freq={freq:.4f}")


class TestCriterion8Verifier:
    def test_all_solver_outputs_verify_clean(self, oracle_suite, cbs_results, arm_results):
        dirty = []
        for name, domain, _ in oracle_suite[:60]:
            r = cbs_results[name]
            if r.solved and not verify(domain, r.solution).clean:
                dirty.append(name)
        for (name, algo), (domain, r) in arm_results.items():
            if r.solved and not verify(domain, r.solution).clean:
                dirty.append(f"{name}/{algo}")
        _report("8 (solver outputs clean)", not dirty, f"dirty={dirty[:5]}")

    def test_thousand_mutations_rejected(self, oracle_suite, cbs_results):
        rng = random.Random(55)
        solved = [
            (name, domain, cbs_results[name].solution)
            for name, domain, _ in oracle_suite
            if cbs_results[name].solved and max(len(p) for p in cbs_results[name].solution) >= 2
        ]
        rejected = 0
        attempted = 0
        while attempted < 1000:
            name, domain, solution = solved[rng.randrange(len(solved))]
            paths = sorted(solution, key=lambda p: p.agent)
            kind = rng.randrange(3)
            a = rng.randrange(len(paths))
            p = paths[a]
            if kind == 0 and len(paths) > 1:
                # copy another agent's configuration: forced vertex conflict
                b = (a + 1) % len(paths)
                t = rng.randrange(max(len(p) - 1, 1)) + 1 if len(p) > 1 else 0
                steps = list(p.steps) + [p.steps[-1]] * max(0, t + 1 - len(p.steps))
                steps[t] = paths[b].at(t)
                mutated = Path(p.agent, tuple(steps))
            elif kind == 1 and len(p) >= 3:
                # teleport: invalid transition
                t = rng.randrange(1, len(p) - 1)
                steps = list(p.steps)
                q = steps[t]
                steps[t] = Configuration((q.coords[0] + 2, q.coords[1] + 2))
                mutated = Path(p.agent, tuple(steps))
            else:
                # chop the goal arrival: endpoint violation
                if len(p) < 2:
                    continue
                mutated = Path(p.agent, p.steps[:-1])
            attempted += 1
            candidate = list(paths)
            candidate[a] = mutated
            if not verify(domain, candidate).clean:
                rejected += 1
        _report("8 (mutations rejected)", rejected == attempted == 1000, f"{rejected}/{attempted}")


class TestCriterion9SphereCompleteness:
    def _facing_arms(self):
        arms = [
            ArmSpec(base=(0.0, 0.0), link_lengths=(1.2, 1.0), joint_limits=((-2, 8), (-6, 6)), thickness=0.08),
            ArmSpec(base=(3.0, 0.0), link_lengths=(1.2, 1.0), joint_limits=((4, 14), (-6, 6)), thickness=0.08),
        ]
        return PlanarArmDomain(
            arms, [], 0.2617993877991494, [C(0, 0), C(12, 0)], [C(0, 0), C(12, 0)]
        )

    def test_grid_point_constraints_exhaustively_disjunctive(self):
        domain = GridDomain(6, 6, [(2, 2)], [C(0, 0), C(5, 5)], [C(5, 0), C(0, 5)])
        conflict = Conflict(
            kind="vertex", agents=(0, 1), time=2,
            configs_i=(C(3, 3),), configs_j=(C(3, 3),), point=(3.5, 3.5),
        )
        from genecbs.core import Constraint

        c_i = Constraint(agent=0, ctype="sphere", time=2, point=(3.5, 3.5), radius=0.0)
        c_j = Constraint(agent=1, ctype="sphere", time=2, point=(3.5, 3.5), radius=0.0)
        out = mutually_disjunctive_check(c_i, c_j, domain)
        _report("9 (grid point constraints)", out.confirmed, "exhaustive sweep")

    def test_arm_sampling_r0_complete_r_positive_incomplete(self):
        domain = self._facing_arms()
        from genecbs.core import Constraint

        point = (1.5, 0.9)
        r0_i = Constraint(agent=0, ctype="sphere", time=0, point=point, radius=0.0)
        r0_j = Constraint(agent=1, ctype="sphere", time=0, point=point, radius=0.0)
        zero = mutually_disjunctive_check(r0_i, r0_j, domain)
        positive_found = {}
        for radius in (0.12, 0.36, 0.72):
            c_i = Constraint(agent=0, ctype="sphere", time=0, point=point, radius=radius)
            c_j = Constraint(agent=1, ctype="sphere", time=0, point=point, radius=radius)
            out = mutually_disjunctive_check(c_i, c_j, domain)
            positive_found[radius] = not out.confirmed
        ok = zero.confirmed and all(positive_found.values())
        _report(
            "9 (arm sampling)",
            ok,
            f"r=0 confirmed={zero.confirmed}, counterexamples={positive_found}",
        )


class TestCriterion10Determinism:
    def test_repeated_solve_byte_identical(self, tmp_path):
        from genecbs.cli import main as cli_main

        scen_dir = tmp_path / "scen"
        scen_dir.mkdir()
        grid_scenario = Scenario(
            name="det-grid",
            seed=5,
            domain_obj={
                "type": "grid", "width": 5, "height": 2,
                "blocked": [[0, 0], [1, 0], [3, 0], [4, 0]], "substeps": 4,
            },
            agents=[(C(0, 1), C(4, 1)), (C(4, 1), C(0, 1))],
            solver=SolverConfig(algorithm="gen-ecbs", w=1.3, seed=0),
        )
        arm_scenario = generate_instances("arm-quad", 1, seed=3)[0]
        outcomes = []
        for scenario in (grid_scenario, arm_scenario):
            f = scen_dir / f"{scenario.name}.json"
            scenario.save(f)
            blobs = []
            for rep in range(2):
                out = tmp_path / f"{scenario.name}-{rep}.json"
                # Expansion-capped so even unsolved outcomes are a pure
                # function of the inputs, never of wall-clock jitter.
                cli_main(
                    [
                        "solve", str(f), "--algo", "gen-ecbs", "--seed", "11",
                        "--max-expansions", "300", "--timeout-ms", "120000",
                        "--out", str(out),
                    ]
                )
                blobs.append(out.read_bytes())
            outcomes.append(blobs[0] == blobs[1])
        _report("10 (determinism)", all(outcomes), f"grid+arm byte-identical={outcomes}")


# (algorithm, w) cells checked against the joint-space optimum on arms.
ARM_PAIR_CELLS = (
    ("cbs", 1.0), ("gen-cbs", 1.0), ("gen-ecbs", 1.0),
    ("ecbs", 1.3), ("ac-ecbs", 1.3), ("gen-ecbs", 1.3),
)


class TestArmPairOracle:
    def test_costs_and_bounds_against_the_joint_optimum(self):
        # Every drawn instance is kept. The 100-expansion cap binds long
        # before the clock, so which cells end capped does not depend on the
        # machine; a capped cell is listed, and its lb is still checked.
        violations, capped = [], []
        for scenario in generate_instances("arm-pair", 20, seed=2):
            domain = scenario.build_domain()
            opt = composite_optimal_cost(domain)
            assert opt is not None, scenario.name
            for algo, w in ARM_PAIR_CELLS:
                config = SolverConfig(algorithm=algo, w=w, max_expansions=100, timeout_ms=600_000, seed=0)
                r = solve(domain, config)
                cell = f"{scenario.name}/{algo}@{w}"
                lb, cost = r.stats.lb, r.stats.cost
                if lb is None or lb > opt:
                    violations.append(f"{cell}: lb {lb} > OPT {opt:g}")
                if not r.solved:
                    if r.stats.stopped_by != "cap":
                        violations.append(f"{cell}: {r.status} stopped by {r.stats.stopped_by}")
                    capped.append(f"{cell} lb {lb:g}/OPT {opt:g}")
                    continue
                if algo in ("cbs", "gen-cbs") and cost != opt:
                    violations.append(f"{cell}: cost {cost:g} != OPT {opt:g}")
                if cost > w * opt:
                    violations.append(f"{cell}: cost {cost:g} > {w} x OPT {opt:g}")
                if not verify(domain, r.solution).clean:
                    violations.append(f"{cell}: verify found conflicts")
        detail = f"{len(violations)} violations {violations[:3]}, capped {len(capped)}/{20 * len(ARM_PAIR_CELLS)}"
        _report("arm-pair oracle", not violations, f"{detail}: {', '.join(capped)}")
