import hashlib
import random

import pytest

from genecbs.bench import generate_instances
from genecbs.constraints import COMPLETE, ConstraintMenu, MenuEntry, default_menu
from genecbs.core import Configuration, Path, canonical_json, sum_of_costs
from genecbs.domain import ArmSpec, GridDomain, PlanarArmDomain
from genecbs.highlevel import (
    DTSState,
    SolverConfig,
    _CTEngine,
    find_conflicts,
    resolve_prior,
    solve,
    solve_pp,
)

from oracles import composite_optimal_cost


def C(*coords):
    return Configuration(tuple(coords))


def grid(width, height, blocked, starts, goals):
    return GridDomain(width, height, blocked, [C(*s) for s in starts], [C(*g) for g in goals])


def hallway_swap():
    return grid(5, 2, [(0, 0), (1, 0), (3, 0), (4, 0)], [(0, 1), (4, 1)], [(4, 1), (0, 1)])


def open_swap_corridor():
    # 3x3 free block: two agents crossing diagonally opposite corners.
    return grid(3, 3, [], [(0, 0), (2, 2)], [(2, 2), (0, 0)])


FULL_GRID_MENU = ConstraintMenu.of(
    MenuEntry(COMPLETE),
    MenuEntry("avoidance"),
    MenuEntry("step-priority"),
    MenuEntry("sphere", radius=1.0),
    MenuEntry("sphere", radius=2.0),
)


class TestFindConflicts:
    def test_disjoint_paths(self):
        d = grid(5, 5, [], [(0, 0), (0, 4)], [(4, 0), (4, 4)])
        p0 = Path(0, tuple(C(x, 0) for x in range(5)))
        p1 = Path(1, tuple(C(x, 4) for x in range(5)))
        assert find_conflicts([p0, p1], d) == ()

    def test_single_vertex_conflict(self):
        d = grid(5, 5, [], [(0, 2), (4, 2)], [(4, 2), (0, 2)])
        p0 = Path(0, tuple(C(x, 2) for x in (0, 1, 2)))
        p1 = Path(1, tuple(C(x, 2) for x in (4, 3, 2)))
        conflicts = find_conflicts([p0, p1], d)
        assert len(conflicts) == 1
        c = conflicts[0]
        assert c.kind == "vertex" and c.time == 2 and c.agents == (0, 1)
        assert c.point == (2.5, 2.5)

    def test_goal_padding_creates_conflicts(self):
        d = grid(5, 1, [], [(0, 0), (4, 0)], [(2, 0), (0, 0)])
        p0 = Path(0, (C(0, 0), C(1, 0), C(2, 0)))  # parks at (2,0) from t=2
        p1 = Path(1, tuple(C(x, 0) for x in (4, 3, 2, 1, 0)))
        conflicts = find_conflicts([p0, p1], d)
        assert any(c.kind == "vertex" and c.time == 2 for c in conflicts)

    def test_incremental_reuse_matches_full_scan(self):
        d = grid(4, 4, [], [(0, 0), (3, 3), (0, 3)], [(3, 0), (0, 0), (3, 3)])
        rng = random.Random(0)

        def random_path(agent, start):
            q = C(*start)
            steps = [q]
            for _ in range(6):
                succ = d.successors(agent, steps[-1])
                steps.append(succ[rng.randrange(len(succ))][0])
            return Path(agent, tuple(steps))

        paths = [random_path(a, s) for a, s in enumerate(((0, 0), (3, 3), (0, 3)))]
        base = find_conflicts(paths, d)
        new_paths = list(paths)
        new_paths[1] = random_path(1, (3, 3))
        full = find_conflicts(new_paths, d)
        reused = find_conflicts(new_paths, d, known=base, replanned=[1])
        assert full == reused

        # Random 4-6-agent path sets of unequal lengths (goal padding), with
        # one to three agents replanned, against a full recompute.
        wide = grid(5, 5, [], [(0, 0)] * 6, [(4, 4)] * 6)

        def walk(agent):
            steps = [C(rng.randrange(5), rng.randrange(5))]
            for _ in range(rng.randint(0, 8)):
                succ = wide.successors(agent, steps[-1])
                steps.append(succ[rng.randrange(len(succ))][0])
            return Path(agent, tuple(steps))

        copied = 0
        for _ in range(80):
            n = rng.randint(4, 6)
            paths = [walk(a) for a in range(n)]
            base = find_conflicts(paths, wide)
            replanned = rng.sample(range(n), rng.randint(1, 3))
            new_paths = [walk(a) if a in replanned else p for a, p in enumerate(paths)]
            full = find_conflicts(new_paths, wide)
            assert find_conflicts(new_paths, wide, known=base, replanned=replanned) == full
            copied += sum(c.agents[0] not in replanned and c.agents[1] not in replanned for c in full)
        assert copied > 0


class TestCBS:
    def test_conflict_free_root_returns_without_expansion(self):
        d = grid(5, 5, [], [(0, 0), (0, 4)], [(4, 0), (4, 4)])
        r = solve(d, SolverConfig(algorithm="cbs"))
        assert r.solved and r.stats.hl_expansions == 0
        assert r.stats.cost == 8.0

    def test_swap_corridor_matches_joint_oracle(self):
        d = open_swap_corridor()
        oracle = composite_optimal_cost(d)
        r = solve(d, SolverConfig(algorithm="cbs"))
        assert r.solved
        assert r.stats.cost == oracle
        assert sum_of_costs(r.solution, d) == oracle

    def test_random_instances_match_oracle(self):
        rng = random.Random(11)
        solved = 0
        for _ in range(25):
            blocked = [(rng.
randrange(5), rng.randrange(5)) for _ in range(3)]
            cells = [(x, y) for x in range(5) for y in range(5) if (x, y) not in blocked]
            picks = rng.sample(cells, 4)
            try:
                d = grid(5, 5, blocked, picks[:2], picks[2:])
                d.validate_instance()
            except ValueError:
                continue
            oracle = composite_optimal_cost(d)
            if oracle is None:
                continue
            r = solve(d, SolverConfig(algorithm="cbs", timeout_ms=20_000))
            assert r.solved, "oracle-solvable instance must be CBS-solvable"
            assert r.stats.cost == oracle
            solved += 1
        assert solved >= 15


class TestECBS:
    def test_w1_matches_cbs_cost(self):
        d = open_swap_corridor()
        cbs = solve(d, SolverConfig(algorithm="cbs"))
        ecbs = solve(d, SolverConfig(algorithm="ecbs", w=1.0))
        assert ecbs.solved and ecbs.stats.cost == cbs.stats.cost

    def test_bound_respected(self):
        d = hallway_swap()
        optimum = solve(d, SolverConfig(algorithm="cbs")).stats.cost
        for w in (1.0, 1.3, 1.5):
            r = solve(d, SolverConfig(algorithm="ecbs", w=w))
            assert r.solved
            assert r.stats.cost <= w * optimum + 1e-9


class TestPP:
    def test_independent_agents_get_optimal_paths(self):
        d = grid(5, 5, [], [(0, 0), (0, 4)], [(4, 0), (4, 4)])
        r = solve_pp(d, SolverConfig())
        assert r.solved and r.stats.cost == 8.0

    def test_hallway_swap_fails_for_every_order(self):
        d = hallway_swap()
        for order in ((0, 1), (1, 0)):
            r = solve_pp(d, SolverConfig(pp_retries=0), order=order)
            assert not r.solved

    def test_solvable_with_yielding(self):
        # Crossing paths where the second agent can simply wait.
        d = grid(3, 3, [], [(0, 1), (1, 0)], [(2, 1), (1, 2)])
        r = solve_pp(d, SolverConfig(pp_retries=2))
        assert r.solved
        assert find_conflicts(r.solution, d) == ()


class TestACECBS:
    def test_complete_only_equals_ecbs(self):
        d = hallway_swap()
        a = solve(d, SolverConfig(algorithm="ecbs", w=1.3))
        b = solve(d, SolverConfig(algorithm="ac-ecbs", w=1.3, menu=ConstraintMenu.complete_only()))
        assert a.stats.cost == b.stats.cost

    def test_bound_with_full_menu(self):
        d = hallway_swap()
        optimum = solve(d, SolverConfig(algorithm="cbs")).stats.cost
        for algo in ("ac-ecbs", "ac-ecbs-lazy"):
            r = solve(d, SolverConfig(algorithm=algo, w=1.3, menu=FULL_GRID_MENU))
            assert r.solved
            assert r.stats.cost <= 1.3 * optimum + 1e-9

    def test_lazy_uses_no_more_ll_calls(self):
        d = hallway_swap()
        eager = solve(d, SolverConfig(algorithm="ac-ecbs", w=1.3, menu=FULL_GRID_MENU))
        lazy = solve(d, SolverConfig(algorithm="ac-ecbs-lazy", w=1.3, menu=FULL_GRID_MENU))
        assert eager.solved and lazy.solved
        assert lazy.stats.ll_calls <= eager.stats.ll_calls


class TestGenECBS:
    def test_conflict_free_root_leaves_dts_untouched(self):
        d = grid(5, 5, [], [(0, 0), (0, 4)], [(4, 0), (4, 4)])
        r = solve(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU))
        assert r.solved and r.stats.hl_expansions == 0
        assert all(n == 0 for _, n in r.stats.dts_rewards)
        assert all(n == 0 for _, n in r.stats.dts_penalties)

    def test_root_expansion_generates_all_lazy_children(self):
        # Two incomplete types -> 6 children, all pending until selected.
        d = hallway_swap()
        menu = ConstraintMenu.of(
            MenuEntry(COMPLETE), MenuEntry("avoidance"), MenuEntry("sphere", radius=1.0)
        )
        engine = _CTEngine(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=menu, seed=0))
        root = engine._make_root()
        assert root is not None and not root.agents_replan
        children = engine._children(root)
        assert len(children) == 6
        assert all(len(ch.agents_replan) == 1 for ch in children)
        assert all(ch.cost == root.cost and ch.conflicts == root.conflicts for ch in children)
        types = [ch.constraints[-1].menu_key() for ch in children]
        assert types == ["complete", "complete", "avoidance", "avoidance", "sphere:1", "sphere:1"]

    def test_bound_and_solution(self):
        d = hallway_swap()
        optimum = solve(d, SolverConfig(algorithm="cbs")).stats.cost
        for w in (1.0, 1.3, 1.5):
            r = solve(d, SolverConfig(algorithm="gen-ecbs", w=w, menu=FULL_GRID_MENU, seed=3))
            assert r.solved
            assert find_conflicts(r.solution, d) == ()
            assert r.stats.cost <= w * optimum + 1e-9

    def test_gen_cbs_is_optimal(self):
        d = open_swap_corridor()
        oracle = composite_optimal_cost(d)
        r = solve(d, SolverConfig(algorithm="gen-cbs", menu=FULL_GRID_MENU))
        assert r.solved and r.stats.cost == oracle

    def test_determinism_with_seed(self):
        d = hallway_swap()
        a = solve(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU, seed=9))
        b = solve(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU, seed=9))
        assert a.solution == b.solution
        assert a.stats.dts_rewards == b.stats.dts_rewards
        assert a.stats.hl_expansions == b.stats.hl_expansions

    def test_rho_density_tiebreaker_range(self):
        d = hallway_swap()
        engine = _CTEngine(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU, seed=0))
        root = engine._make_root()
        engine._insert(root)
        children = engine._children(root)
        # root has no constraints: rho defined as 1
        key = engine._f_key(root, "avoidance")
        assert key[-2] == 1.0
        for ch in children:
            for k in engine.queue_keys:
                if k == COMPLETE:
                    continue
                rho = engine._f_key(ch, k)[-2]
                assert 0.0 <= rho <= 1.0
        incomplete = [k for k in engine.queue_keys if k != COMPLETE]
        for ch in children:
            total_incomplete_share = sum(
                1.0 - engine._f_key(ch, k)[-2] for k in incomplete
            )
            expected = sum(
                1 for c in ch.constraints if c.menu_key() != COMPLETE
            ) / len(ch.constraints)
            assert total_incomplete_share == pytest.approx(expected)


class TestSubstitutionMode:
    def test_large_sphere_fails_where_gen_solves(self):
        d = hallway_swap()
        sub = solve(d, SolverConfig(algorithm="ecbs-sub:sphere:3", w=1.3, max_expansions=3000))
        gen = solve(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU))
        assert not sub.solved
        assert gen.solved

    def test_complete_entry_rejected(self):
        d = hallway_swap()
        with pytest.raises(ValueError):
            solve(d, SolverConfig(algorithm="ecbs-sub:complete", w=1.3))


class TestDTS:
    def test_seeded_selection_sequence_reproducible(self):
        a = DTSState(["x", "y"], seed=5)
        b = DTSState(["x", "y"], seed=5)
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]

    def test_cap_enforced_under_repeated_rewards(self):
        s = DTSState(["x", "y"], cap=10.0, seed=0)
        for _ in range(8):
            s.reward("x")
            assert s.alpha["x"] + s.beta["x"] <= 10.0 + 1e-12
            assert s.alpha["x"] >= 1.0 and s.beta["x"] >= 1.0

    def test_cap_fuzz(self):
        rng = random.Random(123)
        for trial in range(1000):
            s = DTSState(["a", "b", "c"], cap=10.0, seed=trial)
            for _ in range(100):
                k = ("a", "b", "c")[rng.randrange(3)]
                if rng.random() < 0.5:
                    s.reward(k)
                else:
                    s.penalize(k)
                for q in ("a", "b", "c"):
                    assert s.alpha[q] + s.beta[q] <= 10.0 + 1e-12
                    assert s.alpha[q] >= 1.0 and s.beta[q] >= 1.0

    def test_selection_frequency_beta_9_1_vs_1_9(self):
        s = DTSState(["strong", "weak"], cap=10.0, prior={"strong": (9, 1), "weak": (1, 9)}, seed=42)
        picks = sum(1 for _ in range(10_000) if s.sample() == "strong")
        assert picks / 10_000 > 0.95

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            DTSState(["a"], prior={"b": (2, 1)})
        with pytest.raises(ValueError):
            DTSState(["a"], prior={"a": (0.5, 1)})


def quad_link_arms():
    # The arm-quad link lengths: the default menu's small sphere is 0.105.
    arms = [
        ArmSpec(base=(0.0, 0.0), link_lengths=(1.05, 0.85), joint_limits=((-1, 7), (-6, 6)), thickness=0.12),
        ArmSpec(base=(3.0, 0.0), link_lengths=(1.05, 0.85), joint_limits=((5, 13), (-6, 6)), thickness=0.12),
    ]
    return PlanarArmDomain(arms, [], 0.2617993877991494, [C(0, 0), C(12, 0)], [C(2, 0), C(10, 0)])


class TestPriorResolution:
    def test_sphere_keys_resolve_by_radius_on_arm_menu(self):
        menu = default_menu(quad_link_arms())
        assert "sphere:0.105" in menu.keys
        for key in ("sphere:0.11", "sphere:S", "sphere(S)", "sphere:0.105"):
            assert resolve_prior({key: (3.0, 1.0)}, menu) == {"sphere:0.105": (3.0, 1.0)}
        assert resolve_prior({"sphere:L": (2.0, 1.0)}, menu) == {"sphere:0.63": (2.0, 1.0)}

    def test_engine_applies_resolved_prior(self):
        d = quad_link_arms()
        engine = _CTEngine(
            d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=default_menu(d), dts_prior={"sphere:0.11": (3.0, 1.0)})
        )
        assert (engine.dts.alpha["sphere:0.105"], engine.dts.beta["sphere:0.105"]) == (3.0, 1.0)

    def test_unknown_keys_still_raise(self):
        d = quad_link_arms()
        with pytest.raises(ValueError):
            _CTEngine(d, SolverConfig(algorithm="gen-ecbs", w=1.0, menu=default_menu(d), dts_prior={"bogus": (2.0, 1.0)}))
        with pytest.raises(ValueError):
            _CTEngine(
                d,
                SolverConfig(
                    algorithm="gen-ecbs", w=1.0, menu=ConstraintMenu.complete_only(), dts_prior={"sphere:S": (2.0, 1.0)}
                ),
            )
        with pytest.raises(ValueError):
            resolve_prior({"sphere:S": (2.0, 1.0), "sphere:0.1": (3.0, 1.0)}, default_menu(d))


class TestFocalSoundness:
    def test_selected_nodes_within_bound(self):
        # The engine asserts cost <= w * min_lb at every focal pop; run a
        # conflict-heavy instance to exercise it.
        d = grid(4, 4, [], [(0, 0), (3, 0), (0, 3)], [(3, 3), (0, 3), (3, 0)])
        for algo in ("ecbs", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs"):
            r = solve(d, SolverConfig(algorithm=algo, w=1.3, menu=FULL_GRID_MENU, seed=1))
            assert r.solved

    def test_lazy_nodes_never_expanded_unevaluated(self):
        d = open_swap_corridor()
        engine = _CTEngine(d, SolverConfig(algorithm="gen-ecbs", w=1.3, menu=FULL_GRID_MENU, seed=0))
        original = engine._children

        def guarded(node):
            assert not node.agents_replan, "expanded node must be evaluated"
            return original(node)

        engine._children = guarded
        r = engine.run()
        assert r.status == "solved"


# sha256 of canonical_json(result.to_obj(include_runtime=False)) for each
# algorithm name, recorded with the per-algorithm solver functions that the
# PRESETS table replaced.
PRESET_DIGESTS = {
    ("hallway", "cbs"): "3853fa34247ab5ca85ecd3db31d5afd7844e7cbc246ae182d25229e93faf7d6d",
    ("hallway", "ecbs"): "94f7af91720e587000501693582d95cfce5d8786ecff4e4b7157498eaeae2e59",
    ("hallway", "pp"): "72a23b328b1ed53945a79faaf15c3ca41aeaf2bd668615c4e7f25f833cac6956",
    ("hallway", "ac-ecbs"): "dbbff72afa29a0c8ab61e1748824009aee0366d748696fc5ae266476676dce23",
    ("hallway", "ac-ecbs-lazy"): "f7de03fa52c3a27647c5553e726c3104f7ebbc1eb09436a9b36fec60642d026a",
    ("hallway", "gen-ecbs"): "da8a60b993991473555794fa08d17f88b28c476ef2cb56510a7209e070ae47b4",
    ("hallway", "gen-cbs"): "269ebec501f815348a160a391ed64786f723f7b3a3e1bf127f67f18cb5cb342e",
    ("hallway", "ecbs-sub:avoidance"): "cd7eb454a6fbec199da51a3307242816df813d39167c98ad1cad10f0bad0c468",
    ("arm-pair-s1-002", "cbs"): "f9fc822f0198498438a82a343ad71bf74410d7f88914903b86a33e0d9b51d40d",
    ("arm-pair-s1-002", "ecbs"): "b420b78d1537b515704017df306792410273eabf1dcbdb0d3ef6f664133e01f5",
    ("arm-pair-s1-002", "pp"): "d39358ac9e38794260331eca0fe607c754ae51a0b943370c0b891eacdc254544",
    ("arm-pair-s1-002", "ac-ecbs"): "b8f429ce67c835905216e52d07578bacfd462d865e3274a747f084f68ff24c5c",
    ("arm-pair-s1-002", "ac-ecbs-lazy"): "0a1c21dea3a5c4d1c904c72bee79ebb565ce0365e5d1c0911b4c2092cfc9f13a",
    ("arm-pair-s1-002", "gen-ecbs"): "272cfd0d657aa9c2c7150796a371f3532cdbbcb39bb817566e073bcff7b5e6b4",
    ("arm-pair-s1-002", "gen-cbs"): "e1acdf96c45a7f814b54b0db2f0167528a3ceaada67a19482559ec48a4c89434",
    ("arm-pair-s1-002", "ecbs-sub:avoidance"): "7482512300f9c012b6686fe9a334fcabee07ae1af1edbce5b7adb0becacd729a",
}


class TestPresetParity:
    @pytest.fixture(scope="class")
    def domains(self):
        return {
            "hallway": hallway_swap(),
            "arm-pair-s1-002": generate_instances("arm-pair", 3, seed=1)[2].build_domain(),
        }

    @pytest.mark.parametrize(
        "algo", ["cbs", "ecbs", "pp", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs", "ecbs-sub:avoidance"]
    )
    def test_results_match_recorded_digests(self, domains, algo):
        # The prior must reach the multi-queue rows only.
        config = SolverConfig(
            algorithm=algo, w=1.3, seed=7, timeout_ms=600_000.0, max_expansions=10,
            dts_prior={"sphere:S": (3.0, 1.0)},
        )
        for name, d in domains.items():
            r = solve(d, config)
            digest = hashlib.sha256(canonical_json(r.to_obj(include_runtime=False)).encode()).hexdigest()
            assert digest == PRESET_DIGESTS[(name, algo)], name

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(ValueError, match="gen-ecbs.*pp.*ecbs-sub"):
            solve(hallway_swap(), SolverConfig(algorithm="gen-ecsb"))


# sha256 of canonical_json(result.to_obj(include_runtime=False)) on
# grid-random-s7-000 (10x10, 14 agents), recorded while focal conflicts were
# still counted by a loop over every other path for every successor.
CROWD_DIGESTS = {
    "cbs": "f4d7e8764dfbe5dddab12266cd341f9c28ffba534104ac9b615a6e2e5b58f7f6",
    "ecbs": "c0d8e153a0012bc306d0c6629cf1b011cf2e57d53734a84fd8b78ef06e0235b9",
    "pp": "6bfbefb5e2b588cd6c6689138f9fa0bbe4dfd6da3929639a204935cdd9464207",
    "ac-ecbs": "f64a3d8f5f88d0880a4bfba08714c138f33dee151d26c1b3acae8bf987aec6d6",
    "ac-ecbs-lazy": "eef575fb337d9cf183643da19a680eb31875434018ea92d9db8e551bcb837d25",
    "gen-ecbs": "18c9fe344c45d55ebc2b433309136b87814d1a0297e6dbb526a06155b05234cf",
    "gen-cbs": "c706edb244f0542cb846e2e3ac0b4c71d5b5278b823a1017c5546104fa8341d9",
    "ecbs-sub:avoidance": "6545ddcfa0f3c5828913eca1ebfc07cd02451f27ee8a38b5d2a3fa9377ef6552",
}


class TestCrowdParity:
    """Many other paths per low-level call, which the two-agent parity
    domains above never reach."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return generate_instances(
            "grid-random", 1, seed=7,
            params={"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15},
        )[0]

    @pytest.mark.parametrize("algo", sorted(CROWD_DIGESTS))
    def test_results_match_recorded_digests(self, scenario, algo):
        config = SolverConfig(
            algorithm=algo, w=1.3, seed=7, timeout_ms=600_000.0, max_expansions=10,
            dts_prior={"sphere:S": (3.0, 1.0)},
        )
        r = solve(scenario.build_domain(), config)
        digest = hashlib.sha256(canonical_json(r.to_obj(include_runtime=False)).encode()).hexdigest()
        assert digest == CROWD_DIGESTS[algo]
