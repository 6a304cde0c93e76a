import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import genecbs
from genecbs import highlevel, lowlevel
from genecbs.bench import cell_seed, generate_instances
from genecbs.cli import main as cli_main
from genecbs.constraints import COMPLETE, ConstraintMenu, MenuEntry, default_menu
from genecbs.core import Configuration, Path, SolverResult, canonical_json, menu_key, sum_of_costs
from genecbs.lowlevel import ConstraintContext
from genecbs.domain import ArmSpec, GridDomain, PlanarArmDomain, index_l1
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


def entry_key(c):
    """Key of the menu entry constraint `c` came from."""
    return menu_key(COMPLETE if c.ctype in ("vertex", "edge") else c.ctype, c.radius)


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
                steps.append(succ[rng.randrange(len(succ))])
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
                steps.append(succ[rng.randrange(len(succ))])
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
        types = [entry_key(ch.constraints[-1]) for ch in children]
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

        def rho(node, k):
            return dict(zip(engine.queue_keys, engine._focal_keys(node)))[k][-2]

        # root has no constraints: rho defined as 1
        assert rho(root, "avoidance") == 1.0
        for ch in children:
            for k in engine.queue_keys:
                if k == COMPLETE:
                    continue
                assert 0.0 <= rho(ch, k) <= 1.0
        incomplete = [k for k in engine.queue_keys if k != COMPLETE]
        for ch in children:
            total_incomplete_share = sum(
                1.0 - rho(ch, k) for k in incomplete
            )
            expected = sum(
                1 for c in ch.constraints if entry_key(c) != COMPLETE
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
        s = DTSState(["x", "y"], seed=0)
        for _ in range(8):
            s.reward("x")
            assert s.alpha["x"] + s.beta["x"] <= 10.0 + 1e-12
            assert s.alpha["x"] >= 1.0 and s.beta["x"] >= 1.0

    def test_cap_fuzz(self):
        rng = random.Random(123)
        for trial in range(1000):
            s = DTSState(["a", "b", "c"], seed=trial)
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
        s = DTSState(["strong", "weak"], prior={"strong": (9, 1), "weak": (1, 9)}, seed=42)
        picks = sum(1 for _ in range(10_000) if s.sample() == "strong")
        assert picks / 10_000 > 0.95

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            DTSState(["a"], prior={"b": (2, 1)})
        with pytest.raises(ValueError):
            DTSState(["a"], prior={"a": (0.5, 1)})

    @pytest.mark.parametrize("prior", [(math.nan, 1), (1, math.nan), (math.inf, 1), (1e308, 1e308)])
    def test_prior_must_be_finite(self, prior):
        # NaN hangs `betavariate`, and an infinite sum makes the cap's
        # rescale fail inside `gammavariate`.
        with pytest.raises(ValueError, match=r"DTS prior for 'b' must be two numbers >= 1 with a finite sum"):
            DTSState(["a", "b"], prior={"b": prior})


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


# sha256 of canonical_json(result.to_obj()) for each
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
            digest = hashlib.sha256(canonical_json(r.to_obj()).encode()).hexdigest()
            assert digest == PRESET_DIGESTS[(name, algo)], name

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(ValueError, match="gen-ecbs.*pp.*ecbs-sub"):
            solve(hallway_swap(), SolverConfig(algorithm="gen-ecsb"))


# sha256 of canonical_json(result.to_obj()) on
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
        digest = hashlib.sha256(canonical_json(r.to_obj()).encode()).hexdigest()
        assert digest == CROWD_DIGESTS[algo]


# sha256 of canonical_json(result.to_obj()) on trees deep
# enough that many low-level requests repeat within a solve (300-expansion
# cap, default menu, no prior, `cell_seed` seeds), recorded before the engine
# answered repeated requests from its per-solve memo, and before it had the
# spine rule: they hold with `SPINE_STALL` out of reach. They were recorded
# while arms planned on the joint-index L1 distance (`index_l1`), and hold
# with the arm heuristic set to it.
DEEP_DIGESTS = {
    ("grid-random-s300-018", "cbs"): "57842b802b29fcc48ee7328c6739d5a2a39280d66995b64c2614fa2c577c37f6",
    ("grid-random-s300-018", "ecbs"): "57842b802b29fcc48ee7328c6739d5a2a39280d66995b64c2614fa2c577c37f6",
    ("grid-random-s300-018", "ac-ecbs"): "709088524cb35df67b09fcb9453c9a45b004297dc9c7bec8d7096e7d1dbc9448",
    ("grid-random-s300-018", "ac-ecbs-lazy"): "709088524cb35df67b09fcb9453c9a45b004297dc9c7bec8d7096e7d1dbc9448",
    ("grid-random-s300-018", "gen-ecbs"): "c6fb0d9913f1af4367e46987b6a5a509147d6305c03e4c11479cd3d2cfe28c71",
    ("grid-random-s300-018", "gen-cbs"): "ec9b794f03ba1db506b47b1acc6ee4d5701c18980115d32827c6909bf3b0725a",
    ("arm-quad-s2024-000", "ecbs"): "f700559cd73259121365cac25144a63b902ed196f7acee606239612061440c9a",
    ("arm-quad-s2024-010", "ecbs"): "f06cf2f66540dc292161086e4524273d4b008ca99cde135414d5ffce6d8c7401",
}

# The same digests under the default `SPINE_STALL`, where they differ: the
# spine rule turns on for these rows and each ends with fewer expansions.
SPINE_DIGESTS = {
    ("grid-random-s300-018", "ac-ecbs"): "7182cf0c08bc863bbc764411c49bf91985b3f4362cff015d0b8494e048fc8364",
    ("grid-random-s300-018", "ac-ecbs-lazy"): "0700cf38309fa3fa3c0066da20c2318f511fdfe62cbe45715630415e009b215b",
    ("grid-random-s300-018", "gen-ecbs"): "e131c8c75ce50db354a8d6318a645a99d2dd76f0d88ed1c9cf1ab9858c957d2f",
    ("grid-random-s300-018", "gen-cbs"): "619a15185ee6532a25969ae5639fbb54eaf4e47e90e088e3461293eeb3c5b042",
}

# The arm rows under the arm's own heuristic, its exact-distance table.
TABLE_DIGESTS = {
    ("arm-quad-s2024-000", "ecbs"): "636f88b471e6e1c4f94ecf9265c27bc5b1b2effc65274e2d361763690634e643",
    ("arm-quad-s2024-010", "ecbs"): "c993406249cadf49c422361eaf015f575e22b286d67ccd8aced190d84f08150e",
}

GRID_S300 = {"width": 5, "height": 5, "n_agents": 3, "obstacle_density": 0.12}
GRID_S100 = {"width": 5, "height": 5, "n_agents": 2, "obstacle_density": 0.12}


@pytest.fixture(scope="module")
def deep_scenarios():
    grid_s300 = generate_instances("grid-random", 19, seed=300, params=GRID_S300)[18]
    arms = generate_instances("arm-quad", 11, seed=2024)
    return {s.name: s for s in (grid_s300, arms[0], arms[10])}


def deep_config(scenario, algo):
    """The oracle suite's w = 1.0 on grids, the arm suite's 1.3 on arms."""
    w = 1.0 if scenario.name.startswith("grid") else 1.3
    return SolverConfig(
        algorithm=algo, w=w, seed=cell_seed(scenario, algo), timeout_ms=600_000.0, max_expansions=300
    )


def plan_arms_on_l1(monkeypatch):
    monkeypatch.setattr(PlanarArmDomain, "heuristic", staticmethod(index_l1))


class TestDeepTreeParity:
    @pytest.mark.parametrize("name,algo", sorted(DEEP_DIGESTS))
    def test_results_match_recorded_digests(self, deep_scenarios, monkeypatch, name, algo):
        # A spine rule that never turns on leaves every byte as it was.
        monkeypatch.setattr(highlevel, "SPINE_STALL", math.inf)
        plan_arms_on_l1(monkeypatch)
        scenario = deep_scenarios[name]
        r = solve(scenario.build_domain(), deep_config(scenario, algo))
        digest = hashlib.sha256(canonical_json(r.to_obj()).encode()).hexdigest()
        assert digest == DEEP_DIGESTS[(name, algo)]
        assert r.stats.spine_pops == 0

    @pytest.mark.parametrize("name,algo", sorted(DEEP_DIGESTS))
    def test_default_spine_rule_matches_recorded_digests(self, deep_scenarios, monkeypatch, name, algo):
        plan_arms_on_l1(monkeypatch)
        scenario = deep_scenarios[name]
        r = solve(scenario.build_domain(), deep_config(scenario, algo))
        digest = hashlib.sha256(canonical_json(r.to_obj()).encode()).hexdigest()
        assert digest == SPINE_DIGESTS.get((name, algo), DEEP_DIGESTS[(name, algo)])
        assert (r.stats.spine_pops > 0) == ((name, algo) in SPINE_DIGESTS)

    @pytest.mark.parametrize("name,algo", sorted(TABLE_DIGESTS))
    def test_arm_table_matches_recorded_digests(self, deep_scenarios, name, algo):
        scenario = deep_scenarios[name]
        r = solve(scenario.build_domain(), deep_config(scenario, algo))
        digest = hashlib.sha256(canonical_json(r.to_obj()).encode()).hexdigest()
        assert digest == TABLE_DIGESTS[(name, algo)]
        assert digest != DEEP_DIGESTS[(name, algo)]


def record_expansions(engine):
    """Wrap `engine._children`; returns the list each expanded node is
    appended to, with the open nodes at that moment."""
    expanded = []
    original = engine._children

    def recorded(node):
        expanded.append((node, list(engine.nodes.values())))
        return original(node)

    engine._children = recorded
    return expanded


class TestSingleSelectionPath:
    """Every preset selects through the focal loop over one open set."""

    def test_cbs_expands_the_cheapest_open_node(self, deep_scenarios):
        # The s300 tree is shallow; the crowded grid runs into the cap with
        # many equal-cost open nodes.
        crowd = generate_instances(
            "grid-random", 1, seed=1,
            params={"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15},
        )[0]
        for scenario, least in ((deep_scenarios["grid-random-s300-018"], 4), (crowd, 300)):
            engine = _CTEngine(scenario.build_domain(), deep_config(scenario, "cbs"))
            expanded = record_expansions(engine)
            engine.run()
            assert len(expanded) >= least
            previous = None
            for node, open_nodes in expanded:
                key = (node.cost, node.id)
                assert previous is None or key > previous
                assert all(key < (n.cost, n.id) for n in open_nodes)
                previous = key

    @pytest.mark.parametrize("algo", ["cbs", "ecbs", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"])
    def test_each_pop_takes_the_least_key_under_the_bound(self, deep_scenarios, algo):
        # A focal pop takes the least key under the bound, a spine pop the
        # live spine node of least (lb, entry), and every iteration makes
        # exactly one of the two.
        def key(engine, node, k):
            head = (node.cost,) if engine.preset.unit_w else (len(node.conflicts), node.cost)
            if k == COMPLETE:
                return head + (node.id,)
            share = sum(entry_key(c) == k for c in node.constraints) / len(node.constraints) if node.constraints else 0.0
            return head + (1.0 - share, node.id)

        def cached_key(engine, node, k):
            # One id names at most a lazy and an evaluated version.
            version = (node.id, bool(node.agents_replan), k)
            if version not in keys:
                keys[version] = key(engine, node, k)
            return keys[version]

        spine_pops = []
        for scenario in deep_scenarios.values():
            engine = _CTEngine(scenario.build_domain(), deep_config(scenario, algo))
            bounds, pops, spined, keys = [], [], [], {}
            migrate, pop_focal, pop_spine = engine._migrate, engine._pop_focal, engine._pop_spine

            def recorded_migrate(bound):
                bounds.append(bound)
                migrate(bound)

            def recorded_pop(k):
                least = min(cached_key(engine, n, k) for n in engine.nodes.values() if n.cost <= bounds[-1])
                node = pop_focal(k)
                pops.append((key(engine, node, k), least))
                return node

            def recorded_spine_pop():
                _, entry = min(
                    (n.lb, e) for e, n in engine.nodes.items()
                    if all(c.ctype in ("vertex", "edge") for c in n.constraints)
                )
                least = engine.nodes[entry]
                node = pop_spine()
                spined.append(node is least and node.cost <= bounds[-1])
                return node

            engine._migrate, engine._pop_focal = recorded_migrate, recorded_pop
            engine._pop_spine = recorded_spine_pop
            engine.run()
            assert len(pops) + len(spined) == len(bounds) > 1
            assert all(got == least for got, least in pops), scenario.name
            assert all(spined), scenario.name
            spine_pops.extend(spined)
        # The s300 cell turns the spine rule on for every row that has one.
        assert bool(spine_pops) == (algo not in ("cbs", "ecbs"))

    @pytest.mark.parametrize("algo", ["cbs", "ecbs", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"])
    def test_expanded_nodes_leave_the_open_set(self, deep_scenarios, algo):
        scenario = deep_scenarios["grid-random-s300-018"]
        engine = _CTEngine(scenario.build_domain(), deep_config(scenario, algo))
        expanded = record_expansions(engine)
        engine.run()
        assert expanded
        assert not {node.id for node, _ in expanded} & {n.id for n in engine.nodes.values()}


def plateau_scenario():
    """grid-random-s100-045, whose LB stays flat without the spine rule."""
    return generate_instances("grid-random", 46, seed=100, params=GRID_S100)[45]


SPINE_ROWS = ("ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs")


class TestSpineRule:
    """The spine bound and its cleanup pop (see the `highlevel` docstring)."""

    @pytest.mark.parametrize("algo", SPINE_ROWS)
    def test_budget_drop_never_reports_lb_above_the_optimum(self, algo):
        # At 30 low-level expansions a spine node hits the budget after the
        # rule has turned on; the bound proved before the drop is kept.
        scenario = plateau_scenario()
        config = deep_config(scenario, algo)
        config.ll_max_expansions = 30
        engine = _CTEngine(scenario.build_domain(), config)
        r = engine.run()
        assert r.stats.spine_pops > 0 and engine.open_spine is None and not engine.spine_on
        assert r.stats.lb <= composite_optimal_cost(scenario.build_domain())

    @pytest.mark.parametrize("algo", ("cbs", "ecbs", "ecbs-sub:avoidance") + SPINE_ROWS)
    def test_only_rows_with_complete_and_incomplete_entries_engage(self, deep_scenarios, monkeypatch, algo):
        monkeypatch.setattr(highlevel, "SPINE_STALL", 0)
        for scenario in (deep_scenarios["grid-random-s300-018"], plateau_scenario()):
            engine = _CTEngine(scenario.build_domain(), deep_config(scenario, algo))
            r = engine.run()
            assert engine.spine_on == (r.stats.spine_pops > 0) == (algo in SPINE_ROWS), scenario.name


GRID_S200 = {"width": 6, "height": 6, "n_agents": 2, "obstacle_density": 0.15}


class TestBudgetDrop:
    """A node dropped on a low-level budget hit may hold the optimum."""

    @pytest.mark.parametrize("algo", ("cbs", "ecbs") + SPINE_ROWS)
    def test_budget_drops_end_on_the_budget_under_the_optimum(self, algo):
        # At 15 low-level expansions every row drops nodes over budget on
        # grid-random-s200-001 (optimum 10) until none is left open.
        scenario = generate_instances("grid-random", 2, seed=200, params=GRID_S200)[1]
        domain = scenario.build_domain()
        config = deep_config(scenario, algo)
        config.ll_max_expansions = 15
        r = solve(domain, config)
        assert (r.status, r.stats.stopped_by) == ("timeout", "budget")
        assert r.stats.lb <= composite_optimal_cost(domain) == 10


def record_plans(monkeypatch):
    """Wrap `lowlevel.plan`; returns the list each search that runs is
    appended to, as (domain, agent, ctx, keyword arguments)."""
    calls = []
    original = lowlevel.plan

    def recorded(domain, agent, start, goal, ctx, **kwargs):
        calls.append((domain, agent, ctx, kwargs))
        return original(domain, agent, start, goal, ctx, **kwargs)

    monkeypatch.setattr(lowlevel, "plan", recorded)
    return calls


# sha256 of the RUN.json that `genecbs solve --algo pp --w 1.3
# --max-expansions 100 --timeout-ms 600000` writes for hallway-swap-s0-000.
HALLWAY_PP_RUN = "3b47cafa8c0f0c1c0028375b72e5830cdc3ba89bb4eac8f78a17aade4729de4c"


class TestLowLevelMemo:
    """Each solve's requester answers a repeated (agent, constraint set,
    other paths) request from a per-solve table instead of searching
    again."""

    @pytest.mark.parametrize("name", ["grid-random-s300-018", "arm-quad-s2024-000"])
    def test_plan_ignores_constraint_order_and_duplicates(self, deep_scenarios, monkeypatch, name):
        # ac-ecbs branches on the default menu, incomplete types included.
        scenario = deep_scenarios[name]
        config = deep_config(scenario, "ac-ecbs")
        config.max_expansions = 40
        calls = record_plans(monkeypatch)
        solve(scenario.build_domain(), config)
        monkeypatch.undo()
        rng = random.Random(5)
        checked = 0
        for domain, agent, ctx, kwargs in calls:
            if len(ctx.constraints) < 2:
                continue
            start, goal = domain.starts[agent], domain.goals[agent]
            expected = lowlevel.plan(domain, agent, start, goal, ctx, **kwargs)
            shuffled = list(ctx.constraints)
            rng.shuffle(shuffled)
            doubled = shuffled + rng.sample(shuffled, rng.randint(1, len(shuffled)))
            rng.shuffle(doubled)
            for cs in (shuffled, doubled):
                variant = ConstraintContext(agent, tuple(cs), ctx.other_paths)
                assert lowlevel.plan(domain, agent, start, goal, variant, **kwargs) == expected
            checked += 1
        assert checked >= 20

    def test_repeats_skip_the_search_but_count_as_ll_calls(self, deep_scenarios, monkeypatch):
        scenario = deep_scenarios["grid-random-s300-018"]
        calls = record_plans(monkeypatch)
        r = solve(scenario.build_domain(), deep_config(scenario, "ac-ecbs"))
        assert r.solved
        assert 0 < len(calls) < r.stats.ll_calls
        keys = [(agent, frozenset(ctx.constraints), ctx.other_paths) for _, agent, ctx, _ in calls]
        assert len(set(keys)) == len(keys)  # no search ran twice

    @pytest.mark.parametrize("name", ["grid-random-s300-018", "grid-random-s100-045"])
    def test_requests_with_equal_constraint_keys_get_equal_plans(self, deep_scenarios, monkeypatch, name):
        # s100-045 is a plateau cell: its avoidance and vertex siblings
        # forbid the same cells under two names.
        s100 = generate_instances("grid-random", 46, seed=100, params=GRID_S100)[45]
        scenario = {**deep_scenarios, s100.name: s100}[name]
        config = deep_config(scenario, "ac-ecbs")
        config.max_expansions = 40
        engine = _CTEngine(scenario.build_domain(), config)
        domain = engine.domain
        requests = []
        original = engine.requester.ask

        def recorded(agent, constraints, paths):
            requests.append(ConstraintContext.for_agent(agent, constraints, paths))
            return original(agent, constraints, paths)

        engine.requester.ask = recorded
        calls = record_plans(monkeypatch)
        result = engine.run()
        monkeypatch.undo()

        def key(ctx):
            return (ctx.agent, frozenset(map(domain.constraint_key, ctx.constraints)), ctx.other_paths)

        searched = [key(ctx) for _, _, ctx, _ in calls]
        assert len(set(searched)) == len(searched)  # no search ran twice
        assert result.stats.ll_searches == len(calls) < result.stats.ll_calls

        groups = {}
        for ctx in requests:
            groups.setdefault(key(ctx), {})[frozenset(ctx.constraints)] = ctx
        renamed = 0
        for variants in groups.values():
            if len(variants) < 2:
                continue
            renamed += 1
            plans = {
                lowlevel.plan(
                    domain, ctx.agent, domain.starts[ctx.agent], domain.goals[ctx.agent], ctx,
                    w=engine.w, count_conflicts=engine.preset.count_conflicts,
                    max_expansions=config.ll_max_expansions,
                )
                for ctx in variants.values()
            }
            assert len(plans) == 1
        assert renamed >= 1

    def test_conflict_free_root_searches_once_per_agent(self, monkeypatch):
        d = grid(3, 3, [], [(0, 0), (0, 2)], [(2, 0), (2, 2)])
        calls = record_plans(monkeypatch)
        r = solve(d, SolverConfig(algorithm="ac-ecbs", w=1.0))
        assert r.solved and r.stats.hl_expansions == 0
        assert len(calls) == r.stats.ll_calls == 2

    def test_pp_retries_share_one_table(self, tmp_path, monkeypatch):
        # The corridor has no passing place, so each of pp's 9 orders plans
        # its first agent and fails on the second; later orders repeat the
        # earlier ones' requests.
        scenario = generate_instances("hallway-swap", 1, seed=0)[0]
        scenario_file, run_file = tmp_path / "hallway.json", tmp_path / "run.json"
        scenario.save(scenario_file)
        argv = ["solve", str(scenario_file), "--algo", "pp", "--w", "1.3", "--max-expansions", "100",
                "--timeout-ms", "600000", "--out", str(run_file)]
        assert cli_main(argv) == 1
        assert hashlib.sha256(run_file.read_bytes()).hexdigest() == HALLWAY_PP_RUN
        calls = record_plans(monkeypatch)
        r = solve_pp(scenario.build_domain(), SolverConfig(algorithm="pp"))
        assert r.status == "exhausted" and r.stats.ll_calls == 18
        assert r.stats.ll_searches == len(calls) < r.stats.ll_calls


class TestRuntimeStats:
    """`ll_searches`, `stopped_by`, `spine_pops` and `runtime_ms` are
    attributes of the stats that their stored form leaves out, so RUN.json
    bytes do not carry them."""

    def test_stopped_by_names_the_limit_that_ended_the_search(self, deep_scenarios):
        scenario = deep_scenarios["grid-random-s300-018"]
        for overrides, stopped_by in (
            ({}, None),
            ({"max_expansions": 3}, "cap"),
            ({"timeout_ms": 0.0}, "clock"),
        ):
            config = deep_config(scenario, "gen-ecbs")
            for name, value in overrides.items():
                setattr(config, name, value)
            r = solve(scenario.build_domain(), config)
            assert r.status == ("solved" if stopped_by is None else "timeout")
            assert r.stats.stopped_by == stopped_by
            stored = r.to_obj()["stats"]
            assert not {"runtime_ms", "ll_searches", "stopped_by", "spine_pops"} & set(stored)
            assert SolverResult.from_obj(r.to_obj()).stats == replace(
                r.stats, runtime_ms=0.0, ll_searches=0, stopped_by=None, spine_pops=0
            )

    def test_pp_counts_every_request_as_a_search_and_stops_on_the_clock(self):
        d = hallway_swap()
        r = solve_pp(d, SolverConfig(pp_retries=0), order=(0, 1))
        assert r.status == "exhausted" and r.stats.stopped_by is None
        assert r.stats.ll_searches == r.stats.ll_calls == 2
        r = solve_pp(d, SolverConfig(timeout_ms=0.0))
        assert r.status == "timeout" and r.stats.stopped_by == "clock"


class TestPathHash:
    def test_cached_hash_matches_a_fresh_equal_path(self):
        steps = (C(0, 0), C(1, 0), C(1, 1))
        p = Path(2, steps)
        first = hash(p)
        assert hash(p) == first
        fresh = Path(2, tuple(C(*q.coords) for q in steps))
        assert fresh == p and hash(fresh) == first
        assert {p: 1}[fresh] == 1
        assert Path(2, steps[:-1]) != p and Path(1, steps) != p

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        p = Path(0, (C(3, 4), C(3, 5)))
        hash(p)
        again = pickle.loads(pickle.dumps(p))
        assert again == p and hash(again) == hash(p) == hash(Path(0, (C(3, 4), C(3, 5))))

    def test_hash_cached_in_another_process_is_valid_here(self):
        # Unlike a str's, an int tuple's hash does not depend on the
        # process's hash seed, so a cached value may travel with the pickle.
        src = os.path.dirname(os.path.dirname(os.path.abspath(genecbs.__file__)))
        code = (
            "import pickle, sys\n"
            "from genecbs.core import Configuration, Path\n"
            "p = Path(1, (Configuration((2, 3)), Configuration((2, 4))))\n"
            "hash(p)\n"
            "sys.stdout.buffer.write(pickle.dumps(p))\n"
        )
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True).stdout
        p = pickle.loads(out)
        fresh = Path(1, (C(2, 3), C(2, 4)))
        assert p == fresh and hash(p) == hash(fresh) and {fresh: 1}[p] == 1
