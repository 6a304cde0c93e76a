"""Workload definitions for the planner benchmark.

A workload is a fixed, generated instance suite plus the algorithms run on
every instance. The instance suites are fixed by their generator seeds
(`instance_seeds`), so every run of a workload solves exactly the same cells
and the machine-independent counters repeat exactly between runs. The
benchmark's `--seed` only shuffles the order in which cells run; pass
`--instance-seeds` to re-check a claim on instances no one has tuned on.

Every workload uses the domain's `default_menu`, passes no DTS prior, and
sets the wall-clock timeout far out of reach, so only the expansion caps
decide whether a cell is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

# Caps that bind before the clock does. The 300 high-level cap is the one the
# acceptance suite uses for the arm trend criteria.
HL_MAX_EXPANSIONS = 300
LL_MAX_EXPANSIONS = 200_000
TIMEOUT_MS = 600_000.0


@dataclass(frozen=True)
class Part:
    """`count` instances of `template` generated from `seed`, without the
    instances whose index is in `skip`."""

    template: str
    params: dict
    count: int
    seed: int
    skip: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: Tuple[Part, ...]
    algorithms: Tuple[str, ...]
    w: float
    # Compare every solved cost with the composite-space optimum. Only
    # meaningful where every algorithm is optimal (w = 1).
    oracle: bool = False

    def with_seeds(self, seeds: Optional[Tuple[int, ...]]) -> "Workload":
        if seeds is None:
            return self
        if len(seeds) != len(self.parts):
            raise ValueError(
                f"{self.name} needs {len(self.parts)} instance seed(s), got {len(seeds)}"
            )
        parts = tuple(
            Part(p.template, p.params, p.count, s, p.skip) for p, s in zip(self.parts, seeds)
        )
        return Workload(self.name, self.why, parts, self.algorithms, self.w, self.oracle)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-oracle-w1",
            why=(
                "deep constraint trees over tiny grid searches; the plateau cells "
                "s100-045 and s300-033 load the high-level tree, and every cost is "
                "checked against the composite-space optimum"
            ),
            # The acceptance oracle suite (tests/test_acceptance.py).
            parts=(
                Part("grid-random", {"width": 5, "height": 5, "n_agents": 2, "obstacle_density": 0.12}, 120, 100),
                Part("grid-random", {"width": 6, "height": 6, "n_agents": 2, "obstacle_density": 0.15}, 44, 200),
                Part("grid-random", {"width": 5, "height": 5, "n_agents": 3, "obstacle_density": 0.12}, 44, 300),
            ),
            algorithms=("cbs", "ecbs", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"),
            w=1.0,
            oracle=True,
        ),
        Workload(
            name="arm-quad",
            why=(
                "four planar arms with capsule geometry, where each low-level "
                "expansion costs ~25 collision queries; the paper's trend algorithms"
            ),
            # The first 17 instances of the acceptance arm suite but 005,
            # whose gen-ecbs cell alone takes 14-19 s: one cell that long
            # cannot be repeated within a run, so its noise would decide
            # every metric.
            parts=(Part("arm-quad", {}, 17, 2024, skip=(5,)),),
            algorithms=("gen-ecbs", "ecbs", "pp", "ecbs-sub:avoidance"),
            w=1.3,
        ),
        Workload(
            name="grid-crowd",
            why=(
                "14 agents on a 10x10 grid: cheap geometry, but every low-level "
                "expansion counts conflicts against 13 other paths"
            ),
            parts=(
                Part("grid-random", {"width": 10, "height": 10, "n_agents": 14, "obstacle_density": 0.15}, 20, 7),
            ),
            algorithms=("ecbs", "gen-ecbs", "ac-ecbs-lazy", "pp"),
            w=1.3,
        ),
    )
}

# Algorithms whose solved cost is guaranteed to be within w of the optimum.
BOUNDED = frozenset(("cbs", "ecbs", "ac-ecbs", "ac-ecbs-lazy", "gen-ecbs", "gen-cbs"))
