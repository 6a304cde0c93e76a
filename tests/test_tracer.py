"""The benchmark's tracer (`perfbench/tracing.py`) against the package.

`Tracer.install` patches module functions and the collision primitives of
both concrete domain classes by name, so moving or renaming one of them
breaks `perfbench/run.py --trace 1`. These tests make that a test failure.
"""

import importlib
from pathlib import Path as FsPath

from genecbs import highlevel, lowlevel
from genecbs.bench import generate_instances
from genecbs.domain import GridDomain, PlanarArmDomain
from genecbs.highlevel import SolverConfig

PERFBENCH = FsPath(__file__).resolve().parent.parent / "perfbench"


def patched_attributes(tracing):
    """(owner, name) of every attribute `Tracer.install` replaces."""
    out = [(lowlevel, name) for name in ("plan", "is_forbidden", "is_forbidden_edge")]
    out += [(highlevel, name) for name in ("find_conflicts", "make_constraints")]
    out += [(cls, name) for cls in (GridDomain, PlanarArmDomain) for name in tracing.DOMAIN_METHODS]
    return out


def test_tracer_counts_every_layer_and_restores_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    originals = {(owner, name): owner.__dict__[name] for owner, name in patched_attributes(tracing)}
    cases = (
        (generate_instances("hallway-swap", 1, seed=0)[0], SolverConfig(algorithm="ecbs")),
        (generate_instances("arm-pair", 1, seed=1)[0], SolverConfig(algorithm="ecbs", max_expansions=50)),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for scenario, config in cases:
            before = {name: tracer.count(name) for name in ("domain.agents_collide", "domain.edge_collides")}
            spans = tracer.span_counts()
            domain = scenario.build_domain()
            result = tracer.call("highlevel.solve", highlevel.solve, domain, config)
            assert result.solved, scenario.name
            for name, n in before.items():
                assert tracer.count(name) > n, (scenario.name, name)
            grown = tracer.span_counts() - spans
            assert grown["lowlevel.plan"] > 0 and grown["highlevel.find_conflicts"] > 0, scenario.name
        assert tracer.plan_expansions > 0
    finally:
        tracer.uninstall()
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, (owner, name)
