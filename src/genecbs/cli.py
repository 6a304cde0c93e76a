"""Command-line interface.

Subcommands: gen (sample scenarios from a template), solve (run one solver
on one scenario and write a RUN.json), bench (sweep scenarios x algorithms
into a CSV), verify (re-check a RUN.json against a scenario), shortcut
(post-process a RUN.json in place).

Exit codes: 0 solved/clean, 1 unsolved or violations found, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath
from typing import Optional, Tuple

from .bench import (
    RunRecord,
    Scenario,
    ScenarioError,
    aggregate_records,
    format_aggregate,
    generate_instances,
    run_benchmark,
    shortcut,
    verify,
)
from .core import Path, SolverResult, canonical_json, sum_of_costs
from .highlevel import SolverConfig, solve

RUN_VERSION = 1


def _load_run(path, with_scenario: bool = False) -> Tuple[dict, Optional[Scenario], SolverResult]:
    """Read a run file; returns it with its scenario (when asked for) and
    its result."""
    try:
        obj = json.loads(FsPath(path).read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read run file {path}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("version") != RUN_VERSION:
        raise ScenarioError(f"unsupported run file: {path}")
    try:
        scenario = Scenario.from_obj(obj["scenario"]) if with_scenario else None
        return obj, scenario, SolverResult.from_obj(obj["result"])
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise ScenarioError(f"malformed run file {path}: {type(exc).__name__}: {exc}") from exc


def _cmd_gen(args) -> int:
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            raise ScenarioError(f"bad --param {item!r}, expected key=value")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    scenarios = generate_instances(args.template, args.count, args.seed, params)
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for s in scenarios:
        s.save(out / f"{s.name}.json")
    print(f"wrote {len(scenarios)} scenarios to {out}")
    return 0


def _solver_config(scenario: Scenario, args) -> SolverConfig:
    config = scenario.solver or SolverConfig()
    if args.algo is not None:
        config.algorithm = args.algo
    if args.w is not None:
        config.w = args.w
    if args.timeout_ms is not None:
        config.timeout_ms = args.timeout_ms
    if args.max_expansions is not None:
        config.max_expansions = args.max_expansions
    if args.seed is not None:
        config.seed = args.seed
    return config


def _cmd_solve(args) -> int:
    scenario, domain = Scenario.load_with_domain(args.scenario)
    config = _solver_config(scenario, args)
    result = solve(domain, config)
    clean = False
    if result.solved:
        clean = verify(domain, result.solution).clean
    run_obj = {
        "version": RUN_VERSION,
        "scenario": scenario.to_obj(),
        "algorithm": config.algorithm,
        "seed": config.seed,
        # Wall-clock runtime is intentionally left out: a run file is a
        # deterministic function of (scenario, algorithm, seed, budgets).
        "result": result.to_obj(include_runtime=False),
    }
    if args.out:
        FsPath(args.out).write_text(canonical_json(run_obj))
    status = result.status if not result.solved else ("solved" if clean else "solved-dirty")
    cost = result.stats.cost
    print(
        f"{scenario.name} {config.algorithm}: {status}"
        f" cost={'-' if cost is None else f'{cost:g}'}"
        f" lb={'-' if result.stats.lb is None else f'{result.stats.lb:g}'}"
        f" expansions={result.stats.hl_expansions} ll_calls={result.stats.ll_calls}"
        f" runtime_ms={result.stats.runtime_ms:.1f}"
    )
    return 0 if (result.solved and clean) else 1


def _cmd_bench(args) -> int:
    scenario_dir = FsPath(args.scenarios)
    files = sorted(scenario_dir.glob("*.json"))
    if not files:
        raise ScenarioError(f"no scenario files in {scenario_dir}")
    scenarios = [Scenario.load(f) for f in files]
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    overrides = {}
    if args.timeout_ms is not None:
        overrides["timeout_ms"] = args.timeout_ms
    if args.max_expansions is not None:
        overrides["max_expansions"] = args.max_expansions
    records, aggregate = run_benchmark(
        scenarios,
        algorithms,
        out_csv=args.out,
        overrides=overrides,
        shortcut_passes=args.shortcut_passes,
        jobs=args.jobs,
    )
    print(format_aggregate(aggregate))
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    scenario, domain = Scenario.load_with_domain(args.scenario)
    _, _, result = _load_run(args.run)
    if result.solution is None:
        print("run contains no solution")
        return 1
    check = verify(domain, result.solution)
    if check.clean:
        print("clean")
        return 0
    for v in check.violations:
        print(f"violation {v.kind} agents={v.agents} t={v.time} {v.detail}")
    return 1


def _cmd_shortcut(args) -> int:
    run_obj, scenario, result = _load_run(args.run, with_scenario=True)
    domain = scenario.build_domain()
    if result.solution is None:
        print("run contains no solution")
        return 1
    before = sum_of_costs(result.solution, domain)
    shorter = shortcut(result.solution, domain, passes=args.passes)
    check = verify(domain, shorter)
    if not check.clean:
        raise ScenarioError("shortcut produced a dirty solution")
    after = sum_of_costs(shorter, domain)
    obj = result.to_obj(include_runtime=False)
    obj["solution"] = [p.to_obj() for p in shorter]
    run_obj["result"] = obj
    run_obj["cost_shortcut"] = after
    FsPath(args.run).write_text(canonical_json(run_obj))
    print(f"cost {before:g} -> {after:g} ({args.passes} passes)")
    return 0


# Options that must be >= 0 (counts, caps and timeouts) and >= 1 (jobs).
NON_NEGATIVE = ("count", "timeout_ms", "max_expansions", "shortcut_passes", "passes")
POSITIVE = ("jobs",)


def _check_ranges(args) -> None:
    for names, low in ((NON_NEGATIVE, 0), (POSITIVE, 1)):
        for name in names:
            value = getattr(args, name, None)
            if value is not None and not value >= low:  # also rejects NaN
                raise ScenarioError(f"--{name.replace('_', '-')} must be >= {low}, got {value:g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genecbs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate scenarios from a template")
    p.add_argument("--template", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--param", action="append", help="template parameter key=value")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve one scenario")
    p.add_argument("scenario")
    p.add_argument("--algo", default=None)
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--timeout-ms", type=float, default=None)
    p.add_argument("--max-expansions", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run scenarios x algorithms into a CSV")
    p.add_argument("scenarios", help="directory of scenario JSON files")
    p.add_argument("--algos", required=True, help="comma-separated algorithm list")
    p.add_argument("--out", required=True)
    p.add_argument("--timeout-ms", type=float, default=None)
    p.add_argument("--max-expansions", type=int, default=None)
    p.add_argument("--shortcut-passes", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="re-check a run against a scenario")
    p.add_argument("scenario")
    p.add_argument("run")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shortcut", help="shortcut a run file in place")
    p.add_argument("run")
    p.add_argument("--passes", type=int, default=1)
    p.set_defaults(func=_cmd_shortcut)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
