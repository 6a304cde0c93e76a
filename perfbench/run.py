#!/usr/bin/env python3
"""Planner benchmark: seeded, expansion-capped workloads run in one process.

    python3 perfbench/run.py --workload grid-oracle-w1 --seed 1 --seconds 40 --trace 0

Run from the repository root (or pass any working directory: paths resolve
from this file). The package is imported from `src/` and the composite-space
oracle from `tests/oracles.py`; nothing is installed.

Each run sets the workload up (scenario generation plus domain
construction) five times and reports the median as `setup_s`, then runs
every cell of the workload -- `highlevel.solve`, `bench.verify`,
`bench.shortcut` and a verify of the shortcut result, as `bench.run_cell`
does -- in rounds until `--seconds` is spent, with a fresh domain per cell
per round. `--seed` shuffles the cell order of each round.

Times are scaled to a reference host speed (see calibrate.py): between
cells, at most every PROBE_EVERY_S seconds, a fixed probe search runs, and
each cell's times are multiplied by REFERENCE_S over the median of the
probes within PROBE_WINDOW probes of the cell. Set-up times are scaled by
the probes around the set-ups, per-layer times by the run's median probe.
Probe time is left out of every measured time. The unscaled numbers are
kept in the run record in perfbench/out/.

With `--trace 0` the last stdout line reports the end-to-end metrics:

    suite_s        median over rounds of the summed cell wall times
    solve_ms.p50   median over cells of the cell's median solve time
    solve_ms.tail  per-cell solve time at the highest percentile that has
                   10 cells beyond it (the percentile is printed above)
    solved_frac    cells with a verified, in-bound solution / cells attempted
    setup_s        median set-up time
    peak_rss_mb    peak resident memory of the process

With `--trace 1` one untraced round is followed by traced rounds (see
tracing.py) and the last line reports the per-layer metrics, including the
tracing overhead (traced minus untraced round time) and the part of the
traced round no span covers. Spans are written to perfbench/out/.

Every solution is re-checked by `bench.verify`; on grid-oracle-w1 every
solved cost must equal the composite-space optimum, and elsewhere the cost
of a bounded algorithm must stay within w times its certified lower bound.
Outcomes must repeat exactly between rounds. Any violation is listed by
name, sets "correct" to false and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from calibrate import REFERENCE_S, probe
from tracing import DOMAIN_METHODS, LAYER_SPANS, Tracer
from workloads import BOUNDED, HL_MAX_EXPANSIONS, LL_MAX_EXPANSIONS, TIMEOUT_MS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 2


def _import_paths() -> None:
    """Put the package sources and the test oracle first on the path."""
    src = ROOT / "src"
    if not (src / "genecbs" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"perfbench: package sources not found under {ROOT}")
    sys.path[:0] = [str(src), str(ROOT / "tests")]


@dataclass
class Cell:
    scenario: object  # genecbs.bench.Scenario
    algo: str
    config: object  # genecbs.highlevel.SolverConfig

    @property
    def name(self) -> str:
        return f"{self.scenario.name}/{self.algo}"


@dataclass
class Outcome:
    status: str
    cost: Optional[float]
    lb: Optional[float]
    hl_expansions: int
    evaluations: int
    ll_calls: int
    dts_rewards: int
    dts_penalties: int
    solve_ms: float
    cell_ms: float = 0.0  # solve plus checks
    clean: bool = False
    shortcut_clean: bool = True
    soc: Optional[float] = None  # sum of costs before shortcutting
    soc_shortcut: Optional[float] = None

    def key(self) -> tuple:
        """The machine-independent part; must repeat exactly."""
        return (self.status, self.cost, self.hl_expansions, self.evaluations, self.ll_calls)


def build_cells(workload) -> List[Cell]:
    from genecbs import bench
    from genecbs.highlevel import SolverConfig

    cells = []
    for part in workload.parts:
        scenarios = bench.generate_instances(part.template, part.count, part.seed, part.params)
        for scenario in (s for i, s in enumerate(scenarios) if i not in part.skip):
            for algo in workload.algorithms:
                config = SolverConfig(
                    algorithm=algo,
                    w=workload.w,
                    seed=bench.cell_seed(scenario, algo),
                    timeout_ms=TIMEOUT_MS,
                    max_expansions=HL_MAX_EXPANSIONS,
                    ll_max_expansions=LL_MAX_EXPANSIONS,
                )
                cells.append(Cell(scenario, algo, config))
    return cells


def setup(workload):
    """Scenario generation plus one fresh domain per cell; returns
    (cells, domains, seconds)."""
    t0 = time.perf_counter()
    cells = build_cells(workload)
    domains = [c.scenario.build_domain() for c in cells]
    return cells, domains, time.perf_counter() - t0


def _untraced(name, fn, *args):
    return fn(*args)


def run_round(cells: Sequence[Cell], domains: list, order: Sequence[int], span=_untraced, tracer=None):
    """Run every cell once in `order`, probing the host's speed between
    cells. `span(name, fn, *args)` wraps each call into a layer."""
    from genecbs import bench, highlevel
    from genecbs.core import sum_of_costs

    outcomes: List[Optional[Outcome]] = [None] * len(cells)
    probes: List[float] = []
    probe_at = [0] * len(cells)
    t_round = last_probe = time.perf_counter()
    for i in order:
        if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        probe_at[i] = len(probes) - 1
        cell, domain = cells[i], domains[i]
        if tracer is not None:
            tracer.cell = i
        t0 = time.perf_counter()
        result = span("highlevel.solve", highlevel.solve, domain, cell.config)
        solve_ms = (time.perf_counter() - t0) * 1e3
        st = result.stats
        out = Outcome(
            status=result.status,
            cost=st.cost,
            lb=st.lb,
            hl_expansions=st.hl_expansions,
            evaluations=st.evaluations,
            ll_calls=st.ll_calls,
            dts_rewards=sum(v for _, v in st.dts_rewards),
            dts_penalties=sum(v for _, v in st.dts_penalties),
            solve_ms=solve_ms,
        )
        if result.solved:
            out.clean = span("bench.verify", bench.verify, domain, result.solution).clean
            if out.clean:
                shorter = span("bench.shortcut", bench.shortcut, result.solution, domain)
                out.shortcut_clean = span("bench.verify", bench.verify, domain, shorter).clean
                out.soc = sum_of_costs(result.solution, domain)
                out.soc_shortcut = sum_of_costs(shorter, domain)
        out.cell_ms = (time.perf_counter() - t0) * 1e3
        outcomes[i] = out
    elapsed = time.perf_counter() - t_round
    return Round(elapsed - sum(probes), elapsed, outcomes, probes, probe_at)


@dataclass
class Round:
    wall_s: float  # without the probes
    elapsed_s: float  # with the probes
    outcomes: List[Outcome]  # by cell index
    probes: List[float]  # seconds per probe, in the order they ran
    probe_at: List[int]  # by cell index: the last probe before the cell

    def __post_init__(self):
        k = PROBE_WINDOW
        self._scales = [
            REFERENCE_S / statistics.median(self.probes[max(0, j - k) : j + k + 1])
            for j in range(len(self.probes))
        ]

    def cell_scale(self, i: int) -> float:
        """Factor that turns cell i's times into reference-host times, from
        the probes that ran within PROBE_WINDOW probes of it."""
        return self._scales[self.probe_at[i]]

    @property
    def scaled_s(self) -> float:
        """Sum of the cells' scaled times, in seconds."""
        return sum(o.cell_ms * self.cell_scale(i) for i, o in enumerate(self.outcomes)) / 1e3


def fresh_domains(cells: Sequence[Cell]) -> list:
    return [c.scenario.build_domain() for c in cells]


def run_rounds(cells, domains, rng: random.Random, seconds: float, **kw) -> List[Round]:
    """Rounds until `seconds` would be exceeded by one more (at least one);
    each round after the first gets fresh domains, built untimed, and every
    round its own shuffled order."""
    rounds: List[Round] = []
    while True:
        order = list(range(len(cells)))
        rng.shuffle(order)
        rounds.append(run_round(cells, domains, order, **kw))
        spent = [r.elapsed_s for r in rounds]
        if sum(spent) + statistics.median(spent) > seconds:
            return rounds
        domains = fresh_domains(cells)


# ---- correctness -----------------------------------------------------------


def classify(workload, cells, rounds, optimum: Dict[str, Optional[float]]):
    """Returns (failures: name -> reason, incorrect: name -> reason).

    A failure is any cell without a verified, in-bound solution; incorrect
    outcomes (dirty, over the bound, a worse or dirty shortcut, or an outcome
    that differs between rounds) are failures too."""
    from genecbs.core import SOLVED, TIMEOUT

    failures, incorrect = {}, {}
    for i, cell in enumerate(cells):
        out = rounds[0].outcomes[i]
        reason = None
        if any(r.outcomes[i].key() != out.key() for r in rounds[1:]):
            reason = "nondeterministic"
        elif out.status == TIMEOUT:
            failures[cell.name] = "hl-cap" if out.hl_expansions >= HL_MAX_EXPANSIONS else "wall-clock"
            continue
        elif out.status != SOLVED:
            failures[cell.name] = out.status
            continue
        elif not out.clean:
            reason = "verify-dirty"
        elif not out.shortcut_clean or out.soc_shortcut > out.soc:
            reason = "shortcut-worse-or-dirty"
        elif workload.oracle and optimum.get(cell.scenario.name) is not None:
            if out.cost != optimum[cell.scenario.name]:
                reason = f"cost {out.cost:g} != optimum {optimum[cell.scenario.name]:g}"
        elif cell.algo in BOUNDED and out.cost > workload.w * out.lb + 1e-6:
            reason = f"cost {out.cost:g} > w * lb {workload.w * out.lb:g}"
        if reason is not None:
            failures[cell.name] = reason
            incorrect[cell.name] = reason
    return failures, incorrect


def oracle_costs(workload, cells) -> Dict[str, Optional[float]]:
    if not workload.oracle:
        return {}
    from oracles import composite_optimal_cost

    out = {}
    for cell in cells:
        name = cell.scenario.name
        if name not in out:
            out[name] = composite_optimal_cost(cell.scenario.build_domain())
    return out


def digest(cells, outcomes) -> str:
    """Hash of (scenario, algorithm, status, cost, hl_expansions, ll_calls)
    over every cell; changes whenever an answer or a search changes."""
    lines = sorted(
        f"{c.scenario.name}\t{c.algo}\t{o.status}\t{o.cost}\t{o.hl_expansions}\t{o.ll_calls}"
        for c, o in zip(cells, outcomes)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# ---- reporting ------------------------------------------------------------


def per_cell_solve_ms(rounds: Sequence[Round], scaled: bool = True) -> List[float]:
    """Each cell's median solve time over rounds."""
    return [
        statistics.median(r.outcomes[i].solve_ms * (r.cell_scale(i) if scaled else 1.0) for r in rounds)
        for i in range(len(rounds[0].outcomes))
    ]


def tail(values: Sequence[float], beyond: int = 10):
    """(value, percentile) at the highest percentile with `beyond` values
    above it; the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - beyond - 1)
    return ordered[idx], 100.0 * (idx + 1) / n


def algorithm_rows(workload, cells, rounds, failures) -> List[dict]:
    solve_ms = per_cell_solve_ms(rounds)
    rows = []
    for algo in workload.algorithms:
        idx = [i for i, c in enumerate(cells) if c.algo == algo]
        rows.append(
            {
                "algo": algo,
                "cells": len(idx),
                "solved": sum(cells[i].name not in failures for i in idx),
                "solve_ms.p50": statistics.median(solve_ms[i] for i in idx),
            }
        )
    return rows


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cells, rounds, failures, setup_s, peak_rss_mb, scaled=True) -> dict:
    solve_ms = per_cell_solve_ms(rounds, scaled)
    return {
        "suite_s": metric(statistics.median(r.scaled_s if scaled else r.wall_s for r in rounds), "s"),
        "solve_ms.p50": metric(statistics.median(solve_ms), "ms"),
        "solve_ms.tail": metric(tail(solve_ms)[0], "ms"),
        "solved_frac": metric((len(cells) - len(failures)) / len(cells), "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(untraced: Round, traced, scale) -> dict:
    """Per-layer metrics from (tracer, round) pairs: counts from the first
    traced round (they repeat exactly), times as medians over rounds."""
    tr, outcomes = traced[0][0], traced[0][1].outcomes
    spans = tr.span_counts()
    selfs = [t.self_ms() for t, _ in traced]

    def ms(name):
        return scale * statistics.median(s.get(name, 0.0) for s in selfs)

    def calls(name):
        return spans[name]

    def ratio(a, b):
        return a / b if b else 0.0

    plan_calls = calls("lowlevel.plan")
    plan_ms = ms("lowlevel.plan")
    collide_in_ll = tr.count("domain.agents_collide", "lowlevel.plan") + tr.count(
        "domain.edge_collides", "lowlevel.plan"
    )
    solved = [o for o in outcomes if o.soc is not None]
    rewards = sum(o.dts_rewards for o in outcomes)
    penalties = sum(o.dts_penalties for o in outcomes)
    traced_s = scale * statistics.median(r.wall_s for _, r in traced)
    untraced_s = scale * untraced.wall_s
    covered_s = sum(ms(n) for n in LAYER_SPANS) / 1e3
    m = {
        "lowlevel.plan.calls": metric(plan_calls, "count"),
        "lowlevel.plan.ms": metric(plan_ms, "ms"),
        "lowlevel.plan.expansions": metric(tr.plan_expansions, "count"),
        "lowlevel.plan.us_per_expansion": metric(ratio(plan_ms * 1e3, tr.plan_expansions), "us"),
        "lowlevel.plan.ok_frac": metric(ratio(tr.plan_ok, plan_calls), "ratio"),
        "lowlevel.is_forbidden.calls": metric(tr.count("lowlevel.is_forbidden"), "count"),
        "lowlevel.is_forbidden_edge.calls": metric(tr.count("lowlevel.is_forbidden_edge"), "count"),
    }
    for name in DOMAIN_METHODS:
        m[f"domain.{name}.calls"] = metric(tr.count("domain." + name), "count")
    m.update({
        "domain.collide_per_ll_expansion": metric(ratio(collide_in_ll, tr.plan_expansions), "count"),
        "highlevel.self_ms": metric(ms("highlevel.solve"), "ms"),
        "highlevel.hl_expansions": metric(sum(o.hl_expansions for o in outcomes), "count"),
        "highlevel.evaluations": metric(sum(o.evaluations for o in outcomes), "count"),
        "highlevel.ll_calls": metric(sum(o.ll_calls for o in outcomes), "count"),
        "highlevel.eval_improved_frac": metric(ratio(rewards, rewards + penalties), "ratio"),
        "highlevel.find_conflicts.calls": metric(calls("highlevel.find_conflicts"), "count"),
        "highlevel.find_conflicts.ms": metric(ms("highlevel.find_conflicts"), "ms"),
        "highlevel.find_conflicts.conflicts": metric(tr.conflicts_found, "count"),
        "constraints.make_constraints.calls": metric(calls("constraints.make_constraints"), "count"),
        "constraints.make_constraints.ms": metric(ms("constraints.make_constraints"), "ms"),
        "constraints.children": metric(tr.children_made, "count"),
        "bench.verify.ms": metric(ms("bench.verify"), "ms"),
        "bench.shortcut.ms": metric(ms("bench.shortcut"), "ms"),
        "bench.shortcut.improved_frac": metric(
            ratio(sum(o.soc_shortcut < o.soc for o in solved), len(solved)), "ratio"
        ),
        "trace.suite_s": metric(traced_s, "s"),
        "trace.untraced_suite_s": metric(untraced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.unattributed_s": metric(traced_s - covered_s, "s"),
    })
    return m


def counters_repeat(traced) -> bool:
    def key(t):
        return (t.calls, t.plan_expansions, t.plan_ok, t.conflicts_found, t.children_made, t.span_counts())

    first = key(traced[0][0])
    return all(key(t) == first for t, _ in traced[1:])


def print_layers(metrics: dict) -> None:
    suite = metrics["trace.suite_s"]["value"]
    print(f"self time per layer in one traced round of {suite:.3f} s "
          f"(untraced {metrics['trace.untraced_suite_s']['value']:.3f} s):")
    for key in ("lowlevel.plan.ms", "highlevel.self_ms", "highlevel.find_conflicts.ms",
                "constraints.make_constraints.ms", "bench.verify.ms", "bench.shortcut.ms"):
        sec = metrics[key]["value"] / 1e3
        print(f"  {key:<34} {sec:9.3f} s {100 * sec / suite:6.1f}%")
    rest = metrics["trace.unattributed_s"]["value"]
    print(f"  {'unattributed':<34} {rest:9.3f} s {100 * rest / suite:6.1f}%")


def traced_rounds(cells, rng, seconds: float, spent: float):
    """Traced rounds, each with its own tracer, until `seconds` would be
    exceeded by one more (at least one); returns [(tracer, round)]."""
    traced = []
    while True:
        tracer = Tracer()
        order = list(range(len(cells)))
        rng.shuffle(order)
        domains = fresh_domains(cells)
        tracer.install()
        try:
            traced.append((tracer, run_round(cells, domains, order, span=tracer.call, tracer=tracer)))
        finally:
            tracer.uninstall()
        times = [r.elapsed_s for _, r in traced]
        if spent + sum(times) + statistics.median(times) > seconds:
            return traced


def report_cells(workload, cells, failures, incorrect, rows, dig) -> None:
    for row in rows:
        print(f"  {row['algo']:<20} cells {row['cells']:>5}  solved {row['solved']:>5}  "
              f"solve_ms.p50 {row['solve_ms.p50']:.4f}")
    by_kind: Dict[str, List[str]] = {}
    for name, reason in sorted({**failures, **incorrect}.items()):
        if name in incorrect:
            by_kind.setdefault("incorrect", []).append(f"{name}: {reason}")
        else:
            by_kind.setdefault(reason, []).append(name)
    for kind, names in sorted(by_kind.items()):
        print(f"failed ({kind}): {len(names)}: " + "; ".join(names))
    expected = None
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text())["workloads"].get(workload.name, {})
        if base.get("instance_seeds") == [p.seed for p in workload.parts]:
            expected = base["digest"]
    if expected is None:
        note = "no baseline for these instances"
    elif expected == dig:
        note = "matches baseline"
    else:
        note = f"DIFFERS from baseline {expected}"
    print(f"digest {dig} ({note})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="shuffles the cell order")
    ap.add_argument("--seconds", type=float, required=True, help="time to spend in measured rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--instance-seeds",
        help="comma-separated generator seeds, one per part of the workload, "
        "replacing the workload's fixed suite",
    )
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    try:
        seeds = tuple(int(s) for s in args.instance_seeds.split(",")) if args.instance_seeds else None
        workload = WORKLOADS[args.workload].with_seeds(seeds)
    except ValueError as exc:
        ap.error(str(exc))
    _import_paths()
    import genecbs  # noqa: F401  (imported here, so import time is not set-up time)

    rng = random.Random(args.seed)

    setup_times, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(probe())
        cells, domains, seconds = setup(workload)
        setup_times.append(seconds)
        setup_probes.append(probe())
    # The probes around the set-ups scale them, as the rounds' probes scale the cells.
    setup_s = REFERENCE_S / statistics.median(setup_probes) * statistics.median(setup_times)

    if args.trace:
        untraced = run_round(cells, domains, list(range(len(cells))))
        traced = traced_rounds(cells, rng, args.seconds, untraced.elapsed_s)
        rounds = [untraced] + [r for _, r in traced]
    else:
        rounds = run_rounds(cells, domains, rng, args.seconds)
    # Read before the oracle runs, so only set-up and solving count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = setup_probes + [p for r in rounds for p in r.probes]
    scale = REFERENCE_S / statistics.median(probes)

    optimum = oracle_costs(workload, cells)
    failures, incorrect = classify(workload, cells, rounds, optimum)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "instance_seeds": [p.seed for p in workload.parts], "cells": len(cells),
        "scale": scale, "rounds_s": [r.wall_s for r in rounds], "setup_runs_s": setup_times,
    }
    print(f"host speed: median probe {1e3 * REFERENCE_S / scale:.3f} ms over {len(probes)} probes, "
          f"so times below are scaled by {scale:.4f}")
    print(f"rounds: {len(rounds)} ({', '.join(f'{r.wall_s:.3f}' for r in rounds)} s unscaled); "
          f"set-up runs: {', '.join(f'{t:.4f}' for t in setup_times)} s unscaled")
    if args.trace:
        metrics = per_layer(untraced, traced, scale)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        traced[0][0].write_spans(spans_path)
        print(f"spans of the first traced round: {spans_path.relative_to(ROOT)} "
              f"({len(traced[0][0].spans)} spans)")
        print_layers(metrics)
        if not counters_repeat(traced):
            incorrect["per-layer counters"] = "differ between traced rounds"
    else:
        metrics = end_to_end(cells, rounds, failures, setup_s, peak_rss_mb)
        record["unscaled_metrics"] = end_to_end(
            cells, rounds, failures, statistics.median(setup_times), peak_rss_mb, scaled=False
        )
        _, pct = tail(per_cell_solve_ms(rounds))
        record["solve_ms.tail_percentile"] = pct
        print(f"solve_ms.tail is the p{pct:.2f} of {len(cells)} cells")
    rows = algorithm_rows(workload, cells, rounds, failures)
    dig = digest(cells, rounds[0].outcomes)
    report_cells(workload, cells, failures, incorrect, rows, dig)

    correct = not incorrect
    record.update(digest=dig, algorithms=rows, failures=failures, incorrect=sorted(incorrect),
                  metrics=metrics, correct=correct)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": len(cells), "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
