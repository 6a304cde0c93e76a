#!/usr/bin/env python3
"""Summarize the run records that run.py leaves in perfbench/out/.

    python3 perfbench/summarize.py                    # spread table
    python3 perfbench/summarize.py --write-baseline   # also write baseline.json

For every workload and metric it prints the median over runs and the
spread, the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound
from BENCHMARK.json. The baseline keeps those medians, the per-layer
numbers of the traced runs, the per-algorithm rows, the failed cells and the
outcome digest, which must be the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def load_records():
    by_workload = {}
    for path in sorted(OUT.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        by_workload.setdefault(rec["workload"], {0: [], 1: []})[rec["trace"]].append(rec)
    return by_workload


def summarize(records):
    """{metric: (median, spread, runs)} over the records' metrics."""
    names = sorted({n for r in records for n in r["metrics"]})
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        out[name] = (statistics.median(values), spread(values), len(values))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    bounds = {}
    if BENCHMARK.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    baseline = {"machine": f"{platform.machine()}, Python {platform.python_version()}", "workloads": {}}
    ok = True
    for workload, runs in sorted(load_records().items()):
        all_runs = runs[0] + runs[1]
        digests = {r["digest"] for r in all_runs}
        correct = all(r["correct"] for r in all_runs)
        print(f"{workload}: {len(runs[0])} untraced, {len(runs[1])} traced runs; "
              f"digests {sorted(digests)}; correct {correct}")
        ok &= len(digests) == 1 and correct
        e2e, layers = summarize(runs[0]), summarize(runs[1])
        for name, (median, spr, n) in e2e.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spr > bound:
                flag = "  OVER BOUND"
                ok = False
            print(f"  {name:<16} median {median:<14.6g} spread {spr:.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
        if args.write_baseline and all_runs:
            ref = (runs[0] or runs[1])[0]
            rows = {}
            for r in runs[0]:
                for row in r["algorithms"]:
                    rows.setdefault(row["algo"], []).append(row)
            baseline["workloads"][workload] = {
                "instance_seeds": ref["instance_seeds"],
                "cells": ref["cells"],
                "digest": ref["digest"],
                "failures": ref["failures"],
                "runs": {"untraced": len(runs[0]), "traced": len(runs[1])},
                "end_to_end": {n: {"median": m, "spread": s} for n, (m, s, _) in e2e.items()},
                "solve_ms.tail_percentile": ref.get("solve_ms.tail_percentile"),
                "algorithms": [
                    {"algo": algo, "cells": v[0]["cells"], "solved": v[0]["solved"],
                     "solve_ms.p50": statistics.median(x["solve_ms.p50"] for x in v)}
                    for algo, v in rows.items()
                ],
                "per_layer": {n: m for n, (m, _, _) in layers.items()},
            }
    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
