"""Repeatability check: the same code measured twice must agree.

    python3 benchmarks/pipeline/aa.py [--runs 10] [--workloads a,b] [--out FILE]

Makes two interleaved sets (A, B, A, B, ...) of ``--runs`` runs per
workload on this checkout, run *i* of either set with seed ``base + i``.
For every ``workload/metric`` it prints both medians, both inter-quartile
ranges as a share of the median (``statistics.quantiles(values, n=4)``,
the acceptance test's own estimator) and the relative gap between the
medians against the metric's bound.  Exit status 1 when a gap exceeds its
bound, or when a spread exceeds it (``setup_s`` is exempt from the spread
rule only).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASE_SEED = 20261001


def one_run(spec: dict, workload: str, seed: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180
    )
    wall = time.perf_counter() - started
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run failed or incorrect")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values["run_wall_s"] = wall
    # The run's reference-kernel median: says when the host, not the code,
    # changed speed between two runs.
    values["ref_kernel_ms"] = next(
        float(line.split()[-1])
        for line in done.stdout.splitlines()
        if line.startswith("ref kernel ms p50")
    )
    return values


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "results", "aa.json"))
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    runs: Dict[str, Dict[str, List[dict]]] = {
        n: {"A": [], "B": []} for n in names
    }
    for i in range(args.runs):
        for side in ("A", "B"):
            for name in names:
                runs[name][side].append(one_run(spec, name, BASE_SEED + i))
                print(f"run {i} set {side} {name}: "
                      f"{runs[name][side][-1]['run_wall_s']:.1f} s", flush=True)

    report = {"runs": args.runs, "base_seed": BASE_SEED, "pairs": [], "raw": runs}
    failures = 0
    header = (f"{'workload/metric':<48}{'median A':>12}{'median B':>12}"
              f"{'iqr A':>8}{'iqr B':>8}{'gap':>8}{'bound':>7}")
    print(header)
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r[key] for r in runs[name]["A"]]
            b = [r[key] for r in runs[name]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            row = {
                "pair": f"{name}/{key}",
                "median_a": med_a,
                "median_b": med_b,
                "iqr_a": spread(a),
                "iqr_b": spread(b),
                "gap": abs(med_b - med_a) / med_a,
                "b_worse_by": worse,
                "bound": bound,
            }
            too_wide = key != "setup_s" and max(row["iqr_a"], row["iqr_b"]) > bound
            row["ok"] = row["gap"] <= bound and not too_wide
            failures += not row["ok"]
            report["pairs"].append(row)
            print(f"{row['pair']:<48}{med_a:>12.5g}{med_b:>12.5g}"
                  f"{row['iqr_a']:>8.3f}{row['iqr_b']:>8.3f}{row['gap']:>8.3f}"
                  f"{bound:>7.3f}{'' if row['ok'] else '  FAIL'}")
        walls = [r["run_wall_s"] for s in ("A", "B") for r in runs[name][s]]
        kernel = [r["ref_kernel_ms"] for s in ("A", "B") for r in runs[name][s]]
        print(f"{name}: run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s; reference kernel "
              f"{min(kernel):.1f}-{max(kernel):.1f} ms over the runs")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"{failures} of {len(report['pairs'])} pairs outside their bound; "
          f"wrote {os.path.relpath(args.out, ROOT)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
