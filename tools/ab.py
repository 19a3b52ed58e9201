"""Paired parent/change runs of the shared benchmark, with the verdict.

    python3 tools/ab.py --parent REV --workload W [--pairs 10]
                        [--base-seed N] [--quick]

Checks ``REV`` out with ``git worktree add`` under ``.bench_work/``,
refuses to run when ``BENCHMARK.json`` or ``benchmarks/pipeline`` differ
between ``REV`` and this checkout (a change that claims a gain may not
edit the benchmark), then runs ``--pairs`` alternating pairs of
``benchmarks/pipeline/run.py`` — pair *i* uses seed ``base + i`` on both
sides, the parent goes first on even pairs and the change on odd ones.
For every end-to-end metric it prints both medians, the parent's
quartiles, pairs won/lost/tied, the choosing-metrics §8 verdict (a gain
needs at least nine tenths of the pairs *and* a median gap wider than
the parent's own inter-quartile range) and flags any metric whose
median is worse than the parent's by more than its ``bound``.  The table
is for reading, not a gate: the exit status is 2 when a run fails or
answers incorrectly and 0 otherwise, so ``--pairs 1 --quick`` works as a
plumbing check (worktree, alternation, JSON parsing) at a size where
the timings mean nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_PATHS = ("BENCHMARK.json", "benchmarks/pipeline")
#: Fewest pairs on which a gain may be claimed (choosing-metrics §8).
MIN_PAIRS_FOR_A_CLAIM = 10
DEFAULT_BASE_SEED = 20262001


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str = "lower",
    bound: float = float("inf"),
) -> Dict[str, object]:
    """The choosing-metrics §8 reading of one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the two sides of pair *i*.  A
    pure function of the two lists: ``gain`` is true only when the
    change wins at least nine tenths of all pairs run (a tie counts for
    neither side) **and** its median is better than the parent's by more
    than the distance between the parent's quartiles; ``claimable``
    adds the ten-pair minimum.  ``worse_by`` is the change's median
    relative to the parent's, positive when worse, and ``beyond_bound``
    whether that exceeds ``bound``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    lost = sum(sign * c > sign * p for p, c in zip(parent, change))
    pairs = len(parent)
    if pairs >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    median_parent = statistics.median(parent)
    median_change = statistics.median(change)
    improvement = sign * (median_parent - median_change)
    gain = 10 * won >= 9 * pairs and improvement > q3 - q1
    worse_by = -improvement / abs(median_parent) if median_parent else 0.0
    return {
        "median_parent": median_parent,
        "median_change": median_change,
        "q1_parent": q1,
        "q3_parent": q3,
        "won": won,
        "lost": lost,
        "tied": pairs - won - lost,
        "gain": gain,
        "claimable": gain and pairs >= MIN_PAIRS_FOR_A_CLAIM,
        "worse_by": worse_by,
        "beyond_bound": worse_by > bound,
    }


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ("git",) + args, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )


def add_parent_worktree(sha: str) -> str:
    """Check commit ``sha`` out, detached, under ``.bench_work/``;
    returns the directory.  A leftover of an interrupted run is
    replaced."""
    path = os.path.join(ROOT, ".bench_work", f"ab-parent-{sha[:12]}")
    remove_parent_worktree(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if _git("worktree", "add", "--detach", path, sha).returncode != 0:
        raise SystemExit(f"ab: git worktree add failed for {sha}")
    return path


def remove_parent_worktree(path: str) -> None:
    """Remove the worktree at ``path`` if there is one (git would print
    a false ``fatal:`` for a path that is not), then prune any that a
    deleted directory left registered."""
    if os.path.exists(path):
        _git("worktree", "remove", "--force", path)
    _git("worktree", "prune")


def one_run(
    spec: dict, checkout: str, workload: str, seed: int, quick: bool
) -> Dict[str, float]:
    """One run of the benchmark command in ``checkout``; its end-to-end
    metric values.  Exits 2 on a failed or incorrect run — a gain does
    not count when operations fail."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if (
        done.returncode != 0
        or result is None
        or not result["correct"]
        or result["failed"]
    ):
        print(f"ab: {workload} seed {seed} in {checkout}: run failed or "
              "incorrect", file=sys.stderr)
        raise SystemExit(2)
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(
    spec: dict,
    parent_dir: str,
    change_dir: str,
    workload: str,
    pairs: int,
    base_seed: int,
    quick: bool = False,
) -> Dict[str, List[Dict[str, float]]]:
    """``pairs`` alternating pairs; which side goes first alternates."""
    sides = {"parent": parent_dir, "change": change_dir}
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = one_run(spec, sides[side], workload, base_seed + i, quick)
            runs[side].append(values)
            print(f"pair {i} seed {base_seed + i} {side}: " + " ".join(
                f"{name}={values[name]:.5g}" for name in sorted(values)
            ), flush=True)
    return runs


def report(spec: dict, workload: str, runs) -> None:
    """Print the per-metric table."""
    print(f"{workload + '/metric':<44}{'parent':>11}{'change':>11}"
          f"{'q1 parent':>11}{'q3 parent':>11}{'w/l/t':>9}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = verdict(
            [r[name] for r in runs["parent"]],
            [r[name] for r in runs["change"]],
            metric["better"],
            metric["bound"],
        )
        if v["beyond_bound"]:
            word = "BEYOND BOUND"
        elif v["claimable"]:
            word = "gain"
        elif len(runs["parent"]) < MIN_PAIRS_FOR_A_CLAIM:
            word = "too few pairs for a claim"
        else:
            word = "no claim"
        print(f"{name:<44}{v['median_parent']:>11.5g}{v['median_change']:>11.5g}"
              f"{v['q1_parent']:>11.5g}{v['q3_parent']:>11.5g}"
              f"{v['won']:>4}/{v['lost']}/{v['tied']}"
              f"{v['worse_by']:>+10.3f}{metric['bound']:>7.2f}  {word}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_A_CLAIM)
    parser.add_argument("--base-seed", type=int, default=DEFAULT_BASE_SEED)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    resolved = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if resolved.returncode != 0:
        parser.error(f"{args.parent!r} does not name a commit")
    sha = resolved.stdout.strip()
    if _git("diff", "--quiet", sha, "--", *BENCHMARK_PATHS).returncode != 0:
        print(f"ab: {' and '.join(BENCHMARK_PATHS)} differ from "
              f"{args.parent}: both sides must run the same benchmark",
              file=sys.stderr)
        return 2
    parent_dir = add_parent_worktree(sha)
    try:
        runs = run_pairs(
            spec, parent_dir, ROOT, args.workload, args.pairs,
            args.base_seed, args.quick,
        )
    finally:
        remove_parent_worktree(parent_dir)
    report(spec, args.workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
