"""Entry point: one run of one workload.

    python3 benchmarks/pipeline/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--quick] [--trace-out FILE]

The parent (this process) sets up — corpus on disk, query and mutation
plan, oracle answers — ``SETUP_REPS`` times and reports the median as
``setup_s``; the product journey then runs in a child process
(``journey.py``), and the parent checks everything the child observed
against the oracle, outside every timed section.  Every timing is
reported at the reference machine speed: the repetition's wall time
divided by the reference kernel's reading beside it (``end_to_end``).
Human-readable tables come first; the last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 20261001
#: Set-up is repeated and the median reported, so that work moved into
#: set-up shows against a steady number.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _spawn_child(plan_path: str, out_path: str) -> None:
    """Run the journey in its own session; on a hang kill the whole
    process group (pool workers included) and wait for it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((ROOT, SRC)))
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.pipeline.journey", plan_path, out_path],
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit("product journey exceeded its time limit")
    if code != 0:
        raise SystemExit(f"product journey failed with exit code {code}")


class Checks:
    """Operations attempted and failed, per phase."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, int, int, str]] = []

    def add(self, phase: str, attempted: int, failed: int, note: str = "") -> None:
        self.rows.append((phase, attempted, failed, note))

    @property
    def attempted(self) -> int:
        return sum(r[1] for r in self.rows)

    @property
    def failed(self) -> int:
        return sum(r[2] for r in self.rows)

    def render(self) -> str:
        lines = [f"{'phase':<22}{'attempted':>10}{'failed':>8}  note"]
        for phase, attempted, failed, note in self.rows:
            lines.append(f"{phase:<22}{attempted:>10}{failed:>8}  {note}")
        return "\n".join(lines)


def verify(inputs, out: dict, checks: Checks) -> List[List[float]]:
    """Compare what the child observed with the oracle; returns, per pass,
    the latencies of the queries that were answered correctly."""
    builds = out.get("builds", [])
    if builds:
        checks.add(
            "build.files",
            sum(b["files"] for b in builds),
            sum(b["failed"] + b["retries"] for b in builds),
            "files indexed / failed or retried (BuildReport)",
        )
        wrong = sum(
            any(b[k] != want[k] for k in ("docs", "terms", "postings"))
            or b["degraded"]
            for b, want in zip(builds, inputs.expected_build_shapes)
        )
        checks.add("build.shape", len(builds), wrong, "docs, terms, postings")
    checks.add(
        "build.identity",
        1,
        int(out["digest_pristine"] != inputs.digest_pristine),
        "pristine index == oracle index",
    )
    good_latencies = []
    shed = errored = mismatched = total = 0
    for observed, expected in zip(out["passes"], inputs.expected_answers):
        good = []
        for answer, want, latency in zip(
            observed["answers"], expected, observed["latency_ms"]
        ):
            total += 1
            if answer == "shed":
                shed += 1
            elif answer.startswith("error:"):
                errored += 1
            elif answer != want:
                mismatched += 1
            else:
                good.append(latency)
        good_latencies.append(good)
    checks.add(
        "query",
        total,
        shed + errored + mismatched,
        f"shed {shed}, errored {errored}, mismatched {mismatched}; "
        f"{inputs.distinct_queries} distinct",
    )
    delta_files = delta_wrong = docs_wrong = 0
    for seen, want, shape in zip(
        out["refreshes"], inputs.expected_deltas, inputs.expected_cycle_shapes
    ):
        for kind in ("added", "modified", "removed"):
            delta_files += len(want[kind])
            delta_wrong += len(set(seen[kind]) ^ set(want[kind]))
        docs_wrong += seen["docs"] != shape["docs"]
    checks.add(
        "refresh.delta",
        delta_files,
        delta_wrong + docs_wrong,
        "files the refresh reported / differing from the mutation list",
    )
    compactions = out.get("compactions", [])
    if compactions:
        checks.add(
            "compact",
            len(compactions),
            sum(not c["ran"] or c["segments"] != 1 for c in compactions),
            "compactions that folded to one segment",
        )
    if out.get("cold_starts"):
        checks.add("cold_start", out["cold_starts"], 0, "")
    if len(out["refreshes"]) == len(inputs.expected_deltas):
        checks.add(
            "final.identity",
            1,
            int(out["digest_final"] != inputs.digest_final),
            "churned index == oracle rebuild of the final directory",
        )
    return good_latencies


def end_to_end(inputs, out: dict, latencies: List[List[float]], setups):
    # needs ROOT on sys.path
    from benchmarks.pipeline.common import REFERENCE_KERNEL_MS, percentile

    # The host moves between a quiet state and slow ones that last longer
    # than a run (reference kernel 20 -> 30-40 ms, the product with it), so
    # the raw timings of two runs of the same code differ by the state each
    # met: best-of and median alike spread 0.2-0.35 over ten runs.  Each
    # repetition is therefore divided by the kernel's reading beside it
    # and the median over the run's repetitions is reported.
    def at_reference(value: float, kernel_ms: float) -> float:
        """A duration measured while the kernel read ``kernel_ms``, as it
        would read on a machine where the kernel takes its quiet time."""
        return value * REFERENCE_KERNEL_MS / kernel_ms

    def steady(pairs) -> List[float]:
        return [at_reference(v, k) for v, k in pairs]

    # For the query metrics a repetition is an *epoch*: the passes between
    # two compactions, pooled.  Passes are not exchangeable (the session
    # stacks answer from 1, 2, 3 segments in turn), epochs are.
    epochs: dict = {}
    for good, observed in zip(latencies, out["passes"]):
        epoch = epochs.setdefault(
            observed["epoch"], {"ms": [], "raw_ms": [], "wall_s": 0.0}
        )
        kernel_ms = observed["kernel_ms"]
        epoch["raw_ms"].extend(good)
        epoch["ms"].extend(at_reference(v, kernel_ms) for v in good)
        epoch["wall_s"] += at_reference(observed["wall_s"], kernel_ms)
    epochs = {k: e for k, e in epochs.items() if e["ms"]}
    per_epoch = [sorted(epoch["ms"]) for epoch in epochs.values()]
    raw = sorted(v for epoch in epochs.values() for v in epoch["raw_ms"])
    qps = [len(epoch["ms"]) / epoch["wall_s"] for epoch in epochs.values()]
    timed = {
        "setup_s": steady(setups),
        "build_wall_s": steady(out["build_wall_s"]),
        "refresh_wall_s": steady(out["refresh_wall_s"]),
        "compact_wall_s": steady(out["compact_wall_s"]),
        "cold_start_ms": steady(out["cold_start_ms"]),
        "query_p50_ms": [percentile(p, 50) for p in per_epoch],
        "query_p95_ms": [percentile(p, 95) for p in per_epoch],
        "query_qps": qps,
    }
    rss = out["peak_rss_kb"]
    values = {name: median(reps) for name, reps in timed.items()}
    values["index_bytes_per_corpus_byte"] = out["ridx2_bytes"] / inputs.corpus_bytes
    values["peak_rss_mb"] = (rss["self"] + rss["children"]) / 1024.0
    samples = {name: len(reps) for name, reps in timed.items()}
    kernel = out["ref_kernel_ms"]
    extra = {
        "as the clock read them, median (not gated):": None,
        "  setup_s": median(v for v, _ in setups),
        "  build_wall_s": median(v for v, _ in out["build_wall_s"]),
        "  refresh_wall_s": median(v for v, _ in out["refresh_wall_s"]),
        "  compact_wall_s": median(v for v, _ in out["compact_wall_s"]),
        "  cold_start_ms": median(v for v, _ in out["cold_start_ms"]),
        f"  pooled over {len(raw)} latencies:": None,
        "  p50 ms": percentile(raw, 50),
        "  p95 ms": percentile(raw, 95),
        "  p99 ms": percentile(raw, 99),
        "ref kernel readings": len(kernel),
        "ref kernel ms p50": median(kernel),
        "ref kernel ms min": min(kernel),
        "ref kernel ms max": max(kernel),
        "harness.verify_s": out["verify_s"],
    }
    return values, samples, extra


def render_metrics(spec_rows, values, samples, extra) -> str:
    lines = [f"{'metric':<44}{'value':>16}  unit"]
    for row in spec_rows:
        n = samples.get(row["name"])
        note = f"  (median of {n}, at reference speed)" if n else ""
        lines.append(
            f"{row['name']:<44}{values[row['name']]:>16.6g}  {row['unit']}{note}"
        )
    for name, value in extra.items():
        lines.append(name if value is None else f"{name:<44}{value:>16.6g}")
    return "\n".join(lines)


def render_span_table(rows: List[dict]) -> str:
    lines = [f"{'span':<36}{'count':>7}{'total_s':>11}{'self_s':>11}"]
    for row in rows:
        lines.append(
            f"{row['name']:<36}{row['count']:>7}"
            f"{row['total_s']:>11.4f}{row['self_s']:>11.4f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", default=None)
    # Test hook: flip one oracle answer, which must fail the run.
    parser.add_argument("--corrupt-oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("benchmarks/pipeline: no product source under src/", file=sys.stderr)
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.pipeline.common import ref_kernel_ms
    from benchmarks.pipeline.inputs import make_inputs
    from benchmarks.pipeline.workloads import NOMINAL_SECONDS, WORKLOADS

    spec = _load_spec()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else NOMINAL_SECONDS
    workload = WORKLOADS[args.workload].scaled(seconds)
    if args.quick:
        workload = workload.quick()

    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_ROOT)
    try:
        # Set-up is single-threaded: it runs on one CPU, like the journeys,
        # so that it and the kernel readings beside it (two on either side
        # of each rep) meet the same neighbours.
        setups = []  # (seconds, reference kernel ms beside it)
        inputs = None
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, sorted(cpus)[-1:])
        ref_kernel_ms()  # the first reading pays for the kernel's own set-up
        kernel_ms = (ref_kernel_ms() + ref_kernel_ms()) / 2.0
        for rep in range(1 if args.trace else SETUP_REPS):
            if inputs is not None:
                shutil.rmtree(os.path.dirname(inputs.corpus_dir))
            rep_dir = os.path.join(run_dir, f"setup{rep}")
            os.makedirs(rep_dir)
            started = time.perf_counter()
            inputs = make_inputs(workload, args.seed, rep_dir)
            wall = time.perf_counter() - started
            before, kernel_ms = kernel_ms, (ref_kernel_ms() + ref_kernel_ms()) / 2.0
            setups.append((wall, (before + kernel_ms) / 2.0))
        os.sched_setaffinity(0, cpus)
        if args.corrupt_oracle:
            inputs.expected_answers[0][0] = "0" * 16

        plan_path = os.path.join(run_dir, "plan.json")
        out_path = os.path.join(run_dir, "out.json")
        plan = {
            "workload": {
                "name": workload.name,
                "build": workload.build,
                "stack": workload.stack,
                "clients": workload.clients,
                "burst": workload.burst,
            },
            "seed": args.seed,
            "trace": bool(args.trace),
            "quick": args.quick,
            "corpus_dir": inputs.corpus_dir,
            "files": {
                "ridx2": os.path.join(run_dir, "index.ridx2"),
                "ridx1": os.path.join(run_dir, "index.ridx"),
            },
            "cold_query": inputs.cold_query,
            "rounds": inputs.rounds,
        }
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        _spawn_child(plan_path, out_path)
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)

        checks = Checks()
        started = time.perf_counter()
        latencies = verify(inputs, out, checks)
        out["verify_s"] += time.perf_counter() - started

        print(
            f"workload {workload.name}  seed {args.seed}  seconds {seconds:g}  "
            f"trace {args.trace}{'  quick' if args.quick else ''}"
        )
        print(f"corpus {inputs.file_count} files, {inputs.corpus_bytes} bytes; "
              f"{workload.rounds} rounds")
        print(checks.render())
        if args.trace:
            values = dict(out["layers"])
            values["harness.verify_s"] = out["verify_s"]
            rows = spec["per_layer"]
            print(render_span_table(out["span_table"]))
            print(render_metrics(rows, values, {}, {}))
            trace_out = args.trace_out or os.path.join(
                WORK_ROOT, f"trace_{workload.name}.json"
            )
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(out["chrome_trace"], fh, separators=(",", ":"))
            print(f"chrome trace: {os.path.relpath(trace_out, ROOT)}")
        else:
            values, samples, extra = end_to_end(inputs, out, latencies, setups)
            rows = spec["end_to_end"]
            print(render_metrics(rows, values, samples, extra))
            print("journey wall by phase: " + ", ".join(
                f"{phase} {wall:.2f} s" for phase, wall in out["phase_s"].items()
            ))
            if out["stack_stats"]:
                print("stack counters: " + ", ".join(
                    f"{name} {value:g}" for name, value in out["stack_stats"].items()
                ))
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
                for row in rows
            },
        }
        bad = [
            name
            for name, metric in result["metrics"].items()
            if not math.isfinite(metric["value"])
        ]
        if bad:
            raise SystemExit(f"non-finite metrics: {bad}")
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
