"""Smoke test of the benchmark itself (run explicitly; tier-1 collects
``tests/`` only):

    PYTHONPATH=src python -m pytest benchmarks/pipeline/test_smoke.py -q

Every check uses ``--quick`` (TINY_PROFILE, two of everything) and the
eight full runs go two at a time (``nproc`` = 2), so the whole file runs
in under 20 s.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, seed: int = 7, cwd: str = ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, lines, result


def check_metrics(rows, lines, result):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [row["name"] for row in rows]
    for row in rows:
        metric = result["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert math.isfinite(metric["value"])
        printed = [l for l in lines[:-1] if l.split(" ")[0] == row["name"]]
        assert len(printed) == 1, row["name"]
        assert printed[0].split()[2] == row["unit"]


def test_spec_names_and_units():
    rows = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [r["name"] for r in rows] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(r["unit"]) for r in rows)
    assert any(
        r["name"] == "setup_s" and r["unit"] == "s" and r["better"] == "lower"
        for r in SPEC["end_to_end"]
    )
    assert all(0 < r["bound"] <= 0.25 for r in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload untraced and traced: (workload, trace) -> (process,
    stdout lines, result object, Chrome trace file)."""
    traces = tmp_path_factory.mktemp("traces")

    def one(workload, trace):
        trace_file = str(traces / f"{workload}.json")
        return (*run(workload, "--trace", trace, "--trace-out", trace_file), trace_file)

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            (w, t): pool.submit(one, w, t) for t in ("0", "1") for w in WORKLOADS
        }
    return {key: future.result() for key, future in futures.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(runs, workload):
    done, lines, result, _ = runs[workload, "0"]
    assert done.returncode == 0, done.stderr
    check_metrics(SPEC["end_to_end"], lines, result)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(runs, workload):
    done, lines, result, trace_file = runs[workload, "1"]
    assert done.returncode == 0, done.stderr
    check_metrics(SPEC["per_layer"], lines, result)
    with open(trace_file, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    ids = {e["args"]["id"] for e in events}
    assert all(e["args"]["parent"] in ids | {None} for e in events)
    assert len({e["args"]["run"] for e in events}) == 1


def test_same_seed_same_inputs_and_size(runs):
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.pipeline.inputs import make_inputs
    from benchmarks.pipeline.workloads import WORKLOADS as table

    workload = table["serve_ondisk"].quick()
    plans = []
    for seed in (11, 11, 12):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = make_inputs(workload, seed, tmp)
            deltas = [
                {**step["churn"],
                 "modify": [p for p, _ in step["churn"]["modify"]],
                 "add": [p for p, _ in step["churn"]["add"]]}
                for step in inputs.rounds if step["churn"]
            ]
            queries = [step["queries"] for step in inputs.rounds]
            plans.append((queries, deltas, inputs.expected_answers,
                          inputs.digest_pristine, inputs.digest_final))
    assert plans[0] == plans[1]
    assert plans[0][0] != plans[2][0] and plans[0][3] != plans[2][3]

    again = run("serve_ondisk", "--trace", "0")[2]
    first = runs["serve_ondisk", "0"][2]
    size = "index_bytes_per_corpus_byte"
    assert again["metrics"][size]["value"] == first["metrics"][size]["value"]


def test_corrupted_oracle_answer_fails_the_run():
    done, _, result = run("build_paper", "--trace", "0", "--corrupt-oracle")
    assert done.returncode != 0
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_to_run_without_the_product():
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command must fail without printing a result."""
    import shutil

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(
            HERE, os.path.join(tmp, "benchmarks", "pipeline"),
            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"),
        )
        done = subprocess.run(
            [sys.executable, "benchmarks/pipeline/run.py", "--workload",
             "build_paper", "--seed", "1", "--seconds", "20", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    assert done.returncode != 0
    assert not any(l.startswith("{") for l in done.stdout.splitlines())
