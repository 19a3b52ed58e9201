"""The repository's one repeatable benchmark.

``python3 benchmarks/pipeline/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (or ``python -m benchmarks.pipeline``) runs one *journey* —
set-up, build, persist, cold start, query passes, churn cycles, compaction,
verify — and prints every metric named in ``BENCHMARK.json``.  See the
README beside this file for the metrics, the workloads and the noise rules.
"""
