"""Serving-latency smoke: a ~5 second open-loop run against the frontend.

The CI-sized version of ``benchmarks/test_extension_serving_latency.py``:
builds a small index, stands up an :class:`AsyncSearchFrontend`, drives
it with seeded Poisson arrivals from a duplicate-heavy workload, and
checks the health signals rather than the performance claims —

* p50/p95/p99 are finite and positive (computed from the harness's
  ``loadgen.query`` obs spans, cross-checked against the driver);
* the shed rate is sane (within [0, 1], and zero at this easy load);
* single-flight actually engaged (coalescing counter > 0);
* every accepted query resolved — completed + shed + errors == issued;
* a ``Search.serve_async`` leg over a session snapshot, which carries
  the result cache: repeats are answered from it (``frontend.cached``
  > 0), every caller is counted once (evaluations + coalesced + cached
  == served), and every answer equals ``snapshot.search``.

Writes the digest as JSON (default ``serving-latency-smoke.json``) for
the CI artifact upload.

Run:  PYTHONPATH=src python examples/serving_latency_smoke.py [out.json]
"""

from __future__ import annotations

import json
import math
import sys
import time

from repro import Search, obs
from repro.engine import SequentialIndexer
from repro.fsmodel import VirtualFileSystem
from repro.obs import recorder as obsrec
from repro.service import (
    AsyncSearchFrontend,
    IndexSnapshot,
    OpenLoopLoadGenerator,
    QuerySpec,
    SearchService,
)
from repro.service.loadgen import summarize_spans

FILES = 800
DURATION_S = 4.0
WARMUP_S = 0.5
SEED = 7
WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliett "
    "kilo lima mike november oscar papa quebec romeo sierra tango"
).split()


def _corpus() -> VirtualFileSystem:
    fs = VirtualFileSystem()
    for i in range(FILES):
        picks = [WORDS[(i + k * 7) % len(WORDS)] for k in range(6)]
        fs.write_file(f"doc{i:05d}.txt", (" ".join(picks) + f" doc{i}").encode())
    return fs


def serve_async_leg(specs) -> dict:
    """Bursts of the workload through ``Search.serve_async``; returns
    the front end's counters and how many answers differed from
    ``snapshot.search``."""
    session = Search.build(_corpus())
    snapshot = session.snapshot()
    assert snapshot.cache is not None
    wrong = 0
    with session.serve_async(workers=2) as frontend:
        for _ in range(4):
            for at in range(0, len(specs), 8):
                burst = specs[at : at + 8]
                tickets = [frontend.submit(spec.text) for spec in burst]
                for spec, ticket in zip(burst, tickets):
                    result = ticket.result(timeout=30)
                    wrong += result.paths != snapshot.search(spec.text)
        stats = frontend.stats()
    return {**stats, "wrong_answers": float(wrong)}


def main(out_path: str = "serving-latency-smoke.json") -> int:
    obs.enable()
    index = SequentialIndexer(_corpus(), naive=False).build().index
    snapshot = IndexSnapshot(index)

    # Duplicate-heavy workload: 3 hot queries (x10) + 12 distinct.
    hot = [QuerySpec(f"{WORDS[i]} AND {WORDS[i + 1]}") for i in range(3)]
    cold = [
        QuerySpec(f"{WORDS[i]} OR {WORDS[(i * 3 + 5) % len(WORDS)]}")
        for i in range(12)
    ]
    specs = hot * 10 + cold

    # Calibrate a comfortable offered load (~40% of solo capacity).
    started = time.perf_counter()
    for spec in specs:
        snapshot.search(spec.text)
    solo = (time.perf_counter() - started) / len(specs)
    qps = 0.4 / solo

    generator = OpenLoopLoadGenerator(
        specs, offered_qps=qps, duration_s=DURATION_S,
        warmup_s=WARMUP_S, seed=SEED,
    )
    service = SearchService(snapshot, workers=1, max_inflight=32)
    frontend = AsyncSearchFrontend(
        service, batch_window=0.002, workers=2, own_service=True
    )
    try:
        result = generator.run_frontend(frontend)
        stats = frontend.stats()
    finally:
        frontend.close()
    spans = summarize_spans(obsrec.get_recorder().spans, label="frontend")
    cached_leg = serve_async_leg(specs)

    digest = {
        "smoke": "serving_latency",
        "offered_qps": round(qps, 1),
        "run": result.to_dict(),
        "frontend_stats": {k: round(v, 4) for k, v in stats.items()},
        "spans_crosscheck": {k: round(v, 4) for k, v in spans.items()},
        "serve_async": {k: round(v, 4) for k, v in cached_leg.items()},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(digest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(digest, indent=2, sort_keys=True))

    failures = []
    for name in ("p50_ms", "p95_ms", "p99_ms"):
        value = result.to_dict()[name]
        if not (math.isfinite(value) and value > 0):
            failures.append(f"{name} not finite/positive: {value}")
    if not 0.0 <= result.shed_rate <= 1.0:
        failures.append(f"shed_rate out of range: {result.shed_rate}")
    if result.shed_rate > 0.05:
        failures.append(f"shedding at an easy load: {result.shed_rate}")
    if stats["frontend.coalesced"] <= 0:
        failures.append("single-flight never coalesced a duplicate")
    if result.completed + result.shed + result.errors != result.issued:
        failures.append("not every issued query resolved")
    if spans["count"] != result.measured:
        failures.append("span cross-check disagrees with the driver")
    if cached_leg["frontend.cached"] <= 0:
        failures.append("serve_async never answered a repeat from the cache")
    accounted = sum(
        cached_leg[f"frontend.{name}"]
        for name in ("evaluations", "coalesced", "cached")
    )
    if accounted != cached_leg["frontend.served"]:
        failures.append(
            "evaluations + coalesced + cached != served in serve_async"
        )
    if cached_leg["wrong_answers"]:
        failures.append("a serve_async answer differs from snapshot.search")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: p99={result.p99_ms:.2f} ms, "
          f"{int(stats['frontend.coalesced'])} coalesced, "
          f"{int(cached_leg['frontend.cached'])} cached (serve_async), "
          f"shed_rate={result.shed_rate:.3f} -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
