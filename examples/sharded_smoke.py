"""Sharded-serving smoke test: scatter-gather with a mid-load shard kill.

Builds an index over a synthetic corpus, partitions it across three
shards behind a :class:`~repro.service.sharded.ScatterGatherBroker`,
then:

1. runs a differential battery — every query's merged boolean answer
   must be byte-identical to the unsharded engine's, and its merged
   BM25 hits (paths and float scores) equal to the unsharded ranker's;
2. kills shard 1 while reader threads are mid-stream and asserts every
   in-flight and subsequent query terminates with either a *degraded*
   result (correct over the live shards, ``shards_ok == 2/3``) or a
   typed error — never a hang;
3. re-runs the tail of the battery under ``partial="fail"`` and
   asserts the dead shard now surfaces as :class:`ShardDeadError`.

CI runs this as the ``sharded-smoke`` job and validates the Chrome
trace it writes with ``python -m repro.obs.validate``.

Run:  PYTHONPATH=src python examples/sharded_smoke.py [trace.json]
"""

from __future__ import annotations

import sys
import threading
import time

from repro import Search, obs
from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.query.ranking import BM25Ranker, FrequencyIndex, search_bm25
from repro.service import (
    ServiceClosedError,
    ServiceOverloadedError,
    ShardDeadError,
)

SHARDS = 3
READERS = 4
QUERIES_EACH = 40


def battery(session) -> tuple:
    """Queries over terms actually present, covering every operator."""
    terms = sorted(session.index.terms())
    a, b = terms[0], terms[len(terms) // 2]
    return (
        a,
        f"{a} AND {b}",
        f"{a} OR nosuchterm",
        f"NOT {a}",
        f"{a} AND NOT {b}",
        f"{a[:2]}*",
    )


def main(trace_path: str = "sharded-trace.json") -> int:
    obs.enable()
    corpus = CorpusGenerator(TINY_PROFILE).generate()
    session = Search.build(corpus.fs)
    print(f"indexed {len(session)} files; {SHARDS} shards, "
          f"{READERS} readers x {QUERIES_EACH} queries, "
          f"shard 1 killed mid-load")

    # -- 1. differential battery on the healthy topology ------------------
    queries = battery(session)
    probe = queries[0]
    ranker = BM25Ranker(FrequencyIndex.from_fs(corpus.fs))
    engine = session.snapshot().engine
    with session.serve_sharded(shards=SHARDS, workers=2, max_inflight=256,
                               bm25=True) as broker:
        for text in queries:
            sharded = broker.query(text)
            unsharded = session.query(text)
            assert sharded.paths == unsharded.paths, (
                f"differential mismatch on {text!r}"
            )
            assert sharded.shards_ok == sharded.shards_total == SHARDS
            hits = broker.query(text, rank="bm25", topk=7).hits
            assert hits == search_bm25(engine, ranker, text, topk=7), (
                f"BM25 mismatch on {text!r}"
            )
        print(f"differential battery: {len(queries)} queries identical "
              "to the unsharded engine, BM25 top-7 scores included")

        # -- 2. kill shard 1 under load; nothing may hang ----------------
        dead_universe = (
            broker.groups[1].replicas[0].service.snapshot.universe
        )
        results, errors = [], []
        barrier = threading.Barrier(READERS + 1)

        def reader() -> None:
            barrier.wait()
            for _ in range(QUERIES_EACH):
                try:
                    results.append(broker.query(probe))
                except (ShardDeadError, ServiceOverloadedError,
                        ServiceClosedError) as exc:
                    # typed ends only; anything else kills the thread
                    # and fails the accounting assertion below
                    errors.append(exc)
                time.sleep(0.001)

        def killer() -> None:
            barrier.wait()
            time.sleep(0.015)  # let the stream get going first
            broker.kill_shard(1)

        threads = [threading.Thread(target=reader)
                   for _ in range(READERS)]
        threads.append(threading.Thread(target=killer))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60.0
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), "a query hung after the kill"

        assert len(results) + len(errors) == READERS * QUERIES_EACH
        full = [r for r in results if r.shards_ok == SHARDS]
        degraded = [r for r in results if r.shards_ok < SHARDS]
        expected_full = session.query(probe).paths
        expected_degraded = [path for path in expected_full
                             if path not in dead_universe]
        for result in full:
            assert result.paths == expected_full
        for result in degraded:
            assert result.degraded
            assert result.paths == expected_degraded
            assert (result.shards_ok, result.shards_total) == (2, 3)
        assert degraded, "the kill never surfaced in the results"
        stats = broker.stats()
        assert stats["broker.shards_ok"] == 2.0
        print(f"kill under load: {len(full)} full + {len(degraded)} "
              f"degraded results, {len(errors)} typed errors, 0 hangs; "
              f"shards_ok {stats['broker.shards_ok']:.0f}/"
              f"{stats['broker.shards_total']:.0f}")

    # -- 3. same dead shard under partial="fail": typed failure ----------
    with session.serve_sharded(shards=SHARDS, partial="fail",
                               workers=2, max_inflight=256) as strict:
        strict.kill_shard(1)
        try:
            strict.query(probe)
        except ShardDeadError as exc:
            print(f"partial=fail surfaces the dead shard: {exc}")
        else:
            raise AssertionError("partial='fail' answered degraded")
        assert strict.stats()["broker.failed"] == 1.0

    written = obs.write_chrome_trace(trace_path, obs.get_recorder().spans)
    print(f"trace -> {trace_path} ({written} bytes)")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
