"""The scatter-gather broker: merging, failure policy, composition.

Four claims under test, mirroring ``docs/sharded.md``:

1. the **differential gate** — a boolean query answered by the broker
   is byte-identical to the unsharded engine's answer, across the
   in-memory and process (RIDX2 off mmap) shard backends, for every
   operator the query language has (document partitioning commutes
   with per-document evaluation);
2. the **scoring contract** — every shard scores BM25 on the whole
   collection's statistics, so sharded hits equal the unsharded
   ranking's, paths and float scores, on every backend; the merge is
   the first K of the concatenated per-shard top-K lists under the
   ``(score desc, path asc)`` tie-break;
3. **dead shards** — killing a shard degrades or fails per the
   ``partial`` policy, with the ``shards_ok/shards_total`` health
   tuple on every result and a typed error, never a hang; the
   deterministic schedule sweep drives kill/close against in-flight
   queries across seeds and finds no race;
4. **composition** — the broker wears the service face, so the async
   frontend seats on top unchanged.
"""

from __future__ import annotations

import pytest

from repro.index.inverted import InvertedIndex
from repro.query.evaluator import QueryEngine
from repro.query.ranking import BM25Ranker, FrequencyIndex, search_bm25
from repro.schedcheck import (
    CooperativeScheduler,
    InstrumentedSyncProvider,
    Tracer,
    find_races,
    make_strategy,
)
from repro.service import (
    AsyncSearchFrontend,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardDeadError,
)
from repro.service.sharded import (
    ScatterGatherBroker,
    build_sharded_service,
    local_broker,
    partition_paths,
    shard_snapshots,
)
from repro.text.termblock import TermBlock

#: A corpus small enough to reason about, rich enough to make every
#: operator discriminate: overlapping terms, per-shard-unique terms,
#: shared prefixes, duplicate occurrences (tf > 1) and varied lengths.
DOCS = {
    "doc00.txt": "alpha beta gamma alpha alpha",
    "doc01.txt": "alpha delta",
    "doc02.txt": "beta gamma delta epsilon",
    "doc03.txt": "alpha beta",
    "doc04.txt": "gamma gamma gamma zeta",
    "doc05.txt": "delta epsilon zeta",
    "doc06.txt": "alpha epsilon",
    "doc07.txt": "beta zeta alpha beta",
    "doc08.txt": "gamma delta",
    "doc09.txt": "alphabet soup alpha",
    "doc10.txt": "epsilon",
    "doc11.txt": "zeta alpha delta gamma",
}

QUERIES = (
    "alpha",
    "nosuchterm",
    "alpha AND beta",
    "alpha OR epsilon",
    "NOT delta",
    "alpha AND NOT beta",
    "alph*",
    "(alpha OR zeta) AND NOT (gamma AND delta)",
)


def build_corpus(docs=DOCS):
    """(InvertedIndex, FrequencyIndex) over the doc dict."""
    index = InvertedIndex()
    frequencies = FrequencyIndex()
    for path in sorted(docs):
        words = docs[path].split()
        index.add_block(TermBlock(path, tuple(sorted(set(words)))))
        frequencies.add_document(path, words)
    return index, frequencies


def reference_engine(docs=DOCS):
    index, _ = build_corpus(docs)
    return QueryEngine(index, universe=frozenset(docs))


class TestPartitioning:
    def test_partition_is_a_disjoint_cover(self):
        parts = partition_paths(DOCS, 3)
        flat = [path for part in parts for path in part]
        assert sorted(flat) == sorted(DOCS)
        assert len(flat) == len(set(flat))

    def test_partition_ignores_traversal_order(self):
        forward = partition_paths(sorted(DOCS), 3)
        backward = partition_paths(sorted(DOCS, reverse=True), 3)
        assert forward == backward

    def test_partition_deals_sorted_paths_round_robin(self):
        ordered = sorted(DOCS)
        assert partition_paths(DOCS, 3) == [
            ordered[0::3], ordered[1::3], ordered[2::3]
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_paths(DOCS, 0)

    def test_shard_snapshots_slice_universe_and_statistics(self):
        index, frequencies = build_corpus()
        snapshots = shard_snapshots(index, DOCS, 3,
                                    frequencies=frequencies)
        assert len(snapshots) == 3
        union = set()
        for snapshot in snapshots:
            assert not (union & snapshot.universe)
            union |= snapshot.universe
            # The universe is sliced, the statistics are not: every
            # shard ranks on the collection's N.
            ranker = snapshot.engine.ranker
            assert ranker.frequencies is frequencies
            assert ranker.frequencies.document_count == len(DOCS)
        assert union == set(DOCS)


class TestDifferentialBoolean:
    """The gate: sharded boolean == unsharded, byte for byte."""

    @pytest.mark.parametrize(
        "shards", (1, 2, 3, 5), ids=lambda shards: f"roundrobin-{shards}"
    )
    def test_in_memory_backend(self, shards):
        index, frequencies = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(
            index, DOCS, shards=shards, frequencies=frequencies,
        )
        with broker:
            for text in QUERIES:
                result = broker.query(text)
                assert result.paths == engine.search(text), text
                assert result.shards_ok == result.shards_total == shards

    def test_ridx2_backend(self):
        index, frequencies = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
            backend="process",
        )
        with broker:
            for text in QUERIES:
                assert broker.query(text).paths == engine.search(text), text

    def test_process_backend(self):
        index, frequencies = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(
            index, DOCS, shards=2, frequencies=frequencies,
            backend="process",
        )
        with broker:
            for text in ("alpha AND beta", "NOT delta", "alph*"):
                assert broker.query(text).paths == engine.search(text), text


def unsharded_bm25(text, topk):
    index, frequencies = build_corpus()
    engine = QueryEngine(index, universe=frozenset(DOCS))
    return search_bm25(engine, BM25Ranker(frequencies), text, topk=topk)


class TestBM25Merge:
    def test_merge_is_a_prefix_of_the_concatenated_shard_lists(self):
        index, frequencies = build_corpus()
        broker = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
        )
        with broker:
            topk = 5
            merged = broker.query("alpha OR gamma", rank="bm25",
                                  topk=topk)
            per_shard = []
            for group in broker.groups:
                per_shard.extend(
                    group.query("alpha OR gamma", rank="bm25",
                                topk=topk).hits
                )
            per_shard.sort(key=lambda hit: (-hit.score, hit.path))
            assert merged.hits == per_shard[:topk]

    def test_ondisk_shards_score_identically_to_in_memory(self):
        # Same collection statistics -> same scores, whichever engine
        # (in-memory ranker vs DAAT off mmap) computes them.
        index, frequencies = build_corpus()
        memory = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
        )
        ondisk = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
            backend="process",
        )
        with memory, ondisk:
            a = memory.query("alpha AND beta", rank="bm25", topk=8).hits
            b = ondisk.query("alpha AND beta", rank="bm25", topk=8).hits
            assert a == b

    def test_process_shards_rank_like_one_unsharded_engine(self):
        index, frequencies = build_corpus()
        broker = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
            backend="process",
        )
        with broker:
            for text in QUERIES:
                hits = broker.query(text, rank="bm25", topk=7).hits
                assert hits == unsharded_bm25(text, 7), text

    def test_bm25_without_frequencies_is_rejected(self):
        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=2)
        with broker:
            with pytest.raises(ValueError):
                broker.query("alpha", rank="bm25")


class TestDeadShards:
    def test_degrade_answers_from_live_shards(self):
        index, _ = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(index, DOCS, shards=3,
                                       partial="degrade")
        with broker:
            broker.kill_shard(1)
            dead_docs = broker.groups[1].replicas[0].service.snapshot.universe
            result = broker.query("alpha")
            expected = [path for path in engine.search("alpha")
                        if path not in dead_docs]
            assert result.paths == expected
            assert (result.shards_ok, result.shards_total) == (2, 3)
            assert result.degraded
            stats = broker.stats()
            assert stats["broker.shards_ok"] == 2.0
            assert stats["broker.degraded"] == 1.0

    def test_fail_raises_typed_error(self):
        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=3,
                                       partial="fail")
        with broker:
            broker.kill_shard(0)
            with pytest.raises(ShardDeadError):
                broker.query("alpha")
            assert broker.stats()["broker.failed"] == 1.0

    def test_all_shards_dead_raises_even_under_degrade(self):
        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=2,
                                       partial="degrade")
        with broker:
            broker.kill_shard(0)
            broker.kill_shard(1)
            with pytest.raises(ShardDeadError):
                broker.query("alpha")

    def test_replica_failover_hides_a_single_replica_death(self):
        index, _ = build_corpus()
        snapshots = shard_snapshots(index, DOCS, 2)
        broker = local_broker(snapshots, replicas=2, partial="fail")
        with broker:
            broker.groups[0].replicas[0].kill()
            result = broker.query("alpha")  # failover, not failure
            assert (result.shards_ok, result.shards_total) == (2, 2)
            assert not result.degraded
            assert broker.groups[0].alive

    def test_process_shard_kill_is_detected_not_waited_out(self):
        index, frequencies = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(
            index, DOCS, shards=3, frequencies=frequencies,
            backend="process",
        )
        with broker:
            victim = broker.groups[1].replicas[0]
            victim.kill()  # SIGKILL; next query runs real detection
            result = broker.query("alpha")
            assert (result.shards_ok, result.shards_total) == (2, 3)
            live = {path for group in broker.groups
                    if group.alive
                    for path in group.query("NOT nosuchterm").paths}
            assert set(result.paths) == set(engine.search("alpha")) & live


class TestBrokerFace:
    def test_parse_errors_are_fatal_not_partial(self):
        from repro.query.parser import ParseError

        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=2)
        with broker:
            with pytest.raises(ParseError):
                broker.query("AND AND")
            # a malformed query is the caller's fault, not a dead shard
            assert broker.stats()["broker.failed"] == 0.0

    def test_max_inflight_is_the_weakest_shards_budget(self):
        index, _ = build_corpus()
        snapshots = shard_snapshots(index, DOCS, 2)
        broker = local_broker(snapshots, replicas=2, max_inflight=8)
        with broker:
            assert broker.max_inflight == 16  # 2 replicas x 8 each

    def test_query_after_close_raises_typed(self):
        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=2)
        broker.close()
        assert broker.closed
        with pytest.raises(ServiceClosedError):
            broker.query("alpha")
        broker.close()  # idempotent

    def test_constructor_validation(self):
        index, _ = build_corpus()
        snapshots = shard_snapshots(index, DOCS, 2)
        with pytest.raises(ValueError):
            ScatterGatherBroker([], partial="degrade")
        with pytest.raises(ValueError):
            local_broker(snapshots, partial="maybe")
        with pytest.raises(ValueError):
            local_broker(snapshots, replicas=0)
        with pytest.raises(ValueError):
            build_sharded_service(index, DOCS, backend="remote")

    def test_rank_validation(self):
        index, _ = build_corpus()
        broker = build_sharded_service(index, DOCS, shards=2)
        with broker:
            with pytest.raises(ValueError):
                broker.query("alpha", rank="pagerank")


class TestProcessShardFiles:
    """The process backend's shard files belong to the broker: they
    live in one ``repro-shards-*`` temporary directory that ``close()``
    removes, and that a failed start removes at once."""

    @pytest.fixture
    def tempdir(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_close_removes_the_shard_directory(self, tempdir):
        index, frequencies = build_corpus()
        broker = build_sharded_service(
            index, DOCS, shards=2, frequencies=frequencies,
            backend="process",
        )
        with broker:
            (directory,) = tempdir.glob("repro-shards-*")
            assert sorted(p.name for p in directory.iterdir()) == [
                "shard-0000.ridx2", "shard-0001.ridx2",
            ]
            assert broker.query("alpha").paths == (
                reference_engine().search("alpha")
            )
        assert list(tempdir.glob("repro-shards-*")) == []

    def test_a_replica_that_fails_to_start_leaves_nothing(
        self, tempdir, monkeypatch
    ):
        import repro.service.shardproc as shardproc

        real = shardproc.ProcessShardReplica
        started = []

        def flaky(*args, **kwargs):
            if started:
                raise OSError("cannot spawn")
            started.append(real(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(shardproc, "ProcessShardReplica", flaky)
        index, _ = build_corpus()
        with pytest.raises(OSError, match="cannot spawn"):
            build_sharded_service(index, DOCS, shards=2, backend="process")
        assert list(tempdir.glob("repro-shards-*")) == []
        (first,) = started
        assert not first.alive  # the replica that did start was closed


class TestFrontendSeating:
    def test_frontend_over_broker_coalesces(self):
        index, _ = build_corpus()
        engine = reference_engine()
        broker = build_sharded_service(index, DOCS, shards=3)
        frontend = AsyncSearchFrontend(broker, own_service=True,
                                       workers=2, batch_window=0.0)
        try:
            result = frontend.query("alpha AND beta")
            assert result.paths == engine.search("alpha AND beta")
            assert (result.shards_ok, result.shards_total) == (3, 3)
        finally:
            frontend.close()
        assert broker.closed  # own_service: one close shuts both


# -- deterministic schedule sweep ----------------------------------------


def probe_expectations():
    """Global and per-shard answers for the sweep's probe query."""
    engine = reference_engine()
    full = engine.search("alpha")
    parts = partition_paths(DOCS, 2)
    per_shard = [sorted(set(full) & set(part)) for part in parts]
    return full, per_shard


def kill_scenario(provider):
    """Readers query while a killer takes shard 0 down, mid-stream.

    Oracle: every outcome is either the full answer (both shards
    alive when it scattered), the live shard's slice flagged degraded,
    or a typed error — and the run terminates (a hang would deadlock
    the cooperative scheduler).
    """
    full, per_shard = probe_expectations()
    index, _ = build_corpus()
    snapshots = shard_snapshots(index, DOCS, 2)
    broker = local_broker(snapshots, partial="degrade", sync=provider)
    results, errors = [], []

    def reader() -> None:
        for _ in range(3):
            try:
                results.append(broker.query("alpha"))
            except (ShardDeadError, ServiceOverloadedError,
                    ServiceClosedError) as exc:
                errors.append(exc)

    def killer() -> None:
        broker.kill_shard(0)

    threads = [
        provider.thread(reader, name="reader"),
        provider.thread(killer, name="killer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    broker.close()

    assert len(results) + len(errors) == 3
    for result in results:
        if result.shards_ok == 2:
            assert result.paths == full
            assert not result.degraded
        else:
            assert result.paths == per_shard[1]
            assert result.degraded


def close_scenario(provider):
    """Readers query while the broker shuts down.

    A query racing the close may see some shards already closed —
    those count as dead, so under ``partial="degrade"`` a degraded
    slice is a legal outcome alongside the full answer and the typed
    errors.  What is *not* legal is a hang or an untyped result.
    """
    full, per_shard = probe_expectations()
    index, _ = build_corpus()
    snapshots = shard_snapshots(index, DOCS, 2)
    broker = local_broker(snapshots, partial="degrade", sync=provider)
    results, errors = [], []

    def reader() -> None:
        for _ in range(3):
            try:
                results.append(broker.query("alpha"))
            except (ShardDeadError, ServiceOverloadedError,
                    ServiceClosedError) as exc:
                errors.append(exc)

    def closer() -> None:
        broker.close()

    threads = [
        provider.thread(reader, name="reader"),
        provider.thread(closer, name="closer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(results) + len(errors) == 3
    for result in results:
        if result.shards_ok == 2:
            assert result.paths == full
        else:
            assert result.degraded
            assert result.paths in per_shard


class TestScheduleSweep:
    @pytest.mark.parametrize("scenario", (kill_scenario, close_scenario),
                             ids=("kill", "close"))
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(3))
    def test_kill_and_close_never_hang_or_race(self, scenario, strategy,
                                               seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: scenario(provider))
        assert find_races(tracer) == []
