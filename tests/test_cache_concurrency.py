"""Concurrency and consistency tests for the query cache.

Three layers of evidence that :class:`~repro.query.cache.QueryCache`
is safe to hammer from every thread a desktop search runs on:

1. a stress test with real threads (lots of nondeterminism, weak
   oracle: invariants must hold afterwards);
2. a deterministic schedule sweep through the schedule checker — the
   cache takes its lock from a
   :class:`~repro.schedcheck.sync.InstrumentedSyncProvider`, so the
   race detector sees every entry access, and a mutation run with the
   lock broken proves the detector is actually watching;
3. copy-in/copy-out semantics: caller-side mutation of inserted or
   returned lists must never corrupt later hits.

Plus the refresh integration: after a segmented refresh the published
snapshot, whose cache starts empty, must never serve stale postings.
"""

from __future__ import annotations

import threading

import pytest

from repro.query.cache import QueryCache
from repro.query.evaluator import QueryEngine
from repro.schedcheck import (
    CooperativeScheduler,
    InstrumentedSyncProvider,
    Tracer,
    UnlockedSyncProvider,
    find_races,
    make_strategy,
)
from repro.service.snapshot import IndexSnapshot


# -- real-thread stress ------------------------------------------------


class TestThreadStress:
    THREADS = 8
    OPS = 300

    def test_hammered_cache_stays_consistent(self):
        cache = QueryCache(capacity=16)
        keys = [(f"q{i}", False) for i in range(40)]
        start = threading.Barrier(self.THREADS)
        errors = []

        def worker(worker_id: int) -> None:
            start.wait()
            try:
                for op in range(self.OPS):
                    key = keys[(worker_id * 7 + op) % len(keys)]
                    if op % 3 == 0:
                        cache.put(key, [f"{key[0]}.txt"])
                    elif op % 31 == 0:
                        assert len(cache) <= cache.capacity
                    else:
                        value = cache.get(key)
                        # a hit must return exactly what a put inserted
                        if value is not None and value != [f"{key[0]}.txt"]:
                            errors.append((key, value))
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(cache) <= cache.capacity
        gets = sum(1 for w in range(self.THREADS) for op in range(self.OPS)
                   if op % 3 != 0 and op % 31 != 0)
        assert cache.hits + cache.misses == gets
        assert 0.0 <= cache.hit_rate <= 1.0
        # surviving entries are uncorrupted
        for (query, parallel), _ in [(k, None) for k in keys]:
            value = cache.get((query, parallel))
            if value is not None:
                assert value == [f"{query}.txt"]

    def test_caching_engine_answers_match_under_threads(self, tiny_fs):
        from repro.engine import SequentialIndexer

        report = SequentialIndexer(tiny_fs).build()
        engine = QueryEngine(report.index)
        queries = sorted(report.index.terms())[:4]
        expected = {q: QueryEngine(report.index).search(q) for q in queries}
        caching = IndexSnapshot(
            report.index, engine=engine, cache=QueryCache(capacity=8)
        )
        start = threading.Barrier(6)
        mismatches = []

        def worker(worker_id: int) -> None:
            start.wait()
            for op in range(40):
                query = queries[(worker_id + op) % len(queries)]
                result = caching.answer(query).paths
                if result != expected[query]:
                    mismatches.append((query, result))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert mismatches == []
        assert caching.cache.hits > 0  # repeats actually hit


# -- deterministic schedule sweep --------------------------------------


def cache_scenario(provider):
    """Two threads interleaving get/put/evict on one shared cache."""
    cache = QueryCache(capacity=2, sync=provider)

    def reader() -> None:
        for _ in range(3):
            value = cache.get(("q", False))
            assert value is None or value == ["a.txt"]

    def writer() -> None:
        for i in range(3):
            cache.put(("q", False), ["a.txt"])
            cache.put((f"other{i}", False), ["b.txt"])

    threads = [provider.thread(reader, name="reader"),
               provider.thread(writer, name="writer")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return cache


class TestScheduleSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(6))
    def test_no_races_across_schedules(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: cache_scenario(provider))
        assert find_races(tracer) == []

    def test_record_mode_sees_entry_accesses(self):
        # Sanity: the cache's access() declarations reach the tracer, so
        # the sweep above is actually checking something.
        tracer = Tracer()
        provider = InstrumentedSyncProvider(tracer=tracer)
        provider.run(lambda: cache_scenario(provider))
        locations = {access.location for access in tracer.accesses}
        assert "query.cache.entries" in locations

    def test_broken_lock_is_caught(self):
        # Mutation self-test: strip the cache's lock and the detector
        # must report races on the entries location — proof the locked
        # runs pass because of the lock, not detector blindness.
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy("random", 1))
        provider = UnlockedSyncProvider(
            tracer=tracer,
            scheduler=scheduler,
            break_locks=("query.cache.lock",),
        )
        provider.run(lambda: cache_scenario(provider))
        races = find_races(tracer)
        assert races != []
        assert any("query.cache.entries" in race.location for race in races)


# -- copy-in / copy-out ------------------------------------------------


class TestCopySemantics:
    def test_mutating_inserted_list_does_not_corrupt_cache(self):
        cache = QueryCache(capacity=4)
        inserted = ["a.txt", "b.txt"]
        cache.put(("q", False), inserted)
        inserted.append("evil.txt")
        assert cache.get(("q", False)) == ["a.txt", "b.txt"]

    def test_mutating_returned_list_does_not_corrupt_cache(self):
        cache = QueryCache(capacity=4)
        cache.put(("q", False), ["a.txt"])
        first = cache.get(("q", False))
        first.clear()
        assert cache.get(("q", False)) == ["a.txt"]

    def test_engine_results_survive_caller_mutation(self, tiny_fs):
        from repro.engine import SequentialIndexer

        report = SequentialIndexer(tiny_fs).build()
        caching = IndexSnapshot(report.index, cache=QueryCache())
        query = sorted(report.index.terms())[0]
        expected = list(caching.answer(query).paths)
        caching.answer(query).paths.append("garbage")
        assert caching.answer(query).paths == expected


# -- invalidation after refresh ----------------------------------------


class TestInvalidateAfterRefresh:
    def build(self):
        from repro.api import Search
        from repro.fsmodel import VirtualFileSystem

        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"needle here")
        fs.write_file("b.txt", b"just hay")
        return fs, Search.build(fs)

    def test_add_modify_remove_never_served_stale(self):
        fs, session = self.build()
        assert session.query("needle").paths == ["a.txt"]

        fs.write_file("c.txt", b"fresh needle")   # add
        fs.replace_file("b.txt", b"needle now")   # modify
        fs.remove_file("a.txt")                   # remove
        report = session.refresh()
        assert report.added and report.modified and report.removed
        assert session.query("needle").paths == ["b.txt", "c.txt"]
        # and repeats come from the refreshed cache, still correct
        repeat = session.query("needle")
        assert repeat.cached and repeat.paths == ["b.txt", "c.txt"]

    def test_without_invalidate_result_is_stale(self):
        # Nothing is invalidated: a snapshot held from before the
        # refresh keeps serving its own pre-refresh postings, from its
        # own cache, while the published one answers fresh.
        fs, session = self.build()
        before = session.snapshot()
        assert before.answer("needle").paths == ["a.txt"]
        fs.write_file("c.txt", b"fresh needle")
        session.refresh()
        stale = before.answer("needle")
        assert stale.cached and stale.paths == ["a.txt"]  # stale hit
        assert session.query("needle").paths == ["a.txt", "c.txt"]
