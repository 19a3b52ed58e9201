"""Unit tests for the snapshot-isolated query service.

Covers the single-threaded contracts of :mod:`repro.service`: snapshot
immutability and succession, caller-runs evaluation (the engine runs on
the caller's thread, ``workers`` slots, FIFO slot waiters), admission
control (shed at the bound), the refresher protocol, graceful drain on
close, and the stats/metrics surface.  The interleaving-level guarantees live in
``test_service_concurrency.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.index.inverted import InvertedIndex
from repro.query.cache import QueryCache
from repro.service import (
    IndexSnapshot,
    QueryResult,
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.snapshot import universe_of
from repro.text.termblock import TermBlock


def index_for(generation: int) -> InvertedIndex:
    """A tiny index whose answer identifies its generation."""
    index = InvertedIndex()
    index.add_block(
        TermBlock(f"gen{generation}.txt", ("probe", f"g{generation}"))
    )
    return index


def snapshot_for(generation: int, **kwargs) -> IndexSnapshot:
    """:func:`index_for`'s index published as that generation."""
    return IndexSnapshot(
        index_for(generation), generation=generation, **kwargs
    )


class BlockingEngine:
    """A stand-in engine whose searches park until released."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def search(self, query_text):
        self.entered.set()
        assert self.release.wait(timeout=5.0), "never released"
        return ["blocked.txt"]

    def search_ast(self, query):
        return self.search(str(query))


class RecordingEngine(BlockingEngine):
    """A :class:`BlockingEngine` that records each entry, in order, as
    ``(query text, thread id)``."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def search(self, query_text):
        self.calls.append((query_text, threading.get_ident()))
        return super().search(query_text)


class FailingEngine:
    def search_ast(self, query):
        raise RuntimeError(f"engine failed on {query}")


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition not reached"
        time.sleep(0.001)


def recording_service(**kwargs):
    engine = RecordingEngine()
    snapshot = IndexSnapshot(index_for(0), engine=engine)
    return SearchService(snapshot, **kwargs), engine


def blocking_service(**kwargs):
    engine = BlockingEngine()
    snapshot = IndexSnapshot(index_for(0), engine=engine)
    return SearchService(snapshot, **kwargs), engine


class TestIndexSnapshot:
    def test_universe_is_transposed_from_postings(self):
        assert universe_of(index_for(3)) == {"gen3.txt"}
        snapshot = IndexSnapshot(index_for(3))
        assert snapshot.universe == {"gen3.txt"}

    def test_search_uses_own_engine(self):
        snapshot = IndexSnapshot(index_for(1))
        assert snapshot.search("probe") == ["gen1.txt"]
        assert snapshot.search("NOT probe") == []

    def test_next_bumps_generation_and_keeps_original(self):
        # The next snapshot is a new object; the first one is untouched.
        first = IndexSnapshot(index_for(0))
        second = snapshot_for(1, provenance="refresh")
        assert (first.generation, second.generation) == (0, 1)
        assert second.provenance == "refresh"
        assert first.search("probe") == ["gen0.txt"]
        assert second.search("probe") == ["gen1.txt"]
        assert "generation 1" in second.describe()

    def test_snapshot_is_frozen(self):
        snapshot = IndexSnapshot(index_for(0))
        with pytest.raises(AttributeError):
            snapshot.generation = 9


class TestQueryResult:
    def test_sequence_protocol(self):
        result = QueryResult(paths=["a.txt", "b.txt"], generation=4)
        assert len(result) == 2
        assert list(result) == ["a.txt", "b.txt"]
        assert "a.txt" in result and "c.txt" not in result
        assert result.generation == 4
        assert not result.cached


class TestServiceBasics:
    def test_query_returns_typed_result(self):
        with SearchService(IndexSnapshot(index_for(0)), workers=2) as service:
            result = service.query("probe")
            assert isinstance(result, QueryResult)
            assert result.paths == ["gen0.txt"]
            assert result.generation == 0
            assert result.elapsed_s >= 0.0

    def test_constructor_validation(self):
        snapshot = IndexSnapshot(index_for(0))
        with pytest.raises(ValueError):
            SearchService(snapshot, workers=0)
        with pytest.raises(ValueError):
            SearchService(snapshot, max_inflight=0)
        with pytest.raises(TypeError):
            SearchService(snapshot, shed="block")  # one policy: shed

    def test_query_error_propagates_to_caller(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            with pytest.raises(Exception):
                service.query("AND AND")  # unparsable
            # the worker survives the bad query
            assert service.query("probe").paths == ["gen0.txt"]

    def test_stats_counts_served(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            for _ in range(3):
                service.query("probe")
            stats = service.stats()
        assert stats["service.served"] == 3.0
        assert stats["service.inflight"] == 0.0
        assert stats["service.generation"] == 0.0


class TestCallerRuns:
    def test_engine_runs_on_the_callers_thread(self):
        service, engine = recording_service()
        engine.release.set()
        try:
            service.query("probe")
            other = threading.Thread(target=lambda: service.query("g0"))
            other.start()
            other.join(timeout=5.0)
            assert engine.calls == [
                ("probe", threading.get_ident()),
                ("g0", other.ident),
            ]
        finally:
            service.close()

    def test_construction_starts_no_thread(self):
        before = set(threading.enumerate())
        service = SearchService(
            IndexSnapshot(index_for(0)),
            refresher=lambda: (snapshot_for(1), None),
            workers=4,
        )
        try:
            service.query("probe")
            assert set(threading.enumerate()) - before == set()
            service.start_watch(60.0)  # the one thread a service starts
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["service-watch"]
        finally:
            service.close()
        assert set(threading.enumerate()) - before == set()

    def test_workers_bound_how_many_callers_evaluate(self):
        service, engine = recording_service(workers=2, max_inflight=8)
        callers = [
            threading.Thread(target=lambda: service.query("probe"))
            for _ in range(3)
        ]
        try:
            for caller in callers:
                caller.start()
            wait_until(lambda: service.stats()["service.queue_depth"] == 1)
            wait_until(lambda: len(engine.calls) == 2)
            time.sleep(0.05)  # the third must still wait for a slot
            assert len(engine.calls) == 2
            stats = service.stats()
            assert stats["service.queue_depth"] == 1.0
            assert stats["service.inflight"] == 3.0
        finally:
            engine.release.set()
            for caller in callers:
                caller.join(timeout=5.0)
            service.close()
        assert len(engine.calls) == 3
        assert service.stats()["service.served"] == 3.0

    def test_slot_waiters_are_admitted_in_arrival_order(self):
        service, engine = recording_service(workers=1, max_inflight=8)
        texts = ["probe", "w1", "w2", "w3", "w4"]
        callers = []
        try:
            for position, text in enumerate(texts):
                caller = threading.Thread(
                    target=lambda text=text: service.query(text)
                )
                caller.start()
                callers.append(caller)
                if position == 0:
                    assert engine.entered.wait(timeout=5.0)
                else:
                    wait_until(
                        lambda: service.stats()["service.queue_depth"]
                        == position
                    )
        finally:
            engine.release.set()
            for caller in callers:
                caller.join(timeout=5.0)
            service.close()
        assert [text for text, _ in engine.calls] == texts

    def test_close_returns_only_after_a_running_caller_finishes(self):
        service, engine = recording_service(workers=1)
        caller = threading.Thread(target=lambda: service.query("probe"))
        caller.start()
        assert engine.entered.wait(timeout=5.0)
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive(), "close() returned mid-query"
        engine.release.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        stats = service.stats()
        assert stats["service.inflight"] == 0.0
        assert stats["service.served"] == 1.0
        caller.join(timeout=5.0)

    def test_answer_error_releases_slot_and_inflight(self):
        service = SearchService(
            IndexSnapshot(index_for(0), engine=FailingEngine()),
            workers=1,
            max_inflight=1,
        )
        try:
            # A leaked in-flight count would shed the second call; a
            # leaked slot would park it for good.
            for _ in range(3):
                with pytest.raises(RuntimeError, match="engine failed"):
                    service.query("probe")
            stats = service.stats()
            assert stats["service.inflight"] == 0.0
            assert stats["service.shed"] == 0.0
            assert stats["service.served"] == 3.0
        finally:
            service.close()


class TestPublish:
    def test_publish_bumps_generation_atomically(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            before = service.snapshot
            published = snapshot_for(1)
            service.publish(published)
            assert service.snapshot is published
            assert published.generation == 1
            assert service.generation == 1
            assert service.query("probe").paths == ["gen1.txt"]
            # the superseded snapshot still answers from its own index
            assert before.search("probe") == ["gen0.txt"]

    def test_publish_carries_provenance_and_universe(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            service.publish(
                snapshot_for(
                    1, provenance="manual", universe=frozenset({"gen1.txt"})
                )
            )
            published = service.snapshot
            assert published.provenance == "manual"
            assert published.universe == {"gen1.txt"}

    def test_publishing_the_served_snapshot_does_nothing(self):
        snapshot = IndexSnapshot(index_for(0), cache=QueryCache())
        with SearchService(snapshot) as service:
            assert not service.query("probe").cached
            service.publish(snapshot)
            assert service.snapshot is snapshot
            assert service.generation == 0
            assert service.query("probe").cached

    @pytest.mark.parametrize("generation", (0, 1))
    def test_a_stale_publish_raises_and_keeps_the_served_one(
        self, generation
    ):
        with SearchService(snapshot_for(1)) as service:
            served = service.snapshot
            with pytest.raises(ValueError, match="generation"):
                service.publish(snapshot_for(generation))
            assert service.snapshot is served
            assert service.query("probe").paths == ["gen1.txt"]


class TestRefresh:
    def test_refresh_outcome_carries_change(self):
        service = SearchService(
            IndexSnapshot(index_for(0)),
            refresher=lambda: (snapshot_for(1), "delta"),
        )
        try:
            outcome = service.refresh()
            assert outcome.change == "delta"
            assert "generation 1" in str(outcome)
            assert service.query("probe").paths == ["gen1.txt"]
        finally:
            service.close()

    def test_refresh_without_refresher_raises(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            with pytest.raises(ValueError, match="fixed snapshot"):
                service.refresh()


class TestAdmissionControl:
    def test_reject_sheds_beyond_bound(self):
        service, engine = blocking_service(workers=1, max_inflight=1)
        try:
            background = threading.Thread(
                target=lambda: service.query("probe")
            )
            background.start()
            assert engine.entered.wait(timeout=5.0)
            # the one slot is taken by the parked query
            with pytest.raises(ServiceOverloadedError):
                service.query("probe")
            assert service.stats()["service.shed"] == 1.0
        finally:
            engine.release.set()
            background.join()
            service.close()


class TestLifecycle:
    def test_close_drains_accepted_queries(self):
        service, engine = blocking_service(workers=1, max_inflight=8)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(service.query("probe"))
            )
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        assert engine.entered.wait(timeout=5.0)
        engine.release.set()
        service.close()
        for thread in threads:
            thread.join(timeout=5.0)
        # every accepted query was answered, none dropped
        assert len(results) == 3
        assert service.closed

    def test_query_after_close_raises(self):
        service = SearchService(IndexSnapshot(index_for(0)))
        service.close()
        with pytest.raises(ServiceClosedError):
            service.query("probe")

    def test_close_is_idempotent(self):
        service = SearchService(IndexSnapshot(index_for(0)))
        service.close()
        service.close()
        assert service.closed

    def test_context_manager_closes(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            service.query("probe")
        assert service.closed


class TestShedAccountingAndShutdown:
    """Shed counting and shutdown for callers queued for a slot.

    Two bugs this pins down: (a) a query that waited for an evaluation
    slot and was then served must never be counted as shed — it was
    never rejected; (b) a draining ``close()`` must hand the slot on to
    a queued caller instead of leaving it waiting on a condition
    nobody will ever signal again.
    """

    def test_blocked_then_admitted_counts_served_not_shed(self):
        service, engine = blocking_service(workers=1, max_inflight=2)
        results = []
        try:
            first = threading.Thread(
                target=lambda: results.append(service.query("probe"))
            )
            first.start()
            assert engine.entered.wait(timeout=5.0)
            second = threading.Thread(
                target=lambda: results.append(service.query("probe"))
            )
            second.start()
            time.sleep(0.05)  # second is queued for the slot, not shed
            assert results == []
            engine.release.set()
            first.join(timeout=5.0)
            second.join(timeout=5.0)
            assert len(results) == 2
            stats = service.stats()
            assert stats["service.served"] == 2.0
            assert stats["service.shed"] == 0.0
        finally:
            engine.release.set()
            service.close()

    def test_close_wakes_blocked_admitters(self):
        service, engine = blocking_service(workers=1, max_inflight=2)
        outcomes = []

        def blocked_admitter():
            try:
                outcomes.append(service.query("probe"))
            except (ServiceClosedError, ServiceOverloadedError) as exc:
                outcomes.append(exc)

        first = threading.Thread(target=lambda: service.query("probe"))
        first.start()
        assert engine.entered.wait(timeout=5.0)
        second = threading.Thread(target=blocked_admitter)
        second.start()
        time.sleep(0.05)  # let it queue for the slot
        closer = threading.Thread(target=service.close)
        closer.start()
        time.sleep(0.05)
        engine.release.set()
        second.join(timeout=5.0)
        assert not second.is_alive(), "blocked admitter never woke"
        first.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close never returned"
        # The draining close served the queued caller, shed nobody,
        # and refuses everyone after it.
        assert len(outcomes) == 1
        assert outcomes[0].paths == ["blocked.txt"]
        assert service.stats()["service.shed"] == 0.0
        with pytest.raises(ServiceClosedError):
            service.query("probe")

    def test_close_without_drain_sheds_queued_jobs_once_each(self):
        service, engine = blocking_service(workers=1, max_inflight=8)
        results, errors = [], []

        def caller():
            try:
                results.append(service.query("probe"))
            except ServiceOverloadedError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(3)]
        for thread in threads:
            thread.start()
        assert engine.entered.wait(timeout=5.0)
        time.sleep(0.05)  # two queued behind the parked one
        closer = threading.Thread(
            target=lambda: service.close(drain=False)
        )
        closer.start()
        time.sleep(0.05)
        engine.release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        closer.join(timeout=5.0)
        # the executing query finished; the queued ones were shed with
        # a typed error, each counted exactly once
        assert len(results) == 1
        assert len(errors) == 2
        stats = service.stats()
        assert stats["service.shed"] == 2.0
        assert stats["service.queue_depth"] == 0.0


class TestWatch:
    def test_watch_validation(self):
        with SearchService(IndexSnapshot(index_for(0))) as service:
            with pytest.raises(ValueError):
                service.start_watch(0)
            with pytest.raises(ValueError):
                service.start_watch(1.0)  # no refresher

    def test_watch_refreshes_periodically_and_stops_on_close(self):
        generations = iter(range(1, 100))
        service = SearchService(
            IndexSnapshot(index_for(0)),
            refresher=lambda: (snapshot_for(next(generations)), None),
        )
        service.start_watch(0.01)
        with pytest.raises(RuntimeError):
            service.start_watch(0.01)  # already watching
        deadline = time.time() + 5.0
        while service.generation < 2 and time.time() < deadline:
            time.sleep(0.01)
        assert service.generation >= 2
        service.close()
        settled = service.generation
        time.sleep(0.05)  # the watch thread must be gone
        assert service.generation == settled
