"""Interleaving-level guarantees of the query service.

The claim under test: a query never observes a half-published snapshot.
Three layers of evidence, mirroring ``test_cache_concurrency.py``:

1. a deterministic schedule sweep — the service takes every lock,
   condition and thread from an
   :class:`~repro.schedcheck.sync.InstrumentedSyncProvider`, publishes
   while readers query, and across seeds and strategies (a) every
   result matches exactly one generation and (b) the race detector
   finds nothing on the swap seam;
2. a mutation run with the snapshot lock broken that *does* race —
   proof the sweep's silence is earned by the lock, not by detector
   blindness;
3. a real-thread stress test mixing refreshes with concurrent queries,
   asserting the same exactly-one-generation oracle at OS-thread speed.
"""

from __future__ import annotations

import threading

import pytest

from repro.index.inverted import InvertedIndex
from repro.schedcheck import (
    CooperativeScheduler,
    InstrumentedSyncProvider,
    Tracer,
    UnlockedSyncProvider,
    find_races,
    make_strategy,
)
from repro.service import IndexSnapshot, SearchService
from repro.text.termblock import TermBlock


def index_for(generation: int) -> InvertedIndex:
    index = InvertedIndex()
    index.add_block(
        TermBlock(f"gen{generation}.txt", ("probe", f"g{generation}"))
    )
    return index


def snapshot_for(generation: int) -> IndexSnapshot:
    return IndexSnapshot(index_for(generation), generation=generation)


#: what a query against generation g must return — and nothing else.
EXPECTED = {g: [f"gen{g}.txt"] for g in range(8)}


def service_scenario(provider):
    """Readers query "probe" while a publisher swaps in new generations.

    Every result must come from exactly one published generation: the
    paths must be precisely that generation's expected answer.  A torn
    read — a result pairing generation N's id with generation M's
    paths, or a half-visible index — fails the oracle.
    """
    service = SearchService(
        IndexSnapshot(index_for(0)),
        workers=1,
        max_inflight=8,
        sync=provider,
    )
    observed = []

    def reader() -> None:
        for _ in range(3):
            observed.append(service.query("probe"))

    def publisher() -> None:
        for generation in (1, 2):
            service.publish(snapshot_for(generation))

    threads = [
        provider.thread(reader, name="reader"),
        provider.thread(publisher, name="publisher"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()

    assert len(observed) == 3
    for result in observed:
        assert result.paths == EXPECTED[result.generation]
    return service


class TestScheduleSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(4))
    def test_no_torn_reads_and_no_races(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: service_scenario(provider))
        assert find_races(tracer) == []

    def test_record_mode_sees_the_swap_seam(self):
        # Sanity: the snapshot reference accesses reach the tracer, so
        # the sweep above is actually watching the swap.
        tracer = Tracer()
        provider = InstrumentedSyncProvider(tracer=tracer)
        provider.run(lambda: service_scenario(provider))
        locations = {access.location for access in tracer.accesses}
        assert "service.snapshot" in locations
        writes = [a for a in tracer.accesses
                  if a.location == "service.snapshot" and a.write]
        assert len(writes) == 2  # one per publish

    def test_broken_snapshot_lock_is_caught(self):
        # Mutation self-test: strip the snapshot lock and the detector
        # must report a race on the swap seam in at least one schedule.
        for seed in range(8):
            tracer = Tracer()
            scheduler = CooperativeScheduler(make_strategy("random", seed))
            provider = UnlockedSyncProvider(
                tracer=tracer,
                scheduler=scheduler,
                break_locks=("service.snapshot-lock",),
            )
            try:
                provider.run(lambda: service_scenario(provider))
            except AssertionError:
                # a genuinely torn read surfacing is also a detection
                return
            races = find_races(tracer)
            if any("service.snapshot" in race.location for race in races):
                return
        pytest.fail("no schedule exposed the broken snapshot lock")


def two_publishers_scenario(provider):
    """Two publishers race each other and a reader.

    Publisher A hands in generations 1 and 3, publisher B 2 and 4.
    Whatever the interleaving, a publish either stores its snapshot or
    — when the other publisher already stored a newer one — raises
    ``ValueError`` and stores nothing.  So the generations a reader
    sees never go backwards, the last word is generation 4, and a
    refused publish was always outrun by the other publisher.
    """
    service = SearchService(
        IndexSnapshot(index_for(0)),
        workers=1,
        max_inflight=8,
        sync=provider,
    )
    seen = []
    outcomes = {"a": [], "b": []}

    def reader() -> None:
        for _ in range(4):
            seen.append(service.query("probe"))

    def publisher(name, generations) -> None:
        for generation in generations:
            try:
                service.publish(snapshot_for(generation))
                outcomes[name].append((generation, True))
            except ValueError:
                outcomes[name].append((generation, False))

    threads = [
        provider.thread(reader, name="reader"),
        provider.thread(publisher, args=("a", (1, 3)), name="publisher-a"),
        provider.thread(publisher, args=("b", (2, 4)), name="publisher-b"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()

    generations = [result.generation for result in seen]
    assert generations == sorted(generations)
    for result in seen:
        assert result.paths == EXPECTED[result.generation]
    assert service.generation == 4
    for name, other in (("a", "b"), ("b", "a")):
        for generation, stored in outcomes[name]:
            if not stored:
                assert any(
                    ok and newer > generation
                    for newer, ok in outcomes[other]
                )
    with pytest.raises(ValueError):
        service.publish(snapshot_for(3))  # stale: 4 is served
    assert service.generation == 4
    return outcomes


class TestTwoPublishersSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(6))
    def test_generation_never_goes_backwards(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: two_publishers_scenario(provider))
        assert find_races(tracer) == []

    def test_some_schedule_refuses_a_stale_publish(self):
        # The sweep's refusal path is exercised, not just possible.
        refused = 0
        for seed in range(12):
            scheduler = CooperativeScheduler(make_strategy("random", seed))
            provider = InstrumentedSyncProvider(
                tracer=Tracer(), scheduler=scheduler
            )
            outcomes = []
            provider.run(
                lambda: outcomes.append(two_publishers_scenario(provider))
            )
            refused += sum(
                not stored
                for runs in outcomes[0].values()
                for _generation, stored in runs
            )
        assert refused > 0


def block_shutdown_scenario(provider):
    """``shed="block"`` admitters racing ``close()``: no hang, ever.

    A query that blocks at the admission bound while another executes
    must end one of exactly two ways whatever the interleaving: served
    (admitted before the close took effect) or a typed
    ``ServiceClosedError`` — and never counted as shed.  A schedule
    that left the admitter parked forever would deadlock the
    cooperative scheduler and fail the sweep.
    """
    from repro.service import ServiceClosedError

    service = SearchService(
        IndexSnapshot(index_for(0)),
        workers=1,
        max_inflight=1,
        shed="block",
        sync=provider,
    )
    served = []
    turned_away = []

    def reader() -> None:
        for _ in range(2):
            try:
                served.append(service.query("probe"))
            except ServiceClosedError as exc:
                turned_away.append(exc)

    def closer() -> None:
        service.close()

    threads = [
        provider.thread(reader, name="reader-a"),
        provider.thread(reader, name="reader-b"),
        provider.thread(closer, name="closer"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()

    assert len(served) + len(turned_away) == 4
    for result in served:
        assert result.paths == EXPECTED[result.generation]
    assert service.stats()["service.shed"] == 0.0


class TestBlockShutdownSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(4))
    def test_blocked_admitters_always_terminate(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: block_shutdown_scenario(provider))
        assert find_races(tracer) == []


def shed_at_close_scenario(provider):
    """Readers, a publish and ``close(drain=False)``, all racing.

    One evaluation slot and room for every reader in flight, so the
    only way to be shed is to be waiting for the slot when the close
    lands.  Every query ends exactly one of three ways: served with its
    generation's exact answer, shed with ``ServiceOverloadedError``
    (counted once), or refused with ``ServiceClosedError``.
    """
    from repro.service import ServiceClosedError, ServiceOverloadedError

    service = SearchService(
        IndexSnapshot(index_for(0)),
        workers=1,
        max_inflight=4,
        sync=provider,
    )
    served, shed, refused = [], [], []

    def reader() -> None:
        for _ in range(2):
            try:
                served.append(service.query("probe"))
            except ServiceOverloadedError as exc:
                shed.append(exc)
            except ServiceClosedError as exc:
                refused.append(exc)

    threads = [
        provider.thread(reader, name=f"reader-{i}") for i in range(3)
    ] + [
        provider.thread(
            lambda: service.publish(snapshot_for(1)), name="publisher"
        ),
        provider.thread(
            lambda: service.close(drain=False), name="closer"
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(served) + len(shed) + len(refused) == 6
    for result in served:
        assert result.paths == EXPECTED[result.generation]
    stats = service.stats()
    assert stats["service.shed"] == len(shed)
    assert stats["service.served"] == len(served)
    assert stats["service.inflight"] == 0.0
    assert stats["service.queue_depth"] == 0.0


class TestShedAtCloseSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(6))
    def test_every_query_served_shed_or_refused(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: shed_at_close_scenario(provider))
        assert find_races(tracer) == []


class TestRealThreadStress:
    READERS = 6
    QUERIES = 40
    REFRESHES = 6

    def test_refresh_under_concurrent_query_load(self):
        generations = iter(range(1, self.REFRESHES + 1))
        service = SearchService(
            IndexSnapshot(index_for(0)),
            refresher=lambda: (snapshot_for(next(generations)), None),
            workers=3,
            max_inflight=64,
        )
        start = threading.Barrier(self.READERS + 1)
        mismatches = []
        errors = []

        def reader() -> None:
            start.wait()
            try:
                for _ in range(self.QUERIES):
                    result = service.query("probe")
                    if result.paths != EXPECTED[result.generation]:
                        mismatches.append(result)
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        def refresher() -> None:
            start.wait()
            try:
                for _ in range(self.REFRESHES):
                    service.refresh()
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=reader)
                   for _ in range(self.READERS)]
        threads.append(threading.Thread(target=refresher))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()

        assert errors == []
        assert mismatches == []
        assert service.generation == self.REFRESHES
        stats = service.stats()
        assert stats["service.served"] == self.READERS * self.QUERIES
