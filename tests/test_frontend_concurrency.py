"""Interleaving-level guarantees of the async query front end.

Mirrors ``test_service_concurrency.py`` one layer up.  The claims
under test: the coalescing map and batch queue are race-free, a
snapshot swap during an in-flight batch never tears a result, and
``close()`` under load resolves every accepted ticket deterministically
— completed, or :class:`ServiceOverloadedError` — never a hang.

Four layers of evidence:

1. a deterministic schedule sweep — the frontend takes every lock,
   condition and thread from an
   :class:`~repro.schedcheck.sync.InstrumentedSyncProvider`; submitters
   race a publisher across random-walk and PCT schedules and (a) every
   result matches exactly one generation and (b) the race detector
   finds nothing on the frontend's seams — and, over a snapshot that
   carries a result cache, a publish landing between two batches never
   hands a hit the wrong generation's answer;
2. a record-mode run proving those seams (``frontend.inflight-map``,
   ``frontend.batch-queue``, ``service.snapshot``) actually reach the
   tracer — the sweep's silence is informed silence;
3. a mutation run with the snapshot lock broken that *does* race on
   the swap seam the batcher's one-pointer-load-per-batch depends on.
   (The frontend's own state lock cannot be no-op'd this way: its three
   conditions are built on it, and a condition over a no-op lock is
   structurally invalid rather than racy);
4. drain-correctness sweeps — ``close(drain=True/False)`` races the
   submitters under the deterministic scheduler (no sleeps): queued,
   coalesced-waiter and mid-batch tickets all resolve, with exactly
   the contract's outcome split — including the schedules where the
   close lands while the batcher is planning a batch outside the lock.

A real-thread stress run closes the loop at OS speed.
"""

from __future__ import annotations

import threading

import pytest

from repro.index.inverted import InvertedIndex
from repro.query import ParseError, QueryCache
from repro.schedcheck import (
    CooperativeScheduler,
    InstrumentedSyncProvider,
    Tracer,
    UnlockedSyncProvider,
    find_races,
    make_strategy,
)
from repro.service import (
    AsyncSearchFrontend,
    IndexSnapshot,
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.text.termblock import TermBlock


def index_for(generation: int) -> InvertedIndex:
    index = InvertedIndex()
    index.add_block(
        TermBlock(f"gen{generation}.txt", ("probe", f"g{generation}"))
    )
    return index


def snapshot_for(generation: int, **kwargs) -> IndexSnapshot:
    return IndexSnapshot(
        index_for(generation), generation=generation, **kwargs
    )


#: what a query against generation g must return — and nothing else.
EXPECTED = {g: [f"gen{g}.txt"] for g in range(8)}


def make_stack(provider, max_inflight: int = 8):
    service = SearchService(
        IndexSnapshot(index_for(0)),
        workers=1,
        max_inflight=max_inflight,
        sync=provider,
    )
    frontend = AsyncSearchFrontend(
        service,
        batch_window=0.0,
        workers=1,
        max_inflight=max_inflight,
        own_service=True,
        sync=provider,
    )
    return frontend, service


def frontend_scenario(provider):
    """Duplicate submitters race a publisher swapping generations.

    Every result must pair one published generation with exactly that
    generation's paths — a batch that pinned a half-swapped snapshot,
    or a follower handed a result from a different key, fails here.
    """
    frontend, service = make_stack(provider)
    outcomes = []

    def submitter() -> None:
        tickets = [frontend.submit("probe") for _ in range(2)]
        outcomes.extend(ticket.result() for ticket in tickets)

    def publisher() -> None:
        for generation in (1, 2):
            service.publish(snapshot_for(generation))

    threads = [
        provider.thread(submitter, name="submit-a"),
        provider.thread(submitter, name="submit-b"),
        provider.thread(publisher, name="publisher"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frontend.close()

    assert len(outcomes) == 4
    for result in outcomes:
        assert result.paths == EXPECTED[result.generation]
    stats = frontend.stats()
    assert stats["frontend.served"] == 4
    assert stats["frontend.evaluations"] + stats["frontend.coalesced"] == 4
    return frontend


def cached_publish_scenario(provider):
    """Two batches per submitter over a snapshot that carries a result
    cache, with a publish racing in between.

    The second batch of a submitter is a cache hit when its key was put
    on the snapshot the batch loaded — or an evaluation on a successor,
    whose cache starts empty.  Either way the paths must be those of
    the generation the result is labelled with.  Returns (hits, whether
    some submitter's two results straddled the publish).
    """
    service = SearchService(
        IndexSnapshot(index_for(0), cache=QueryCache(8, sync=provider)),
        workers=1,
        max_inflight=8,
        sync=provider,
    )
    frontend = AsyncSearchFrontend(
        service,
        batch_window=0.0,
        workers=1,
        max_inflight=8,
        own_service=True,
        sync=provider,
    )
    per_submitter = []

    def submitter() -> None:
        mine = []
        for _ in range(2):  # waits in between: two batches
            mine.append(frontend.submit("probe").result())
        per_submitter.append(mine)

    def publisher() -> None:
        service.publish(
            snapshot_for(1, cache=QueryCache(8, sync=provider))
        )

    threads = [
        provider.thread(submitter, name="submit-a"),
        provider.thread(submitter, name="submit-b"),
        provider.thread(publisher, name="publisher"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    frontend.close()

    outcomes = [result for mine in per_submitter for result in mine]
    assert len(outcomes) == 4
    for result in outcomes:
        assert result.paths == EXPECTED[result.generation]
        assert not (result.cached and result.coalesced)
    stats = frontend.stats()
    hits = sum(result.cached for result in outcomes)
    assert stats["frontend.cached"] == hits
    assert (
        stats["frontend.evaluations"]
        + stats["frontend.coalesced"]
        + stats["frontend.cached"]
        == stats["frontend.served"]
        == 4
    )
    straddled = any(
        [r.generation for r in mine] == [0, 1] for mine in per_submitter
    )
    return hits, straddled


def submit_each(frontend, texts, accepted, closed_out) -> None:
    """Submit ``texts`` in order; a submit refused by a close is noted."""
    for text in texts:
        try:
            accepted.append(frontend.submit(text))
        except ServiceClosedError:
            closed_out.append(text)


def drain_scenario(provider, drain: bool):
    """``close(drain=...)`` races two submitters mid-burst.

    The contract: every *accepted* ticket resolves — with a result
    when draining (nothing was over budget here), with a result or
    ``ServiceOverloadedError`` when not draining — and every rejected
    submit raised ``ServiceClosedError``.  No third outcome, no hang.
    """
    frontend, _service = make_stack(provider)
    accepted = []
    closed_out = []

    threads = [
        # Same answer at every generation, three distinct cache keys —
        # so schedules produce queued, coalesced and mid-batch tickets.
        provider.thread(
            submit_each,
            args=(frontend, ("probe", "probe", "probe AND probe"),
                  accepted, closed_out),
            name="submit-a",
        ),
        provider.thread(
            submit_each,
            args=(frontend, ("probe", "probe OR probe", "probe AND probe"),
                  accepted, closed_out),
            name="submit-b",
        ),
    ]
    for thread in threads:
        thread.start()
    # Deliberately NOT joined first: close lands somewhere inside the
    # bursts, catching tickets queued, coalesced and mid-batch.
    frontend.close(drain=drain)
    for thread in threads:
        thread.join()

    assert len(accepted) + len(closed_out) == 6
    for ticket in accepted:
        assert ticket.done  # close() resolved everything it accepted
        if ticket.error is not None:
            assert isinstance(ticket.error, ServiceOverloadedError)
            assert not drain  # draining close never sheds
        else:
            assert ticket.value.paths == EXPECTED[ticket.value.generation]
    stats = frontend.stats()
    assert stats["frontend.served"] == len(accepted)
    completed = sum(1 for t in accepted if t.error is None)
    assert completed + stats["frontend.shed"] == len(accepted)
    return frontend


def planning_close_scenario(provider, drain: bool) -> bool:
    """``close(drain=...)`` against a batcher that is mid-plan.

    The batcher plans a batch outside the state lock, where nothing
    synchronises — so the scenario gives each ticket's planning one
    scheduling point (a declared read of a location only the batcher
    touches), and a malformed query mid-burst adds the lock round-trip
    of its own resolution.  Returns whether, in this schedule, the
    close landed between the batcher taking a batch and admitting it.
    """
    frontend, _service = make_stack(provider)
    real_plan, real_admit = frontend._plan, frontend._admit
    batch = {"closing_at_take": None, "close_landed_mid_plan": False}

    def plan(ticket):
        provider.access("test.batcher-planning", write=False)
        if batch["closing_at_take"] is None:
            batch["closing_at_take"] = frontend._closing
        return real_plan(ticket)

    def admit(planned, metrics):
        if frontend._closing and batch["closing_at_take"] is False:
            batch["close_landed_mid_plan"] = True
        batch["closing_at_take"] = None
        return real_admit(planned, metrics)

    frontend._plan, frontend._admit = plan, admit
    accepted = []
    closed_out = []

    threads = [
        provider.thread(
            submit_each,
            args=(frontend, ("probe", "AND AND", "probe OR probe"),
                  accepted, closed_out),
            name="submit-a",
        ),
        provider.thread(
            submit_each,
            args=(frontend, ("probe AND probe", "probe", "NOT NOT probe"),
                  accepted, closed_out),
            name="submit-b",
        ),
    ]
    for thread in threads:
        thread.start()
    # Give way (boundedly — a PCT schedule may keep this thread on top)
    # until the batcher is inside a plan, then close on top of it.
    for _ in range(40):
        if batch["closing_at_take"] is False:
            break
        provider.access("test.closer-waiting", write=False)
    frontend.close(drain=drain)
    for thread in threads:
        thread.join()

    assert len(accepted) + len(closed_out) == 6
    outcomes = {"result": 0, "parse": 0, "shed": 0}
    for ticket in accepted:
        assert ticket.done  # never a hang, never unresolved
        if ticket.error is None:
            assert ticket.text != "AND AND"
            assert ticket.value.paths == EXPECTED[ticket.value.generation]
            outcomes["result"] += 1
        elif isinstance(ticket.error, ParseError):
            assert ticket.text == "AND AND"  # its own, nobody else's
            outcomes["parse"] += 1
        else:
            assert isinstance(ticket.error, ServiceOverloadedError)
            assert not drain  # a draining close completes what it took
            outcomes["shed"] += 1
    stats = frontend.stats()
    assert stats["frontend.served"] == len(accepted)
    assert stats["frontend.shed"] == outcomes["shed"]
    if drain:  # nothing shed: every result was evaluated or coalesced
        assert (
            stats["frontend.evaluations"] + stats["frontend.coalesced"]
            == outcomes["result"]
        )
    return batch["close_landed_mid_plan"]


class TestScheduleSweep:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(4))
    def test_no_torn_results_and_no_races(self, strategy, seed):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: frontend_scenario(provider))
        assert find_races(tracer) == []

    def test_record_mode_sees_the_frontend_seams(self):
        tracer = Tracer()
        provider = InstrumentedSyncProvider(tracer=tracer)
        provider.run(lambda: frontend_scenario(provider))
        locations = {access.location for access in tracer.accesses}
        assert "frontend.inflight-map" in locations
        assert "frontend.batch-queue" in locations
        assert "service.snapshot" in locations
        map_writes = [
            a for a in tracer.accesses
            if a.location == "frontend.inflight-map" and a.write
        ]
        assert map_writes  # registrations and removals reach the tracer

    def test_a_publish_between_batches_never_mislabels_a_hit(self):
        hits = straddled = 0
        for strategy in ("random", "pct"):
            for seed in range(6):
                tracer = Tracer()
                scheduler = CooperativeScheduler(
                    make_strategy(strategy, seed)
                )
                provider = InstrumentedSyncProvider(
                    tracer=tracer, scheduler=scheduler
                )
                found, landed = provider.run(
                    lambda: cached_publish_scenario(provider)
                )
                hits += found
                straddled += landed
                assert find_races(tracer) == []
        # Informed silence: schedules did answer from the cache, and
        # some did land the publish between a submitter's two batches.
        assert hits > 0
        assert straddled > 0

    def test_broken_snapshot_lock_is_caught(self):
        # Mutation self-test: strip the lock under the one-pointer-load
        # seam the batcher depends on; the detector must report a race
        # there in at least one schedule (or the oracle must trip).
        for seed in range(8):
            tracer = Tracer()
            scheduler = CooperativeScheduler(make_strategy("random", seed))
            provider = UnlockedSyncProvider(
                tracer=tracer,
                scheduler=scheduler,
                break_locks=("service.snapshot-lock",),
            )
            try:
                provider.run(lambda: frontend_scenario(provider))
            except AssertionError:
                return  # a genuinely torn result surfacing also counts
            races = find_races(tracer)
            if any("service.snapshot" in race.location for race in races):
                return
        pytest.fail("no schedule exposed the broken snapshot lock")


class TestDrainCorrectness:
    @pytest.mark.parametrize("strategy", ("random", "pct"))
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("drain", (True, False))
    def test_close_under_load_resolves_every_ticket(
        self, strategy, seed, drain
    ):
        tracer = Tracer()
        scheduler = CooperativeScheduler(make_strategy(strategy, seed))
        provider = InstrumentedSyncProvider(tracer=tracer,
                                            scheduler=scheduler)
        provider.run(lambda: drain_scenario(provider, drain))
        assert find_races(tracer) == []


    @pytest.mark.parametrize("drain", (True, False))
    def test_close_while_the_batcher_is_planning(self, drain):
        landed = 0
        for strategy in ("random", "pct"):
            for seed in range(8):
                tracer = Tracer()
                scheduler = CooperativeScheduler(
                    make_strategy(strategy, seed)
                )
                provider = InstrumentedSyncProvider(
                    tracer=tracer, scheduler=scheduler
                )
                landed += provider.run(
                    lambda: planning_close_scenario(provider, drain)
                )
                assert find_races(tracer) == []
        # Informed silence: some schedules did put the close mid-plan.
        assert landed > 0


class TestRealThreadStress:
    SUBMITTERS = 4
    QUERIES = 25
    REFRESHES = 4

    def test_coalescing_under_publishes_at_os_speed(self):
        service = SearchService(
            IndexSnapshot(index_for(0)), workers=1, max_inflight=64
        )
        frontend = AsyncSearchFrontend(
            service, workers=2, max_inflight=64, own_service=True
        )
        start = threading.Barrier(self.SUBMITTERS + 1)
        mismatches = []
        errors = []

        def submitter() -> None:
            start.wait()
            try:
                for _ in range(self.QUERIES):
                    result = frontend.query("probe")
                    if result.paths != EXPECTED[result.generation]:
                        mismatches.append(result)
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        def publisher() -> None:
            start.wait()
            try:
                for generation in range(1, self.REFRESHES + 1):
                    service.publish(snapshot_for(generation))
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter)
            for _ in range(self.SUBMITTERS)
        ]
        threads.append(threading.Thread(target=publisher))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        frontend.close()

        assert errors == []
        assert mismatches == []
        stats = frontend.stats()
        assert stats["frontend.served"] == self.SUBMITTERS * self.QUERIES
        assert stats["frontend.shed"] == 0
