"""One road from a query to its ``QueryResult``.

The claims of the read-path consolidation, each pinned where it can
break:

a. **one answer** — ``IndexSnapshot.answer`` / ``ShardedSnapshot.answer``
   carry exactly what ``search``/``search_bm25`` return, labelled with
   the snapshot's generation, and every serving door
   (``SearchService.query``, ``AsyncSearchFrontend.query``,
   ``ScatterGatherBroker.query``) hands that result on field for field;
b. **thread census** — a front end is one batcher plus its evaluators;
c. **planning happens where the flush is** — a burst is planned and
   admitted as one batch, a malformed query resolving on its own ticket;
d. **one published view** — a session builds one snapshot per index
   change and every door serves that one;
e. **one evaluator order** — both engines optimise, *then* expand, and
   ranked scoring still runs over the unoptimised terms;
f. **the snapshot owns the cache** — every door parses a request once
   and answers a repeat from the published snapshot's cache, labelled
   ``cached``; on-disk and sharded snapshots carry none.

Plus the regression tests of the defects fixed on the way: a manifest
is publishable without ``universe=``, ``BM25Ranker.rank`` reads the
mean document length once, ``QueryTicket.result(timeout=)`` is a
deadline, and a done-callback sees its own evaluation counted.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Search
from repro.concurrency.provider import SyncProvider
from repro.fsmodel import VirtualFileSystem
from repro.index import MmapPostingsReader, save_index
from repro.index.inverted import InvertedIndex
from repro.index.segments import SegmentManifest
from repro.query import (
    BM25Ranker,
    FrequencyIndex,
    ParseError,
    QueryCache,
    QueryEngine,
    RankedHit,
    search_bm25,
)
from repro.query import daat as daat_module
from repro.query import optimizer as optimizer_module
from repro.query.daat import DaatQueryEngine
from repro.query.optimizer import optimize
from repro.query.parser import parse_query
from repro.service import (
    AsyncSearchFrontend,
    IndexSnapshot,
    SearchService,
    ShardDeadError,
)
from repro.service import frontend as frontend_module
from repro.service.sharded import (
    RankedQueryEngine,
    build_sharded_service,
    local_broker,
    shard_snapshots,
)
from repro.text.termblock import TermBlock
from tests.test_sharded_service import DOCS, build_corpus
from tests.test_term_dictionary import parses  # noqa: F401 - a fixture

query_texts = st.recursive(
    st.sampled_from(
        ["alpha", "beta", "gamma", "zeta", "nosuch", "alph*", "g*", "z*",
         "NOT NOT a*", "a* AND (a* OR beta)", "alpha AND NOT alpha"]
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) AND ({p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) OR ({p[1]})"),
        inner.map(lambda q: f"NOT ({q})"),
    ),
    max_leaves=4,
)
requests = st.tuples(
    query_texts, st.sampled_from(("bool", "bm25")), st.integers(1, 6)
)


def same_answer(result, expected):
    """Field for field, the two things a door may add aside."""
    neutral = dict(elapsed_s=0.0, coalesced=False)
    return dataclasses.replace(result, **neutral) == dataclasses.replace(
        expected, **neutral
    )


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    """One corpus behind the three kinds of published view, each at its
    own generation, with a service / front end / broker over them."""
    index, frequencies = build_corpus()
    universe = frozenset(DOCS)
    memory = IndexSnapshot(
        index,
        generation=3,
        universe=universe,
        engine=RankedQueryEngine(
            index, universe=universe, frequencies=frequencies
        ),
    )
    path = str(tmp_path_factory.mktemp("answer") / "corpus.ridx2")
    save_index(index, path, format="ridx2", frequencies=frequencies)
    reader = MmapPostingsReader(path)
    ondisk = IndexSnapshot.from_ondisk(reader, generation=5)
    shards = shard_snapshots(
        index, DOCS, 2, frequencies=frequencies, generation=7
    )
    broker = local_broker(shards, generation=7)
    services = [SearchService(view, workers=1) for view in (memory, ondisk)]
    frontends = [
        AsyncSearchFrontend(SearchService(view, workers=1), own_service=True)
        for view in (memory, ondisk)
    ]
    frontends.append(AsyncSearchFrontend(broker))
    yield {
        "memory": memory,
        "ondisk": ondisk,
        "shards": shards,
        "broker": broker,
        "services": services,
        "frontends": frontends,
    }
    for door in frontends + services + [broker]:
        door.close()
    reader.close()


class TestOneAnswer:
    @settings(max_examples=60, deadline=None)
    @given(request=requests)
    def test_answer_is_search_labelled_with_the_generation(
        self, views, request
    ):
        text, rank, topk = request
        for snapshot in (views["memory"], views["ondisk"]):
            result = snapshot.answer(text, rank=rank, topk=topk)
            if rank == "bm25":
                hits = snapshot.search_bm25(text, topk=topk)
                assert result.hits == hits
                assert result.paths == [hit.path for hit in hits]
            else:
                assert result.paths == snapshot.search(text)
                assert result.hits is None
            assert result.generation == snapshot.generation
            assert result.shards_ok is None and result.shards_total is None
            assert not result.cached and not result.coalesced
        # The two engines agree, so "what search returns" is one thing.
        memory = views["memory"].answer(text, rank=rank, topk=topk)
        assert same_answer(
            dataclasses.replace(memory, generation=5),
            views["ondisk"].answer(text, rank=rank, topk=topk),
        )

    @settings(max_examples=60, deadline=None)
    @given(request=requests)
    def test_broker_answer_is_the_merge_of_its_shards(self, views, request):
        text, rank, topk = request
        result = views["broker"].snapshot.answer(text, rank=rank, topk=topk)
        if rank == "bm25":
            hits = sorted(
                (
                    hit
                    for shard in views["shards"]
                    for hit in shard.search_bm25(text, topk=topk)
                ),
                key=lambda hit: (-hit.score, hit.path),
            )[:topk]
            assert result.hits == hits
            assert result.paths == [hit.path for hit in hits]
        else:
            assert result.paths == views["memory"].search(text)
            assert result.hits is None
        assert result.generation == 7
        assert result.shards_ok == result.shards_total == 2
        assert not result.degraded

    @settings(max_examples=40, deadline=None)
    @given(request=requests)
    def test_every_door_hands_on_what_answer_returns(self, views, request):
        text, rank, topk = request
        snapshots = (views["memory"], views["ondisk"])
        for snapshot, service, frontend in zip(
            snapshots, views["services"], views["frontends"]
        ):
            expected = snapshot.answer(text, rank=rank, topk=topk)
            assert same_answer(
                service.query(text, rank=rank, topk=topk), expected
            )
            assert same_answer(
                frontend.query(text, rank=rank, topk=topk), expected
            )
        broker = views["broker"]
        expected = broker.snapshot.answer(text, rank=rank, topk=topk)
        assert same_answer(broker.query(text, rank=rank, topk=topk), expected)
        assert same_answer(
            views["frontends"][-1].query(text, rank=rank, topk=topk), expected
        )

    def test_parallel_is_handed_through(self):
        seen = []

        class Engine:
            def search(self, text, parallel=False):
                seen.append(parallel)
                return []

            def search_ast(self, query, parallel=False):
                return self.search(str(query), parallel)

        snapshot = IndexSnapshot(InvertedIndex(), engine=Engine())
        snapshot.answer("alpha", parallel=True)
        with SearchService(snapshot, workers=1) as service:
            service.query("alpha", parallel=True)
            service.query("alpha")
        assert seen == [True, True, False]

    @pytest.mark.parametrize("partial", ("degrade", "fail"))
    def test_dead_shard_reaches_the_answer(self, partial):
        index, frequencies = build_corpus()
        broker = build_sharded_service(
            index, DOCS, shards=2, frequencies=frequencies, partial=partial
        )
        with broker:
            snapshot = broker.snapshot
            whole = snapshot.answer("alpha")
            assert whole.shards_ok == whole.shards_total == 2
            broker.kill_shard(0)
            if partial == "fail":
                for ask in (snapshot.answer, broker.query):
                    with pytest.raises(ShardDeadError):
                        ask("alpha", rank="bm25", topk=3)
                return
            dead = broker.groups[0].replicas[0].service.snapshot.universe
            for ask in (snapshot.answer, broker.query):
                result = ask("alpha")
                assert result.degraded
                assert (result.shards_ok, result.shards_total) == (1, 2)
                assert result.paths == [
                    path for path in whole.paths if path not in dead
                ]

    def test_process_shards_answer_in_the_same_shape(self, tmp_path):
        index, frequencies = build_corpus()
        reference = QueryEngine(index, universe=frozenset(DOCS))
        broker = build_sharded_service(
            index, DOCS, shards=2, frequencies=frequencies,
            ridx2_dir=str(tmp_path), backend="process", generation=4,
        )
        with broker:
            snapshot = broker.snapshot
            for text in ("alpha AND NOT beta", "alph* OR zeta"):
                result = snapshot.answer(text)
                assert result.paths == reference.search(text)
                assert result.hits is None and result.generation == 4
                assert result.shards_ok == result.shards_total == 2
                assert same_answer(broker.query(text), result)
            ranked = snapshot.answer("alpha OR gamma", rank="bm25", topk=4)
            per_shard = sorted(
                (
                    hit
                    for group in broker.groups
                    for hit in group.query(
                        "alpha OR gamma", rank="bm25", topk=4
                    ).hits
                ),
                key=lambda hit: (-hit.score, hit.path),
            )
            assert ranked.hits == per_shard[:4]
            assert ranked.paths == [hit.path for hit in ranked.hits]
            assert same_answer(
                broker.query("alpha OR gamma", rank="bm25", topk=4), ranked
            )


class RecordingProvider(SyncProvider):
    """Real threading primitives; remembers the names it was asked for."""

    def __init__(self) -> None:
        self.threads = []
        self.conditions = []

    def thread(self, target, args=(), name=None):
        self.threads.append(name)
        return super().thread(target, args, name)

    def condition(self, lock=None, name="condition"):
        self.conditions.append(name)
        return super().condition(lock, name)


def tiny_snapshot(engine=None) -> IndexSnapshot:
    index = InvertedIndex()
    index.add_block(TermBlock("doc.txt", ("alpha", "bravo")))
    return IndexSnapshot(index, engine=engine)


class TestThreadCensus:
    def test_one_batcher_plus_the_evaluators(self):
        provider = RecordingProvider()
        with SearchService(tiny_snapshot(), workers=1) as service:
            with AsyncSearchFrontend(
                service, workers=3, sync=provider
            ) as frontend:
                assert frontend.query("alpha").paths == ["doc.txt"]
        assert provider.threads == [
            "frontend-batcher",
            "frontend-eval-0",
            "frontend-eval-1",
            "frontend-eval-2",
        ]
        assert provider.conditions == [
            "frontend.flush-cond",
            "frontend.eval-cond",
            "frontend.done-cond",
        ]

    def test_the_stage_pool_knob_is_gone(self):
        with SearchService(tiny_snapshot(), workers=1) as service:
            with pytest.raises(TypeError):
                AsyncSearchFrontend(service, stage_workers=1)
        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"alpha")
        with pytest.raises(TypeError):
            Search.build(fs).serve_async(stage_workers=1)


def burst(frontend, texts):
    """Submit ``texts`` back to back.  The batcher cannot be handed the
    interpreter before the last one is in, so what it then takes is the
    whole burst — a fact of the test, not a sleep."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(30.0)
    try:
        return [frontend.submit(text) for text in texts]
    finally:
        sys.setswitchinterval(interval)


class TestPlanningAtTheFlush:
    TEXTS = [f"alpha AND t{i}" for i in range(8)]

    def test_a_burst_is_planned_and_admitted_as_one_batch(
        self, fresh_metrics
    ):
        service = SearchService(tiny_snapshot(), workers=1)
        with AsyncSearchFrontend(
            service, batch_window=0.2, own_service=True
        ) as frontend:
            tickets = burst(frontend, self.TEXTS)
            for ticket in tickets:
                assert ticket.result(timeout=30).paths == []
            stats = frontend.stats()
            assert stats["frontend.batches"] == 1
            assert stats["frontend.evaluations"] == 8
            assert fresh_metrics.gauge("frontend.batch_size").value == 8
            # All eight were keyed by the one planning pass.
            assert len({ticket.key for ticket in tickets}) == 8

    def test_a_malformed_query_fails_alone_inside_the_batch(
        self, fresh_metrics
    ):
        texts = list(self.TEXTS)
        texts[3] = "AND AND"
        service = SearchService(tiny_snapshot(), workers=1)
        with AsyncSearchFrontend(
            service, batch_window=0.2, own_service=True
        ) as frontend:
            tickets = burst(frontend, texts)
            for position, ticket in enumerate(tickets):
                if position == 3:
                    with pytest.raises(ParseError):
                        ticket.result(timeout=30)
                else:
                    assert ticket.result(timeout=30).paths == []
            stats = frontend.stats()
            assert stats["frontend.batches"] == 1
            assert stats["frontend.evaluations"] == 7
            assert stats["frontend.served"] == 8
            assert stats["frontend.shed"] == 0
            assert fresh_metrics.gauge("frontend.batch_size").value == 7

    def test_planning_runs_on_the_batcher_not_the_submitter(
        self, monkeypatch
    ):
        planners = []
        real = frontend_module.plan_query

        def recording(*args):
            planners.append(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(frontend_module, "plan_query", recording)
        service = SearchService(tiny_snapshot(), workers=1)
        with AsyncSearchFrontend(service, own_service=True) as frontend:
            for text in ("alpha", "bravo"):
                frontend.query(text)
        assert planners == ["frontend-batcher"] * 2


def small_fs() -> VirtualFileSystem:
    fs = VirtualFileSystem()
    fs.write_file("a.txt", b"alpha beta")
    fs.write_file("b.txt", b"alpha gamma")
    return fs


class TestOnePublishedView:
    def test_the_snapshot_is_the_published_one(self):
        fs = small_fs()
        session = Search.build(fs)
        first = session.snapshot()
        assert session.snapshot() is first
        session.query("alpha")
        assert session.refresh().total == 0  # nothing changed: kept
        assert session.snapshot() is first
        fs.write_file("c.txt", b"delta")
        for change in (session.refresh, session.compact, session.rebuild):
            before = session.snapshot()
            change()
            after = session.snapshot()
            assert after is not before
            assert session.snapshot() is after
            assert after.generation == before.generation + 1
            assert after.generation == session.generation
            assert after.index is session.manifest
        assert first.search("delta") == []  # the old view never moved
        assert session.snapshot().search("delta") == ["c.txt"]

    def test_query_evaluates_on_the_published_engine(self):
        session = Search.build(small_fs())
        engine = session.snapshot().engine
        evaluated = []
        real = engine.search_ast

        def recording(query, parallel=False):
            evaluated.append(query)
            return real(query, parallel=parallel)

        engine.search_ast = recording
        assert session.query("alpha AND beta").paths == ["a.txt"]
        assert len(evaluated) == 1

    def test_a_refresh_collects_the_successor_paths_once(self, monkeypatch):
        fs = small_fs()
        session = Search.build(fs)
        service = session.serve(workers=1)
        calls = []
        for name in ("live_paths", "document_paths"):
            original = getattr(SegmentManifest, name)

            def counting(self, _original=original, _name=name):
                calls.append((self, _name))
                return _original(self)

            monkeypatch.setattr(SegmentManifest, name, counting)
        try:
            fs.write_file("c.txt", b"alpha delta")
            outcome = service.refresh()
            assert outcome.change.added == ["c.txt"]
            successor = session.manifest
            on_successor = [
                name for receiver, name in calls if receiver is successor
            ]
            assert on_successor == ["live_paths"]
            assert service.snapshot.universe is session.snapshot().universe
            assert service.snapshot.index is successor
            assert service.query("NOT beta").paths == ["b.txt", "c.txt"]
        finally:
            service.close()

    def test_a_manifest_is_publishable_as_it_is(self):
        # Regression: both calls raised AttributeError ('SegmentManifest'
        # object has no attribute 'items') without universe=.
        session = Search.build(small_fs())
        snapshot = IndexSnapshot(index=session.manifest)
        assert snapshot.universe == frozenset(("a.txt", "b.txt"))
        with SearchService(snapshot, workers=1) as service:
            published = IndexSnapshot(index=session.manifest, generation=1)
            service.publish(published)
            assert published.universe == snapshot.universe
            assert service.query("NOT alpha").paths == []
            assert service.query("NOT beta").paths == ["b.txt"]


@pytest.fixture(scope="module")
def served_session():
    """One session behind its three doors, sharing its snapshot's cache."""
    session = Search.build(small_fs())
    service = session.serve(workers=1)
    frontend = session.serve_async(workers=1)
    yield session, service, frontend
    frontend.close()
    service.close()


class TestTheSnapshotOwnsTheCache:
    def test_every_door_parses_once_hit_or_miss(self, parses):
        for door in ("Search.query", "service.query", "frontend"):
            session = Search.build(small_fs())
            server = None
            if door == "service.query":
                server = session.serve(workers=1)
            elif door == "frontend":
                server = session.serve_async(workers=1)
            ask = session.query if server is None else server.query
            try:
                for text in ("alpha AND beta", "a*", "NOT gamma"):
                    del parses[:]
                    assert not ask(text).cached, door
                    assert len(parses) == 1, door
                    del parses[:]
                    again = ask(text)
                    assert again.cached and not again.coalesced, door
                    assert len(parses) == 1, door
            finally:
                if server is not None:
                    server.close()

    def test_a_repeat_is_not_evaluated_again_by_any_door(self):
        session = Search.build(small_fs())
        engine = session.snapshot().engine
        evaluated = []
        real = engine.search_ast

        def recording(query, parallel=False):
            evaluated.append(str(query))
            return real(query, parallel=parallel)

        engine.search_ast = recording
        with session.serve(workers=1) as service:
            with session.serve_async(workers=1) as frontend:
                for ask in (session.query, service.query, frontend.query):
                    assert ask("alpha AND NOT gamma").paths == ["a.txt"]
                stats = frontend.stats()
        assert evaluated == ["(alpha AND (NOT gamma))"]
        assert stats["frontend.cached"] == 1
        assert stats["frontend.evaluations"] == 0

    @settings(max_examples=60, deadline=None)
    @given(text=query_texts)
    def test_serve_and_serve_async_answer_what_search_returns(
        self, served_session, text
    ):
        session, service, frontend = served_session
        snapshot = session.snapshot()
        expected = snapshot.search(text)
        for _ in range(2):  # a miss, then (on every door) a hit
            for result in (
                session.query(text),
                service.query(text),
                frontend.query(text),
            ):
                assert result.paths == expected
                assert result.generation == snapshot.generation
        assert session.query(text).cached

    def test_a_successor_starts_with_an_empty_cache(self):
        fs = small_fs()
        session = Search.build(fs, cache=7)
        first = session.snapshot()
        first.answer("alpha")
        assert len(first.cache) == 1 and first.cache.capacity == 7
        fs.write_file("c.txt", b"delta")
        session.refresh()
        successor = session.snapshot()
        assert successor.cache is not first.cache
        assert len(successor.cache) == 0 and successor.cache.capacity == 7
        assert not successor.answer("alpha").cached
        assert successor.answer("alpha").cached
        assert Search.build(small_fs(), cache=0).snapshot().cache is None

    def test_ondisk_and_sharded_snapshots_carry_no_cache(self, views):
        assert views["ondisk"].cache is None
        assert views["broker"].snapshot.cache is None
        assert all(shard.cache is None for shard in views["shards"])
        for _ in range(2):
            assert not views["ondisk"].answer("alpha").cached
            assert not views["broker"].snapshot.answer("alpha").cached


def leaves(query) -> int:
    """How many operands (leaf nodes) a query tree carries."""
    if hasattr(query, "operands"):
        return sum(leaves(operand) for operand in query.operands)
    if hasattr(query, "operand"):
        return leaves(query.operand)
    return 1


@pytest.fixture
def corpus_engines(tmp_path):
    """(QueryEngine, DaatQueryEngine, BM25Ranker) over ``DOCS``."""
    index, frequencies = build_corpus()
    path = str(tmp_path / "corpus.ridx2")
    save_index(index, path, format="ridx2", frequencies=frequencies)
    with MmapPostingsReader(path) as reader:
        yield (
            QueryEngine(index, universe=frozenset(DOCS)),
            DaatQueryEngine(reader),
            BM25Ranker(frequencies),
        )


#: ``search_bm25("alpha AND (alpha OR beta)", topk=4)`` over ``DOCS``,
#: recorded at the parent commit on both engines.  With ``beta`` dropped
#: from the score (absorption) doc00 would lead at 0.7563….
ABSORBED_QUERY_HITS = [
    ("doc03.txt", 1.865273818278935),
    ("doc07.txt", 1.8177083842075752),
    ("doc00.txt", 1.5898559680881341),
    ("doc01.txt", 0.6368957585381044),
]


class TestEvaluatorOrder:
    def test_the_optimiser_never_sees_the_expansion(
        self, tmp_path, monkeypatch
    ):
        words = tuple(
            sorted("w" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(600))
        )
        index = InvertedIndex()
        index.add_block(TermBlock("wide.txt", words))
        index.add_block(TermBlock("other.txt", ("x",)))
        path = str(tmp_path / "wide.ridx2")
        save_index(index, path, format="ridx2")
        handed = []
        real = optimizer_module.optimize

        def recording(query):
            handed.append(leaves(query))
            return real(query)

        # Wherever the DAAT engine takes its optimiser from.
        monkeypatch.setattr(optimizer_module, "optimize", recording)
        monkeypatch.setattr(
            daat_module, "optimize_query", recording, raising=False
        )
        with MmapPostingsReader(path) as reader:
            engine = DaatQueryEngine(reader)
            assert len(engine.prefix_dictionary().expand("w")) >= 500
            assert engine.search("w*") == ["wide.txt"]
            assert engine.search("w* AND NOT x") == ["wide.txt"]
        assert handed == [leaves(parse_query("w*")),
                          leaves(parse_query("w* AND NOT x"))]

    def test_caching_over_daat_parses_once_hit_or_miss(
        self, corpus_engines, parses
    ):
        daat = corpus_engines[1]
        caching = IndexSnapshot(
            daat.reader,
            universe=frozenset(DOCS),
            engine=daat,
            cache=QueryCache(),
        )
        for text in ("alpha AND beta", "alph*", "NOT gamma"):
            del parses[:]
            first = caching.answer(text).paths
            assert len(parses) == 1
            del parses[:]
            assert caching.answer(text).paths == first
            assert len(parses) == 1
        assert caching.cache.hits == 3 and caching.cache.misses == 3

    @settings(max_examples=150, deadline=None)
    @given(text=query_texts)
    def test_both_engines_take_the_optimised_ast(self, views, text):
        memory = views["memory"].engine
        daat = views["ondisk"].engine
        expected = memory.search(text, optimize=False)
        query = optimize(parse_query(text))
        assert daat.search_ast(query) == expected
        assert memory.search_ast(query) == expected
        assert daat.search(text) == expected
        assert daat.search(text, optimize=False) == expected

    def test_a_parse_error_surfaces_before_the_daat_span(
        self, corpus_engines, fresh_metrics
    ):
        with pytest.raises(ParseError):
            corpus_engines[1].search("(")
        assert fresh_metrics.counter("query.daat.searches").value == 0

    def test_absorption_does_not_drop_a_term_from_the_score(
        self, corpus_engines
    ):
        memory, daat, ranker = corpus_engines
        text = "alpha AND (alpha OR beta)"
        in_memory = search_bm25(memory, ranker, text, topk=4)
        on_disk = daat.search_bm25(text, topk=4)
        assert [(h.path, h.score) for h in in_memory] == ABSORBED_QUERY_HITS
        assert [(h.path, h.score) for h in on_disk] == ABSORBED_QUERY_HITS


class TestRankReadsTheMeanOnce:
    def test_total_length_is_evaluated_once_per_rank(self, monkeypatch):
        _, frequencies = build_corpus()
        ranker = BM25Ranker(frequencies)
        terms = ["alpha", "beta"]
        expected = [
            RankedHit(path, ranker.score(path, terms)) for path in sorted(DOCS)
        ]
        expected.sort(key=lambda hit: (-hit.score, hit.path))
        reads = []
        original = FrequencyIndex.total_length

        def counting(self):
            reads.append(self)
            return original.fget(self)

        monkeypatch.setattr(
            FrequencyIndex, "total_length", property(counting)
        )
        assert ranker.rank(sorted(DOCS), terms) == expected  # same floats
        assert len(reads) == 1
        del reads[:]
        assert ranker.rank(sorted(DOCS)[:5], terms, topk=2) == [
            hit for hit in expected if hit.path in sorted(DOCS)[:5]
        ][:2]
        assert len(reads) == 1


class TestTicketDeadline:
    def test_result_timeout_is_a_deadline_not_a_rearmed_wait(
        self, monkeypatch
    ):
        gate = threading.Event()

        class Held:
            def search(self, text, parallel=False):
                assert gate.wait(timeout=30)
                return []

            def search_ast(self, query, parallel=False):
                return self.search(str(query), parallel)

        service = SearchService(tiny_snapshot(Held()), workers=1)
        frontend = AsyncSearchFrontend(service, own_service=True)
        try:
            ticket = frontend.submit("alpha")
            now = [100.0]
            wakeups = []

            class Clock:
                @staticmethod
                def perf_counter():
                    return now[0]

            class SomebodyElsesWakeups:
                """``wait`` returns True — notified, for another ticket
                — and 0.4 s have passed."""

                def wait(self, timeout=None):
                    assert len(wakeups) < 6, "the timeout is re-armed"
                    wakeups.append(timeout)
                    now[0] += 0.4
                    return True

            monkeypatch.setattr(frontend_module, "time", Clock)
            monkeypatch.setattr(frontend, "_done", SomebodyElsesWakeups())
            with pytest.raises(TimeoutError):
                ticket.result(timeout=1.0)
            assert len(wakeups) == 3
            assert wakeups == pytest.approx([1.0, 0.6, 0.2])
        finally:
            monkeypatch.undo()
            gate.set()
            frontend.close()


class TestEvaluationIsCountedBeforeTheCallerKnows:
    def test_a_done_callback_sees_its_own_evaluation(self):
        gate = threading.Event()

        class Held:
            def search(self, text, parallel=False):
                assert gate.wait(timeout=30)
                return []

            def search_ast(self, query, parallel=False):
                return self.search(str(query), parallel)

        service = SearchService(tiny_snapshot(Held()), workers=1)
        with AsyncSearchFrontend(service, own_service=True) as frontend:
            seen = []
            ticket = frontend.submit("alpha")
            # Registered while the evaluation is held, so it runs on
            # the evaluator, the moment the ticket resolves.
            ticket.add_done_callback(lambda t: seen.append(frontend.stats()))
            gate.set()
            ticket.result(timeout=30)
            assert len(seen) == 1
            assert seen[0]["frontend.served"] == 1
            assert seen[0]["frontend.evaluations"] == 1
            assert (
                seen[0]["frontend.evaluations"]
                + seen[0]["frontend.coalesced"]
                == seen[0]["frontend.submitted"]
            )
