"""Differential correctness of the mmap DAAT path.

The anchor for the on-disk read path: for every build backend and a
battery of boolean/wildcard queries, the DAAT engine over an mmap'd
RIDX2 file must return *byte-for-byte* the same sorted path list as the
in-memory :class:`QueryEngine`, and its BM25 scorer must agree with the
in-memory :class:`BM25Ranker` to the last float — on that battery, and
on drawn nested queries (depth <= 3, top-level NOT, Ands of NOTs,
absent terms and prefixes) over drawn corpora at block sizes 1 to 128,
and on the fixed shapes where a term's match-time decode does not cover
every match (BM25 reads such a term again; any other list it reads
once, as its boolean twin does).  Also covered: the phrase-query
refusal at every door, the ranking-mode-aware cache keys (a BM25
result must never satisfy a boolean lookup), serving a
:class:`SearchService` from an on-disk snapshot, and four threads
sharing one engine.
"""

from __future__ import annotations

import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Implementation,
    IndexGenerator,
    SequentialIndexer,
    ThreadConfig,
)
from repro.index import (
    InvertedIndex,
    MmapPostingsReader,
    dump_index_ridx2,
    join_indices,
    save_index,
)
from repro.index.multi import MultiIndex
from repro.query import (
    BM25Ranker,
    FrequencyIndex,
    QueryEngine,
    cache_key,
    search_bm25,
)
from repro.query.ast import And, Not, Or, Prefix, Term
from repro.query.cache import QueryCache
from repro.query.daat import DaatQueryEngine
from repro.query.parser import ParseError, parse_query
from repro.service import SearchService
from repro.service.snapshot import IndexSnapshot
from repro.text.termblock import TermBlock

QUERIES = [
    "the",
    "the AND a",
    "the OR zzz-absent",
    "the AND NOT a",
    "NOT the",
    "(the OR a) AND NOT zzz-absent",
    "th*",
    "th* AND NOT a",
    "zzz-absent",
    "NOT zzz-absent",
    "the a",  # implicit AND
]

ENGINE_RUNS = [
    ("sequential", None, None),
    ("impl1", Implementation.SHARED_LOCKED, ThreadConfig(2, 1, 0)),
    ("impl2", Implementation.REPLICATED_JOINED, ThreadConfig(2, 0, 1)),
    ("impl3", Implementation.REPLICATED_UNJOINED, ThreadConfig(2, 2, 0)),
    (
        "impl2-process",
        Implementation.REPLICATED_JOINED,
        ThreadConfig(2, 0, 1, backend="process"),
    ),
]


def flatten(index):
    if isinstance(index, MultiIndex):
        return join_indices(index.replicas)
    return index


@pytest.fixture(scope="module", params=ENGINE_RUNS, ids=lambda r: r[0])
def engine_pair(request, tiny_fs, tmp_path_factory):
    """(in-memory QueryEngine, DAAT engine over the same index on disk)."""
    name, implementation, config = request.param
    if implementation is None:
        report = SequentialIndexer(tiny_fs).build()
    else:
        # oversubscribe keeps the process run valid on 1-CPU CI boxes;
        # the point here is the RWIRE1-built index, not parallelism.
        report = IndexGenerator(tiny_fs, oversubscribe=True).build(
            implementation, config
        )
    index = flatten(report.index)
    frequencies = FrequencyIndex.from_fs(tiny_fs)
    path = str(tmp_path_factory.mktemp("daat") / f"{name}.ridx2")
    save_index(index, path, format="ridx2", frequencies=frequencies)
    reader = MmapPostingsReader(path)
    universe = frozenset(frequencies._document_lengths.keys())
    memory = QueryEngine(index, universe=universe)
    yield memory, DaatQueryEngine(reader), frequencies
    reader.close()


class TestDifferentialBoolean:
    @pytest.mark.parametrize("query", QUERIES)
    def test_daat_equals_in_memory(self, engine_pair, query):
        memory, daat, _ = engine_pair
        assert daat.search(query) == memory.search(query)

    def test_every_single_term_agrees(self, engine_pair):
        memory, daat, _ = engine_pair
        terms = sorted(daat.reader.terms())
        for term in terms[:: max(1, len(terms) // 50)]:
            assert daat.search(term) == memory.search(term)

    def test_parallel_flag_is_accepted(self, engine_pair):
        memory, daat, _ = engine_pair
        assert daat.search("the", parallel=True) == memory.search("the")


class TestDifferentialBm25:
    @pytest.mark.parametrize(
        "query", ["the", "the OR a", "the AND a", "th*", "zzz-absent"]
    )
    def test_scores_are_float_identical(self, engine_pair, query):
        memory, daat, frequencies = engine_pair
        ranker = BM25Ranker(frequencies)
        expected = search_bm25(memory, ranker, query, topk=10)
        got = daat.search_bm25(query, topk=10)
        assert [(h.path, h.score) for h in got] == [
            (h.path, h.score) for h in expected
        ]

    def test_topk_truncates(self, engine_pair):
        _, daat, _ = engine_pair
        assert len(daat.search_bm25("the", topk=3)) <= 3

    def test_topk_must_be_positive(self, engine_pair):
        _, daat, _ = engine_pair
        with pytest.raises(ValueError, match="topk"):
            daat.search_bm25("the", topk=0)


class TestBm25NeedsFrequencies:
    """A file whose flag says "no term frequencies" stores tf = 1 for
    every posting: BM25 over it refuses instead of ranking on those.
    A file saved with frequencies ranks float-equal to the in-memory
    ranker (:class:`TestDifferentialBm25`)."""

    def refuses(self, path):
        with MmapPostingsReader(path) as reader:
            assert not reader.has_freqs
            term = next(reader.terms())
            with pytest.raises(ValueError, match="cannot rank"):
                DaatQueryEngine(reader).search_bm25(term)
            snapshot = IndexSnapshot.from_ondisk(reader)
            with pytest.raises(ValueError, match="cannot rank"):
                snapshot.answer(term, rank="bm25")

    def test_a_file_search_save_wrote_refuses(self, tiny_fs, tmp_path):
        from repro.api import Search

        path = str(tmp_path / "saved.ridx")
        Search.build(tiny_fs).save(path)
        self.refuses(path)

    def test_a_file_cli_refresh_wrote_refuses(self, tiny_fs, tmp_path):
        from repro.cli import main
        from repro.fsmodel import OsFileSystem

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        disk = OsFileSystem(str(corpus))
        for ref in tiny_fs.list_files():
            name = ref.path.replace("/", "_")
            disk.write_file(name, tiny_fs.read_file(ref.path))
        path = str(tmp_path / "refreshed.ridx")
        assert main(["refresh", str(corpus), "--index", path]) == 0
        self.refuses(path)


class TestPhraseRefusal:
    def test_phrase_raises_with_guidance(self, engine_pair):
        memory, daat, _ = engine_pair
        for search in (memory.search, daat.search, daat.search_bm25):
            with pytest.raises(ParseError, match="stores term positions"):
                search('"the a"')


class TestRankingAwareCacheKeys:
    def test_bool_and_bm25_keys_differ(self):
        assert cache_key("the", False) != cache_key("the", False, "bm25", 10)

    def test_bm25_keys_differ_per_topk(self):
        assert cache_key("the", False, "bm25", 5) != cache_key(
            "the", False, "bm25", 10
        )

    def test_bm25_result_never_serves_boolean_query(self):
        # The regression this key shape exists to prevent: one cache,
        # same query text, ranked then boolean — the boolean lookup
        # must miss instead of returning RankedHits.
        cache = QueryCache(capacity=8)
        cache.put(cache_key("the", False, "bm25", 10), ["scored-garbage"])
        assert cache.get(cache_key("the", False)) is None

    def test_caching_engine_keeps_modes_apart(self, tiny_fs, tmp_path):
        # A cached snapshot over the natively scoring on-disk engine.
        report = SequentialIndexer(tiny_fs).build()
        frequencies = FrequencyIndex.from_fs(tiny_fs)
        path = str(tmp_path / "modes.ridx2")
        save_index(
            report.index, path, format="ridx2", frequencies=frequencies
        )
        with MmapPostingsReader(path) as reader:
            caching = cached_ondisk(reader)
            ranked = caching.answer("the", rank="bm25", topk=5).hits
            boolean = caching.answer("the").paths
            assert [h.path for h in ranked] != boolean or boolean == []
            assert all(hasattr(h, "score") for h in ranked)
            assert all(isinstance(p, str) for p in boolean)
            # Both are cached, under distinct keys.
            assert caching.cache.hits == 0
            assert caching.answer("the").paths == boolean
            assert caching.answer("the", rank="bm25", topk=5).hits == ranked
            assert caching.cache.hits == 2
            # A different K is a different entry.
            caching.answer("the", rank="bm25", topk=2)
            assert caching.cache.misses == 3

    def test_caching_engine_without_ranker_rejects_bm25(self, tiny_fs):
        # An in-memory engine cannot rank: the cached snapshot refuses.
        report = SequentialIndexer(tiny_fs).build()
        caching = IndexSnapshot(report.index, cache=QueryCache())
        with pytest.raises(ValueError, match="cannot rank"):
            caching.answer("the", rank="bm25")

    def test_caching_engine_uses_native_scoring(self, tiny_fs, tmp_path):
        report = SequentialIndexer(tiny_fs).build()
        frequencies = FrequencyIndex.from_fs(tiny_fs)
        path = str(tmp_path / "native.ridx2")
        save_index(
            report.index, path, format="ridx2", frequencies=frequencies
        )
        with MmapPostingsReader(path) as reader:
            caching = cached_ondisk(reader)
            first = caching.answer("the", rank="bm25", topk=5).hits
            assert caching.answer("the", rank="bm25", topk=5).hits == first
            assert caching.cache.hits == 1


def cached_ondisk(reader) -> IndexSnapshot:
    """A snapshot off ``reader`` as :meth:`IndexSnapshot.from_ondisk`
    makes it, but carrying a result cache."""
    return IndexSnapshot(
        reader,
        universe=frozenset(reader.doc_paths()),
        engine=DaatQueryEngine(reader),
        cache=QueryCache(),
    )


class TestOndiskService:
    @pytest.fixture
    def ridx2_file(self, tiny_fs, tmp_path):
        report = SequentialIndexer(tiny_fs).build()
        frequencies = FrequencyIndex.from_fs(tiny_fs)
        path = str(tmp_path / "serve.ridx2")
        save_index(
            report.index, path, format="ridx2", frequencies=frequencies
        )
        return path

    def test_snapshot_from_ondisk(self, ridx2_file, tiny_fs):
        report = SequentialIndexer(tiny_fs).build()
        memory = QueryEngine(
            report.index,
            universe=frozenset(
                ref.path for ref in tiny_fs.list_files()
            ),
        )
        with MmapPostingsReader(ridx2_file) as reader:
            snapshot = IndexSnapshot.from_ondisk(reader)
            assert snapshot.provenance == "ondisk"
            assert snapshot.universe == frozenset(reader.doc_paths())
            for query in ("the", "NOT the", "th* AND a"):
                assert snapshot.search(query) == memory.search(query)

    def test_service_serves_boolean_and_bm25(self, ridx2_file):
        with MmapPostingsReader(ridx2_file) as reader:
            snapshot = IndexSnapshot.from_ondisk(reader)
            with SearchService(snapshot, workers=2) as service:
                result = service.query("the AND a")
                assert result.generation == 0
                assert result.paths == snapshot.search("the AND a")
                ranked = service.query("the", rank="bm25", topk=5)
                assert ranked.hits is not None
                assert len(ranked.hits) <= 5
                assert ranked.paths == [h.path for h in ranked.hits]
                scores = [h.score for h in ranked.hits]
                assert scores == sorted(scores, reverse=True)

    def test_service_rejects_unknown_rank(self, ridx2_file):
        with MmapPostingsReader(ridx2_file) as reader:
            snapshot = IndexSnapshot.from_ondisk(reader)
            with SearchService(snapshot, workers=1) as service:
                with pytest.raises(ValueError, match="rank"):
                    service.query("the", rank="pagerank")

    def test_in_memory_snapshot_cannot_rank(self, tiny_fs):
        report = SequentialIndexer(tiny_fs).build()
        snapshot = IndexSnapshot(index=report.index)
        with pytest.raises(ValueError, match="rank"):
            snapshot.search_bm25("the")


# -- nested queries, drawn: the list-at-a-time evaluator against the set one --

#: The drawn corpora's vocabulary; every document also holds "every",
#: a list of many blocks at the small block sizes.  "zzz" and the
#: prefix "qq" match nothing.
VOCABULARY = ["alpha", "alpine", "beta", "bet", "gamma"]
QUERY_TERMS = VOCABULARY + ["every", "zzz"]
PREFIXES = ["al", "be", "ev", "qq"]


def write_corpus(directory, docs, block_size):
    """docs: {path: term occurrences} -> (in-memory engine, frequencies,
    RIDX2 path written at ``block_size``)."""
    index = InvertedIndex()
    frequencies = FrequencyIndex()
    for path in sorted(docs):
        index.add_block(TermBlock(path, tuple(sorted(set(docs[path])))))
        frequencies.add_document(path, docs[path])
    path = str(directory / "drawn.ridx2")
    with open(path, "wb") as fh:
        fh.write(dump_index_ridx2(index, frequencies, block_size=block_size))
    return QueryEngine(index, universe=frozenset(docs)), frequencies, path


@st.composite
def corpora(draw):
    block_size = draw(st.sampled_from([1, 2, 8, 128]))
    bodies = draw(
        st.lists(
            st.lists(st.sampled_from(VOCABULARY), max_size=6),
            min_size=1,
            max_size=40,
        )
    )
    docs = {f"d{i:03d}.txt": ["every"] + body for i, body in enumerate(bodies)}
    return block_size, docs


def query_asts(depth):
    """Term / prefix leaves under And / Or / Not, at most ``depth`` deep."""
    leaf = st.one_of(
        st.sampled_from(QUERY_TERMS).map(Term),
        st.sampled_from(PREFIXES).map(Prefix),
    )
    if depth == 0:
        return leaf
    below = query_asts(depth - 1)
    operands = st.lists(below, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        leaf, operands.map(And), operands.map(Or), below.map(Not)
    )


nested_queries = st.one_of(
    query_asts(3),
    query_asts(2).map(Not),  # a top-level NOT
    st.lists(query_asts(1).map(Not), min_size=2, max_size=3).map(
        lambda nots: And(tuple(nots))  # an And of Nots: a Not drives
    ),
)


class TestNestedDifferential:
    @settings(max_examples=120, deadline=None)
    @given(corpora(), nested_queries)
    def test_paths_and_bm25_equal_in_memory(
        self, tmp_path_factory, corpus, query
    ):
        block_size, docs = corpus
        memory, frequencies, path = write_corpus(
            tmp_path_factory.mktemp("nested"), docs, block_size
        )
        text = str(query)  # renders in the parser's own syntax
        with MmapPostingsReader(path) as reader:
            daat = DaatQueryEngine(reader)
            assert daat.search(text) == memory.search(text)
            # Un-optimised: nested Ands, duplicates and Nots as drawn.
            assert daat.search_ast(query) == memory.search_ast(query)
            expected = search_bm25(memory, BM25Ranker(frequencies), text, topk=5)
            got = daat.search_bm25(text, topk=5)
            assert [(h.path, h.score) for h in got] == [
                (h.path, h.score) for h in expected
            ]


def regression_docs():
    """Forty documents, most terms over several blocks at sizes 1 and 2."""
    return {
        f"d{i:03d}.txt": ["every"]
        + ["alpha"] * (i % 3 == 0)
        + ["beta"] * (i % 4 == 0) * 2
        + ["gamma"] * (i % 5 in (0, 1))
        + ["delta"] * (i % 6 == 0) * 3
        + ["zeta"] * (i % 7 == 0)
        + ["alpine"] * (i % 11 == 0)
        for i in range(40)
    }


class TestSingleDecodeScoring:
    """A ranked query scores from the lists its match decoded whole, and
    reads again any term a filter-mode decode may not cover: such a decode
    saw only the candidates it was handed, not every match."""

    @pytest.mark.parametrize("block_size", [1, 2])
    @pytest.mark.parametrize(
        "query",
        [
            # An early-breaking And inside an Or: alpha is never decoded.
            "(zzz AND alpha) OR beta",
            # A Not over an And: every is filtered by beta's documents.
            "(alpha OR gamma) AND NOT (beta AND every)",
            "(alpha OR zeta) AND NOT (gamma AND delta)",
        ],
    )
    def test_partly_decoded_terms_score_like_the_ranker(
        self, tmp_path, block_size, query
    ):
        memory, frequencies, path = write_corpus(
            tmp_path, regression_docs(), block_size
        )
        expected = search_bm25(memory, BM25Ranker(frequencies), query, topk=50)
        assert expected
        with MmapPostingsReader(path) as reader:
            got = DaatQueryEngine(reader).search_bm25(query, topk=50)
        assert [(h.path, h.score) for h in got] == [
            (h.path, h.score) for h in expected
        ]

    @pytest.mark.parametrize(
        "query", ["every", "alpha OR beta OR gamma", "alpha AND every"]
    )
    def test_ranked_reads_as_many_blocks_as_boolean(self, tmp_path, query):
        _memory, _frequencies, path = write_corpus(
            tmp_path, regression_docs(), 2
        )
        with MmapPostingsReader(path) as reader:
            engine = DaatQueryEngine(reader)
            engine.search(query)
            boolean = reader.blocks_read
            engine.search_bm25(query)
            assert reader.blocks_read - boolean == boolean > 1


class TestSharedEngine:
    QUERIES = [
        "alpha AND beta",
        "every AND NOT gamma",
        "(alpha OR beta) AND NOT bet",
        "al* AND every",
        "NOT alpha",
        "gamma AND (alpha OR alpine)",
        "NOT alpha AND NOT beta",
    ]

    def test_threads_sharing_one_engine_answer_as_one_thread(self, tmp_path):
        """Four threads on one engine get the single-threaded answers:
        a query's term map lives in its own call, not on the engine."""
        docs = {
            f"d{i:03d}.txt": ["every"]
            + ["alpha"] * (i % 3 == 0)
            + ["beta"] * (i % 5 == 0) * 2
            + ["bet"] * (i % 2 == 0)
            + ["gamma"] * (i % 7 in (0, 1))
            + ["alpine"] * (i % 11 == 0)
            for i in range(120)
        }
        memory, _frequencies, path = write_corpus(tmp_path, docs, 4)
        with MmapPostingsReader(path) as reader:
            reader.doc_paths()  # what IndexSnapshot.from_ondisk does
            engine = DaatQueryEngine(reader)
            expected = [
                (engine.search(q), engine.search_bm25(q, topk=5))
                for q in self.QUERIES
            ]
            assert [paths for paths, _ in expected] == [
                memory.search(q) for q in self.QUERIES
            ]
            failures = []

            def worker(shift):
                try:
                    for round_ in range(25):
                        for k in range(len(self.QUERIES)):
                            i = (k + shift + round_) % len(self.QUERIES)
                            query = self.QUERIES[i]
                            got = (
                                engine.search(query),
                                engine.search_bm25(query, topk=5),
                            )
                            if got != expected[i]:
                                failures.append((query, got))
                except Exception as exc:  # reported below, not lost
                    failures.append(("raised", exc))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=worker, args=(shift,))
                    for shift in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []


class TestTermProbes:
    def test_one_lexicon_probe_per_distinct_expanded_term(self, tmp_path):
        """An And probes a term once however often it occurs; a ranked
        query probes each scoring term once, not once to score and once
        to evaluate; a prefix's lexicon range supplies its terms' entries
        (``alpha`` and ``alpine`` here), so only ``zzz`` is probed; and
        no prefix query walks the whole lexicon."""
        docs = {"a.txt": ["alpha", "beta"], "b.txt": ["alpine", "every"]}
        _memory, _frequencies, path = write_corpus(tmp_path, docs, 2)
        with MmapPostingsReader(path) as reader:
            engine = DaatQueryEngine(reader)
            probes, walks = [], []
            probe, walk = reader.term_info, reader.terms
            reader.term_info = lambda term: probes.append(term) or probe(term)
            reader.terms = lambda: walks.append(1) or walk()
            engine.search_ast(
                parse_query("alpha AND (alpha OR beta) AND NOT beta")
            )
            assert sorted(probes) == ["alpha", "beta"]
            probes.clear()
            engine.search_bm25("al* AND alpha OR zzz")
            assert sorted(probes) == ["zzz"]
            assert engine.search("al* OR ev*") == ["a.txt", "b.txt"]
            assert walks == []


class TestNestedPhraseRefusal:
    """No index stores term positions, so a quote of two or more words,
    anywhere in a query, is a ParseError at every door: raised while
    parsing, before any term is looked up, evaluated or cached."""

    DOCS = {"a.txt": ["alpha", "beta"], "b.txt": ["every"]}

    @pytest.mark.parametrize(
        "query",
        ['"alpha beta"', 'zzz AND "alpha beta"',
         'alpha AND NOT (zzz OR "alpha beta")'],
    )
    def test_a_phrase_anywhere_raises(
        self, tmp_path, query, fresh_metrics
    ):
        from repro.api import Search
        from repro.fsmodel import VirtualFileSystem

        memory, frequencies, path = write_corpus(tmp_path, self.DOCS, 2)
        fs = VirtualFileSystem()
        for name, words in self.DOCS.items():
            fs.write_file(name, " ".join(words).encode())
        session = Search.build(fs)
        with MmapPostingsReader(path) as reader:
            probes = []
            reader.term_info = probes.append
            daat = DaatQueryEngine(reader)
            doors = [
                memory.search,
                daat.search,
                daat.search_bm25,
                partial(search_bm25, memory, BM25Ranker(frequencies)),
                session.query,
            ]
            for door in doors:
                with pytest.raises(ParseError, match="phrase"):
                    door(query)
            assert probes == []
        with session.serve(workers=1) as service:
            with pytest.raises(ParseError, match="phrase"):
                service.query(query)
        with session.serve_async(workers=1) as frontend:
            ticket = frontend.submit(query)
            with pytest.raises(ParseError, match="phrase"):
                ticket.result(timeout=30)
            assert frontend.stats()["frontend.evaluations"] == 0
        with session.serve_sharded(shards=2) as broker:
            with pytest.raises(ParseError, match="phrase"):
                broker.query(query)
            assert broker.stats()["broker.failed"] == 0.0
        assert len(session.snapshot().cache) == 0
        assert fresh_metrics.counter("query.searches").value == 0
        assert fresh_metrics.counter("query.daat.searches").value == 0
