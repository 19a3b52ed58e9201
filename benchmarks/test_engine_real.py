"""Benchmarks of the real (threaded) engine and the core structures.

These run the actual Python implementations on a 1%-scale corpus.  The
GIL means thread counts do not buy real speed-ups here (that is exactly
why the timing reproduction lives in the simulator); what these
benchmarks document is the relative cost of the real code paths.
"""

import itertools

import pytest

from repro.adt import FnvHashMap
from repro.api import Search
from repro.corpus import PAPER_PROFILE, CorpusGenerator
from repro.engine import (
    Implementation,
    IndexGenerator,
    SequentialIndexer,
    ThreadConfig,
)
from repro.extract import AsciiExtractor
from repro.hashing import fnv1a_64, fnv1a_interned
from repro.query import QueryEngine
from repro.text import Tokenizer


@pytest.fixture(scope="module")
def large_file(bench_corpus):
    """(path, content) of the bench corpus's largest file: Zipfian text."""
    fs = bench_corpus.fs
    big = max(fs.list_files(), key=lambda r: r.size)
    return big.path, fs.read_file(big.path)


class TestHashingCost:
    def test_bench_fnv1a_64(self, benchmark):
        # The per-byte spec, one evaluation a word.
        words = [f"benchword{i}" for i in range(1000)]
        total = benchmark(lambda: sum(fnv1a_64(w) for w in words))
        assert total > 0

    def test_bench_fnv1a_interned_zipf_stream(self, benchmark, large_file):
        # What the containers call, on what they see: a token stream in
        # which most occurrences repeat an earlier term.  Per token this
        # is a table hit; the spec above runs once per distinct term.
        tokens = Tokenizer().tokenize(large_file[1])[:20_000]
        assert len(set(tokens)) * 2 < len(tokens)
        total = benchmark(lambda: sum(fnv1a_interned(t) for t in tokens))
        assert total == sum(fnv1a_64(t) for t in tokens)

    def test_bench_hashmap_inserts(self, benchmark):
        keys = [f"key{i}" for i in range(2000)]

        def build():
            m = FnvHashMap()
            for i, key in enumerate(keys):
                m[key] = i
            return m

        assert len(benchmark(build)) == 2000


class TestTokenizerCost:
    """Two different numbers: "tokenise" is the first, stage 2 of a
    product build ("tokenise + native de-dup", ``Extractor.term_block``,
    what ``extract.ascii_mb_per_s`` times on the pipeline harness) is
    the second.  The threaded engines' stage 2 de-duplicates through
    ``FnvHashSet`` instead and costs several times more
    (``docs/extraction.md``)."""

    def test_bench_tokenize_large_file(self, benchmark, large_file):
        terms = benchmark(Tokenizer().tokenize, large_file[1])
        assert len(terms) > 100

    def test_bench_term_block_large_file(self, benchmark, large_file):
        block = benchmark(AsciiExtractor().term_block, *large_file)
        assert set(block.terms) == set(Tokenizer().tokenize(large_file[1]))


class TestRealEngineBuilds:
    def test_bench_sequential_naive(self, benchmark, bench_corpus):
        report = benchmark.pedantic(
            SequentialIndexer(bench_corpus.fs, naive=True).build,
            rounds=3,
        )
        assert report.term_count > 0

    def test_bench_sequential_en_bloc(self, benchmark, bench_corpus):
        report = benchmark.pedantic(
            SequentialIndexer(bench_corpus.fs, naive=False).build,
            rounds=3,
        )
        assert report.term_count > 0

    def test_bench_impl1(self, benchmark, bench_corpus):
        generator = IndexGenerator(bench_corpus.fs)
        report = benchmark.pedantic(
            lambda: generator.build(
                Implementation.SHARED_LOCKED, ThreadConfig(3, 1, 0)
            ),
            rounds=3,
        )
        assert report.term_count > 0

    def test_bench_impl2(self, benchmark, bench_corpus):
        generator = IndexGenerator(bench_corpus.fs)
        report = benchmark.pedantic(
            lambda: generator.build(
                Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)
            ),
            rounds=3,
        )
        assert report.term_count > 0

    def test_bench_impl3(self, benchmark, bench_corpus):
        generator = IndexGenerator(bench_corpus.fs)
        report = benchmark.pedantic(
            lambda: generator.build(
                Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
            ),
            rounds=3,
        )
        assert report.term_count > 0


class TestQueryCost:
    @pytest.fixture(scope="class")
    def engine(self, bench_corpus):
        report = IndexGenerator(bench_corpus.fs).build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        universe = [ref.path for ref in bench_corpus.fs.list_files()]
        return QueryEngine(report.index, universe=universe), report

    def test_bench_single_term_query(self, benchmark, engine):
        query_engine, report = engine
        term = next(iter(report.index.replicas[0].terms()))
        hits = benchmark(query_engine.search, term)
        assert hits

    def test_bench_boolean_query(self, benchmark, engine):
        query_engine, report = engine
        terms = list(report.index.replicas[0].terms())[:3]
        query = f"{terms[0]} OR ({terms[1]} AND NOT {terms[2]})"
        benchmark(query_engine.search, query)


class TestPrefixQueryAfterIndexChange:
    """The first wildcard query after the index changes, beside the
    same query in steady state, on the ``--scale 0.002`` corpus.

    A sealed segment's term dictionary is sorted by the first prefix
    query that needs it, so "first after a change" pays one sort — of
    the compaction product at one segment, of the newest delta alone at
    three — and nothing per segment carried over.  Before segments owned
    their dictionaries this query probed vocabulary × segments postings
    (48-116 ms here); the pipeline harness sees it once per query pass.
    """

    @pytest.fixture
    def churning(self):
        fs = CorpusGenerator(
            PAPER_PROFILE.scaled(0.002, name="prefix-bench")
        ).generate().fs
        session = Search.build(fs, cache=0)
        terms = sorted(session.index.terms())
        text = terms[len(terms) // 2][:2] + "*"
        victims = sorted(ref.path for ref in fs.list_files())[:5]
        rounds = itertools.count()

        def change_index(segments):
            """Leave ``segments`` segments, only the newest one's
            dictionary unbuilt — what a refresh leaves behind (at one
            segment: what a compaction does)."""

            def edit_and_refresh():
                stamp = f" round{next(rounds)}".encode()
                for path in victims:
                    fs.replace_file(path, fs.read_file(path) + stamp)
                session.refresh()

            edit_and_refresh()
            session.compact()
            for _ in range(segments - 1):
                session.query(text)
                edit_and_refresh()
            assert session.manifest.segment_count == segments

        return session, text, change_index

    @pytest.mark.parametrize("segments", [1, 3])
    def test_bench_first_prefix_query_after_change(
        self, benchmark, churning, segments
    ):
        session, text, change_index = churning

        def setup():
            change_index(segments)
            return (text,), {}

        result = benchmark.pedantic(
            session.query, setup=setup, rounds=5, iterations=1
        )
        assert result.paths

    @pytest.mark.parametrize("segments", [1, 3])
    def test_bench_steady_state_prefix_query(
        self, benchmark, churning, segments
    ):
        session, text, change_index = churning
        change_index(segments)
        session.query(text)
        assert benchmark(session.query, text).paths
