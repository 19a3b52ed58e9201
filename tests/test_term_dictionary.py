"""Term dictionaries owned by sealed segments, and parse-once querying.

Four kinds of evidence:

* a hypothesis differential against the previous implementation —
  ``SegmentManifest.terms()``'s old per-term probe, copied here as
  ``old_terms``, under a :class:`PrefixDictionary` — over random stacks
  of memory and disk segments with overwritten, tombstoned, emptied and
  re-added paths;
* **exact counts** of the work a prefix query does after an index
  change: segment lookups made by the expansion, sorts per sealed
  segment over a build → refresh ×3 → compact → refresh cycle, parses
  per query;
* identity: a segment's dictionary object survives into successor
  manifests;
* the AST entry point answers what the text entry point answers.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Search
from repro.corpus import TINY_PROFILE, CorpusGenerator
from repro.fsmodel.vfs import VirtualFileSystem
from repro.index.binfmt import dump_index_ridx2
from repro.index.inverted import InvertedIndex
from repro.index.ondisk import MmapPostingsReader
from repro.index.segments import (
    DiskSegment,
    MemorySegment,
    SegmentManifest,
    _SealedSegment,
)
from repro.query import parser as parser_module
from repro.query.cache import QueryCache
from repro.query.daat import DaatQueryEngine
from repro.query.evaluator import QueryEngine
from repro.query.optimizer import optimize
from repro.query.parser import ParseError, parse_query
from repro.query.wildcard import PrefixDictionary, expand_prefixes
from repro.service.snapshot import IndexSnapshot
from repro.text.termblock import TermBlock


def old_terms(manifest):
    """``SegmentManifest.terms()`` as it was before segments owned
    their dictionaries — the oracle: one ``lookup`` per candidate."""
    candidates = set()
    for segment in manifest.segments:
        candidates.update(segment.terms())
    return sorted(t for t in candidates if manifest.lookup(t))


# -- (a) differential over random segment stacks -------------------------------

PATHS = [f"f{i}.txt" for i in range(6)]
#: Two letters and short words: prefixes collide, and a six-path corpus
#: makes overwrites, empties and re-adds the common case.
WORDS = st.text(alphabet="ab", min_size=1, max_size=4)
batches = st.dictionaries(
    st.sampled_from(PATHS),
    st.lists(WORDS, max_size=4, unique=True),
    min_size=1,
    max_size=4,
)
stacks = st.tuples(
    st.lists(batches, min_size=3, max_size=6),  # 2-5 in memory + 1 on disk
    st.integers(min_value=0, max_value=5),
    st.sets(st.sampled_from(PATHS), max_size=3),
)
prefixes = st.text(alphabet="ab", min_size=1, max_size=3)


def build_stack(stack, directory):
    """A manifest of MemorySegments with one batch served as a
    DiskSegment; a batch may list a path with no terms (emptied)."""
    batches_, disk_position, tombstones = stack
    disk_position %= len(batches_)
    segments = []
    for position, batch in enumerate(batches_):
        index = InvertedIndex()
        for path in sorted(batch):
            index.add_block(TermBlock(path, tuple(batch[path])))
        if position == disk_position:
            file = os.path.join(directory, f"segment-{position}.ridx2")
            with open(file, "wb") as fh:
                fh.write(dump_index_ridx2(index))
            segments.append(DiskSegment(position, file))
        else:
            segments.append(MemorySegment(position, index, batch))
    return SegmentManifest(segments, tombstones)


def close_stack(manifest):
    for segment in manifest.segments:
        if isinstance(segment, DiskSegment):
            segment.close()


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(stack=stacks, prefix=prefixes)
    def test_expand_matches_the_old_dictionary(self, stack, prefix):
        with tempfile.TemporaryDirectory() as directory:
            manifest = build_stack(stack, directory)
            try:
                oracle = PrefixDictionary(old_terms(manifest))
                for limit in (1, 2, 3, 1000):
                    expanded = manifest.expand(prefix, limit)
                    assert expanded == sorted(set(expanded))
                    assert len(expanded) <= limit
                    assert [
                        t for t in expanded if manifest.lookup(t)
                    ] == oracle.expand(prefix, limit)
            finally:
                close_stack(manifest)

    @settings(max_examples=150, deadline=None)
    @given(stack=stacks)
    def test_terms_keeps_its_contract(self, stack):
        with tempfile.TemporaryDirectory() as directory:
            manifest = build_stack(stack, directory)
            try:
                assert manifest.terms() == old_terms(manifest)
            finally:
                close_stack(manifest)

    @settings(max_examples=150, deadline=None)
    @given(stack=stacks, prefix=prefixes)
    def test_prefix_query_equals_the_materialized_index(self, stack, prefix):
        with tempfile.TemporaryDirectory() as directory:
            manifest = build_stack(stack, directory)
            try:
                over_segments = QueryEngine(manifest).search(prefix + "*")
                flat = QueryEngine(manifest.materialize())
                assert over_segments == flat.search(prefix + "*")
            finally:
                close_stack(manifest)

    def test_term_alive_only_in_a_shadowed_revision_is_not_chosen(self):
        # "aa" exists only in f0's shadowed first revision: within the
        # limit it may ride along (it evaluates to nothing), past the
        # limit it must not take a live term's place.
        manifest = SegmentManifest(
            [
                MemorySegment(0, _index({"f0": ["aa", "ab"]})),
                MemorySegment(1, _index({"f0": ["ab", "ac"]})),
            ]
        )
        assert manifest.terms() == ["ab", "ac"]
        assert manifest.expand("a", 2) == ["ab", "ac"]
        assert manifest.expand("a", 1) == ["ab"]
        assert [t for t in manifest.expand("a") if manifest.lookup(t)] == [
            "ab", "ac"
        ]
        assert QueryEngine(manifest).search("aa*") == []

    def test_empty_prefix_is_rejected_like_the_dictionary(self):
        with pytest.raises(ValueError, match="empty prefix"):
            SegmentManifest().expand("")
        assert SegmentManifest().expand("a") == []


def _index(docs):
    index = InvertedIndex()
    for path, terms in docs.items():
        index.add_block(TermBlock(path, tuple(terms)))
    return index


# -- (b) exact counts ----------------------------------------------------------


def fresh_tiny_fs():
    """A private, mutable copy of the tiny corpus."""
    return CorpusGenerator(TINY_PROFILE).generate().fs


def churn(fs, round_):
    """Edit two files and add one, deterministically."""
    paths = sorted(ref.path for ref in fs.list_files())
    for path in paths[round_ : round_ + 2]:
        fs.replace_file(path, fs.read_file(path) + f" edit{round_}".encode())
    fs.write_file(f"added{round_}.txt", f"fresh words round{round_}".encode())


@pytest.fixture
def segment_lookups(monkeypatch):
    """Counts every segment-level ``lookup`` call."""
    calls = []
    original = _SealedSegment.lookup

    def counting(self, term):
        calls.append(term)
        return original(self, term)

    monkeypatch.setattr(_SealedSegment, "lookup", counting)
    return calls


class TestExactCounts:
    def test_first_prefix_query_after_refresh_probes_only_candidates(
        self, segment_lookups
    ):
        fs = fresh_tiny_fs()
        session = Search.build(fs)
        churn(fs, 0)
        session.refresh()
        manifest = session.manifest
        assert manifest.segment_count == 2
        vocabulary = set()
        for segment in manifest.segments:
            vocabulary.update(segment.terms())
        prefix = sorted(vocabulary)[len(vocabulary) // 2][:2]
        candidates = sum(t.startswith(prefix) for t in vocabulary)
        assert 0 < candidates < len(vocabulary) // 10

        # What the harness's wildcard stage does, first thing after a
        # refresh: ask the engine for its dictionary, expand against it.
        del segment_lookups[:]
        engine = QueryEngine(manifest, universe=manifest.document_paths())
        dictionary = engine.prefix_dictionary()
        expand_prefixes(parse_query(prefix + "*"), dictionary)
        assert len(segment_lookups) <= candidates * manifest.segment_count

        # Past the limit the liveness check runs, on candidates only.
        del segment_lookups[:]
        assert len(dictionary.expand(prefix, 1)) == 1
        assert 0 < len(segment_lookups) <= candidates * manifest.segment_count

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_each_sealed_segment_is_sorted_exactly_once(
        self, monkeypatch, tmp_path, on_disk
    ):
        sorts = {}  # id(segment) -> [segment, times its terms were sorted]

        original = _SealedSegment._sorted_terms

        def counted(self):
            sorts.setdefault(id(self), [self, 0])[1] += 1
            return original(self)

        monkeypatch.setattr(_SealedSegment, "_sorted_terms", counted)
        fs = fresh_tiny_fs()
        session = Search.build(fs)
        if on_disk:
            # The base segment is a saved file, adopted as a DiskSegment.
            saved = str(tmp_path / "base.ridx2")
            session.save(saved)
            session = Search.open(saved, source=fs)
            assert isinstance(session.manifest.segments[0], DiskSegment)
        seen = {}

        def prefix_queries():
            for segment in session.manifest.segments:
                seen[id(segment)] = segment
            for prefix in ("a", "ed", "fre", "round"):
                session.query(prefix + "*")
                QueryEngine(session.manifest).search(prefix + "*")

        prefix_queries()
        for round_ in range(3):
            churn(fs, round_)
            session.refresh()
            prefix_queries()
        assert session.compact()
        prefix_queries()
        assert isinstance(session.manifest.segments[0], MemorySegment)
        churn(fs, 3)
        session.refresh()
        prefix_queries()
        assert len(seen) == 6  # build, three deltas, the product, one delta
        assert {key: entry[1] for key, entry in sorts.items()} == {
            key: 1 for key in seen
        }

    def test_refresh_and_compact_build_no_dictionary(self, monkeypatch):
        # Lazy: the writer never pays for the sort, only the first
        # prefix query does.
        def forbidden(self):
            raise AssertionError("dictionary built on the write path")

        monkeypatch.setattr(_SealedSegment, "_sorted_terms", forbidden)
        fs = fresh_tiny_fs()
        session = Search.build(fs)
        churn(fs, 0)
        session.refresh()
        session.query("plain")
        session.compact()
        session.snapshot()


# -- (c) a dictionary survives succession --------------------------------------


class TestSuccession:
    def test_dictionary_object_is_carried_into_the_successor(self):
        fs = fresh_tiny_fs()
        session = Search.build(fs)
        session.query("a*")
        first = session.manifest.segments[0]
        before = first.dictionary()
        assert before == sorted(first.index.terms())
        churn(fs, 0)
        session.refresh()
        successor = session.manifest
        assert successor.segment_count == 2
        assert successor.segments[0] is first
        session.query("a*")
        assert successor.segments[0].dictionary() is before

    def test_manifest_keeps_no_merged_copy(self):
        manifest = SegmentManifest([MemorySegment(0, _index({"f": ["aa"]}))])
        before = set(vars(manifest))
        manifest.expand("a")
        manifest.terms()
        assert set(vars(manifest)) == before

    def test_disk_dictionary_is_the_lexicon_order(self, tmp_path):
        index = _index({"f": ["b", "ab", "a", "ba"], "g": ["aa"]})
        file = tmp_path / "segment.ridx2"
        file.write_bytes(dump_index_ridx2(index))
        segment = DiskSegment(0, str(file))
        try:
            assert segment.dictionary() == sorted(index.terms())
            assert segment.dictionary() is segment.dictionary()
        finally:
            segment.close()


# -- (e) parse once ------------------------------------------------------------


@pytest.fixture
def parses(monkeypatch):
    """Counts ``parse_query`` calls wherever the name was imported to:
    every call builds exactly one ``_Parser``."""
    calls = []
    original = parser_module._Parser.__init__

    def counting(self, tokens):
        calls.append(tokens)
        original(self, tokens)

    monkeypatch.setattr(parser_module._Parser, "__init__", counting)
    return calls


def small_session(**kwargs):
    fs = VirtualFileSystem()
    fs.write_file("a.txt", b"alpha beta abacus")
    fs.write_file("b.txt", b"alpha gamma")
    fs.write_file("c.txt", b"beta")
    return Search.build(fs, **kwargs)


query_texts = st.recursive(
    st.sampled_from(
        ["alpha", "beta", "gamma", "abacus", "nosuch", "a*", "al*", "b*",
         "z*", "a AND a", "NOT NOT a*", "a AND NOT a", "alpha AND NOT alpha"]
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) AND ({p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}) OR ({p[1]})"),
        inner.map(lambda q: f"NOT ({q})"),
    ),
    max_leaves=5,
)


class TestParseOnce:
    def test_search_query_parses_once_hit_or_miss(self, parses):
        # Once on a miss; a hit is looked up by its text, unparsed.
        session = small_session()
        for text in ("alpha AND beta", "a*", "NOT gamma"):
            del parses[:]
            assert not session.query(text).cached
            assert len(parses) == 1
            del parses[:]
            assert session.query(text).cached
            assert len(parses) == 0

    def test_uncached_session_parses_once(self, parses):
        session = small_session(cache=0)
        session.query("alpha AND a*")
        assert len(parses) == 1

    def test_caching_engine_parses_once_hit_or_miss(self, parses):
        # A cached snapshot over an engine of the caller's choosing.
        manifest = small_session().manifest
        caching = IndexSnapshot(
            manifest,
            engine=QueryEngine(manifest, universe=manifest.document_paths()),
            cache=QueryCache(),
        )
        for text in ("alpha AND beta", "a*", "NOT gamma"):
            del parses[:]
            first = caching.answer(text).paths
            assert len(parses) == 1
            del parses[:]
            assert caching.answer(text).paths == first
            assert len(parses) == 0
        assert caching.cache.hits == 3 and caching.cache.misses == 3

    def test_caching_engine_still_drives_a_text_only_engine(self, tmp_path):
        # The on-disk engine behind the same cache.
        session = small_session()
        file = str(tmp_path / "index.ridx2")
        with open(file, "wb") as fh:
            fh.write(dump_index_ridx2(session.index))
        with MmapPostingsReader(file) as reader:
            caching = IndexSnapshot(
                reader,
                universe=frozenset(reader.doc_paths()),
                engine=DaatQueryEngine(reader),
                cache=QueryCache(),
            )
            assert caching.answer("alpha AND a*").paths == ["a.txt", "b.txt"]
            assert caching.answer("alpha AND a*").paths == ["a.txt", "b.txt"]
            assert caching.cache.hits == 1

    @settings(max_examples=200, deadline=None)
    @given(text=query_texts)
    def test_ast_entry_point_answers_what_the_text_one_does(
        self, churned, text
    ):
        manifest = churned.manifest
        engine = QueryEngine(manifest, universe=manifest.document_paths())
        expected = engine.search_ast(parse_query(text))
        assert engine.search_ast(optimize(parse_query(text))) == expected
        assert engine.search(text) == expected
        assert churned.query(text).paths == expected

    def test_a_parse_error_is_never_stored(self, monkeypatch):
        # The text is looked up before it is parsed, so a malformed one
        # is a miss, and raises on every ask.
        stored = []
        original = QueryCache.put

        def put(self, key, value):
            stored.append(key)
            return original(self, key, value)

        monkeypatch.setattr(QueryCache, "put", put)
        session = small_session()
        for _ in range(2):
            with pytest.raises(ParseError):
                session.query("(")
        assert stored == []
        assert session.snapshot().cache.misses == 2
        session.query("alpha")
        assert stored == [("alpha", "bool", None)]


@pytest.fixture(scope="module")
def churned():
    """Three segments, an overwritten path and a tombstone."""
    fs = VirtualFileSystem()
    fs.write_file("a.txt", b"alpha beta abacus")
    fs.write_file("b.txt", b"alpha gamma")
    fs.write_file("c.txt", b"beta")
    session = Search.build(fs)
    fs.replace_file("a.txt", b"alpha altitude")
    fs.write_file("d.txt", b"beta zeta")
    session.refresh()
    fs.remove_file("b.txt")
    fs.write_file("e.txt", b"gamma abacus")
    session.refresh()
    assert session.manifest.segment_count == 3 and session.manifest.tombstones
    return session
