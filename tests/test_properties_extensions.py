"""Property-based tests for the extension modules (binary format,
document formats, incremental maintenance, wildcard dictionary)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import default_registry
from repro.formats.docz import read_docz, write_docz
from repro.index import InvertedIndex
from repro.index.binfmt import (
    decode_gaps,
    decode_varint,
    dump_index_bytes,
    encode_gaps,
    encode_varint,
    load_index_bytes,
)
from repro.index.segments import CompactionPolicy, SegmentedIndexer
from repro.query.wildcard import PrefixDictionary
from repro.text import TermBlock

terms = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
paths = st.text(alphabet=string.ascii_lowercase + "/", min_size=1, max_size=12)


class TestVarintProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_round_trip(self, value):
        value_back, offset = decode_varint(encode_varint(value), 0)
        assert value_back == value

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=30))
    def test_concatenated_stream(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = decode_varint(blob, offset)
            decoded.append(value)
        assert decoded == values
        assert offset == len(blob)

    @given(st.sets(st.integers(min_value=0, max_value=100_000), max_size=60))
    def test_gap_round_trip(self, ids):
        ordered = sorted(ids)
        decoded, _ = decode_gaps(encode_gaps(ordered), 0, len(ordered))
        assert decoded == ordered


@st.composite
def indexes(draw):
    index = InvertedIndex()
    n = draw(st.integers(min_value=0, max_value=10))
    for i in range(n):
        block_terms = draw(st.lists(terms, max_size=5, unique=True))
        index.add_block(TermBlock(f"file{i}", tuple(block_terms)))
    return index


class TestBinaryFormatProperties:
    @given(indexes())
    @settings(max_examples=50)
    def test_round_trip_preserves_index(self, index):
        assert load_index_bytes(dump_index_bytes(index)) == index

    @given(indexes())
    @settings(max_examples=50)
    def test_serialization_canonical(self, index):
        blob = dump_index_bytes(index)
        assert dump_index_bytes(load_index_bytes(blob)) == blob


class TestFormatProperties:
    @given(st.binary(max_size=400))
    @settings(max_examples=60)
    def test_extractors_total(self, content):
        """No byte sequence may crash any extractor."""
        registry = default_registry()
        for fmt in registry.formats:
            fmt.extract_text(content)

    @given(st.binary(max_size=200))
    def test_detection_total(self, content):
        registry = default_registry()
        assert registry.detect("mystery.bin", content) is not None

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=255),
                      st.binary(max_size=40)),
            max_size=8,
        ),
        st.dictionaries(
            st.text(string.ascii_lowercase, min_size=1, max_size=6),
            st.text(string.ascii_lowercase, max_size=10),
            max_size=4,
        ),
    )
    def test_docz_round_trip(self, runs, metadata):
        blob = write_docz(runs, metadata)
        read_metadata, read_runs = read_docz(blob)
        assert read_metadata == metadata
        assert read_runs == runs


@st.composite
def churn_operations(draw):
    ops = []
    live = set()
    n = draw(st.integers(min_value=0, max_value=25))
    for i in range(n):
        kind = draw(st.sampled_from(["add", "remove", "update"]))
        if kind == "add" or not live:
            path = f"p{i}"
            live.add(path)
            ops.append(("add", path, draw(st.lists(terms, max_size=4,
                                                   unique=True))))
        elif kind == "remove":
            path = draw(st.sampled_from(sorted(live)))
            live.discard(path)
            ops.append(("remove", path, []))
        else:
            path = draw(st.sampled_from(sorted(live)))
            ops.append(("update", path, draw(st.lists(terms, max_size=4,
                                                      unique=True))))
    return ops


class TestIncrementalProperties:
    @given(churn_operations(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_always_equals_rebuild(self, operations, fanin):
        """One-document deltas through ``apply_delta``: the live view,
        and the compacted one, always equal a rebuild of what is live."""
        indexer = SegmentedIndexer(None)
        live = {}
        for kind, path, block_terms in operations:
            if kind == "remove":
                indexer.apply_delta({}, [path], {})
                live.pop(path, None)
            else:
                block = TermBlock(path, tuple(block_terms))
                indexer.apply_delta({path: block}, [], {})
                live[path] = block
        rebuilt = InvertedIndex()
        for block in live.values():
            rebuilt.add_block(block)
        assert indexer.manifest.materialize() == rebuilt
        assert sorted(indexer.manifest.document_paths()) == sorted(live)
        indexer.compact(policy=CompactionPolicy(fanin=fanin))
        assert indexer.manifest.materialize() == rebuilt
        assert sorted(indexer.manifest.document_paths()) == sorted(live)


class TestWildcardProperties:
    @given(st.lists(terms, min_size=1), terms)
    def test_expansion_is_exactly_the_matching_subset(self, words, prefix):
        dictionary = PrefixDictionary(words)
        expanded = set(dictionary.expand(prefix, limit=10_000))
        expected = {w for w in set(words) if w.startswith(prefix)}
        assert expanded == expected

    @given(st.lists(terms))
    def test_membership_matches_set(self, words):
        dictionary = PrefixDictionary(words)
        for word in set(words):
            assert word in dictionary
        assert "notaword123" not in dictionary
