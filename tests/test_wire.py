"""Tests for the RWIRE1 wire format and the wire-ready ReplicaBuilder."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    InvertedIndex,
    ReplicaBuilder,
    dump_index_wire,
    index_from_bytes,
    index_to_bytes,
    load_index_wire,
    merge_wire_replica,
)
from repro.index.binfmt import WIRE_MAGIC, dump_index_bytes
from repro.text import TermBlock, Tokenizer

terms_strategy = st.lists(
    st.text(alphabet=string.ascii_lowercase + string.digits,
            min_size=1, max_size=10),
    max_size=12,
    unique=True,
)
blocks_strategy = st.dictionaries(
    st.text(alphabet=string.ascii_lowercase + "/._- \x00é", min_size=1,
            max_size=16),
    terms_strategy,
    max_size=10,
)


def _index_of(blocks):
    index = InvertedIndex()
    for path, terms in blocks.items():
        index.add_block(TermBlock(path=path, terms=tuple(terms)))
    return index


class TestWireRoundTrip:
    def test_empty_index(self):
        blob = dump_index_wire(InvertedIndex())
        assert blob.startswith(WIRE_MAGIC)
        loaded = load_index_wire(blob)
        assert len(loaded) == 0
        assert loaded.block_count == 0

    def test_small_index(self):
        index = _index_of({
            "a.txt": ["cat", "dog"],
            "b.txt": ["dog", "fox"],
        })
        loaded = load_index_wire(dump_index_wire(index))
        assert loaded == index
        assert loaded.block_count == index.block_count
        assert loaded.lookup("dog") == ["a.txt", "b.txt"]

    def test_preserves_postings_order(self):
        # RWIRE1 is order-preserving, unlike canonical RIDX1.
        index = _index_of({"z.txt": ["term"], "a.txt": ["term"]})
        loaded = load_index_wire(dump_index_wire(index))
        assert loaded.lookup("term") == ["z.txt", "a.txt"]

    def test_empty_file_block_counted(self):
        index = InvertedIndex()
        index.add_block(TermBlock(path="empty.txt", terms=()))
        loaded = load_index_wire(dump_index_wire(index))
        assert loaded.block_count == 1
        assert len(loaded) == 0

    def test_rejects_wrong_magic(self):
        with pytest.raises(ValueError):
            load_index_wire(b"RIDX1junk")

    def test_rejects_truncated_postings(self):
        blob = dump_index_wire(_index_of({"a.txt": ["cat", "dog"]}))
        with pytest.raises(ValueError):
            load_index_wire(blob[:-4])

    @given(blocks_strategy)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_any_index(self, blocks):
        index = _index_of(blocks)
        loaded = load_index_wire(dump_index_wire(index))
        assert loaded == index
        assert loaded.block_count == index.block_count


class TestMergeWireReplica:
    def test_merge_disjoint_replicas(self):
        left = _index_of({"a.txt": ["cat", "dog"]})
        right = _index_of({"b.txt": ["dog", "fox"]})
        merged = InvertedIndex()
        assert merge_wire_replica(merged, dump_index_wire(left)) == 1
        assert merge_wire_replica(merged, dump_index_wire(right)) == 1
        assert sorted(merged.lookup("dog")) == ["a.txt", "b.txt"]
        assert merged.block_count == 2
        assert merged.posting_count == 4

    def test_merge_equals_threaded_join(self):
        from repro.index import join_indices

        replicas = [
            _index_of({"a.txt": ["cat"], "b.txt": ["cat", "emu"]}),
            _index_of({"c.txt": ["cat", "dog"]}),
        ]
        joined = join_indices(replicas)
        merged = InvertedIndex()
        for replica in replicas:
            merge_wire_replica(merged, dump_index_wire(replica))
        assert merged == joined
        assert dump_index_bytes(merged) == dump_index_bytes(joined)


class TestReplicaBuilder:
    def test_add_scan_dedups_preserving_order(self):
        builder = ReplicaBuilder()
        distinct = builder.add_scan("a.txt", ["dog", "cat", "dog", "ant"])
        assert distinct == 3
        index = builder.to_index()
        assert list(index.terms()).count("dog") == 1
        assert index.lookup("dog") == ["a.txt"]

    def test_matches_inverted_index(self):
        tokenizer = Tokenizer()
        files = {
            "a.txt": b"the cat sat on the mat",
            "b/c.txt": b"cat and dog and cat",
            "empty.txt": b"",
        }
        builder = ReplicaBuilder()
        reference = InvertedIndex()
        for path, content in files.items():
            builder.add_scan(path, tokenizer.iter_terms(content))
            from repro.text import extract_term_block

            reference.add_block(extract_term_block(path, content, tokenizer))
        built = builder.to_index()
        assert built == reference
        assert built.block_count == reference.block_count
        assert dump_index_bytes(built) == dump_index_bytes(reference)

    def test_counters(self):
        builder = ReplicaBuilder()
        builder.add_scan("a.txt", ["cat", "dog"])
        builder.add_scan("b.txt", ["dog"])
        assert len(builder) == 2
        assert builder.doc_count == 2
        assert builder.block_count == 2
        assert builder.posting_count == 3

    def test_add_block(self):
        builder = ReplicaBuilder()
        builder.add_block(TermBlock(path="a.txt", terms=("cat", "dog")))
        assert builder.to_index().lookup("cat") == ["a.txt"]

    @given(blocks_strategy)
    @settings(max_examples=30, deadline=None)
    def test_builder_equivalent_to_index(self, blocks):
        builder = ReplicaBuilder()
        for path, terms in blocks.items():
            builder.add_scan(path, terms)
        assert builder.to_index() == _index_of(blocks)


class TestBytesDispatch:
    def test_to_bytes_formats(self):
        index = _index_of({"a.txt": ["cat"]})
        assert index_to_bytes(index).startswith(b"RIDX1")
        assert index_to_bytes(index, format="wire").startswith(WIRE_MAGIC)

    def test_from_bytes_sniffs_magic(self):
        index = _index_of({"a.txt": ["cat", "dog"], "b.txt": ["dog"]})
        assert index_from_bytes(index_to_bytes(index)) == index
        assert index_from_bytes(index_to_bytes(index, format="wire")) == index

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            index_from_bytes(b"not an index at all")
