"""Tests for the RWIRE1 wire format and the wire-ready ReplicaBuilder."""

import string
from itertools import count

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
from repro.index.binfmt import (
    WIRE_MAGIC,
    _unpack_wire,
    dump_index_bytes,
    join_wire_replicas,
)
from repro.text import TermBlock, Tokenizer
from tests.test_native_build import assert_same_content

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


def _fold(blobs, blocks=()):
    """The key-by-key join: each replica folded, then each block added."""
    index = InvertedIndex()
    for blob in blobs:
        merge_wire_replica(index, blob)
    for block in blocks:
        index.add_block(block)
    return index


def _load(blob):
    """``load_index_wire``, checked against the fold: the same content,
    and the terms in the blob's order, not the fold's FNV buckets."""
    loaded = load_index_wire(blob)
    assert_same_content(loaded, _fold([blob]))
    assert list(loaded.terms()) == _unpack_wire(blob)[2]
    return loaded


class TestWireRoundTrip:
    def test_empty_index(self):
        blob = dump_index_wire(InvertedIndex())
        assert blob.startswith(WIRE_MAGIC)
        loaded = _load(blob)
        assert len(loaded) == 0
        assert loaded.block_count == 0

    def test_small_index(self):
        index = _index_of({
            "a.txt": ["cat", "dog"],
            "b.txt": ["dog", "fox"],
        })
        loaded = _load(dump_index_wire(index))
        assert loaded == index
        assert loaded.block_count == index.block_count
        assert loaded.lookup("dog") == ["a.txt", "b.txt"]

    def test_preserves_postings_order(self):
        # RWIRE1 is order-preserving, unlike canonical RIDX1.
        index = _index_of({"z.txt": ["term"], "a.txt": ["term"]})
        loaded = _load(dump_index_wire(index))
        assert loaded.lookup("term") == ["z.txt", "a.txt"]

    def test_empty_file_block_counted(self):
        index = InvertedIndex()
        index.add_block(TermBlock(path="empty.txt", terms=()))
        loaded = _load(dump_index_wire(index))
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
        loaded = _load(dump_index_wire(index))
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

    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=20),
                    max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_add_scan_writes_the_bytes_add_block_writes(self, streams):
        # A duplicate-bearing stream and its first-seen de-duplication
        # must produce the same replica, wire byte for wire byte.
        scanned, blocked = ReplicaBuilder(), ReplicaBuilder()
        for n, stream in enumerate(streams):
            path = f"f{n}.txt"
            distinct = tuple(dict.fromkeys(stream))
            assert scanned.add_scan(path, iter(stream)) == len(distinct)
            blocked.add_block(TermBlock(path=path, terms=distinct))
        assert scanned.to_bytes() == blocked.to_bytes()
        # First-seen order across the whole stream, as the wire keeps it.
        seen = [term for stream in streams for term in stream]
        assert _unpack_wire(scanned.to_bytes())[2] == list(dict.fromkeys(seen))

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
        assert_same_content(builder.to_index(), _index_of(blocks))
        assert dump_index_wire(builder.to_index()) == dump_index_wire(
            _load(builder.to_bytes())
        )


class TestBytesDispatch:
    def test_to_bytes_formats(self):
        index = _index_of({"a.txt": ["cat"]})
        assert index_to_bytes(index).startswith(b"RIDX1")
        assert index_to_bytes(index, format="wire").startswith(WIRE_MAGIC)

    def test_from_bytes_sniffs_magic(self):
        index = _index_of({"a.txt": ["cat", "dog"], "b.txt": ["dog"]})
        assert index_from_bytes(index_to_bytes(index)) == index
        wire = index_to_bytes(index, format="wire")
        assert index_from_bytes(wire) == index
        assert dump_index_wire(index_from_bytes(wire)) == wire

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            index_from_bytes(b"not an index at all")


#: Terms from a small shared vocabulary, so replicas and blocks collide.
vocabulary_term = st.sampled_from(
    ["ant", "bee", "cat", "dog", "emu", "fox", "gnu", "hen", "ibis", "é"]
) | st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)
#: One replica: 0-4 files of raw (duplicate-bearing) terms, some term-less.
replica_files = st.lists(st.lists(vocabulary_term, max_size=8), max_size=4)


class TestJoinWireReplicas:
    """The bulk join equals the key-by-key fold it replaces."""

    @given(
        st.lists(replica_files, max_size=4),
        st.lists(
            st.lists(vocabulary_term, max_size=6, unique=True), max_size=3
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_fold_then_add_block(self, replicas, block_terms):
        paths = (f"d{i % 3}/é{i}.txt" for i in count())
        blobs = []
        for files in replicas:
            builder = ReplicaBuilder()
            for terms in files:
                builder.add_scan(next(paths), terms)
            blobs.append(builder.to_bytes())
        blocks = [
            TermBlock(path=next(paths), terms=tuple(terms))
            for terms in block_terms
        ]
        index, documents, posting_count = join_wire_replicas(blobs, blocks)
        oracle = _fold(blobs, blocks)
        assert_same_content(index, oracle)
        with_postings = {path for _, paths in oracle.items() for path in paths}
        assert len(documents) == len(set(documents))
        assert set(documents) == with_postings
        assert posting_count == oracle.posting_count

    def test_documents_in_join_order_without_termless_files(self):
        left = ReplicaBuilder()
        left.add_scan("b.txt", ["cat"])
        left.add_scan("empty.txt", [])
        left.add_scan("a.txt", ["cat", "dog"])
        right = ReplicaBuilder()
        right.add_scan("c.txt", ["dog", "emu"])
        blocks = [TermBlock("huge.txt", ("emu",)), TermBlock("blank.txt", ())]
        index, documents, posting_count = join_wire_replicas(
            [left.to_bytes(), right.to_bytes()], blocks
        )
        assert documents == ["b.txt", "a.txt", "c.txt", "huge.txt"]
        assert posting_count == 6
        assert index.block_count == 6
        assert index.lookup("emu") == ["c.txt", "huge.txt"]

    def test_nothing_to_join(self):
        index, documents, posting_count = join_wire_replicas([])
        assert (len(index), index.block_count) == (0, 0)
        assert (documents, posting_count) == ([], 0)
