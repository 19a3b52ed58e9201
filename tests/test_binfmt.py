"""Tests for the binary index format (varints, gaps, round trips)."""

import pytest

from repro.engine import SequentialIndexer
from repro.index import InvertedIndex
from repro.index.binfmt import (
    decode_gaps,
    decode_varint,
    dump_index_bytes,
    encode_gaps,
    encode_varint,
    load_index_bytes,
)
from repro.index.serialize import load_index, save_index
from repro.text import TermBlock


class TestVarint:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 255, 300, 16_383, 16_384, 2**32, 2**63 - 1]
    )
    def test_round_trip(self, value):
        data = encode_varint(value)
        decoded, offset = decode_varint(data, 0)
        assert decoded == value
        assert offset == len(data)

    def test_single_byte_below_128(self):
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80", 0)

    def test_sequence_decoding(self):
        blob = encode_varint(5) + encode_varint(1000) + encode_varint(0)
        a, offset = decode_varint(blob, 0)
        b, offset = decode_varint(blob, offset)
        c, offset = decode_varint(blob, offset)
        assert (a, b, c) == (5, 1000, 0)
        assert offset == len(blob)


class TestGapEncoding:
    def test_round_trip(self):
        ids = [0, 1, 5, 6, 100, 10_000]
        data = encode_gaps(ids)
        decoded, offset = decode_gaps(data, 0, len(ids))
        assert decoded == ids
        assert offset == len(data)

    def test_dense_ids_cost_one_byte_each(self):
        ids = list(range(1000))
        assert len(encode_gaps(ids)) == 1000

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            encode_gaps([3, 3])
        with pytest.raises(ValueError):
            encode_gaps([5, 2])

    def test_empty(self):
        assert encode_gaps([]) == b""
        assert decode_gaps(b"", 0, 0) == ([], 0)


class TestIndexRoundTrip:
    def make_index(self):
        index = InvertedIndex()
        index.add_block(TermBlock("docs/a.txt", ("alpha", "beta", "gamma")))
        index.add_block(TermBlock("docs/b.txt", ("beta",)))
        index.add_block(TermBlock("z.txt", ("alpha", "delta")))
        return index

    def test_bytes_round_trip(self):
        index = self.make_index()
        assert load_index_bytes(dump_index_bytes(index)) == index

    def test_file_round_trip(self, tmp_path):
        index = self.make_index()
        path = str(tmp_path / "index.ridx")
        written = save_index(index, path)
        assert written > 0
        assert load_index(path) == index

    def test_empty_index(self):
        assert load_index_bytes(dump_index_bytes(InvertedIndex())) == (
            InvertedIndex()
        )

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_index_bytes(b"JUNK")

    def test_canonical_output(self):
        # Same content inserted in different orders -> identical bytes.
        a = self.make_index()
        b = InvertedIndex()
        b.add_block(TermBlock("z.txt", ("delta", "alpha")))
        b.add_block(TermBlock("docs/b.txt", ("beta",)))
        b.add_block(TermBlock("docs/a.txt", ("gamma", "alpha", "beta")))
        assert dump_index_bytes(a) == dump_index_bytes(b)

    def test_smaller_than_json(self, tiny_fs, tmp_path):
        import json

        index = SequentialIndexer(tiny_fs, naive=False).build().index
        # The posting lines of the JSON-lines encoding older versions
        # wrote (its header line left out, which only favours JSON).
        json_size = sum(
            len(json.dumps([term, postings.paths()])) + 1
            for term, postings in index.items()
        )
        for format in ("ridx2", "binary"):
            path = str(tmp_path / f"index.{format}")
            assert save_index(index, path, format=format) < json_size / 2

    def test_real_corpus_round_trip(self, tiny_fs):
        index = SequentialIndexer(tiny_fs, naive=False).build().index
        assert load_index_bytes(dump_index_bytes(index)) == index


class TestDynamicDistributionModes:
    """The engine's runtime work-acquisition extension."""

    @pytest.mark.parametrize("dynamic", ["steal", "queue"])
    def test_same_index_as_static(self, tiny_fs, dynamic):
        from repro.engine import Implementation, IndexGenerator, ThreadConfig

        static = IndexGenerator(tiny_fs).build(
            Implementation.SHARED_LOCKED, ThreadConfig(3, 1, 0)
        )
        moving = IndexGenerator(tiny_fs, dynamic=dynamic).build(
            Implementation.SHARED_LOCKED, ThreadConfig(3, 1, 0)
        )
        assert moving.index == static.index

    @pytest.mark.parametrize("dynamic", ["steal", "queue"])
    def test_replicated_union_preserved(self, tiny_fs, dynamic):
        from repro.engine import Implementation, IndexGenerator, ThreadConfig
        from repro.index import join_indices

        static = IndexGenerator(tiny_fs).build(
            Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)
        )
        moving = IndexGenerator(tiny_fs, dynamic=dynamic).build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        assert join_indices(moving.index.replicas) == static.index

    def test_invalid_mode_rejected(self, tiny_fs):
        from repro.engine import IndexGenerator, Implementation, ThreadConfig

        with pytest.raises(ValueError):
            IndexGenerator(tiny_fs, dynamic="magic").build(
                Implementation.SHARED_LOCKED, ThreadConfig(2, 0, 0)
            )
