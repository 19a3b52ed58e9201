"""RIDX2: the blocked on-disk format and its mmap reader.

Covers the format's edge cases (empty index, one term, a term spanning
many blocks, doc-id gaps wider than 2^28, empty postings dropped at
dump time), the codec round-trips at the block level, the block
decoders' one-byte-gap path against the varint loop, the header and
magic sniffing failure modes (:class:`IndexFormatError` for
RIDX1/RIDX2/RWIRE1/JSON/unknown/truncated), and the
:class:`MmapPostingsReader` serving surface — lexicon binary search,
``read_postings`` (whole lists and candidate filters), block-skip
accounting (exact per query), and frequency storage.
"""

from __future__ import annotations

import gc
import os
import warnings
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    IndexFormatError,
    InvertedIndex,
    MmapPostingsReader,
    dump_index_ridx2,
    load_index,
    load_index_ridx2,
    save_index,
    sniff_format,
)
from repro.index.binfmt import (
    RIDX2_DEFAULT_BLOCK,
    RIDX2_HEADER,
    decode_block_docids,
    decode_block_freqs,
    decode_gaps,
    decode_single_block,
    decode_varint,
    dump_index_bytes,
    dump_index_wire,
    encode_posting_blocks,
    encode_varint,
    parse_ridx2_header,
    read_ridx2_doc,
    read_ridx2_lengths,
    read_ridx2_paths,
)
from repro.query.ranking import FrequencyIndex
from repro.query.wildcard import PrefixDictionary
from repro.text.termblock import TermBlock


def build_index(docs):
    """docs: {path: iterable of terms} -> (InvertedIndex, FrequencyIndex)."""
    index = InvertedIndex()
    frequencies = FrequencyIndex()
    for path in sorted(docs):
        terms = list(docs[path])
        index.add_block(TermBlock(path, tuple(sorted(set(terms)))))
        frequencies.add_document(path, terms)
    return index, frequencies


@pytest.fixture
def fruit_docs():
    return {
        "a/one.txt": "apple banana cherry apple".split(),
        "b/two.txt": "banana date elderberry".split(),
        "c/three.txt": "apple cherry fig grape".split(),
        "d/four.txt": "grape banana apple apple apple".split(),
    }


@pytest.fixture
def fruit_file(tmp_path, fruit_docs):
    index, frequencies = build_index(fruit_docs)
    path = str(tmp_path / "fruit.ridx2")
    save_index(index, path, format="ridx2", frequencies=frequencies)
    return path


class TestPostingBlockCodec:
    def test_round_trip_single_block(self):
        ids = [0, 1, 5, 9, 200]
        entries, blob = encode_posting_blocks(ids, block_size=128)
        assert len(entries) == 1
        offset, last, count, doc_bytes, freq_bytes, codec = entries[0]
        assert (last, count) == (200, 5)
        assert decode_block_docids(blob, offset, count, doc_bytes) == ids

    def test_round_trip_many_blocks(self):
        ids = list(range(0, 1000, 3))
        entries, blob = encode_posting_blocks(ids, block_size=7)
        assert len(entries) == -(-len(ids) // 7)
        decoded = []
        for offset, last, count, doc_bytes, _fb, _codec in entries:
            chunk = decode_block_docids(blob, offset, count, doc_bytes)
            assert chunk[-1] == last
            decoded.extend(chunk)
        assert decoded == ids

    def test_gaps_wider_than_2_to_28(self):
        # Multi-byte varints: gaps needing 1..5 LEB128 bytes, including
        # one wider than 2^28 (the 5-byte threshold).
        ids = [0, 1, 300, 2**21, 2**28 + 7, 2**28 + 7 + (2**28 + 1)]
        entries, blob = encode_posting_blocks(ids, block_size=4)
        decoded = []
        for offset, _last, count, doc_bytes, _fb, _codec in entries:
            decoded.extend(decode_block_docids(blob, offset, count, doc_bytes))
        assert decoded == ids

    def test_frequencies_ride_along(self):
        ids = [3, 4, 10]
        freqs = [1, 7, 300]
        entries, blob = encode_posting_blocks(ids, freqs=freqs, block_size=2)
        got = []
        for offset, _l, count, doc_bytes, freq_bytes, _c in entries:
            got.extend(
                decode_block_freqs(blob, offset + doc_bytes, count, freq_bytes)
            )
        assert got == freqs

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="frequenc"):
            encode_posting_blocks([1, 2], freqs=[1, 0])

    def test_rejects_unsorted_ids(self):
        with pytest.raises(ValueError):
            encode_posting_blocks([5, 3])


# -- the block decoders against the varint loop, their reference -------------


def loop_block_docids(data, offset, count, doc_bytes):
    ids, end = decode_gaps(bytes(data[offset : offset + doc_bytes]), 0, count)
    if end != doc_bytes:
        raise IndexFormatError("doc ids")
    return ids


def loop_single_block(data, start, end, count):
    ids, doc_bytes = decode_gaps(bytes(data[start:end]), 0, count)
    spare = end - start - doc_bytes
    if spare and spare < count:
        raise IndexFormatError("frequency bytes")
    return ids, doc_bytes


def loop_block_freqs(data, offset, count, freq_bytes):
    if not freq_bytes:
        return [1] * count
    blob = bytes(data[offset : offset + freq_bytes])
    freqs, position = [], 0
    for _ in range(count):
        value, position = decode_varint(blob, position)
        freqs.append(value + 1)
    if position != freq_bytes:
        raise IndexFormatError("frequencies")
    return freqs


def outcome(decode, *args):
    try:
        return "ok", decode(*args)
    except Exception as exc:  # the class is what is compared
        return "raised", type(exc)


@st.composite
def decoder_cases(draw):
    """``(data, offset, count, byte length)`` for a block decoder: an
    encoded gap run — a multi-byte first gap, one-byte gaps after it
    but now and then a wider one — cut or padded, or noise (ASCII or
    not); counts and lengths the true ones or anything near them."""
    offset = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["gaps", "ascii", "binary"]))
    if kind == "gaps":
        rest = draw(st.lists(st.integers(0, 127), max_size=30))
        if rest and draw(st.booleans()):
            wide = draw(st.integers(128, 2**14))
            rest[draw(st.integers(0, len(rest) - 1))] = wide
        gaps = [draw(st.integers(0, 2**21))] + rest
        body = b"".join(map(encode_varint, gaps))
        body = body[: len(body) - draw(st.integers(0, 3))]
        body += draw(st.binary(max_size=3))
        natural = len(gaps)
    else:
        if kind == "ascii":
            body = bytes(draw(st.lists(st.integers(0, 127), max_size=40)))
        else:
            body = draw(st.binary(max_size=40))
        natural = len(body)
    data = draw(st.binary(min_size=offset, max_size=offset)) + body
    count = draw(st.one_of(st.just(natural), st.integers(0, 40)))
    length = draw(
        st.one_of(st.just(len(body)), st.just(count), st.integers(0, 50))
    )
    return data, offset, count, length


class TestBlockDecodersMatchTheLoop:
    @settings(max_examples=400, deadline=None)
    @given(decoder_cases())
    def test_same_values_or_same_exception_class(self, case):
        """The one-byte-gap path is picked by the bytes alone and keeps
        every refusal of the loop it stands in for."""
        data, offset, count, length = case
        assert outcome(decode_block_docids, data, offset, count, length) == (
            outcome(loop_block_docids, data, offset, count, length)
        )
        assert outcome(decode_block_freqs, data, offset, count, length) == (
            outcome(loop_block_freqs, data, offset, count, length)
        )
        end = offset + length
        assert outcome(decode_single_block, data, offset, end, count) == (
            outcome(loop_single_block, data, offset, end, count)
        )


class TestRidx2RoundTrip:
    def test_empty_index(self):
        index = InvertedIndex()
        data = dump_index_ridx2(index)
        loaded = load_index_ridx2(data)
        assert len(loaded) == 0
        header = parse_ridx2_header(data)
        assert header.doc_count == 0
        assert header.term_count == 0

    def test_single_term(self):
        index, _ = build_index({"only.txt": ["solo"]})
        loaded = load_index_ridx2(dump_index_ridx2(index))
        assert loaded.lookup("solo") == ["only.txt"]

    def test_term_spanning_many_blocks(self):
        docs = {f"doc-{i:04d}.txt": ["common"] for i in range(500)}
        index, _ = build_index(docs)
        data = dump_index_ridx2(index, block_size=8)
        loaded = load_index_ridx2(data)
        assert sorted(loaded.lookup("common")) == sorted(docs)

    def test_fruit_corpus(self, fruit_docs):
        index, frequencies = build_index(fruit_docs)
        data = dump_index_ridx2(index, frequencies=frequencies)
        loaded = load_index_ridx2(data)
        assert loaded == index

    def test_empty_postings_are_dropped(self):
        # A term whose postings list emptied (e.g. after removals) is
        # canonicalized away rather than written as a zero-block term.
        index, _ = build_index({"a.txt": ["keep"]})
        index._map["ghost"] = type(index._map["keep"])([])
        data = dump_index_ridx2(index)
        header = parse_ridx2_header(data)
        assert header.term_count == 1
        assert "ghost" not in load_index_ridx2(data).terms()

    def test_deterministic_bytes(self, fruit_docs):
        index, _ = build_index(fruit_docs)
        assert dump_index_ridx2(index) == dump_index_ridx2(index)

    def test_default_block_size_written(self, fruit_docs):
        index, _ = build_index(fruit_docs)
        header = parse_ridx2_header(dump_index_ridx2(index))
        assert header.block_size == RIDX2_DEFAULT_BLOCK


class TestFormatSniffing:
    def test_sniffs_each_magic(self, fruit_docs):
        index, _ = build_index(fruit_docs)
        assert sniff_format(dump_index_ridx2(index)[:8]) == "ridx2"
        assert sniff_format(dump_index_bytes(index)[:8]) == "binary"
        assert sniff_format(dump_index_wire(index)[:8]) == "binary"
        assert sniff_format(b'{"format"') == "json"
        assert sniff_format(b"GARBAGE!") is None

    def test_load_index_round_trips_every_format(
        self, tmp_path, fruit_docs
    ):
        # JSON-lines is only loaded now: tests/test_serialize_formats.py
        # opens a hand-written file.
        index, _ = build_index(fruit_docs)
        for format in ("binary", "ridx2"):
            path = str(tmp_path / f"idx.{format}")
            save_index(index, path, format=format)
            assert load_index(path) == index
        path = str(tmp_path / "idx.wire")
        with open(path, "wb") as fh:
            fh.write(dump_index_wire(index))
        assert load_index(path) == index

    def test_unknown_magic_names_bytes_and_formats(self, tmp_path):
        path = str(tmp_path / "mystery.idx")
        with open(path, "wb") as fh:
            fh.write(b"PDFX1\x00\x00\x00 not an index")
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        message = str(excinfo.value)
        assert "PDFX1" in message
        assert "RIDX1" in message and "RIDX2" in message
        assert "RWIRE1" in message and "JSON" in message

    def test_empty_file_is_a_clear_error(self, tmp_path):
        path = str(tmp_path / "empty.idx")
        open(path, "wb").close()
        with pytest.raises(IndexFormatError, match="empty"):
            load_index(path)

    def test_truncated_ridx2_header(self, tmp_path, fruit_docs):
        index, _ = build_index(fruit_docs)
        data = dump_index_ridx2(index)
        path = str(tmp_path / "cut.ridx2")
        with open(path, "wb") as fh:
            fh.write(data[:20])  # magic survives, header does not
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path)

    def test_wrong_magic_rejected_by_parser(self):
        with pytest.raises(IndexFormatError, match="RIDX2"):
            parse_ridx2_header(b"RIDX1" + b"\x00" * 100)

    def test_frequencies_rejected_for_non_ridx2(self, tmp_path, fruit_docs):
        index, frequencies = build_index(fruit_docs)
        with pytest.raises(ValueError, match="RIDX2"):
            save_index(
                index, str(tmp_path / "x.ridx"), format="binary",
                frequencies=frequencies,
            )


class TestMmapPostingsReader:
    def test_open_reads_header_only_stats(self, fruit_file, fruit_docs):
        with MmapPostingsReader(fruit_file) as reader:
            assert reader.doc_count == len(fruit_docs)
            assert reader.term_count == 7
            assert reader.has_freqs
            total = sum(len(terms) for terms in fruit_docs.values())
            assert reader.total_doc_len == total
            assert reader.average_document_length == total / len(fruit_docs)

    def test_doc_ids_are_sorted_path_order(self, fruit_file, fruit_docs):
        with MmapPostingsReader(fruit_file) as reader:
            assert reader.doc_paths() == sorted(fruit_docs)
            for i, path in enumerate(sorted(fruit_docs)):
                assert reader.doc_path(i) == path
                assert reader.doc_length(i) == len(fruit_docs[path])

    def test_term_info_binary_search(self, fruit_file):
        with MmapPostingsReader(fruit_file) as reader:
            info = reader.term_info("banana")
            assert info.df == 3
            assert reader.term_info("zzz-absent") is None
            assert "banana" in reader
            assert "zzz-absent" not in reader

    def test_terms_walk_is_sorted(self, fruit_file):
        with MmapPostingsReader(fruit_file) as reader:
            terms = list(reader.terms())
            assert terms == sorted(terms)
            assert "apple" in terms

    def test_expand_is_the_prefix_dictionary_range(self, tmp_path):
        """The lexicon range walk answers what a ``PrefixDictionary`` of
        every term does, at every limit, and its entries are
        ``term_info``'s."""
        words = "ab abc abd b ba bé bz béz c ca caé 日本 日本語".split()
        index, frequencies = build_index({"x.txt": words, "y.txt": words[::3]})
        path = str(tmp_path / "words.ridx2")
        save_index(index, path, format="ridx2", frequencies=frequencies)
        with MmapPostingsReader(path) as reader:
            dictionary = PrefixDictionary(reader.terms())
            for prefix in ["a", "ab", "abz", "b", "bé", "c", "日", "z", "\x00"]:
                for limit in (1, 2, 1000):
                    into = {}
                    terms = reader.expand(prefix, limit, into=into)
                    assert terms == dictionary.expand(prefix, limit)
                    assert into == {t: reader.term_info(t) for t in terms}
            with pytest.raises(ValueError, match="empty prefix"):
                reader.expand("")

    def test_lookup_matches_in_memory(self, fruit_file, fruit_docs):
        index, _ = build_index(fruit_docs)
        with MmapPostingsReader(fruit_file) as reader:
            for term in index.terms():
                assert reader.lookup(term) == sorted(index.lookup(term))
            assert reader.lookup("zzz-absent") == []

    def test_cursor_walk_and_freqs(self, fruit_file, fruit_docs, monkeypatch):
        import repro.index.ondisk as ondisk

        _, frequencies = build_index(fruit_docs)
        decoded = []
        real = ondisk.decode_block_freqs
        monkeypatch.setattr(
            ondisk, "decode_block_freqs",
            lambda *args: decoded.append(args) or real(*args),
        )
        with MmapPostingsReader(fruit_file) as reader:
            info = reader.term_info("apple")
            reader.read_postings(info)
            reader.read_postings(info, [0, 1, 2, 3])
            assert decoded == []  # boolean reads never decode a tf
            tfs = reader.read_postings(info, with_freqs=True)
            assert decoded
            seen = []
            for doc_id, tf in tfs.items():
                path = reader.doc_path(doc_id)
                assert tf == frequencies.tf("apple", path)
                seen.append(path)
            assert list(tfs) == sorted(tfs)
            assert seen == sorted(
                p for p, t in fruit_docs.items() if "apple" in t
            )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_a_reader_holds_one_descriptor_and_drops_silently(
        self, fruit_file
    ):
        """The map owns a descriptor of its own; the file object that
        made it is closed at once, so nothing is left for the garbage
        collector to warn about."""
        before = len(os.listdir("/proc/self/fd"))
        reader = MmapPostingsReader(fruit_file)
        assert len(os.listdir("/proc/self/fd")) == before + 1
        assert reader.lookup("banana")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del reader
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_open_rejects_non_ridx2(self, tmp_path, fruit_docs):
        index, _ = build_index(fruit_docs)
        path = str(tmp_path / "old.ridx")
        save_index(index, path, format="binary")
        with pytest.raises(IndexFormatError):
            MmapPostingsReader(path)

    def test_open_rejects_empty_file(self, tmp_path):
        path = str(tmp_path / "zero.ridx2")
        open(path, "wb").close()
        with pytest.raises(IndexFormatError, match="empty"):
            MmapPostingsReader(path)

    def test_without_frequencies_tf_defaults_to_one(
        self, tmp_path, fruit_docs
    ):
        index, _ = build_index(fruit_docs)
        path = str(tmp_path / "nofreq.ridx2")
        save_index(index, path, format="ridx2")
        with MmapPostingsReader(path) as reader:
            assert not reader.has_freqs
            tfs = reader.read_postings(
                reader.term_info("apple"), with_freqs=True
            )
            assert tfs and set(tfs.values()) == {1}
            # Doc length falls back to the distinct-term count.
            for i, doc_path in enumerate(sorted(fruit_docs)):
                assert reader.doc_length(i) == len(set(fruit_docs[doc_path]))


class TestBlockSkipping:
    @pytest.fixture
    def skippy_file(self, tmp_path):
        # "rare" lives in documents 0 and 900; "common" is everywhere.
        # With 8-posting blocks, filtering common by docs 0 and 900
        # must jump over the 111 blocks between without decoding them.
        docs = {f"doc-{i:04d}": ["common"] for i in range(901)}
        docs["doc-0000"].append("rare")
        docs["doc-0900"].append("rare")
        index, _ = build_index(docs)
        path = str(tmp_path / "skippy.ridx2")
        with open(path, "wb") as fh:
            fh.write(dump_index_ridx2(index, block_size=8))
        return path

    def test_seek_skips_blocks(self, skippy_file):
        with MmapPostingsReader(skippy_file) as reader:
            info = reader.term_info("common")
            assert reader.read_postings(info, [0, 900]) == [0, 900]
            stats = reader.stats()
            assert stats["ondisk.blocks_skipped"] == 111
            # Only the first and the target block were decoded.
            assert stats["ondisk.blocks_read"] == 2

    def test_lookup_decodes_whole_blocks_and_counts_each_once(
        self, skippy_file
    ):
        """``lookup`` reads a list block by block, not posting by
        posting; the counter says what a bare ``read_postings`` says."""
        with MmapPostingsReader(skippy_file) as reader:
            assert reader.lookup("rare") == ["doc-0000", "doc-0900"]
            assert reader.blocks_read == 1  # an inline list: one block
            expected = [f"doc-{i:04d}" for i in range(901)]
            assert reader.lookup("common") == expected  # no doc table yet
            assert reader.blocks_read == 1 + -(-901 // 8)
            reader.doc_paths()  # the materialized table answers the same
            assert reader.lookup("common") == expected
            before = reader.blocks_read
            ids = reader.read_postings(reader.term_info("common"))
            assert [reader.doc_path(i) for i in ids] == expected
            assert reader.blocks_read - before == -(-901 // 8)
            assert reader.blocks_skipped == 0

    def test_and_query_skips(self, skippy_file):
        from repro.query.daat import DaatQueryEngine

        with MmapPostingsReader(skippy_file) as reader:
            engine = DaatQueryEngine(reader)
            assert engine.search("rare AND common") == [
                "doc-0000", "doc-0900",
            ]
            assert reader.blocks_skipped > 0

    def test_seek_to_done(self, skippy_file):
        """A candidate past the end of a list finds nothing: an inline
        list still reads its one block, a blocked one skips them all."""
        with MmapPostingsReader(skippy_file) as reader:
            assert reader.read_postings(reader.term_info("rare"), [901]) == []
            assert (reader.blocks_read, reader.blocks_skipped) == (1, 0)
            info = reader.term_info("common")
            assert reader.read_postings(info, [901]) == []
            assert (reader.blocks_read, reader.blocks_skipped) == (1, 113)


class TestQueryBlockCounts:
    """Exact blocks read and skipped per query on TestBlockSkipping's
    file: "rare" is in docs 0 and 900, "common" in all 901, 8-posting
    blocks — common is 113 blocks, rare one inline block."""

    @pytest.fixture
    def skippy_file(self, tmp_path):
        docs = {f"doc-{i:04d}": ["common"] for i in range(901)}
        docs["doc-0000"].append("rare")
        docs["doc-0900"].append("rare")
        path = str(tmp_path / "skippy.ridx2")
        with open(path, "wb") as fh:
            fh.write(dump_index_ridx2(build_index(docs)[0], block_size=8))
        return path

    @pytest.mark.parametrize(
        "query, hits, read, skipped",
        [
            # rare's block, then only common's first and last: the 111
            # between hold no candidate.
            ("rare AND common", 2, 3, 111),
            ("common AND rare", 2, 3, 111),
            # Every common block holds a candidate; rare's is read once.
            ("common AND NOT rare", 899, 114, 0),
            ("rare OR common", 901, 114, 0),
            # A NOT filters rare's two candidates through common's blocks
            # (the per-posting leapfrog read all 114).
            ("rare AND NOT common", 0, 3, 111),
        ],
    )
    def test_counts(self, skippy_file, query, hits, read, skipped):
        from repro.query.daat import DaatQueryEngine

        with MmapPostingsReader(skippy_file) as reader:
            assert len(DaatQueryEngine(reader).search(query)) == hits
            assert (reader.blocks_read, reader.blocks_skipped) == (
                read,
                skipped,
            )

    def test_a_candidate_past_the_list_skips_its_rest_as_a_seek_does(
        self, skippy_file
    ):
        with MmapPostingsReader(skippy_file) as reader:
            info = reader.term_info("common")
            assert reader.read_postings(info, [3, 5000]) == [3]
            assert (reader.blocks_read, reader.blocks_skipped) == (1, 112)


# -- revision 2: postings inside the lexicon record --------------------------


def varint_len(value):
    size = 1
    while value >= 128:
        value >>= 7
        size += 1
    return size


def gaps_len(ids, previous=-1):
    total = 0
    for doc_id in ids:
        total += varint_len(doc_id - previous - 1)
        previous = doc_id
    return total


def record_len(term, ids, tfs, block_size):
    """The byte length of one lexicon record, from docs/ondisk.md alone:
    term, df, a block table only when df > block_size, then per block
    the gap-coded ids and — unless every tf in it is 1 — its ``tf - 1``
    varints."""
    encoded = len(term.encode("utf-8"))
    total = varint_len(encoded) + encoded + varint_len(len(ids))
    previous_last = -1
    for start in range(0, len(ids), block_size):
        chunk = ids[start : start + block_size]
        chunk_tfs = tfs[start : start + block_size]
        doc_bytes = gaps_len(chunk)
        freq_bytes = 0
        if any(tf != 1 for tf in chunk_tfs):
            freq_bytes = sum(varint_len(tf - 1) for tf in chunk_tfs)
        if len(ids) > block_size:
            total += (
                varint_len(chunk[-1] - previous_last - 1)
                + varint_len(doc_bytes)
                + varint_len(freq_bytes)
            )
            previous_last = chunk[-1]
        total += doc_bytes + freq_bytes
    return total


def expected_file_len(docs, block_size, with_frequencies):
    """docs: {path: term occurrences}.  Header + doc table + lexicon:
    the doc table is its offsets, the bare UTF-8 paths, then one length
    varint per document."""
    paths = sorted(docs)
    total = 5 + RIDX2_HEADER.size + 4 * (len(paths) + 1)
    for path in paths:
        length = len(docs[path]) if with_frequencies else len(set(docs[path]))
        total += len(path.encode("utf-8")) + varint_len(length)
    terms = sorted({t for occurrences in docs.values() for t in occurrences})
    total += 4 * (len(terms) + 1)
    for term in terms:
        ids = [i for i, p in enumerate(paths) if term in docs[p]]
        tfs = [
            docs[paths[i]].count(term) if with_frequencies else 1 for i in ids
        ]
        total += record_len(term, ids, tfs, block_size)
    return total


#: ``dump_index_ridx2`` of the four-document fruit corpus with its
#: frequency sidecar.  A change to these bytes is a format change: bump
#: RIDX2_VERSION and docs/ondisk.md with it.
GOLDEN_FRUIT = (
    b'RIDX2\x03\x01\x80\x00\x04\x00\x00\x00\x07\x00\x00\x00\x10\x00'
    b'\x00\x00\x00\x00\x00\x00=\x00\x00\x00\x00\x00\x00\x00Q\x00\x00'
    b'\x00\x00\x00\x00\x00|\x00\x00\x00\x00\x00\x00\x00\x9c\x00\x00'
    b'\x00\x00\x00\x00\x001\xf0Y\x1e\x00\x00\x00\x00\t\x00\x00\x00\x12'
    b"\x00\x00\x00\x1d\x00\x00\x00'\x00\x00\x00a/one.txtb/two.txtc/th"
    b'ree.txtd/four.txt\x04\x03\x04\x05\x00\x00\x00\x00\r\x00\x00\x00'
    b'\x18\x00\x00\x00"\x00\x00\x00)\x00\x00\x006\x00\x00\x00<\x00\x00'
    b'\x00E\x00\x00\x00\x05apple\x03\x00\x01\x00\x01\x00\x02\x06banana'
    b'\x03\x00\x00\x01\x06cherry\x02\x00\x01\x04date\x01\x01\nelderber'
    b'ry\x01\x01\x03fig\x01\x02\x05grape\x02\x02\x00'
)

#: What revision 2 wrote for the same index and sidecar: each doc
#: record carried its own path length, and the doc length sat beside
#: its path.  Refused at every door.
REVISION_2_FILE = (
    b'RIDX2\x02\x01\x80\x00\x04\x00\x00\x00\x07\x00\x00\x00\x10\x00\x00'
    b'\x00\x00\x00\x00\x00=\x00\x00\x00\x00\x00\x00\x00Q\x00\x00\x00\x00'
    b'\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\xa0\x00\x00\x00\x00'
    b'\x00\x00\x00\xbc\xb4\x1d\xda\x00\x00\x00\x00\x0b\x00\x00\x00\x16'
    b'\x00\x00\x00#\x00\x00\x00/\x00\x00\x00\ta/one.txt\x04\tb/two.txt'
    b'\x03\x0bc/three.txt\x04\nd/four.txt\x05\x00\x00\x00\x00\r\x00\x00'
    b'\x00\x18\x00\x00\x00"\x00\x00\x00)\x00\x00\x006\x00\x00\x00<\x00'
    b'\x00\x00E\x00\x00\x00\x05apple\x03\x00\x01\x00\x01\x00\x02\x06banan'
    b'a\x03\x00\x00\x01\x06cherry\x02\x00\x01\x04date\x01\x01\nelderberry'
    b'\x01\x01\x03fig\x01\x02\x05grape\x02\x02\x00'
)

#: What the parent commit (revision 1) wrote for the two-document index
#: {a.txt: x y, b.txt: y}: the header alone is enough to be refused.
REVISION_1_FILE = (
    b"RIDX2\x01\x00\x80\x00\x02\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00"
    b"\x00\x00\x00\x00I\x00\x00\x00\x00\x00\x00\x00U\x00\x00\x00\x00\x00\x00"
    b"\x00c\x00\x00\x00\x00\x00\x00\x00o\x00\x00\x00\x00\x00\x00\x00y\x00\x00"
    b"\x00\x00\x00\x00\x00\xab\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    b"\x07\x00\x00\x00\x0e\x00\x00\x00\x05a.txt\x02\x05b.txt\x01\x00\x00\x00"
    b"\x00\x05\x00\x00\x00\n\x00\x00\x00\x01x\x01\x00\x01\x01y\x02\x01\x01"
    b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01"
    b"\x00\x00\x00\x01\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01"
    b"\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00"
    b"\x00\x00\x00\x00\x00"
)


class TestRevision2Layout:
    @pytest.mark.parametrize("block_size", [1, 2, 3, 128])
    @pytest.mark.parametrize("with_frequencies", [True, False])
    def test_file_length_is_header_tables_and_records(
        self, fruit_docs, block_size, with_frequencies
    ):
        docs = dict(fruit_docs)
        docs["e/five.txt"] = ["apple"] * 200 + ["kiwi"]  # a two-byte tf - 1
        index, frequencies = build_index(docs)
        data = dump_index_ridx2(
            index,
            frequencies=frequencies if with_frequencies else None,
            block_size=block_size,
        )
        assert len(data) == expected_file_len(
            docs, block_size, with_frequencies
        )

    def test_a_singleton_term_costs_its_length_plus_three_bytes(self):
        docs = {"a.txt": ["other", "solo"], "b.txt": ["other"]}
        with_solo = dump_index_ridx2(build_index(docs)[0])
        docs["a.txt"] = ["other"]
        without = dump_index_ridx2(build_index(docs)[0])
        # term length, term, df, one gap — and its 4-byte table offset;
        # the doc table and the other record are the same size in both.
        assert len(with_solo) - len(without) == len("solo") + 3 + 4

    def test_no_sidecar_means_no_frequency_bytes(self, fruit_docs):
        from repro.index.binfmt import decode_block_table, iter_ridx2_lexicon

        index, _ = build_index(fruit_docs)
        data = dump_index_ridx2(index, block_size=2)
        assert len(data) == expected_file_len(fruit_docs, 2, False)
        header = parse_ridx2_header(data)
        paths = sorted(fruit_docs)
        for term, df, start, end in iter_ridx2_lexicon(data, header):
            ids = [i for i, p in enumerate(paths) if term in fruit_docs[p]]
            if df <= 2:
                assert end - start == gaps_len(ids)
            else:
                blocks, _lasts = decode_block_table(data, start, df, 2)
                assert [b[3] for b in blocks] == [0] * len(blocks)
                assert blocks[-1][0] + blocks[-1][2] == end

    def test_golden_bytes(self, fruit_docs):
        index, frequencies = build_index(fruit_docs)
        assert dump_index_ridx2(index, frequencies=frequencies) == GOLDEN_FRUIT

    def test_equal_indices_equal_bytes(self, fruit_docs):
        forward, frequencies = build_index(fruit_docs)
        backward = InvertedIndex()
        for path in sorted(fruit_docs, reverse=True):
            terms = tuple(sorted(set(fruit_docs[path]), reverse=True))
            backward.add_block(TermBlock(path, terms))
        assert dump_index_ridx2(
            forward, frequencies=frequencies
        ) == dump_index_ridx2(backward, frequencies=frequencies)

    def test_section_past_4_gib_is_a_value_error_naming_the_limit(self):
        from repro.index.binfmt import _offset_table

        with pytest.raises(ValueError, match="4 GiB"):
            _offset_table([2**31, 2**31], "lexicon")
        assert len(_offset_table([2**31, 2**31 - 1], "lexicon")) == 12


class TestRefusals:
    @pytest.fixture
    def small(self, fruit_docs):
        index, frequencies = build_index(fruit_docs)
        return dump_index_ridx2(index, frequencies=frequencies, block_size=2)

    def test_every_prefix_is_a_typed_error(self, tmp_path, small):
        path = str(tmp_path / "cut.ridx2")
        for length in range(len(small)):
            with open(path, "wb") as fh:
                fh.write(small[:length])
            with pytest.raises(IndexFormatError):
                MmapPostingsReader(path)
            with pytest.raises(IndexFormatError):
                load_index(path)
        with open(path, "wb") as fh:
            fh.write(small)
        with MmapPostingsReader(path) as reader:
            reader.verify()
        assert load_index(path) == load_index_ridx2(small)

    def test_revision_1_file_says_re_save(self, tmp_path):
        path = str(tmp_path / "old.ridx2")
        with open(path, "wb") as fh:
            fh.write(REVISION_1_FILE)
        for opener in (MmapPostingsReader, load_index):
            with pytest.raises(IndexFormatError) as excinfo:
                opener(path)
            message = str(excinfo.value)
            assert "revision 1" in message and "revision 3" in message
            assert "re-save" in message

    def test_revision_2_file_is_refused_at_every_door(self, tmp_path, capsys):
        from repro.api import Search
        from repro.cli import main

        path = str(tmp_path / "old.ridx2")
        with open(path, "wb") as fh:
            fh.write(REVISION_2_FILE)
        for opener in (MmapPostingsReader, load_index, Search.open):
            with pytest.raises(IndexFormatError) as excinfo:
                opener(path)
            message = str(excinfo.value)
            assert "revision 2" in message and "revision 3" in message
            assert "re-save" in message
        assert main(["search", path, "apple", "--ondisk"]) == 2
        err = capsys.readouterr().err
        assert "revision 2" in err and "re-save" in err

    def test_unknown_revision_is_refused(self, small):
        stamped = small[:5] + b"\x09" + small[6:]
        with pytest.raises(IndexFormatError, match="revision 9"):
            parse_ridx2_header(stamped)

    def test_every_body_bit_flip_fails_load_index(self, tmp_path, small):
        path = str(tmp_path / "flipped.ridx2")
        header_end = 5 + RIDX2_HEADER.size
        positions = range(header_end, len(small), 2)
        assert len(positions) >= 60
        for n, position in enumerate(positions):
            flipped = bytearray(small)
            flipped[position] ^= 1 << (n % 8)
            with open(path, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(IndexFormatError):
                load_index(path)

    def test_header_bit_flips_fail_load_index(self, small):
        # The CRC covers the header fields too: a flipped flag or
        # block_size would otherwise decode into a different index.
        for position in range(5, 5 + RIDX2_HEADER.size):
            flipped = bytearray(small)
            flipped[position] ^= 0x10
            with pytest.raises(IndexFormatError):
                load_index_ridx2(bytes(flipped))

    def test_verify_is_on_demand_and_open_never_reads_the_crc(
        self, tmp_path, small
    ):
        flipped = bytearray(small)
        flipped[-1] ^= 0x01  # a frequency byte: structure intact
        path = str(tmp_path / "rot.ridx2")
        with open(path, "wb") as fh:
            fh.write(flipped)
        with MmapPostingsReader(path) as reader:  # opens: O(1), no CRC
            with pytest.raises(IndexFormatError, match="CRC"):
                reader.verify()

    def test_closed_reader_raises_value_error(self, fruit_file):
        reader = MmapPostingsReader(fruit_file)
        reader.close()
        reader.close()  # idempotent
        for use in (
            lambda: reader.term_info("apple"),
            lambda: reader.lookup("apple"),
            lambda: list(reader.terms()),
            lambda: list(reader.postings()),
            lambda: reader.doc_length(0),
            reader.verify,
        ):
            with pytest.raises(ValueError, match="is closed"):
                use()


class TestPostingsWalk:
    def test_postings_equal_lookup_per_term(self, fruit_file):
        with MmapPostingsReader(fruit_file) as reader:
            walked = list(reader.postings())
            assert walked == [(t, reader.lookup(t)) for t in reader.terms()]


# -- hypothesis: the reader against a list model, around the block seams -----


@st.composite
def posting_lists(draw):
    block_size = draw(st.sampled_from([1, 2, 7, 128]))
    seams = [
        max(1, block_size - 1),
        block_size,
        block_size + 1,
        2 * block_size,
        2 * block_size + 1,
    ]
    lists = {}
    for n in range(draw(st.integers(1, 3))):
        df = draw(st.one_of(st.sampled_from(seams), st.integers(1, 12)))
        universe = df + draw(st.integers(0, 40))
        ids = sorted(
            draw(st.permutations(range(universe)).map(lambda p: p[:df]))
        )
        mode = draw(st.sampled_from(["ones", "some-blocks", "mixed", "big"]))
        if mode == "ones":
            tfs = [1] * df
        elif mode == "some-blocks":
            # every other block is all ones, the rest carry a 2
            tfs = [1 + (i // block_size) % 2 for i in range(df)]
        elif mode == "mixed":
            tfs = draw(st.lists(st.integers(1, 5), min_size=df, max_size=df))
        else:
            tfs = [1] * df
            tfs[draw(st.integers(0, df - 1))] = draw(st.integers(129, 400))
        lists[f"t{n}"] = (ids, tfs)
    return block_size, lists, draw(st.booleans())


def model_block_counts(ids, block_size, candidates):
    """(read, skipped) for filtering ``ids`` by ascending ``candidates``:
    an inline list (at most one block) reads its block whenever there is
    a candidate; a blocked list reads each block that holds a candidate's
    position and skips every other block below the last one it needed —
    all of them once a candidate lies past the list's end."""
    if len(ids) <= block_size:
        return (1 if candidates else 0), 0
    lasts = [ids[min(k + block_size, len(ids)) - 1]
             for k in range(0, len(ids), block_size)]
    positions = [bisect_left(lasts, c) for c in candidates]
    chosen = {p for p in positions if p < len(lasts)}
    if any(p == len(lasts) for p in positions):
        end = len(lasts)
    else:
        end = max(chosen) + 1 if chosen else 0
    return len(chosen), end - len(chosen)


class TestDifferentialSeams:
    @settings(max_examples=60, deadline=None)
    @given(posting_lists(), st.randoms(use_true_random=False))
    def test_reader_matches_list_model(self, tmp_path_factory, case, rng):
        block_size, lists, with_sidecar = case
        universe = 1 + max(ids[-1] for ids, _ in lists.values())
        docs = {f"d{i:04d}": ["filler"] for i in range(universe)}
        for term, (ids, tfs) in lists.items():
            for doc_id, tf in zip(ids, tfs):
                docs[f"d{doc_id:04d}"].extend([term] * tf)
        index, frequencies = build_index(docs)
        data = dump_index_ridx2(
            index,
            frequencies=frequencies if with_sidecar else None,
            block_size=block_size,
        )
        assert load_index_ridx2(data) == index
        assert len(data) == expected_file_len(docs, block_size, with_sidecar)
        path = str(tmp_path_factory.mktemp("seams") / "i.ridx2")
        with open(path, "wb") as fh:
            fh.write(data)
        paths = sorted(docs)
        with MmapPostingsReader(path) as reader:
            reader.verify()
            for term, (ids, tfs) in lists.items():
                if not with_sidecar:
                    tfs = [1] * len(ids)
                assert reader.term_info(term).df == len(ids)
                assert reader.lookup(term) == [paths[i] for i in ids]
                info = reader.term_info(term)
                assert reader.read_postings(info, with_freqs=True) == dict(
                    zip(ids, tfs)
                )
                # A random ascending candidate list against the list
                # model: the hits, and the blocks read and skipped.
                pool = range(universe + 2 * block_size)
                candidates = sorted(
                    rng.sample(pool, rng.randint(0, min(6, len(pool))))
                )
                before = (reader.blocks_read, reader.blocks_skipped)
                assert reader.read_postings(info, candidates) == sorted(
                    set(ids).intersection(candidates)
                )
                read, skipped = model_block_counts(ids, block_size, candidates)
                assert (
                    reader.blocks_read - before[0],
                    reader.blocks_skipped - before[1],
                ) == (read, skipped)
                tfs_of = dict(zip(ids, tfs))
                got = reader.read_postings(info, candidates, with_freqs=True)
                for doc_id in set(ids).intersection(candidates):
                    assert got[doc_id] == tfs_of[doc_id]


def awkward_docs():
    """Paths that need a two-byte length varint (>= 128 UTF-8 bytes),
    non-ASCII paths, and lengths on both sides of 127."""
    return {
        "d/" + "x" * 140 + ".txt": ["alpha"] * 200 + ["beta"],
        "d/" + "é" * 70 + ".txt": ["beta", "gamma"],
        "d/naïve/résumé-日本語.txt": ["gamma"] * 127,
        "d/short.txt": ["alpha"] * 128,
        "d/" + "ø" * 61 + ".txt": ["delta"],  # exactly 128 bytes
    }


class TestDocTableOnePass:
    """Revision 3's columnar doc table: the offsets index a path blob,
    and a column of document lengths follows it."""

    @pytest.mark.parametrize("with_frequencies", [True, False])
    def test_equals_the_per_record_decode(self, tmp_path, with_frequencies):
        index, frequencies = build_index(awkward_docs())
        data = dump_index_ridx2(
            index, frequencies if with_frequencies else None
        )
        path = str(tmp_path / "awkward.ridx2")
        with open(path, "wb") as fh:
            fh.write(data)
        header = parse_ridx2_header(data)
        records = [
            read_ridx2_doc(data, header, i) for i in range(header.doc_count)
        ]
        assert any(len(p.encode()) >= 128 for p in records)
        paths = read_ridx2_paths(data, header)
        assert paths == records == sorted(awkward_docs())
        lengths = read_ridx2_lengths(data, header)
        assert any(n >= 128 for n in lengths) == with_frequencies
        assert sum(lengths) == header.total_doc_len
        with MmapPostingsReader(path) as reader:
            assert reader.doc_paths() == paths
            assert [reader.doc_length(i) for i in range(len(paths))] == lengths
            assert reader.doc_paths_of([4, 0, 2]) == [paths[4], paths[0], paths[2]]
        with MmapPostingsReader(path) as reader:
            assert reader.doc_paths_of([4, 0, 2]) == [paths[4], paths[0], paths[2]]
            assert reader.doc_path(1) == paths[1]
        assert sorted(load_index_ridx2(data).items()) == sorted(index.items())

    def test_an_ascii_blob_decodes_like_the_per_record_path(self, fruit_docs):
        index, frequencies = build_index(fruit_docs)
        data = dump_index_ridx2(index, frequencies)
        header = parse_ridx2_header(data)
        assert read_ridx2_paths(data, header) == sorted(fruit_docs)
        assert read_ridx2_lengths(data, header) == [
            len(fruit_docs[p]) for p in sorted(fruit_docs)
        ]

    def test_an_empty_doc_table(self):
        data = dump_index_ridx2(InvertedIndex())
        header = parse_ridx2_header(data)
        assert read_ridx2_paths(data, header) == []
        assert read_ridx2_lengths(data, header) == []

    def test_each_short_path_costs_its_bytes_and_no_prefix(self):
        index, _ = build_index({"a.txt": ["x"], "bb.txt": ["x"]})
        data = dump_index_ridx2(index)
        header = parse_ridx2_header(data)
        assert bytes(data[header.doc_data_off : header.lex_offsets_off]) == (
            b"a.txtbb.txt\x01\x01"
        )

    def test_an_offset_that_disagrees_with_the_records_is_refused(self):
        index, _ = build_index(awkward_docs())
        data = bytearray(dump_index_ridx2(index))
        header = parse_ridx2_header(data)
        # Record 2 now starts before record 1 does: the offsets decrease.
        entry = header.doc_offsets_off + 4 * 2
        data[entry : entry + 4] = (1).to_bytes(4, "little")
        with pytest.raises(IndexFormatError, match="record 1"):
            read_ridx2_paths(bytes(data), header)
        with pytest.raises(IndexFormatError, match="record 1"):
            read_ridx2_doc(bytes(data), header, 1)

    def test_a_length_running_off_the_section_is_refused(self):
        # A path running past the blob: the last record's start lies
        # beyond the blob's end (the sentinel).
        index, _ = build_index(awkward_docs())
        data = bytearray(dump_index_ridx2(index))
        header = parse_ridx2_header(data)
        last = header.doc_count - 1
        entry = header.doc_offsets_off + 4 * last
        blob_end = int.from_bytes(data[entry + 4 : entry + 8], "little")
        data[entry : entry + 4] = (blob_end + 1).to_bytes(4, "little")
        with pytest.raises(IndexFormatError, match=f"record {last}"):
            read_ridx2_paths(bytes(data), header)
        with pytest.raises(IndexFormatError, match=f"record {last}"):
            read_ridx2_doc(bytes(data), header, last)

    def test_a_path_that_is_not_utf8_is_refused(self):
        index, _ = build_index({"a.txt": ["x"], "b.txt": ["y"]})
        data = bytearray(dump_index_ridx2(index))
        header = parse_ridx2_header(data)
        data[header.doc_data_off] = 0xFF  # the first byte of "a.txt"
        with pytest.raises(IndexFormatError, match="record 0"):
            read_ridx2_paths(bytes(data), header)
        with pytest.raises(IndexFormatError, match="record 0"):
            read_ridx2_doc(bytes(data), header, 0)
        assert read_ridx2_doc(bytes(data), header, 1) == "b.txt"

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_length_column_short_or_long_is_refused(self, change):
        import dataclasses

        index, frequencies = build_index(awkward_docs())
        data = dump_index_ridx2(index, frequencies)
        header = parse_ridx2_header(data)
        moved = dataclasses.replace(
            header, lex_offsets_off=header.lex_offsets_off + change
        )
        with pytest.raises(IndexFormatError, match="length column"):
            read_ridx2_lengths(data, moved)
        assert read_ridx2_paths(data, moved) == sorted(awkward_docs())

    def test_a_length_varint_swallowing_the_next_is_refused(self):
        index, _ = build_index({"a.txt": ["x"], "b.txt": ["y"]})
        data = bytearray(dump_index_ridx2(index))
        header = parse_ridx2_header(data)
        data[header.lex_offsets_off - 2] |= 0x80  # two bytes, one length
        with pytest.raises(IndexFormatError, match="length column"):
            read_ridx2_lengths(bytes(data), header)
