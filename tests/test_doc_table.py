"""RIDX2 revision 3's columnar doc table, end to end.

* **Differential** (hypothesis corpora): ``read_ridx2_paths`` is the
  sorted document paths, ``read_ridx2_lengths`` the sidecar's document
  lengths (distinct-term counts without one); every boolean answer off
  a bare reader, ``Search.open`` and process-backend shard files is
  byte-identical to the in-memory engine, every BM25 hit float-identical
  to the in-memory ranker.
* **Totality**: bytes flipped, cut, spliced or duplicated inside the
  doc section make every doc-table door return or raise
  :class:`IndexFormatError` — never ``IndexError``,
  ``UnicodeDecodeError`` or a bare ``ValueError`` — and the checked
  doors (``verify()``, ``load_index``, ``Search.open``) answer the
  original values or refuse.
* **Laziness**: a boolean query, ``IndexSnapshot.from_ondisk``,
  ``Search.open`` and ``load_index_ridx2`` never decode a doc length;
  BM25 decodes the length column once per engine.
"""

from __future__ import annotations

import os
import string
import tempfile

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.index.ondisk as ondisk
from repro.api import Search
from repro.index import (
    IndexFormatError,
    InvertedIndex,
    MmapPostingsReader,
    load_index,
    load_index_ridx2,
)
from repro.index.binfmt import (
    RIDX2_HEADER,
    dump_index_ridx2,
    parse_ridx2_header,
    read_ridx2_lengths,
    read_ridx2_paths,
)
from repro.query.daat import DaatQueryEngine
from repro.query.evaluator import QueryEngine
from repro.query.ranking import BM25Ranker, FrequencyIndex, search_bm25
from repro.service.sharded import build_sharded_service
from repro.service.snapshot import IndexSnapshot
from repro.text.termblock import TermBlock
from tests.test_sharded_properties import VOCAB, queries

#: Path characters: ASCII, two- and three-byte UTF-8, and separators.
PATH_CHARS = string.ascii_lowercase + "/._-é日"

paths = st.one_of(
    st.text(alphabet=PATH_CHARS, min_size=1, max_size=12),
    # 128 bytes and over: what a per-record length varint needed two
    # bytes for.
    st.integers(126, 140).map(lambda n: "long/" + "x" * n),
)
words = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8)
# A document heavy with one word has a length of 128 and over.
heavy = st.builds(
    lambda bulk, rest: ["beta"] * bulk + rest,
    st.integers(120, 260),
    words,
)
corpora = st.dictionaries(
    paths, st.one_of(words, words, heavy), min_size=1, max_size=8
)


def build_corpus(docs):
    index = InvertedIndex()
    frequencies = FrequencyIndex()
    for path in sorted(docs):
        index.add_block(TermBlock(path, tuple(sorted(set(docs[path])))))
        frequencies.add_document(path, docs[path])
    return index, frequencies


def write(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


class TestColumnarDifferential:
    @given(
        docs=corpora,
        with_sidecar=st.booleans(),
        texts=st.lists(queries, min_size=1, max_size=4),
        topk=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_door_answers_like_the_in_memory_engine(
        self, docs, with_sidecar, texts, topk
    ):
        index, frequencies = build_corpus(docs)
        sidecar = frequencies if with_sidecar else None
        data = dump_index_ridx2(index, sidecar)
        header = parse_ridx2_header(data)
        ordered = sorted(docs)
        assert read_ridx2_paths(data, header) == ordered
        assert read_ridx2_lengths(data, header) == [
            len(docs[p]) if with_sidecar else len(set(docs[p]))
            for p in ordered
        ]
        engine = QueryEngine(index, universe=frozenset(docs))
        ranker = BM25Ranker(frequencies)
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "i.ridx2", data)
            session = Search.open(path)
            with MmapPostingsReader(path) as reader:
                daat = DaatQueryEngine(reader)
                for text in texts:
                    expected = engine.search(text)
                    assert daat.search(text) == expected, text
                    assert session.query(text).paths == expected, text
                    if with_sidecar:
                        assert daat.search_bm25(text, topk) == search_bm25(
                            engine, ranker, text, topk=topk
                        ), text

    @seed(41)
    @given(
        docs=corpora,
        texts=st.lists(queries, min_size=1, max_size=4),
        topk=st.integers(1, 6),
    )
    @settings(max_examples=4, deadline=None)
    def test_process_shard_files_answer_like_the_in_memory_engine(
        self, docs, texts, topk
    ):
        index, frequencies = build_corpus(docs)
        engine = QueryEngine(index, universe=frozenset(docs))
        ranker = BM25Ranker(frequencies)
        broker = build_sharded_service(
            index, docs, shards=2, frequencies=frequencies,
            backend="process",
        )
        with broker:
            for text in texts:
                assert broker.query(text).paths == engine.search(text)
                hits = broker.query(text, rank="bm25", topk=topk).hits
                assert hits == search_bm25(
                    engine, ranker, text, topk=topk
                ), text


# -- totality: the doc-table decoders under damage ----------------------------


def awkward_file():
    """Valid RIDX2 bytes with ASCII and non-ASCII paths, a path of 128
    bytes and over, and lengths on both sides of 127."""
    docs = {
        "a.txt": ["alpha", "beta"],
        "b/é.txt": ["beta"] * 130 + ["gamma"],
        "c/日本.txt": ["gamma", "delta"],
        "long/" + "x" * 130: ["alpha"],
        "z.txt": ["zeta"] * 3,
    }
    index, frequencies = build_corpus(docs)
    return dump_index_ridx2(index, frequencies), index


GOOD, GOOD_INDEX = awkward_file()
HEADER = parse_ridx2_header(GOOD)
GOOD_PATHS = read_ridx2_paths(GOOD, HEADER)
GOOD_LENGTHS = read_ridx2_lengths(GOOD, HEADER)
DOC_LO, DOC_HI = HEADER.doc_offsets_off, HEADER.lex_offsets_off

positions = st.integers(DOC_LO, DOC_HI - 1)
runs = st.integers(1, 8)


@st.composite
def damaged(draw):
    """``GOOD`` with its doc section flipped, cut, spliced (bytes
    inserted or overwritten) or with a run of it duplicated."""
    data = bytearray(GOOD)
    kind = draw(st.sampled_from(["flip", "cut", "insert", "overwrite", "dup"]))
    at = draw(positions)
    if kind == "flip":
        data[at] ^= 1 << draw(st.integers(0, 7))
    elif kind == "cut":
        del data[at : min(at + draw(runs), DOC_HI)]
    elif kind == "insert":
        data[at:at] = draw(st.binary(min_size=1, max_size=8))
    elif kind == "overwrite":
        junk = draw(st.binary(min_size=1, max_size=8))[: DOC_HI - at]
        data[at : at + len(junk)] = junk
    else:
        source = draw(positions)
        run = data[source : min(source + draw(runs), DOC_HI)]
        data[at:at] = run
    shift = len(data) - len(GOOD)
    if shift and draw(st.booleans()):
        # Move the lexicon's two offsets with it, so the header still
        # tiles the file and the damage reaches the doc-table decoders
        # (the CRC, left as it was, still tells).
        fields = list(RIDX2_HEADER.unpack_from(data, 5))
        fields[8] += shift
        fields[9] += shift
        data[5 : 5 + RIDX2_HEADER.size] = RIDX2_HEADER.pack(*fields)
    return kind, bytes(data)


def refused_or(door):
    """``door()``'s value, or None when it raises IndexFormatError; any
    other exception fails the test."""
    try:
        return door()
    except IndexFormatError:
        return None


class TestDocTableIsTotal:
    @seed(41)
    @given(case=damaged())
    @settings(max_examples=200, deadline=None)
    def test_every_door_returns_or_raises_index_format_error(self, case):
        _kind, data = case
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "d.ridx2", data)
            # Each bare door on a fresh reader: doc_path must not lean
            # on a table doc_paths() decoded.
            for door in (
                lambda r: r.doc_paths(),
                lambda r: r.doc_lengths(),
                lambda r: [r.doc_path(i) for i in range(r.doc_count)],
            ):
                reader = refused_or(lambda: MmapPostingsReader(path))
                if reader is not None:
                    with reader:
                        refused_or(lambda: door(reader))

            def verified():
                with MmapPostingsReader(path) as reader:
                    reader.verify()
                    return reader.doc_paths(), reader.doc_lengths()

            assert refused_or(verified) in (None, (GOOD_PATHS, GOOD_LENGTHS))
            assert refused_or(lambda: load_index_ridx2(data)) in (
                None, GOOD_INDEX
            )
            assert refused_or(lambda: load_index(path)) in (None, GOOD_INDEX)
            session = refused_or(lambda: Search.open(path))
            if session is not None:
                assert session.index == GOOD_INDEX

    def test_the_undamaged_file_passes_every_door(self, tmp_path):
        path = write(str(tmp_path), "d.ridx2", GOOD)
        with MmapPostingsReader(path) as reader:
            reader.verify()
            assert reader.doc_paths() == GOOD_PATHS
            assert reader.doc_lengths() == GOOD_LENGTHS
        assert Search.open(path).index == GOOD_INDEX
        assert any(n >= 128 for n in GOOD_LENGTHS)
        assert any(len(p.encode()) >= 128 for p in GOOD_PATHS)
        assert not "".join(GOOD_PATHS).isascii()


# -- laziness: who decodes the length column ----------------------------------


BOOLEAN = ("alpha", "beta AND gamma", "NOT zeta", "alph* OR delta")


@pytest.fixture
def counted(monkeypatch):
    """Counts the reader's length-column decodes."""
    calls = []

    def counting(data, header):
        calls.append(header.doc_count)
        return read_ridx2_lengths(data, header)

    monkeypatch.setattr(ondisk, "read_ridx2_lengths", counting)
    return calls


class TestLengthsAreLazy:
    def test_boolean_answers_and_opens_decode_no_length(
        self, tmp_path, counted
    ):
        path = write(str(tmp_path), "d.ridx2", GOOD)
        engine = QueryEngine(GOOD_INDEX, universe=frozenset(GOOD_PATHS))
        with MmapPostingsReader(path) as reader:
            daat = DaatQueryEngine(reader)
            snapshot = IndexSnapshot.from_ondisk(reader)
            session = Search.open(path)
            for text in BOOLEAN:
                expected = engine.search(text)
                assert daat.search(text) == expected
                assert snapshot.search(text) == expected
                assert session.query(text).paths == expected
            assert load_index_ridx2(GOOD) == GOOD_INDEX
            assert counted == []
            # BM25 decodes the column once per engine, on first rank.
            daat.search_bm25("beta")
            daat.search_bm25("alpha OR gamma")
            assert counted == [len(GOOD_PATHS)]

    def test_a_corrupt_length_column_fails_only_the_first_ranked_query(
        self, tmp_path
    ):
        data = bytearray(GOOD)
        data[DOC_HI - 1] |= 0x80  # the last length runs off the column
        path = write(str(tmp_path), "d.ridx2", bytes(data))
        engine = QueryEngine(GOOD_INDEX, universe=frozenset(GOOD_PATHS))
        with MmapPostingsReader(path) as reader:
            daat = DaatQueryEngine(reader)
            for text in BOOLEAN:
                assert daat.search(text) == engine.search(text)
            assert reader.doc_paths() == GOOD_PATHS
            with pytest.raises(IndexFormatError, match="length column"):
                daat.search_bm25("beta")
            with pytest.raises(IndexFormatError, match="CRC"):
                reader.verify()
