"""Compact binary index persistence.

The JSON-lines format older versions saved (still read by
:mod:`repro.index.serialize`) is transparent but large; real search
engines store postings as delta-compressed integer lists.  This module
implements that, from scratch:

* LEB128 varints (:func:`encode_varint` / :func:`decode_varint`);
* a document dictionary mapping paths to dense integer ids;
* per-term postings stored as **gap-encoded sorted doc ids**: ids are
  sorted, consecutive differences are varint-coded, so dense postings
  cost ~1 byte per entry.

Layout::

    magic   "RIDX1"
    docs    varint count, then per doc: varint path length, path bytes
    terms   varint count, then per term:
              varint term length, term bytes
              varint postings count
              gap-encoded doc ids (varints)

The format canonicalizes postings order (sorted by doc id); index
equality is order-insensitive, so round-trips preserve equality.

Next to RIDX1 lives its speed-first sibling, the **RWIRE1 wire format**
(:func:`dump_index_wire` / :func:`load_index_wire`): the to_bytes /
from_bytes fast path the multiprocessing build backend uses to ship
index replicas from worker processes to the parent.  Where RIDX1
optimizes for bytes on disk (sorted, canonical, ~1 byte per posting),
RWIRE1 optimizes for encode/decode *time*: every section is a bulk
operation over a length-prefixed array — one ``bytes.join`` to encode,
one ``array.frombytes`` to decode — so (de)serialization runs at C
speed instead of a Python loop per posting.

Layout (all integers little-endian)::

    magic        "RWIRE1"
    block_count  u32 — term blocks folded into the replica
    doc section  u32 count, u32 blob length,
                 u32[count] per-path byte lengths, concatenated UTF-8 paths
    term section u32 count, u32 blob length,
                 u32[count] per-term byte lengths, concatenated UTF-8 terms
    postings     u32[term count] postings counts,
                 u32[total] doc ids, grouped per term in term order

Doc ids are replica-local: each path is interned once, in first-seen
order, and postings refer to it by position.  Nothing is sorted — the
wire format preserves build order, which is what makes encoding cheap
and lets the parent's merge reproduce exactly what a threaded join
would have produced.

The third format, **RIDX2** (revision 3; ``docs/ondisk.md`` has the
rationale), is the serving-oriented successor of RIDX1: postings are
split into fixed-size *blocks* (``block_size`` postings each, varbyte
gap-coded doc ids plus varbyte ``tf - 1`` frequencies), and a term's
blocks are the tail of its record in a sorted lexicon reachable through
a fixed-width offset table — so a reader binary-searches a term in
O(log B) and lands on its postings *without parsing the file*, which
is what lets :class:`repro.index.ondisk.MmapPostingsReader` serve
queries straight off ``mmap``.  Layout (all integers little-endian,
offsets absolute; the four sections tile the file in this order)::

    magic        "RIDX2"
    header       u8 revision, u8 flags (bit 0: real term frequencies),
                 u16 block_size, u32 doc_count, u32 term_count,
                 u64 total_doc_len, u64 x 4 section offsets,
                 u32 CRC-32 of every other byte of the file
    doc offsets  u32[doc_count + 1] into the path blob of the doc-data
                 section, the last one the blob's end
    doc data     path blob: every UTF-8 path, concatenated; then the
                 length column: per doc a varint document length
                 (term occurrences), ending where the lexicon starts
    lex offsets  u32[term_count + 1] into the lexicon-data section
    lex data     per term, sorted by UTF-8 bytes: varint term length,
                 term bytes, varint df, then
                 df <= block_size: one block — gap-coded doc ids, and
                     what is left of the record is its frequencies;
                 df > block_size: per block varint ``last_docid`` gap,
                     ``doc_bytes``, ``freq_bytes``; then the blocks

A block whose every tf is 1 stores no frequency bytes.  Every block is
self-contained (its first doc id is gap-coded against -1), so a reader
can decode any block without touching the previous one — the
precondition for ``last_docid`` block skipping.  Doc ids are dense and
assigned in sorted-path order, making doc-id order equal to sorted-path
order; the DAAT evaluator exploits this for byte-identical results
against the in-memory engine.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from itertools import accumulate
from operator import add, le
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingsList
from repro.text.termblock import TermBlock

MAGIC = b"RIDX1"
WIRE_MAGIC = b"RWIRE1"
MAGIC2 = b"RIDX2"


class IndexFormatError(ValueError):
    """Raised when bytes are not in any recognized index format, or a
    recognized header is truncated/corrupt.  Subclasses ValueError so
    historical ``except ValueError`` call sites keep working."""

# The wire format stores u32 arrays via the array module for C-speed
# encode/decode; 'I' is 4 bytes on every platform CPython supports.
assert array("I").itemsize == 4, "wire format requires 4-byte unsigned ints"

_U32 = struct.Struct("<I")
_SPAN = struct.Struct("<II")
_SWAP = sys.byteorder == "big"
_ONE_MORE = (1).__add__  # a stored ``tf - 1`` byte -> tf


def _u32s_to_bytes(values: Iterable[int]) -> bytes:
    out = array("I", values)
    if _SWAP:
        out.byteswap()
    return out.tobytes()


def _u32s_from_bytes(data: bytes) -> "array[int]":
    out = array("I")
    out.frombytes(data)
    if _SWAP:
        out.byteswap()
    return out


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode one varint at ``offset``; returns (value, next offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def encode_gaps(sorted_ids: List[int]) -> bytes:
    """Gap-encode a strictly increasing id list as varints."""
    out = bytearray()
    previous = -1
    for doc_id in sorted_ids:
        if doc_id <= previous:
            raise ValueError("doc ids must be strictly increasing")
        out += encode_varint(doc_id - previous - 1)
        previous = doc_id
    return bytes(out)


def decode_gaps(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` gap-encoded ids starting at ``offset``."""
    ids = []
    previous = -1
    for _ in range(count):
        gap, offset = decode_varint(data, offset)
        previous = previous + gap + 1
        ids.append(previous)
    return ids, offset


def dump_index_bytes(index: InvertedIndex) -> bytes:
    """Serialize an index into the binary format."""
    # Dense doc ids in sorted-path order make gap coding effective and
    # the output canonical.
    paths = sorted({p for _, postings in index.items() for p in postings})
    path_id = {path: i for i, path in enumerate(paths)}

    out = bytearray(MAGIC)
    out += encode_varint(len(paths))
    for path in paths:
        encoded = path.encode("utf-8")
        out += encode_varint(len(encoded)) + encoded

    terms = sorted(index.terms())
    out += encode_varint(len(terms))
    for term in terms:
        encoded = term.encode("utf-8")
        out += encode_varint(len(encoded)) + encoded
        ids = sorted(path_id[p] for p in index.lookup(term))
        out += encode_varint(len(ids))
        out += encode_gaps(ids)
    return bytes(out)


def load_index_bytes(data: bytes) -> InvertedIndex:
    """Deserialize binary-format bytes into an index."""
    if not data.startswith(MAGIC):
        raise ValueError("not a RIDX1 binary index")
    offset = len(MAGIC)

    doc_count, offset = decode_varint(data, offset)
    paths: List[str] = []
    for _ in range(doc_count):
        length, offset = decode_varint(data, offset)
        paths.append(data[offset : offset + length].decode("utf-8"))
        offset += length

    term_count, offset = decode_varint(data, offset)
    postings: Dict[str, List[str]] = {}
    for _ in range(term_count):
        length, offset = decode_varint(data, offset)
        term = data[offset : offset + length].decode("utf-8")
        offset += length
        postings_count, offset = decode_varint(data, offset)
        ids, offset = decode_gaps(data, offset, postings_count)
        postings[term] = [paths[i] for i in ids]
    return InvertedIndex.from_postings(postings)


# -- RWIRE1: the to_bytes/from_bytes fast path ---------------------------


def pack_wire_sections(
    block_count: int,
    docs: Sequence[str],
    terms: Sequence[str],
    counts: Iterable[int],
    postings_blobs: Iterable[bytes],
) -> bytes:
    """Assemble RWIRE1 bytes from pre-grouped sections.

    ``postings_blobs`` are the per-term doc-id arrays already in
    native-endian ``array('I')`` byte form (the replica builder keeps
    them that way), concatenated here with a single ``join``.
    """
    doc_encoded = [d.encode("utf-8") for d in docs]
    term_encoded = [t.encode("utf-8") for t in terms]
    doc_blob = b"".join(doc_encoded)
    term_blob = b"".join(term_encoded)
    ids_blob = b"".join(postings_blobs)
    if _SWAP:
        swapped = array("I")
        swapped.frombytes(ids_blob)
        swapped.byteswap()
        ids_blob = swapped.tobytes()
    return b"".join(
        (
            WIRE_MAGIC,
            _U32.pack(block_count),
            _U32.pack(len(doc_encoded)),
            _U32.pack(len(doc_blob)),
            _u32s_to_bytes(map(len, doc_encoded)),
            doc_blob,
            _U32.pack(len(term_encoded)),
            _U32.pack(len(term_blob)),
            _u32s_to_bytes(map(len, term_encoded)),
            term_blob,
            _u32s_to_bytes(counts),
            ids_blob,
        )
    )


def _unpack_strings(data: bytes, offset: int) -> Tuple[List[str], int]:
    """Decode one length-prefixed string table; returns (strings, offset)."""
    count = _U32.unpack_from(data, offset)[0]
    blob_len = _U32.unpack_from(data, offset + 4)[0]
    offset += 8
    lengths = _u32s_from_bytes(data[offset : offset + 4 * count])
    offset += 4 * count
    blob = data[offset : offset + blob_len]
    if len(blob) != blob_len:
        raise ValueError("truncated RWIRE1 string table")
    offset += blob_len
    strings: List[str] = []
    position = 0
    for length in lengths:
        strings.append(blob[position : position + length].decode("utf-8"))
        position += length
    if position != blob_len:
        raise ValueError("RWIRE1 string table lengths do not match its blob")
    return strings, offset


def _unpack_wire(data: bytes):
    """Decode RWIRE1 into (block_count, docs, terms, counts, doc_ids)."""
    if not data.startswith(WIRE_MAGIC):
        raise ValueError("not an RWIRE1 wire-format index")
    offset = len(WIRE_MAGIC)
    block_count = _U32.unpack_from(data, offset)[0]
    offset += 4
    docs, offset = _unpack_strings(data, offset)
    terms, offset = _unpack_strings(data, offset)
    counts = _u32s_from_bytes(data[offset : offset + 4 * len(terms)])
    offset += 4 * len(terms)
    doc_ids = _u32s_from_bytes(data[offset:])
    if len(doc_ids) != sum(counts):
        raise ValueError(
            f"RWIRE1 postings truncated: counts say {sum(counts)} doc ids, "
            f"found {len(doc_ids)}"
        )
    return block_count, docs, terms, counts, doc_ids


def dump_index_wire(index: InvertedIndex) -> bytes:
    """Serialize ``index`` into RWIRE1 bytes (paths interned once).

    Convenience path for arbitrary indices; worker processes skip it by
    building their replicas directly in wire-ready form
    (:class:`repro.index.replica.ReplicaBuilder`).
    """
    doc_ids = {}
    docs: List[str] = []
    terms: List[str] = []
    counts: List[int] = []
    blobs: List[bytes] = []
    for term, postings in index.items():
        ids = array("I")
        for path in postings:
            doc_id = doc_ids.get(path)
            if doc_id is None:
                doc_id = doc_ids[path] = len(docs)
                docs.append(path)
            ids.append(doc_id)
        terms.append(term)
        counts.append(len(ids))
        blobs.append(ids.tobytes())
    return pack_wire_sections(index.block_count, docs, terms, counts, blobs)


def merge_wire_replica(target: InvertedIndex, data: bytes) -> int:
    """Decode RWIRE1 ``data`` and fold it into ``target``; returns doc count.

    This is the parent side of the "Join Forces" process backend: one
    replica arrives as a blob, and its postings are appended to the
    target per term — the same single-probe merge a threaded join does,
    without materializing an intermediate index.  The en-bloc invariant
    (each file indexed by exactly one replica) makes the append safe.
    """
    block_count, docs, terms, counts, doc_ids = _unpack_wire(data)
    target_map = target._map
    get_or_insert = target_map.get_or_insert
    position = 0
    for term, count in zip(terms, counts):
        chunk = doc_ids[position : position + count]
        position += count
        postings = get_or_insert(term, PostingsList)
        postings._paths.extend([docs[i] for i in chunk])
    target._block_count += block_count
    return len(docs)


def join_wire_replicas(
    blobs: Iterable[bytes], blocks: Iterable[TermBlock] = ()
) -> Tuple[InvertedIndex, List[str], int]:
    """Join RWIRE1 replicas, then term blocks, into one fresh index.

    Returns ``(index, documents, posting_count)``: the paths with at
    least one posting, in join order, and the number of postings.  Each
    blob is decoded once, its doc ids resolved to paths with one
    ``map``, and every term's paths sliced into a native dict (a later
    replica extends the list the first one left), which becomes the
    index (:meth:`InvertedIndex.from_postings`).  Each term's paths are
    in the order the key-by-key fold (:func:`merge_wire_replica`, then
    :meth:`InvertedIndex.add_block`) appends them; terms iterate in
    first-seen order, where the fold's FNV map iterates in bucket order.
    """
    postings: Dict[str, List[str]] = {}
    get = postings.get
    documents: List[str] = []
    block_count = posting_count = 0
    for data in blobs:
        blob_blocks, docs, terms, counts, doc_ids = _unpack_wire(data)
        block_count += blob_blocks
        posting_count += len(doc_ids)
        documents += map(docs.__getitem__, sorted(set(doc_ids)))
        paths = list(map(docs.__getitem__, doc_ids))
        start = 0
        for term, end in zip(terms, accumulate(counts)):
            held = get(term)
            if held is None:
                postings[term] = paths[start:end]
            else:
                held += paths[start:end]
            start = end
    for block in blocks:
        block_count += 1
        if block.terms:
            documents.append(block.path)
            posting_count += len(block.terms)
        for term in block.terms:
            postings.setdefault(term, []).append(block.path)
    index = InvertedIndex.from_postings(postings, block_count)
    return index, documents, posting_count


def load_index_wire(data: bytes) -> InvertedIndex:
    """Deserialize RWIRE1 bytes into a fresh index."""
    return join_wire_replicas([data])[0]


# -- RIDX2: blocked, compressed, mmap-servable postings ------------------

RIDX2_VERSION = 3
RIDX2_FLAG_FREQS = 1
RIDX2_CODEC_VARBYTE = 0  #: in no file: a new codec is a new revision
RIDX2_DEFAULT_BLOCK = 128

#: Fixed-width header following the 5 magic bytes: version, flags,
#: block_size, doc_count, term_count, total_doc_len, the four absolute
#: section offsets (doc offsets, doc data, lexicon offsets, lexicon
#: data), then the CRC-32 of every other byte of the file.
RIDX2_HEADER = struct.Struct("<BBHIIQQQQQI")
_HEADER_END = len(MAGIC2) + RIDX2_HEADER.size
_CRC_OFF = _HEADER_END - 4


@dataclass(frozen=True)
class Ridx2Header:
    """The parsed fixed-width RIDX2 header."""

    version: int
    flags: int
    block_size: int
    doc_count: int
    term_count: int
    total_doc_len: int
    doc_offsets_off: int
    doc_data_off: int
    lex_offsets_off: int
    lex_data_off: int
    crc32: int

    @property
    def has_freqs(self) -> bool:
        """True when real term frequencies were baked in at dump time
        (otherwise every stored tf is 1)."""
        return bool(self.flags & RIDX2_FLAG_FREQS)


def parse_ridx2_header(data) -> Ridx2Header:
    """Parse and check the RIDX2 magic + header of ``data`` (bytes or mmap).

    O(1): the revision must be the one this module writes and the four
    sections must tile the file, the last lexicon offset landing on its
    last byte — so a file cut anywhere is refused here — and the path
    blob's end must leave the length column at least a byte per
    document.  The checksum is not read (:func:`check_ridx2_crc` does
    that, in O(file)).
    """
    size = len(data)
    if bytes(data[: len(MAGIC2)]) != MAGIC2:
        raise IndexFormatError("not an RIDX2 on-disk index")
    if size > len(MAGIC2) and data[len(MAGIC2)] != RIDX2_VERSION:
        raise IndexFormatError(
            f"RIDX2 revision {data[len(MAGIC2)]} file; this reader reads "
            f"revision {RIDX2_VERSION} only: re-save or rebuild the index"
        )
    if size >= _HEADER_END:
        h = Ridx2Header(*RIDX2_HEADER.unpack_from(data, len(MAGIC2)))
        doc_table_end = _HEADER_END + 4 * (h.doc_count + 1)
        lex_table_end = h.lex_offsets_off + 4 * (h.term_count + 1)
        if (
            h.doc_offsets_off == _HEADER_END
            and h.doc_data_off == doc_table_end <= h.lex_offsets_off
            and h.lex_data_off == lex_table_end <= size
            and doc_table_end + _U32.unpack_from(data, doc_table_end - 4)[0]
            + h.doc_count
            <= h.lex_offsets_off
            and lex_table_end + _U32.unpack_from(data, lex_table_end - 4)[0]
            == size
        ):
            return h
    raise IndexFormatError(
        f"truncated or corrupt RIDX2 file: a {_HEADER_END}-byte header "
        f"and the sections it names do not tile its {size} bytes"
    )


def check_ridx2_crc(data, header: Ridx2Header) -> None:
    """Raise :class:`IndexFormatError` unless ``data`` (bytes or mmap)
    matches the checksum in its header — the CRC-32 of the bytes on both
    sides of that field: one C-speed pass over the file."""
    with memoryview(data) as view:
        found = zlib.crc32(view[_HEADER_END:], zlib.crc32(view[:_CRC_OFF]))
    if found != header.crc32:
        raise IndexFormatError(
            f"corrupt RIDX2 file: CRC-32 is {found:#010x}, the header "
            f"recorded {header.crc32:#010x}"
        )


def encode_posting_blocks(
    doc_ids: Sequence[int],
    freqs: Optional[Sequence[int]] = None,
    block_size: int = RIDX2_DEFAULT_BLOCK,
) -> Tuple[List[Tuple[int, int, int, int, int, int]], bytes]:
    """Split one posting list into self-contained fixed-size blocks.

    Returns ``(entries, blob)``: the concatenated block bytes plus one
    tuple ``(offset, last_docid, count, doc_bytes, freq_bytes, codec)``
    per block, offsets relative to ``blob``.  ``freqs`` (aligned with
    ``doc_ids``, every value >= 1) are stored as varbyte ``tf - 1``; a
    block whose every tf is 1 — all of them when ``freqs`` is ``None``
    — stores no frequency bytes at all (``freq_bytes`` 0).
    """
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    entries: List[Tuple[int, int, int, int, int, int]] = []
    blob = bytearray()
    for start in range(0, len(doc_ids), block_size):
        chunk = list(doc_ids[start : start + block_size])
        doc_blob = encode_gaps(chunk)
        freq_blob = b""
        if freqs is not None:
            tfs = freqs[start : start + len(chunk)]
            if min(tfs) < 1:
                raise ValueError(f"term frequencies must be >= 1, got {min(tfs)}")
            if max(tfs) > 1:
                freq_blob = b"".join(encode_varint(tf - 1) for tf in tfs)
        entries.append(
            (
                len(blob),
                chunk[-1],
                len(chunk),
                len(doc_blob),
                len(freq_blob),
                RIDX2_CODEC_VARBYTE,
            )
        )
        blob += doc_blob
        blob += freq_blob
    return entries, bytes(blob)


def _decode_block_gaps(blob: bytes, count: int) -> Tuple[List[int], int]:
    """:func:`decode_gaps` of ``count`` ids at the start of ``blob``.

    When every gap after the first is one byte (all of them below 128:
    ``bytes.isascii``), the ids are a running sum done in C — the first
    gap is decoded as a varint on its own, because it is the block's
    first doc id and large.  Any other block takes the loop, which is
    the reference and raises whatever a malformed block raises."""
    if count > 0:
        first, offset = decode_varint(blob, 0)
        end = offset + count - 1
        rest = blob[offset:end]
        if len(rest) == count - 1 and rest.isascii():
            sums = accumulate(rest, initial=first)
            return list(map(add, sums, range(count))), end
    return decode_gaps(blob, 0, count)


def decode_block_docids(data, offset: int, count: int, doc_bytes: int) -> List[int]:
    """Decode one block's doc ids from ``data`` (bytes or mmap)."""
    ids, end = _decode_block_gaps(bytes(data[offset : offset + doc_bytes]), count)
    if end != doc_bytes:
        raise IndexFormatError(
            f"RIDX2 block doc ids consumed {end} of {doc_bytes} bytes"
        )
    return ids


def decode_block_freqs(data, offset: int, count: int, freq_bytes: int) -> List[int]:
    """Decode one block's ``tf`` values from ``data`` (bytes or mmap);
    no frequency bytes means every tf is 1.  A block whose every
    ``tf - 1`` is one byte decodes in C; any other takes the loop."""
    if not freq_bytes:
        return [1] * count
    blob = bytes(data[offset : offset + freq_bytes])
    if freq_bytes == count == len(blob) and blob.isascii():
        return list(map(_ONE_MORE, blob))
    freqs: List[int] = []
    position = 0
    for _ in range(count):
        value, position = decode_varint(blob, position)
        freqs.append(value + 1)
    if position != freq_bytes:
        raise IndexFormatError(
            f"RIDX2 block frequencies consumed {position} of {freq_bytes} bytes"
        )
    return freqs


def decode_single_block(data, start: int, end: int, count: int):
    """Decode a ``df <= block_size`` payload ``data[start:end]`` into
    ``(ids, doc_bytes)``: ``count`` gap varints, and what is left are
    the frequency bytes — none (all ones) or at least one per posting."""
    ids, doc_bytes = _decode_block_gaps(bytes(data[start:end]), count)
    spare = end - start - doc_bytes
    if spare and spare < count:
        raise IndexFormatError(
            f"RIDX2 block of {count} postings has {spare} frequency bytes"
        )
    return ids, doc_bytes


def decode_block_table(data, start: int, df: int, block_size: int):
    """Decode the block table heading a ``df > block_size`` payload into
    ``(blocks, lasts)``: per block ``(absolute offset, count, doc_bytes,
    freq_bytes)``, and the ``last_docid`` keys that ``seek`` bisects."""
    blocks: List[Tuple[int, int, int, int]] = []
    lasts: List[int] = []
    last, relative, offset = -1, 0, start
    for first in range(0, df, block_size):
        gap, offset = decode_varint(data, offset)
        doc_bytes, offset = decode_varint(data, offset)
        freq_bytes, offset = decode_varint(data, offset)
        last += gap + 1
        lasts.append(last)
        count = min(block_size, df - first)
        blocks.append((relative, count, doc_bytes, freq_bytes))
        relative += doc_bytes + freq_bytes
    # The blocks start where the table ends.
    return [(offset + r, c, d, f) for r, c, d, f in blocks], lasts


def _offset_table(lengths: Iterable[int], section: str) -> bytes:
    """A u32 running-offset table with a trailing end sentinel."""
    offsets = list(accumulate(lengths, initial=0))
    if offsets[-1] > 0xFFFFFFFF:
        raise ValueError(
            f"RIDX2 {section} section is {offsets[-1]} bytes; its u32 "
            "offset table addresses at most 4 GiB"
        )
    return _u32s_to_bytes(offsets)


def dump_index_ridx2(
    index: InvertedIndex,
    frequencies=None,
    block_size: int = RIDX2_DEFAULT_BLOCK,
) -> bytes:
    """Serialize ``index`` into the blocked RIDX2 on-disk format.

    ``frequencies`` (a :class:`repro.query.ranking.FrequencyIndex`
    built over the same corpus) bakes real per-(term, doc) term
    frequencies and document lengths in, enabling exact BM25 scoring
    off the file alone; without it every tf is 1 and a document's
    length is its distinct-term count.  Terms whose postings are empty
    (tombstoned away by incremental maintenance) are canonicalized out.
    Output is canonical: equal indices produce equal bytes.  A doc or
    lexicon section past its u32 offset table's 4 GiB is a ``ValueError``.
    """
    if block_size < 1 or block_size > 0xFFFF:
        raise ValueError(
            f"block_size must be in [1, 65535], got {block_size}"
        )
    paths = sorted({p for _, postings in index.items() for p in postings})
    path_id = {path: i for i, path in enumerate(paths)}

    # Per-document lengths: distinct-term counts as the fallback when
    # no frequency sidecar is supplied (or it misses a path).
    distinct = [0] * len(paths)
    term_ids: List[Tuple[str, List[int]]] = []
    for term, postings in index.items():
        ids = sorted(path_id[p] for p in set(postings))
        if not ids:
            continue  # canonicalize empty postings away
        term_ids.append((term, ids))
        for i in ids:
            distinct[i] += 1
    term_ids.sort(key=lambda pair: pair[0])

    doc_lengths: List[int] = []
    for i, path in enumerate(paths):
        length = frequencies.document_length(path) if frequencies else 0
        doc_lengths.append(length or distinct[i])

    encoded_paths = [path.encode("utf-8") for path in paths]

    lex_records = []
    for term, ids in term_ids:
        tfs = None
        if frequencies is not None:
            tfs = [max(1, frequencies.tf(term, paths[i])) for i in ids]
        entries, blob = encode_posting_blocks(ids, tfs, block_size)
        encoded = term.encode("utf-8")
        record = bytearray(encode_varint(len(encoded)))
        record += encoded
        record += encode_varint(len(ids))
        if len(ids) > block_size:
            previous = -1
            for _offset, last, _count, doc_bytes, freq_bytes, _codec in entries:
                record += encode_varint(last - previous - 1)
                record += encode_varint(doc_bytes)
                record += encode_varint(freq_bytes)
                previous = last
        record += blob
        lex_records.append(record)

    doc_offsets = _offset_table(map(len, encoded_paths), "doc")
    lex_offsets = _offset_table(map(len, lex_records), "lexicon")
    doc_blob = b"".join([*encoded_paths, *map(encode_varint, doc_lengths)])
    lex_blob = b"".join(lex_records)

    doc_data_off = _HEADER_END + len(doc_offsets)
    lex_offsets_off = doc_data_off + len(doc_blob)
    head = MAGIC2 + RIDX2_HEADER.pack(
        RIDX2_VERSION,
        RIDX2_FLAG_FREQS if frequencies is not None else 0,
        block_size,
        len(paths),
        len(term_ids),
        sum(doc_lengths),
        _HEADER_END,
        doc_data_off,
        lex_offsets_off,
        lex_offsets_off + len(lex_offsets),
        0,  # the CRC: of everything before and after this field
    )[:-4]
    body = (doc_offsets, doc_blob, lex_offsets, lex_blob)
    crc = zlib.crc32(head)
    for part in body:
        crc = zlib.crc32(part, crc)
    return b"".join((head, _U32.pack(crc), *body))


def iter_ridx2_lexicon(data, h: Ridx2Header):
    """Yield ``(term, df, start, end)`` in sorted term order, where
    ``data[start:end]`` is the term's postings payload."""
    base = h.lex_data_off
    offsets = _u32s_from_bytes(bytes(data[h.lex_offsets_off : base]))
    for i in range(h.term_count):
        offset = base + offsets[i]
        length, offset = decode_varint(data, offset)
        term = bytes(data[offset : offset + length]).decode("utf-8")
        df, offset = decode_varint(data, offset + length)
        yield term, df, offset, base + offsets[i + 1]


def decode_payload_docids(data, start: int, end: int, df: int, block_size: int):
    """Decode every doc id of the postings payload ``data[start:end]``,
    whole blocks at a time: ``(ids, blocks decoded)``."""
    if df <= block_size:
        return decode_single_block(data, start, end, df)[0], 1
    ids: List[int] = []
    blocks, _lasts = decode_block_table(data, start, df, block_size)
    for offset, count, doc_bytes, _freq_bytes in blocks:
        ids += decode_block_docids(data, offset, count, doc_bytes)
    return ids, len(blocks)


def iter_ridx2_postings(data, header: Ridx2Header):
    """Yield ``(term, doc ids)`` for every term in one sequential walk
    (:func:`load_index_ridx2`, ``MmapPostingsReader.postings``)."""
    block_size = header.block_size
    for term, df, start, end in iter_ridx2_lexicon(data, header):
        yield term, decode_payload_docids(data, start, end, df, block_size)[0]


def read_ridx2_doc(data, header: Ridx2Header, doc_id: int) -> str:
    """Decode one document's path through its two offsets."""
    if not 0 <= doc_id < header.doc_count:
        raise IndexError(
            f"doc id {doc_id} out of range [0, {header.doc_count})"
        )
    base = header.doc_data_off
    start, end = _SPAN.unpack_from(data, header.doc_offsets_off + 4 * doc_id)
    blob_end = _U32.unpack_from(data, base - 4)[0]
    if not start <= end <= blob_end:
        raise IndexFormatError(
            f"corrupt RIDX2 doc table: record {doc_id} spans {start}:{end} "
            f"of a {blob_end}-byte path blob"
        )
    try:
        return bytes(data[base + start : base + end]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(
            f"corrupt RIDX2 doc table: record {doc_id}: {exc}"
        ) from exc


def read_ridx2_paths(data, header: Ridx2Header) -> List[str]:
    """Decode every path in doc-id order, equal to :func:`read_ridx2_doc`
    path by path.  The offsets are checked once — they start at 0, never
    decrease, and the last, the path blob's end, lies inside the
    section; an ASCII blob is then decoded in one call and sliced by
    offset, any other path by path (a path that is not UTF-8 is an
    :class:`IndexFormatError`)."""
    base = header.doc_data_off
    offsets = _u32s_from_bytes(
        bytes(data[header.doc_offsets_off : base])
    ).tolist()
    section = header.lex_offsets_off - base
    if offsets[0] != 0 or offsets[-1] > section:
        raise IndexFormatError(
            f"corrupt RIDX2 doc table: its path blob spans {offsets[0]}:"
            f"{offsets[-1]} of a {section}-byte section"
        )
    if not all(map(le, offsets, offsets[1:])):
        doc_id = list(map(le, offsets, offsets[1:])).index(False)
        raise IndexFormatError(
            f"corrupt RIDX2 doc table: record {doc_id} spans "
            f"{offsets[doc_id]}:{offsets[doc_id + 1]}"
        )
    blob = bytes(data[base : base + offsets[-1]])
    spans = zip(offsets, offsets[1:])
    if blob.isascii():
        text = blob.decode("ascii")
        return [text[start:end] for start, end in spans]
    paths: List[str] = []
    for doc_id, (start, end) in enumerate(spans):
        try:
            paths.append(blob[start:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise IndexFormatError(
                f"corrupt RIDX2 doc table: record {doc_id}: {exc}"
            ) from exc
    return paths


def read_ridx2_lengths(data, header: Ridx2Header) -> List[int]:
    """Decode the length column: every document's length in doc-id
    order.  It must hold exactly ``doc_count`` varints and end where the
    column does."""
    count = header.doc_count
    blob_end = _U32.unpack_from(data, header.doc_data_off - 4)[0]
    start = header.doc_data_off + blob_end
    column = bytes(data[start : header.lex_offsets_off])
    lengths: List[int] = []
    position = 0
    try:
        for _ in range(count):
            value, position = decode_varint(column, position)
            lengths.append(value)
    except ValueError as exc:
        raise IndexFormatError(
            f"corrupt RIDX2 length column: length {len(lengths)}: {exc}"
        ) from exc
    if position != len(column):
        raise IndexFormatError(
            f"corrupt RIDX2 length column: {count} lengths consumed "
            f"{position} of {len(column)} bytes"
        )
    return lengths


def load_index_ridx2(data: bytes) -> InvertedIndex:
    """Fully materialize RIDX2 bytes into an in-memory index.

    The transparent counterpart of
    :class:`repro.index.ondisk.MmapPostingsReader`: checks the CRC (it
    reads every byte anyway), then decodes every block eagerly
    (dropping frequencies — the in-memory index is boolean).  RIDX2
    stores no block count: the index counts one block per document, as
    a materialized segment manifest does.
    """
    header = parse_ridx2_header(data)
    check_ridx2_crc(data, header)
    paths = read_ridx2_paths(data, header)
    postings = {
        term: [paths[i] for i in ids]
        for term, ids in iter_ridx2_postings(data, header)
    }
    return InvertedIndex.from_postings(postings, header.doc_count)
