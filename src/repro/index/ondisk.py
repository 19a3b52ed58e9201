"""Serving an RIDX2 index straight off ``mmap``.

The in-memory :class:`~repro.index.inverted.InvertedIndex` caps corpus
size at RAM and index-open time at full-file decode.
:class:`MmapPostingsReader` removes both limits for serving: opening an
RIDX2 file maps it and parses only the 61-byte header; a term is found
by binary search over the sorted on-disk lexicon (O(log B) record
probes, no lexicon materialization) the first time it is asked for,
and by one dict hit after that; postings are decoded one fixed-size
block at a time, on demand.

:meth:`MmapPostingsReader.read_postings` is the list-at-a-time
primitive the query evaluator runs on: a term's whole list, or only
the blocks whose ``last_docid`` range holds one of a set of candidate
doc ids — the blocks in between are *skipped*, never decoded.  It is
the one per-term read path: :meth:`~MmapPostingsReader.lookup` and
every evaluator go through it; only the bulk walk a merge takes,
:meth:`~MmapPostingsReader.postings`, does not.  The reader counts
blocks read vs skipped (also published as ``ondisk.blocks_read`` /
``ondisk.blocks_skipped`` counters), which is how the benchmark and
the CI smoke prove skipping actually happens.

No per-query state lives on the reader, so queries on several threads
share one read-only mapping, which the OS page cache deduplicates
across queries and processes.  It keeps five structures, all filled
lock-free: the doc table and the length column, each decoded whole on
first use; the top of the lexicon's search tree; each :class:`TermInfo`
found (an absent term is never stored); and one block map, holding each
multi-block list's block table, bounded by the file, and each block's
decoded ids and tfs, up to :data:`DECODE_MEMO_POSTINGS`.
"""

from __future__ import annotations

import mmap
import os
import struct
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.index.binfmt import (
    IndexFormatError,
    check_ridx2_crc,
    decode_block_docids,
    decode_block_freqs,
    decode_block_table,
    decode_single_block,
    decode_varint,
    iter_ridx2_lexicon,
    iter_ridx2_postings,
    parse_ridx2_header,
    read_ridx2_lengths,
    read_ridx2_paths,
)
from repro.obs import recorder as obsrec

#: A lexicon offset and the next one: where a record starts and ends.
_SPAN = struct.Struct("<II")

#: Levels of a search from record 0 whose records the reader memoizes:
#: every ``term_info`` walks the same top of the tree, and level ``d``
#: holds at most ``2 ** d`` records, so the memo at most 2 047.
PROBE_MEMO_LEVELS = 11
PROBE_MEMO_MAX = 2**PROBE_MEMO_LEVELS - 1

#: Decoded doc ids plus tfs a reader keeps, per block, before it stops
#: keeping more: ``serve_ondisk`` holds about 89 000 once warm, and
#: past the cap a block decodes on every read, with no eviction.
DECODE_MEMO_POSTINGS = 2**17


class TermInfo(NamedTuple):
    """One lexicon entry: a term's df and the file span ``start:end``
    of its postings payload (the tail of its lexicon record)."""

    term: str
    df: int
    start: int
    end: int


class MmapPostingsReader:
    """Query-serving view of an RIDX2 file, backed by ``mmap``.

    Opening parses only the fixed-size header, which refuses another
    revision or a cut file — postings, lexicon and doc table all stay
    on disk until a query touches them, the checksum until
    :meth:`verify`.  Use as a context manager or call :meth:`close`.
    """

    def __init__(self, path: str) -> None:
        with obsrec.span("ondisk.open", path=path):
            self.path = path
            # The map holds its own descriptor: the file object goes as
            # soon as the map exists, so a reader costs one, not two.
            with open(path, "rb") as file:
                if os.fstat(file.fileno()).st_size == 0:
                    raise IndexFormatError(f"{path}: empty file")
                self._map: Optional[mmap.mmap] = mmap.mmap(
                    file.fileno(), 0, access=mmap.ACCESS_READ
                )
            try:
                self._header = parse_ridx2_header(self._map)
            except Exception:
                self.close()
                raise
        self._forget()
        self.blocks_read = 0
        self.blocks_skipped = 0
        self.memo_hits = 0
        metrics = obsrec.metrics()
        self._read_counter = metrics.counter("ondisk.blocks_read")
        self._skip_counter = metrics.counter("ondisk.blocks_skipped")

    @classmethod
    def open(cls, path: str) -> "MmapPostingsReader":
        return cls(path)

    def close(self) -> None:
        """Unmap the file and drop every cache: a closed reader answers
        nothing, not even what it has decoded (``ValueError``)."""
        if self._map is not None:
            self._map.close()
            self._map = None
        self._forget()

    def _forget(self) -> None:
        self._paths: Optional[List[str]] = None
        self._lengths: Optional[List[int]] = None
        self._probe_memo: Dict[int, Tuple[bytes, int, int]] = {}
        self._term_memo: Dict[str, TermInfo] = {}
        # A multi-block list's table at its payload start, a block's doc
        # ids at its offset and its tfs at the negated offset (a one-block
        # list's block starts at its payload start, where no table is).
        self._blocks: Dict[int, object] = {}
        self.memo_postings = 0

    @property
    def _mm(self) -> mmap.mmap:
        if self._map is None:
            raise ValueError(f"{self!r} is closed")
        return self._map

    def verify(self) -> None:
        """Check the file against its header's CRC-32 (``IndexFormatError``
        on a mismatch): a pass over every byte, so opening never does it."""
        check_ridx2_crc(self._mm, self._header)

    def __enter__(self) -> "MmapPostingsReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- corpus statistics -------------------------------------------------

    @property
    def doc_count(self) -> int:
        return self._header.doc_count

    @property
    def term_count(self) -> int:
        return self._header.term_count

    @property
    def total_doc_len(self) -> int:
        """Sum of every document's length (term occurrences)."""
        return self._header.total_doc_len

    @property
    def average_document_length(self) -> float:
        return (
            self._header.total_doc_len / self._header.doc_count
            if self._header.doc_count
            else 0.0
        )

    @property
    def block_size(self) -> int:
        return self._header.block_size

    @property
    def has_freqs(self) -> bool:
        """True when real term frequencies were baked in at dump time."""
        return self._header.has_freqs

    # -- documents ---------------------------------------------------------

    def doc_path(self, doc_id: int) -> str:
        """The path of ``doc_id``, through the doc table."""
        return self._doc_table()[doc_id]

    def doc_length(self, doc_id: int) -> int:
        """Term occurrences in ``doc_id`` (the length column, decoded
        on first use)."""
        return self.doc_lengths()[doc_id]

    def doc_lengths(self) -> List[int]:
        """Every document's length in doc-id order, decoded from the
        length column once, on first use — only BM25 ranks on it, so a
        boolean query never reads it (shared: never mutate)."""
        if self._lengths is None:
            self._lengths = read_ridx2_lengths(self._mm, self._header)
        return self._lengths

    def doc_paths(self) -> List[str]:
        """Every indexed path in doc-id order == sorted-path order (the
        caller's own list)."""
        return list(self._doc_table())

    def doc_paths_of(self, ids: List[int]) -> List[str]:
        """The paths of ``ids``, through the doc table."""
        return list(map(self._doc_table().__getitem__, ids))

    def _doc_table(self) -> List[str]:
        """The paths, decoded and checked whole on first use, so a corrupt
        record is an ``IndexFormatError`` for any id (shared: never mutate)."""
        if self._paths is None:
            self._paths = read_ridx2_paths(self._mm, self._header)
        return self._paths

    # -- terms -------------------------------------------------------------

    def term_info(self, term: str) -> Optional[TermInfo]:
        """The term's lexicon entry, None when absent: binary-searched
        the first time, then memoized (an absent term never is)."""
        info = self._term_memo.get(term)
        if info is None:
            _index, offset, end = self._search(term.encode("utf-8"), 0)
            if offset is None:
                return None
            df, offset = decode_varint(self._mm, offset)
            info = TermInfo(term, df, offset, self._header.lex_data_off + end)
            self._term_memo[term] = info
        return info

    def __contains__(self, term: str) -> bool:
        return self.term_info(term) is not None

    def expand(
        self, prefix: str, limit: int = 1000, into: Optional[dict] = None
    ) -> List[str]:
        """Terms starting with ``prefix``, sorted, at most ``limit`` (the
        reader is its own term dictionary).  Two lower-bound searches —
        ``prefix`` and ``prefix + U+10FFFF``, ``PrefixDictionary``'s own
        range — then one walk over the records between, each term's
        :class:`TermInfo` memoized, and put in ``into`` when given: no
        lexicon copy."""
        if not prefix:
            raise ValueError("empty prefix")
        lo = self._search(prefix.encode("utf-8"), 0)[0]
        hi = self._search((prefix + "\U0010ffff").encode("utf-8"), lo)[0]
        mm, base, memo = self._mm, self._header.lex_data_off, self._term_memo
        terms = []
        for index in range(lo, min(hi, lo + limit)):
            found, offset, end = self._record(index)
            term = found.decode("utf-8")
            terms.append(term)
            info = memo.get(term)
            if info is None:
                df, offset = decode_varint(mm, offset)
                info = memo[term] = TermInfo(term, df, offset, base + end)
            if into is not None:
                into[term] = info
        return terms

    def read_postings(
        self,
        info: TermInfo,
        candidates: Optional[List[int]] = None,
        with_freqs: bool = False,
    ):
        """One term's postings, decoded a whole block at a time.

        With ``candidates`` (ascending doc ids) only the blocks whose
        ``last_docid`` range holds a candidate are decoded — found by
        bisecting the block table — and the answer is the candidates
        the list holds, ascending; without, it is every doc id of the
        list.  ``with_freqs`` answers two aligned columns instead, the
        doc ids and tfs of every posting of the decoded blocks, which
        is what BM25 scores from.  A block decoded or found memoized
        counts as *read*; a block a filter jumps over — below the block
        that holds its last candidate, or anywhere when that candidate
        lies past the list — counts as *skipped*.  A block table is
        memoized (a filter picks from it, never into it), and so are a
        block's ids and tfs, all in one map; every list returned is the
        caller's own.
        """
        _term, df, start, end = info
        mm, memo = self._mm, self._blocks
        if df <= self.block_size:
            if candidates is not None and not candidates:
                return ([], []) if with_freqs else []
            ids = memo.get(start)
            if ids is None or with_freqs and -start not in memo:
                ids, doc_bytes = decode_single_block(mm, start, end, df)
                self._keep(start, ids)
                blocks = [(start, df, doc_bytes, end - start - doc_bytes)]
            else:  # the tfs loop below finds this block's tfs memoized
                self.memo_hits += 1
                blocks = [(start, df, None, None)]
            ids = ids[:]
            self._count_read(1)
        else:
            table = memo.get(start)
            if table is None:
                table = decode_block_table(mm, start, df, self.block_size)
                memo[start] = table  # a table is bounded by the file, uncapped
            blocks, lasts = table
            if candidates is not None:
                chosen, block, i = [], 0, 0
                while i < len(candidates):
                    block = bisect_left(lasts, candidates[i], block)
                    if block == len(blocks):
                        break
                    chosen.append(blocks[block])
                    i = bisect_right(candidates, lasts[block], i + 1)
                    block += 1
                if block > len(chosen):
                    self._count_skipped(block - len(chosen))
                blocks = chosen
            self._count_read(len(blocks))
            ids = []
            for offset, count, doc_bytes, _freq_bytes in blocks:
                got = memo.get(offset)
                if got is None:
                    got = decode_block_docids(mm, offset, count, doc_bytes)
                    self._keep(offset, got)
                else:
                    self.memo_hits += 1
                ids += got
        if with_freqs:
            tfs: List[int] = []
            for offset, count, doc_bytes, freq_bytes in blocks:
                got = memo.get(-offset)
                if got is None:
                    got = decode_block_freqs(
                        mm, offset + doc_bytes, count, freq_bytes
                    )
                    self._keep(-offset, got)
                else:
                    self.memo_hits += 1
                tfs += got
            return ids, tfs
        if candidates is None:
            return ids
        return sorted(set(ids).intersection(candidates))

    def terms(self) -> Iterator[str]:
        """All terms in sorted order (sequential lexicon walk)."""
        for term, _df, _start, _end in iter_ridx2_lexicon(
            self._mm, self._header
        ):
            yield term

    def postings(self) -> Iterator[Tuple[str, List[str]]]:
        """Every ``(term, paths)`` pair in one sequential lexicon walk: no
        per-term binary search (a bulk decode, outside the block counters)."""
        paths = self.doc_paths()
        for term, ids in iter_ridx2_postings(self._mm, self._header):
            yield term, [paths[i] for i in ids]

    def lookup(self, term: str) -> List[str]:
        """Paths containing ``term`` — the InvertedIndex-compatible
        entry point (decodes all of the term's blocks, a block at a
        time)."""
        info = self.term_info(term)
        if info is None:
            return []
        return self.doc_paths_of(self.read_postings(info))

    def stats(self) -> Dict[str, int]:
        """Block-level I/O counters since open, and the decode memo's."""
        return {
            "ondisk.blocks_read": self.blocks_read,
            "ondisk.blocks_skipped": self.blocks_skipped,
            "ondisk.memo_hits": self.memo_hits,
            "ondisk.memo_postings": self.memo_postings,
        }

    def __repr__(self) -> str:
        return (
            f"MmapPostingsReader({self.path!r}, docs={self.doc_count}, "
            f"terms={self.term_count}, block_size={self.block_size})"
        )

    # -- internals --------------------------------------------------------

    def _record(self, index: int) -> Tuple[bytes, int, int]:
        """Record ``index``: term bytes, offset of its df, relative end."""
        mm, header = self._mm, self._header
        start, end = _SPAN.unpack_from(mm, header.lex_offsets_off + 4 * index)
        offset = header.lex_data_off + start
        length = mm[offset]
        if length < 0x80:
            offset += 1
        else:
            length, offset = decode_varint(mm, offset)
        return mm[offset : offset + length], offset + length, end

    def _search(self, probe: bytes, lo: int) -> Tuple[int, Optional[int], int]:
        """Binary search from record ``lo`` on: ``probe``'s record index,
        the offset of its df and its relative end; or, when absent, the
        index of the first term above it and ``(None, 0)``.  A probe
        compares the record's term bytes in place (an mmap slice is
        ``bytes``); a term under 128 bytes has a one-byte length.  The
        decode is :meth:`_record`'s, inline: a call per step would cost
        every ``term_info`` about a sixth.  A search from record 0 keeps
        the records of its first :data:`PROBE_MEMO_LEVELS` levels in the
        memo, which racing threads fill lock-free with equal tuples."""
        mm, header = self._mm, self._header
        span_at = _SPAN.unpack_from
        table, base = header.lex_offsets_off, header.lex_data_off
        hi = header.term_count
        if lo == 0:
            memo, depth = self._probe_memo, 0
        else:
            memo, depth = {}, PROBE_MEMO_LEVELS
        while lo < hi:
            mid = (lo + hi) // 2
            record = memo.get(mid)
            if record is None:
                start, end = span_at(mm, table + 4 * mid)
                offset = base + start
                length = mm[offset]
                if length < 0x80:
                    offset += 1
                else:
                    length, offset = decode_varint(mm, offset)
                record = mm[offset : offset + length], offset + length, end
                if depth < PROBE_MEMO_LEVELS:
                    memo[mid] = record
            depth += 1
            found = record[0]
            if found < probe:
                lo = mid + 1
            elif found > probe:
                hi = mid
            else:
                return mid, record[1], record[2]
        return lo, None, 0

    def _keep(self, key: int, values: List[int]) -> None:
        """Memoize a decoded block column while under the cap; of equal
        lists stored by racing threads the first stays, counted once."""
        if self.memo_postings < DECODE_MEMO_POSTINGS:
            size = len(values)  # no call between the count's read and write
            if self._blocks.setdefault(key, values) is values:
                self.memo_postings += size

    def _count_read(self, n: int) -> None:
        self.blocks_read += n
        self._read_counter.inc(n)

    def _count_skipped(self, n: int) -> None:
        self.blocks_skipped += n
        self._skip_counter.inc(n)
