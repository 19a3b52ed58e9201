"""Huge-file divide-and-conquer: boundary-aligned chunk planning.

One 500 MB log in an otherwise small corpus serializes the tail of
every parallel build — the skew problem the paper flags (and the
genome-indexing literature solves by splitting the *input*, not just
the file list).  This module turns a file above ``split_threshold``
into chunks that can be extracted in parallel by different workers,
with a correctness guarantee:

    the terms of chunk ``[start, end)`` are exactly the terms whose
    first byte lies in ``[start, end)``,

so concatenating per-chunk term streams in chunk order reproduces the
whole-file term stream byte-for-byte.  The guarantee rests on the
extractor's :attr:`~repro.extract.base.Extractor.boundary_bytes`:
cutting at a boundary byte can never land inside a term (or, for TSV,
inside a record).

Alignment protocol (:func:`read_chunk`):

* **leading edge** — if the byte *before* ``start`` is a word byte, a
  run crosses into this chunk; its term belongs to the previous chunk,
  so the chunk drops everything up to the first boundary byte.  A chunk
  that lies entirely inside one giant run contributes nothing (the run
  is owned by whichever chunk its first byte falls in).
* **trailing edge** — if the chunk's last byte is a word byte, the run
  continues past ``end``; the chunk owns it (its first byte is inside),
  so probe reads extend the data to the run's true end.

Chunks are planned at nominal even offsets (:func:`plan_chunks`); the
alignment shifts each edge by at most one run, so chunk sizes stay
balanced unless the file is one enormous run — in which case splitting
degenerates gracefully to one owning chunk and empty neighbors.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.fingerprint import FingerprintMap, unhashed_fingerprint
from repro.obs import recorder as obsrec

#: Files at or below this many bytes are never split (1 MiB — small
#: enough that one worker extracts it in well under a scheduling
#: quantum, large enough that chunk overhead never dominates).
DEFAULT_SPLIT_THRESHOLD = 1 << 20

#: Probe-read size for trailing-run extension.
_PROBE = 4096

#: Leading bytes read for format sniffing when deciding splittability.
_HEAD_PROBE = 512


def plan_chunks(size: int, threshold: int) -> List[Tuple[int, int]]:
    """Nominal ``[start, end)`` offsets for a file of ``size`` bytes.

    Files at or below ``threshold`` get a single chunk; larger files
    are divided into ``ceil(size / threshold)`` near-equal chunks.
    """
    if threshold < 1:
        raise ValueError("split threshold must be at least 1")
    if size <= threshold:
        return [(0, size)]
    count = -(-size // threshold)
    return [(size * i // count, size * (i + 1) // count) for i in range(count)]


def read_range(fs, path: str, offset: int, length: int) -> bytes:
    """``fs.read_range`` when the backend has it, else slice a full read.

    The fallback keeps chunk extraction correct on filesystem stand-ins
    that predate ``read_range`` — slower (whole-file read per chunk),
    never wrong.
    """
    ranged = getattr(fs, "read_range", None)
    if ranged is not None:
        return ranged(path, offset, length)
    return fs.read_file(path)[offset : offset + length]


def read_chunk(
    fs,
    path: str,
    file_size: int,
    start: int,
    end: int,
    boundary: frozenset,
) -> bytes:
    """The boundary-aligned bytes of chunk ``[start, end)``.

    Tokenizing the returned bytes yields exactly the terms whose first
    byte lies in ``[start, end)`` — see the module docstring for the
    alignment protocol and its correctness argument.
    """
    data = read_range(fs, path, start, end - start)
    if start > 0:
        before = read_range(fs, path, start - 1, 1)
        if before and before[0] not in boundary:
            # A run crosses our leading edge; the previous chunk owns it.
            i = 0
            n = len(data)
            while i < n and data[i] not in boundary:
                i += 1
            if i == n:
                return b""  # entirely inside one run owned upstream
            data = data[i:]
    if end < file_size and data and data[-1] not in boundary:
        # Our trailing run continues past `end`; we own it — extend.
        tail = bytearray()
        pos = end
        while pos < file_size:
            block = read_range(fs, path, pos, min(_PROBE, file_size - pos))
            if not block:
                break
            i = 0
            n = len(block)
            while i < n and block[i] not in boundary:
                i += 1
            tail += block[:i]
            if i < n:
                break
            pos += n
        data += bytes(tail)
    return data


def expand_file_refs(
    fs,
    files: Sequence[FileRef],
    extractor,
    threshold: Optional[int],
) -> Tuple[List[FileRef], FingerprintMap]:
    """Expand oversized splittable files into :class:`ChunkRef` runs.

    Returns ``(refs, split)``: the work list with each split file
    replaced by its chunks (everything else passed through unchanged),
    plus each split file's :data:`~repro.index.fingerprint.HASH_UNKNOWN`
    fingerprint — its walk's stat, taken before any chunk is read —
    keyed by path.  Bumps the ``extract.files_split`` counter by the
    number of files split.  ``threshold=None`` disables splitting.

    A file only splits when the extractor says its *prepare* stage
    commutes with chunking (:meth:`Extractor.splittable`, fed a small
    head read for magic sniffing).  A file whose head cannot be read is
    left whole — the engine's normal per-file path will then attribute
    the read error to the right stage under its error policy.
    """
    if threshold is None:
        return list(files), {}
    out: List[FileRef] = []
    split: FingerprintMap = {}
    for ref in files:
        if ref.size <= threshold or isinstance(ref, ChunkRef):
            out.append(ref)
            continue
        try:
            head = read_range(fs, ref.path, 0, min(_HEAD_PROBE, ref.size))
        except Exception:
            out.append(ref)
            continue
        if not extractor.splittable(ref.path, head):
            out.append(ref)
            continue
        chunks = plan_chunks(ref.size, threshold)
        if len(chunks) <= 1:
            out.append(ref)
            continue
        split[ref.path] = unhashed_fingerprint(ref)
        for index, (start, end) in enumerate(chunks):
            out.append(
                ChunkRef(
                    path=ref.path,
                    size=end - start,
                    start=start,
                    end=end,
                    index=index,
                    count=len(chunks),
                    file_size=ref.size,
                )
            )
    if split:
        obsrec.metrics().counter("extract.files_split").inc(len(split))
    return out, split


class SplitJoiner:
    """Joins per-chunk term streams back into whole-file term lists.

    Chunks of one file finish on different workers in arbitrary order;
    the joiner buffers each file's parts and releases the concatenation
    *in chunk order* — equal to the unsplit file's term stream by the
    :func:`read_chunk` guarantee — exactly once, when the last part
    lands.  A file with any failed chunk releases nothing: a term block
    must cover the whole document or not exist at all (no half-indexed
    files), matching the per-file skip-policy contract.

    Not thread-safe by itself: threaded engines guard every call with a
    SyncProvider lock; the process backend only calls it from the
    parent's collect loop.
    """

    def __init__(self) -> None:
        self._parts: Dict[str, List[Optional[List[str]]]] = {}
        self._done: Dict[str, int] = {}
        self._failed: Dict[str, bool] = {}

    def add(
        self, path: str, index: int, count: int, terms: Iterable[str]
    ) -> Optional[List[str]]:
        """Deliver chunk ``index``'s terms; the whole file's ordered
        term list when this completed the file, else ``None``."""
        self._parts.setdefault(path, [None] * count)[index] = list(terms)
        return self._finish(path, count)

    def fail(self, path: str, count: int) -> bool:
        """Deliver a chunk failure.  True only on the file's *first*
        failure, so the caller records exactly one FileFailure."""
        first = not self._failed.get(path, False)
        self._failed[path] = True
        self._parts.setdefault(path, [None] * count)
        self._finish(path, count)
        return first

    def _finish(self, path: str, count: int) -> Optional[List[str]]:
        done = self._done.get(path, 0) + 1
        if done < count:
            self._done[path] = done
            return None
        parts = self._parts.pop(path)
        self._done.pop(path, None)
        if self._failed.pop(path, False):
            return None
        out: List[str] = []
        for part in parts:
            out.extend(part)
        return out
