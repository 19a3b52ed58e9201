"""Index persistence: one save/load pair over every on-disk format.

Three single-index encodings exist:

* ``"json"`` — a transparent JSON-lines file: line 1 a header with a
  format tag and counts, every further line one ``[term, [path, ...]]``
  posting entry;
* ``"binary"`` — the compact RIDX1 encoding from
  :mod:`repro.index.binfmt` (delta-compressed postings, ~1 byte per
  entry);
* ``"ridx2"`` — the blocked, mmap-servable RIDX2 encoding (a sorted
  lexicon whose records end in the term's varbyte posting blocks), which
  :class:`repro.index.ondisk.MmapPostingsReader` serves without
  loading — what ``Search.open`` adopts as a mapped segment;
  ``load_index`` still materializes it when asked.

:func:`save_index` and :func:`load_index` take a ``format`` keyword
covering all three (plus ``"auto"``: save picks by file extension —
``.ridx``, ``.bin`` and ``.ridx2`` mean RIDX2, anything else
JSON-lines; RIDX1 is written only on ``format="binary"`` — and load
sniffs the leading magic bytes, so a loader never needs to know what
it holds; RWIRE1 wire bytes load too).  Unrecognized leading bytes
raise :class:`IndexFormatError` naming the bytes found and the
supported formats, instead of whatever decode error would otherwise
escape.  Every write goes through
:func:`~repro.index.atomic.atomic_write`: the path holds the old file
or the new one, never a cut one, and a reader mapping the old file is
not disturbed.

A :class:`~repro.index.multi.MultiIndex` is saved as one file per
replica inside a directory, so Implementation 3's unjoined output can
be persisted and searched later without ever paying the join.

For byte-oriented callers, :func:`index_to_bytes` / :func:`index_from_bytes`
dispatch between the binary encodings in :mod:`repro.index.binfmt`:
the canonical, compact RIDX1, the speed-first RWIRE1 wire format the
process build backend uses, and blocked RIDX2.  ``index_from_bytes``
sniffs the magic, so a loader never needs to know which one it holds.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.index.atomic import atomic_write
from repro.index.binfmt import IndexFormatError
from repro.index.inverted import InvertedIndex
from repro.index.multi import MultiIndex
from repro.index.postings import PostingsList

_FORMAT = "repro-index-v1"

#: The on-disk encodings ``save_index``/``load_index`` understand.
INDEX_FORMATS: Tuple[str, ...] = ("json", "binary", "ridx2", "auto")

#: File extensions ``format="auto"`` saves as RIDX2, the format a
#: session opens in place; every other extension means JSON-lines.
_RIDX2_EXTENSIONS = (".ridx", ".bin", ".ridx2")

#: What the sniffing loader accepts, for error messages.
_SUPPORTED = "JSON-lines, RIDX1, RIDX2, RWIRE1"


def index_to_bytes(
    index: InvertedIndex, wire: bool = False, format: Optional[str] = None
) -> bytes:
    """Serialize to RIDX1 bytes, RWIRE1 with ``wire=True``, or any of
    ``format="binary"|"wire"|"ridx2"``.

    RIDX1 is canonical (equal indices produce equal bytes) and small;
    RWIRE1 is the fast path — encode/decode are bulk C-level operations
    at the cost of a few bytes per posting; RIDX2 is the blocked,
    mmap-servable layout.
    """
    from repro.index.binfmt import (
        dump_index_bytes,
        dump_index_ridx2,
        dump_index_wire,
    )

    if format is None:
        format = "wire" if wire else "binary"
    if format == "ridx2":
        return dump_index_ridx2(index)
    if format == "wire":
        return dump_index_wire(index)
    if format == "binary":
        return dump_index_bytes(index)
    raise ValueError(
        f"format must be 'binary', 'wire' or 'ridx2', got {format!r}"
    )


def index_from_bytes(data: bytes) -> InvertedIndex:
    """Deserialize RIDX1, RIDX2 or RWIRE1 bytes, sniffing the magic."""
    from repro.index.binfmt import (
        MAGIC,
        MAGIC2,
        WIRE_MAGIC,
        load_index_bytes,
        load_index_ridx2,
        load_index_wire,
    )

    if data.startswith(WIRE_MAGIC):
        return load_index_wire(data)
    if data.startswith(MAGIC2):
        return load_index_ridx2(data)
    if data.startswith(MAGIC):
        return load_index_bytes(data)
    raise IndexFormatError(
        f"unrecognized index bytes: leading bytes {bytes(data[:8])!r} match "
        f"none of the supported binary formats (RIDX1, RIDX2, RWIRE1)"
    )


def _check_format(format: str, allow_auto: bool = True) -> None:
    allowed = INDEX_FORMATS if allow_auto else INDEX_FORMATS[:-1]
    if format not in allowed:
        raise ValueError(
            f"format must be one of {allowed}, got {format!r}"
        )


def save_index(
    index: InvertedIndex,
    path: str,
    format: str = "auto",
    frequencies=None,
) -> int:
    """Write ``index`` to ``path``; returns the bytes written.

    ``format="json"`` writes the JSON-lines encoding, ``"binary"`` the
    compact RIDX1 encoding, ``"ridx2"`` the blocked mmap-servable
    encoding, and ``"auto"`` (the default) picks by extension:
    ``.ridx``, ``.bin`` and ``.ridx2`` mean RIDX2, anything else
    JSON-lines (RIDX1 only on request).  ``frequencies`` (a
    :class:`~repro.query.ranking.FrequencyIndex`) only applies to
    RIDX2 and bakes real term frequencies and document lengths in for
    exact BM25 scoring off the file.  The file is replaced atomically
    (:func:`~repro.index.atomic.atomic_write`), so saving over an index
    some session has mapped is safe.
    """
    _check_format(format)
    if format == "auto":
        ridx2 = path.lower().endswith(_RIDX2_EXTENSIONS)
        format = "ridx2" if ridx2 else "json"
    if frequencies is not None and format != "ridx2":
        raise ValueError(
            "frequencies are only stored by the RIDX2 format; "
            f"requested format {format!r} cannot carry them"
        )
    if format == "json":
        with atomic_write(path, text=True) as fh:
            header = {
                "format": _FORMAT,
                "terms": len(index),
                "postings": index.posting_count,
                "blocks": index.block_count,
            }
            written = fh.write(json.dumps(header) + "\n")
            for term, postings in index.items():
                written += fh.write(
                    json.dumps([term, postings.paths()]) + "\n"
                )
        return written
    if format == "ridx2":
        from repro.index.binfmt import dump_index_ridx2

        data = dump_index_ridx2(index, frequencies=frequencies)
    else:
        data = index_to_bytes(index)
    with atomic_write(path) as fh:
        fh.write(data)
    return len(data)


def sniff_format(head: bytes) -> Optional[str]:
    """Classify leading file bytes: a format name, or None if unknown.

    Returns ``"binary"`` for RIDX1/RWIRE1, ``"ridx2"`` for RIDX2 and
    ``"json"`` for a plausible JSON-lines header.  ``None`` means the
    bytes match nothing we can load.
    """
    from repro.index.binfmt import MAGIC, MAGIC2, WIRE_MAGIC

    if head.startswith(MAGIC2):
        return "ridx2"
    if head.startswith(MAGIC) or head.startswith(WIRE_MAGIC):
        return "binary"
    # The JSON-lines header is a JSON object on line 1; sniffing just
    # needs plausibility — the JSON parser then validates for real.
    if head[:1] == b"{":
        return "json"
    return None


def sniff_file(path: str) -> str:
    """:func:`sniff_format` of the file at ``path``; bytes that match
    nothing raise :class:`IndexFormatError` naming what was found."""
    with open(path, "rb") as probe:
        head = probe.read(8)
    sniffed = sniff_format(head)
    if sniffed is None:
        detail = (
            "file is empty"
            if not head
            else f"leading bytes {head!r} match no known magic"
        )
        raise IndexFormatError(
            f"{path}: not a recognized index file ({detail}); "
            f"supported formats: {_SUPPORTED}"
        )
    return sniffed


def load_index(path: str, format: str = "auto") -> InvertedIndex:
    """Read an index saved in any single-index format, in full.

    With ``format="auto"`` (the default) the leading bytes decide:
    RIDX1/RWIRE1 magic means binary, RIDX2 magic the blocked format,
    a ``{`` a JSON-lines header.  Anything else raises
    :class:`IndexFormatError` naming the bytes found.  Passing
    ``"json"``, ``"binary"`` or ``"ridx2"`` enforces that encoding and
    fails loudly on a mismatch.
    """
    _check_format(format)
    if format == "auto":
        format = sniff_file(path)
    if format == "ridx2":
        from repro.index.binfmt import load_index_ridx2

        with open(path, "rb") as fh:
            return load_index_ridx2(fh.read())
    if format == "binary":
        with open(path, "rb") as fh:
            return index_from_bytes(fh.read())
    index = InvertedIndex()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise IndexFormatError(
                f"{path}: not a {_FORMAT} file (line 1 is not JSON: {exc}); "
                f"supported formats: {_SUPPORTED}"
            ) from exc
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise IndexFormatError(f"{path}: not a {_FORMAT} file")
        for line in fh:
            term, paths = json.loads(line)
            index._map[term] = PostingsList(paths)
        index._block_count = header.get("blocks", 0)
    if len(index) != header["terms"]:
        raise ValueError(
            f"{path}: header says {header['terms']} terms, "
            f"found {len(index)}"
        )
    return index


def save_multi_index(multi: MultiIndex, directory: str) -> None:
    """Write each replica of ``multi`` as ``replica-NNN.idx`` in a dir."""
    os.makedirs(directory, exist_ok=True)
    existing = [n for n in os.listdir(directory) if n.endswith(".idx")]
    if existing:
        raise FileExistsError(
            f"{directory} already contains index files: {existing[:3]}"
        )
    for i, replica in enumerate(multi.replicas):
        save_index(replica, os.path.join(directory, f"replica-{i:03d}.idx"))


def load_multi_index(directory: str) -> MultiIndex:
    """Read a directory written by :func:`save_multi_index`."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".idx"))
    if not names:
        raise FileNotFoundError(f"no .idx files in {directory}")
    replicas: List[InvertedIndex] = [
        load_index(os.path.join(directory, name)) for name in names
    ]
    return MultiIndex(replicas)
