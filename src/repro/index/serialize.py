"""Index persistence: one save/load pair over every on-disk format.

Two single-index encodings are written:

* ``"ridx2"`` (the default) — the blocked, mmap-servable RIDX2
  encoding (a sorted lexicon whose records end in the term's varbyte
  posting blocks), which :class:`repro.index.ondisk.MmapPostingsReader`
  serves without loading — what ``Search.open`` adopts as a mapped
  segment; ``load_index`` still materializes it when asked;
* ``"binary"`` — the compact RIDX1 encoding from
  :mod:`repro.index.binfmt` (delta-compressed postings, ~1 byte per
  entry), the schedule checker's canonical oracle encoding.

:func:`load_index` reads both, plus RWIRE1 wire bytes and the
JSON-lines files older versions wrote (line 1 a header with a format
tag and counts, every further line one ``[term, [path, ...]]`` posting
entry); it sniffs the leading magic bytes, so a loader never needs to
know what it holds.  Unrecognized leading bytes raise
:class:`IndexFormatError` naming the bytes found and the supported
formats, instead of whatever decode error would otherwise escape.
Every write goes through :func:`~repro.index.atomic.atomic_write`: the
path holds the old file or the new one, never a cut one, and a reader
mapping the old file is not disturbed.

A :class:`~repro.index.multi.MultiIndex` is saved as one RIDX2 file per
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
from typing import Dict, List, Optional, Tuple

from repro.index.atomic import atomic_write
from repro.index.binfmt import IndexFormatError
from repro.index.inverted import InvertedIndex
from repro.index.multi import MultiIndex

_FORMAT = "repro-index-v1"

#: The on-disk encodings ``load_index`` understands (``"auto"`` sniffs).
INDEX_FORMATS: Tuple[str, ...] = ("json", "binary", "ridx2", "auto")

#: What the sniffing loader accepts, for error messages.
_SUPPORTED = "JSON-lines, RIDX1, RIDX2, RWIRE1"


def index_to_bytes(index: InvertedIndex, format: str = "binary") -> bytes:
    """Serialize to ``format="binary"`` (RIDX1, the default), ``"wire"``
    (RWIRE1) or ``"ridx2"`` bytes.

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


def save_index(
    index: InvertedIndex,
    path: str,
    format: str = "ridx2",
    frequencies=None,
) -> int:
    """Write ``index`` to ``path``; returns the bytes written.

    ``format="ridx2"`` (the default) writes the blocked mmap-servable
    encoding, ``"binary"`` the compact RIDX1 encoding.  ``frequencies``
    (a :class:`~repro.query.ranking.FrequencyIndex`) only applies to
    RIDX2 and bakes real term frequencies and document lengths in for
    exact BM25 scoring off the file.  The file is replaced atomically
    (:func:`~repro.index.atomic.atomic_write`), so saving over an index
    some session has mapped is safe.
    """
    if format not in ("ridx2", "binary"):
        raise ValueError(
            f"save format must be 'ridx2' or 'binary', got {format!r}"
        )
    if frequencies is not None and format != "ridx2":
        raise ValueError(
            "frequencies are only stored by the RIDX2 format; "
            f"requested format {format!r} cannot carry them"
        )
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
    if format not in INDEX_FORMATS:
        raise ValueError(
            f"format must be one of {INDEX_FORMATS}, got {format!r}"
        )
    if format == "auto":
        format = sniff_file(path)
    if format == "ridx2":
        from repro.index.binfmt import load_index_ridx2

        with open(path, "rb") as fh:
            return load_index_ridx2(fh.read())
    if format == "binary":
        with open(path, "rb") as fh:
            return index_from_bytes(fh.read())
    postings: Dict[str, List[str]] = {}
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
            postings[term] = paths
    index = InvertedIndex.from_postings(postings, header.get("blocks", 0))
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
