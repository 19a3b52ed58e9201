"""File fingerprints: what a refresh compares, taken by the one read.

A fingerprint is ``(size, stamp, content hash)``: size and stamp decide
*whether to read* a file, the hash decides *whether its content actually
changed* once read.  Every site that reads a file for indexing — the
engines' extraction pass, ``refresh``, ``reconcile`` — goes through
:func:`read_fingerprinted`, so the fingerprint always describes exactly
the bytes that were indexed and a build needs no second walk over the
corpus to bootstrap incremental refresh.

The stamp is the one stage 1's walk took: ``list_files`` stats each
file once and hands its stamp over on the :class:`~repro.fsmodel.FileRef`
(process workers receive those refs too), so a build or a refresh
stats each file exactly once.

The content hash is 64-bit BLAKE2b (``hashlib``, hashed in C).  FNV-1a
stays where the paper put it, in the ADTs (:mod:`repro.hashing`).

This module also owns the one persisted form of a fingerprint map
(:func:`save_fingerprints` / :func:`load_fingerprints`): JSON with a
header naming the hash and the CRC-32 of the RIDX2 index it describes,
so a state written under another hash, or beside another index, reads
as absent instead of as "every file changed" or "nothing changed".
"""

from __future__ import annotations

import json
from hashlib import blake2b
from typing import Dict, Optional, Tuple

from repro.index.atomic import atomic_write

#: path -> (size, stamp, content hash).  The stamp is ``st_mtime_ns``
#: on a real filesystem and the VFS's logical clock in memory; 0 when
#: the backend cannot stat.
Fingerprint = Tuple[int, int, int]
FingerprintMap = Dict[str, Fingerprint]

#: The hash named in the state-file header.
HASH_NAME = "blake2b-64"

#: "Hash unknown": the fingerprint of a file indexed from chunks
#: (``split_threshold=``), whose bytes no single reader ever held.
#: Equal to no real hash, so an unchanged stat still skips the file and
#: a changed one can only be settled by re-indexing — never by calling
#: the file unchanged.
HASH_UNKNOWN = -1


def content_hash(content: bytes) -> int:
    """64-bit BLAKE2b of ``content`` as an unsigned int."""
    return int.from_bytes(blake2b(content, digest_size=8).digest(), "big")


def read_fingerprinted(fs, path: str, stamp: int) -> Tuple[bytes, Fingerprint]:
    """Read, then hash the raw bytes: ``(content, fingerprint)``.

    ``stamp`` is the walk's, taken *before* the read (the
    :class:`~repro.fsmodel.FileRef`'s): a writer that lands between the
    stat and the read leaves a newer stamp on disk than the one
    recorded, so the next refresh re-examines the file — a change can
    be looked at twice, never missed.
    """
    content = fs.read_file(path)
    return content, (len(content), stamp, content_hash(content))


def unhashed_fingerprint(ref) -> Fingerprint:
    """The :data:`HASH_UNKNOWN` fingerprint of a file about to be read
    in chunks: size and stamp of its walk's
    :class:`~repro.fsmodel.FileRef`, taken before the first chunk read."""
    return (ref.size, ref.stamp, HASH_UNKNOWN)


# -- the persisted form -------------------------------------------------------


def state_path(index_path: str) -> str:
    """Where ``Search.save`` keeps the fingerprints of the index at
    ``index_path``."""
    return f"{index_path}.state"


def save_fingerprints(
    fingerprints: FingerprintMap, path: str, index_crc: int
) -> None:
    """Write ``fingerprints`` as the JSON state file at ``path``, naming
    the index they describe by its RIDX2 header CRC, ``index_crc``.

    Callers persist the index first and this second.  A crash in
    between leaves a state that names the previous index, so it reads
    as absent beside the new one and the next refresh reconciles: the
    fingerprints of one revision never vouch for another (an old state
    beside a newer index would let a file edited back to its old
    bytes pass as unchanged).  Replaced atomically: a crash leaves the
    old state or the new.
    """
    state = {
        "hash": HASH_NAME,
        "index": index_crc,
        "files": {p: list(entry) for p, entry in fingerprints.items()},
    }
    with atomic_write(path, text=True) as fh:
        json.dump(state, fh)


def load_fingerprints(path: str, index_crc: int) -> Optional[FingerprintMap]:
    """The state file at ``path`` as a fingerprint map, or ``None``.

    Anything but this module's own format under :data:`HASH_NAME`,
    describing the index whose header CRC is ``index_crc`` — a missing
    file, another tool's JSON, a 3.0.0 state of FNV hashes, the state
    of an index since overwritten — reads as absent: the caller
    reconciles and rewrites it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(state, dict) or state.get("hash") != HASH_NAME:
        return None
    if state.get("index") != index_crc:
        return None
    files = state.get("files")
    if not isinstance(files, dict):
        return None
    for entry in files.values():
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(type(field) is int for field in entry)
        ):
            return None
    return {p: tuple(entry) for p, entry in files.items()}
