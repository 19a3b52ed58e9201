"""Stage 2's unit of work, written once for every engine.

In the paper, stage 2 — read a file, scan it, de-duplicate its terms —
is the unit every implementation hands out; the implementations differ
in how they distribute it and join its output, not in what it does.
These two ladders are that unit, minus the de-duplication each engine
keeps for itself (a native ``dict``, an ``FnvHashSet``,
``ReplicaBuilder.add_scan``):

* :func:`read_file_terms` — read a whole file (fingerprinting the raw
  bytes under the walk's stamp), prepare it, tokenize it;
* :func:`read_chunk_terms` — read one chunk of a split file aligned to
  the extractor's boundaries, tokenize it.

Both take the error policy as ``failures``: ``None`` is ``"strict"``
(the error propagates unchanged), a list is ``"skip"`` (the stage that
raised becomes one :class:`~repro.engine.faults.FileFailure` appended
there, and the unit is dropped: ``None`` comes back).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.faults import FileFailure
from repro.extract.split import read_chunk
from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.fingerprint import Fingerprint, read_fingerprinted


def read_file_terms(
    fs,
    ref: FileRef,
    extractor,
    failures: Optional[List[FileFailure]],
    previous: Optional[Fingerprint] = None,
) -> Optional[Tuple[Optional[List[str]], Fingerprint]]:
    """One file's terms, in order with duplicates, and its fingerprint.

    Materialized, not streamed: ``tokenize`` returns a list, so a
    tokenizer error is raised here, before any term reaches an index —
    never half a document in a replica.  ``None`` when the file was
    skipped (see the module docstring).  Given the fingerprint of the
    revision already indexed, bytes of the same size and hash (a bare
    mtime bump) are neither prepared nor tokenized: the terms come back
    ``None`` beside the new fingerprint.
    """
    stage = "read"
    try:
        content, fingerprint = read_fingerprinted(fs, ref.path, ref.stamp)
        if (
            previous is not None
            and previous[0] == fingerprint[0]
            and previous[2] == fingerprint[2]
        ):
            return None, fingerprint
        stage = "extract"
        content = extractor.prepare(ref.path, content)
        stage = "tokenize"
        return extractor.tokenize(content), fingerprint
    except Exception as exc:
        if failures is None:
            raise
        failures.append(FileFailure.from_exception(ref.path, stage, exc))
        return None


def read_chunk_terms(
    fs, ref: ChunkRef, extractor, failures: Optional[List[FileFailure]]
) -> Optional[List[str]]:
    """The terms whose first byte lies in chunk ``ref``, in order.

    ``None`` when the chunk was skipped; the caller then drops the
    whole file (one failure, no half-indexed document).
    """
    stage = "read"
    try:
        data = read_chunk(
            fs,
            ref.path,
            ref.file_size,
            ref.start,
            ref.end,
            extractor.boundary_bytes,
        )
        stage = "tokenize"
        return extractor.chunk_terms(data)
    except Exception as exc:
        if failures is None:
            raise
        failures.append(FileFailure.from_exception(ref.path, stage, exc))
        return None
