"""Stage 2's unit of work, written once for every engine.

In the paper, stage 2 — read a file, scan it, de-duplicate its terms —
is the unit every implementation hands out; the implementations differ
in how they distribute it and join its output, not in what it does.
:func:`read_file_terms` is that unit — read a whole file
(fingerprinting the raw bytes under the walk's stamp), prepare it,
tokenize it.  The product's builds, refreshes and process workers ask
for the ``distinct`` form (``Extractor.distinct_terms``: each term
once, de-duplicated before it is filtered); the reproduction's engines
take every occurrence and keep their own de-duplication (an
``FnvHashSet``, or the naive baseline's search per occurrence).

It takes the error policy as ``failures``: ``None`` is ``"strict"``
(the error propagates unchanged), a list is ``"skip"`` (the stage that
raised becomes one :class:`~repro.engine.faults.FileFailure` appended
there, and the file is dropped: ``None`` comes back).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.faults import FileFailure
from repro.fsmodel.nodes import FileRef
from repro.index.fingerprint import Fingerprint, read_fingerprinted


def read_file_terms(
    fs,
    ref: FileRef,
    extractor,
    failures: Optional[List[FileFailure]],
    previous: Optional[Fingerprint] = None,
    distinct: bool = False,
) -> Optional[Tuple[Optional[List[str]], Fingerprint]]:
    """One file's terms, in order with duplicates (or each once, in
    first-seen order, when ``distinct``), and its fingerprint.

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
        if distinct:
            return extractor.distinct_terms(content), fingerprint
        return extractor.tokenize(content), fingerprint
    except Exception as exc:
        if failures is None:
            raise
        failures.append(FileFailure.from_exception(ref.path, stage, exc))
        return None
