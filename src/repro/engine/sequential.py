"""The sequential baseline index generator.

Two variants, matching the paper's narrative:

* ``naive=True`` (default) — the original sequential implementation the
  speed-ups in Tables 2-4 are measured against: every term *occurrence*
  is inserted via :meth:`InvertedIndex.add_term_naive`, paying the
  linear (term, file) duplicate search the paper's analysis condemns;
* ``naive=False`` — the en-bloc sequential pipeline, useful as the
  fair single-thread reference for the parallel designs.

Timing is span-based like the threaded engines: one
``phase.extract`` / ``phase.update`` span pair per file on a per-build
recorder (the same number of clock reads the accumulator version
paid), summed back into stage totals by
:meth:`~repro.engine.results.StageTimings.from_spans`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import ERROR_POLICIES, FileFailure
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.extract.registry import resolve_extractor
from repro.index.fingerprint import (
    Fingerprint,
    FingerprintMap,
    read_fingerprinted,
)
from repro.index.inverted import InvertedIndex
from repro.obs import recorder as obsrec
from repro.text.dedup import dedup_terms
from repro.text.termblock import TermBlock


class SequentialIndexer:
    """Single-threaded index generation over any filesystem backend."""

    def __init__(
        self,
        fs,
        *,
        naive: bool = True,
        on_error: str = "strict",
        extractor=None,
    ) -> None:
        self.fs = fs
        # One Extractor seam (see repro.extract).
        self.extractor = resolve_extractor(extractor)
        self.naive = naive
        # Per-file error policy (see repro.engine.faults).
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}"
            )
        self.on_error = on_error
        self.last_failures: List[FileFailure] = []

    def _load(self, path: str) -> Optional[Tuple[bytes, Fingerprint]]:
        """Read (and format-convert) one file, honouring ``on_error``:
        the prepared content and the raw bytes' fingerprint."""
        if self.on_error != "skip":
            content, fingerprint = read_fingerprinted(self.fs, path)
            return self.extractor.prepare(path, content), fingerprint
        try:
            content, fingerprint = read_fingerprinted(self.fs, path)
        except Exception as exc:
            self.last_failures.append(
                FileFailure.from_exception(path, "read", exc)
            )
            return None
        try:
            return self.extractor.prepare(path, content), fingerprint
        except Exception as exc:
            self.last_failures.append(
                FileFailure.from_exception(path, "extract", exc)
            )
            return None

    def build(self, root: str = "") -> BuildReport:
        """Index every file under ``root`` sequentially."""
        self.last_failures = []
        rec = obsrec.Recorder()
        root_span = rec.span(
            "build", implementation="SEQUENTIAL", config="(1, 0, 0)"
        )
        with root_span:
            with rec.span("phase.stage1"):
                files = list(self.fs.list_files(root))

            index = InvertedIndex()
            fingerprints: FingerprintMap = {}
            for ref in files:
                extracted = False
                with rec.span("phase.extract"):
                    loaded = self._load(ref.path)
                    if loaded is not None:
                        content, fingerprint = loaded
                        try:
                            if self.naive:
                                terms = self.extractor.tokenize(content)
                            else:
                                block = TermBlock(
                                    path=ref.path,
                                    terms=dedup_terms(
                                        self.extractor.tokenize(content)
                                    ),
                                )
                            extracted = True
                        except Exception as exc:
                            if self.on_error != "skip":
                                raise
                            self.last_failures.append(
                                FileFailure.from_exception(
                                    ref.path, "tokenize", exc
                                )
                            )
                if not extracted:
                    continue
                fingerprints[ref.path] = fingerprint
                with rec.span("phase.update"):
                    if self.naive:
                        for term in terms:
                            index.add_term_naive(term, ref.path)
                    else:
                        index.add_block(block)

        spans = rec.spans
        wall = root_span.duration
        metrics = build_metrics(
            file_count=len(files),
            byte_count=sum(ref.size for ref in files),
            term_count=len(index),
            posting_count=index.posting_count,
            wall_time=wall,
            failure_count=len(self.last_failures),
        )
        if obsrec.enabled():
            obsrec.get_recorder().absorb(spans)
        # A sequential run is, by convention, configuration (1, 0, 0).
        return BuildReport(
            implementation=Implementation.SHARED_LOCKED,
            config=ThreadConfig(1, 0, 0),
            index=index,
            wall_time=wall,
            timings=StageTimings.from_spans(spans),
            file_count=len(files),
            term_count=len(index),
            posting_count=index.posting_count,
            failures=list(self.last_failures),
            fingerprints=fingerprints,
            spans=spans,
            metrics=metrics,
        )
