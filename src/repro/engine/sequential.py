"""The sequential baseline index generator.

Two variants, matching the paper's narrative:

* ``naive=True`` (default) — the original sequential implementation the
  speed-ups in Tables 2-4 are measured against: every term *occurrence*
  is inserted via :meth:`InvertedIndex.add_term_naive`, paying the
  linear (term, file) duplicate search the paper's analysis condemns;
* ``naive=False`` — the en-bloc pipeline and the product's build: a
  native dict de-duplicates each file, native lists collect postings,
  and that dict becomes the index (:meth:`InvertedIndex.from_postings`)
  — Implementation 1 ``(1, 0, 0)``'s postings, with no FNV map built.

Timing is span-based like the threaded engines: one
``phase.extract`` / ``phase.update`` span pair per file on a per-build
recorder (the same number of clock reads the accumulator version
paid), plus one last ``phase.update`` span for the en-bloc path's
assembly, summed back into stage totals by
:meth:`~repro.engine.results.StageTimings.from_spans`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import FileFailure, check_on_error
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.engine.stage2 import read_file_terms
from repro.extract.registry import resolve_extractor
from repro.index.fingerprint import FingerprintMap
from repro.index.inverted import InvertedIndex
from repro.obs import recorder as obsrec


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
        self.on_error = check_on_error(on_error)
        self.last_failures: List[FileFailure] = []

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
            postings: Dict[str, List[str]] = defaultdict(list)
            documents: List[str] = []
            fingerprints: FingerprintMap = {}
            skipped = self.last_failures if self.on_error == "skip" else None
            for ref in files:
                with rec.span("phase.extract"):
                    unit = read_file_terms(
                        self.fs, ref, self.extractor, skipped
                    )
                    if unit is None:
                        continue
                    terms, fingerprints[ref.path] = unit
                    if not self.naive:
                        terms = dict.fromkeys(terms)
                if terms:
                    documents.append(ref.path)
                with rec.span("phase.update"):
                    if self.naive:
                        for term in terms:
                            index.add_term_naive(term, ref.path)
                    else:
                        path = ref.path
                        for term in terms:
                            postings[term].append(path)
            if self.naive:
                posting_count = index.posting_count
            else:
                with rec.span("phase.update"):
                    posting_count = sum(map(len, postings.values()))
                    index = InvertedIndex.from_postings(
                        postings, len(fingerprints)
                    )

        spans = rec.spans
        wall = root_span.duration
        metrics = build_metrics(
            file_count=len(files),
            byte_count=sum(ref.size for ref in files),
            term_count=len(index),
            posting_count=posting_count,
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
            posting_count=posting_count,
            failures=list(self.last_failures),
            fingerprints=fingerprints,
            documents=documents,
            spans=spans,
            metrics=metrics,
        )
