"""Build reports: what a run of the index generator returns.

Besides the index itself, every run records wall-clock stage timings so
the real engine can produce the same kind of breakdown as Table 1 and
the same per-configuration comparisons as Tables 2-4.  Since the
observability layer landed, the timings are *derived*: engines record
:class:`~repro.obs.spans.SpanRecord` spans on a per-build recorder and
:meth:`StageTimings.from_spans` folds the span tree back into the
paper's four stage numbers, so one measurement feeds the tables, the
Chrome trace, and the ``--stats`` summary alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import FileFailure
from repro.index.fingerprint import FingerprintMap
from repro.index.inverted import InvertedIndex
from repro.index.multi import MultiIndex
from repro.obs.spans import SpanRecord


@dataclass
class StageTimings:
    """Wall-clock seconds spent per pipeline stage."""

    filename_generation: float = 0.0
    extraction: float = 0.0
    update: float = 0.0
    join: float = 0.0

    @property
    def total(self) -> float:
        """Sum over stages; for concurrent stages this exceeds wall time."""
        return self.filename_generation + self.extraction + self.update + self.join

    @classmethod
    def from_spans(cls, spans: Sequence[SpanRecord]) -> "StageTimings":
        """Fold a build's span tree into the four stage numbers.

        Phase spans are named ``phase.stage1`` / ``phase.extract`` /
        ``phase.update`` / ``phase.join``; multiple spans of one phase
        (the sequential engine emits one pair per file) sum.  An
        extract phase marked ``inline_update=True`` ran its index
        updates inside the extractor threads (``y = 0``), so the update
        stage is credited with the same wall interval — exactly what
        the pre-span engines measured with their second
        ``perf_counter`` pair around the extract phase.
        """
        filename_generation = extraction = update = join = 0.0
        inline_update = False
        for span in spans:
            if span.name == "phase.stage1":
                filename_generation += span.duration
            elif span.name == "phase.extract":
                extraction += span.duration
                if span.attrs.get("inline_update"):
                    inline_update = True
            elif span.name == "phase.update":
                update += span.duration
            elif span.name == "phase.join":
                join += span.duration
        if update == 0.0 and inline_update:
            update = extraction
        return cls(
            filename_generation=filename_generation,
            extraction=extraction,
            update=update,
            join=join,
        )


def build_metrics(
    *,
    file_count: int,
    byte_count: int,
    term_count: int,
    posting_count: int,
    wall_time: float,
    failure_count: int = 0,
    retries: int = 0,
    degraded: bool = False,
) -> Dict[str, float]:
    """The flat throughput stats every engine attaches to its report.

    Merges in a snapshot of the global metrics registry (buffer depths,
    cache hit rates, query counters) when instrumentation has recorded
    anything, so one dict answers both "how fast was this build" and
    "what has the process observed so far".
    """
    from repro import obs

    wall = wall_time if wall_time > 0 else 1e-12
    metrics: Dict[str, float] = {
        "build.files": float(file_count),
        "build.files_per_s": file_count / wall,
        "build.bytes": float(byte_count),
        "build.bytes_per_s": byte_count / wall,
        "build.terms": float(term_count),
        "build.terms_per_s": term_count / wall,
        "build.postings": float(posting_count),
        "build.failures": float(failure_count),
        "build.retries": float(retries),
        "build.degraded": 1.0 if degraded else 0.0,
        "build.wall_s": wall_time,
    }
    metrics.update(obs.metrics().snapshot())
    # The acceptance surface promises a cache hit rate even when no
    # query cache has run yet in this process.
    metrics.setdefault("query.cache.hit_rate", 0.0)
    return metrics


@dataclass
class BuildReport:
    """Everything a build run produced."""

    implementation: Implementation
    config: ThreadConfig
    index: Union[InvertedIndex, MultiIndex]
    wall_time: float
    timings: StageTimings = field(default_factory=StageTimings)
    file_count: int = 0
    term_count: int = 0
    posting_count: int = 0
    # Wall-clock seconds each extractor thread was alive, by worker id —
    # the per-thread measurement behind the paper's balance discussion.
    extractor_times: List[float] = field(default_factory=list)
    # Files the build skipped under on_error="skip" (empty under
    # "strict", which aborts on the first error instead).
    failures: List[FileFailure] = field(default_factory=list)
    # path -> (size, stamp, content hash) of every file the build
    # indexed, taken by the read that was indexed (see
    # repro.index.fingerprint); a skipped file has none.
    fingerprints: FingerprintMap = field(default_factory=dict)
    # Paths of the indexed files with at least one term — the index's
    # documents — when the engine collected them on the way (the
    # sequential build); None when only a walk of the postings can say.
    documents: Optional[List[str]] = None
    # Batches the process backend re-dispatched after a worker crash or
    # a batch timeout (0 for the threaded engines).
    retries: int = 0
    # True when the process backend could not create its pool and fell
    # back to the threaded Implementation 2 engine.
    degraded: bool = False
    # The build's span tree (repro.obs): stage phases, per-worker
    # extract/update spans, re-based worker-process spans.  Feeds the
    # Chrome trace exporter; ``timings`` is derived from it.
    spans: List[SpanRecord] = field(default_factory=list)
    # Flat observability stats: files/s, bytes/s, terms/s, plus a
    # snapshot of the global metrics registry (see build_metrics).
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def indexed_file_count(self) -> int:
        """Files actually in the index: listed minus *distinct* failed
        paths.  Deduplicating by path keeps the count honest even if a
        recovery ladder ever records one file twice."""
        return self.file_count - len({failure.path for failure in self.failures})

    @property
    def extractor_imbalance(self) -> float:
        """max/mean extractor lifetime (1.0 = perfectly balanced)."""
        if not self.extractor_times:
            return 1.0
        mean = sum(self.extractor_times) / len(self.extractor_times)
        return max(self.extractor_times) / mean if mean else 1.0

    def lookup(self, term: str) -> List[str]:
        """Search the produced index (works for single and multi)."""
        return self.index.lookup(term)

    def speedup_over(self, sequential_time: float) -> float:
        """Speed-up relative to a sequential baseline time."""
        if self.wall_time <= 0:
            raise ValueError("wall_time must be positive to compute speed-up")
        return sequential_time / self.wall_time

    def summary(self) -> str:
        """One-line human-readable result, echoing the paper's tables."""
        text = (
            f"{self.implementation.paper_name} {self.config}: "
            f"{self.wall_time:.3f}s, {self.file_count} files, "
            f"{self.term_count} terms, {self.posting_count} postings"
        )
        if self.metrics.get("build.files_per_s"):
            text += f", {self.metrics['build.files_per_s']:.0f} files/s"
        if self.failures:
            text += f", {len(self.failures)} skipped"
        if self.retries:
            text += f", {self.retries} retried"
        if self.degraded:
            text += " (degraded to threads)"
        return text


def checked_replica_paths(replicas: List[InvertedIndex]) -> Optional[str]:
    """Sanity check that replicas are disjoint per file.

    Returns the first path found in more than one replica, or None if
    the en-bloc invariant (each file indexed exactly once) holds.  Used
    by integration tests and debug assertions.
    """
    seen = set()
    for replica in replicas:
        replica_paths = set()
        for _, postings in replica.items():
            replica_paths.update(postings)
        overlap = seen & replica_paths
        if overlap:
            return next(iter(overlap))
        seen |= replica_paths
    return None
