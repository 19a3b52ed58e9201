"""The process backend's worker side: picklable payloads + worker body.

Worker processes cannot share live engine objects with the parent —
everything they receive must survive a pickle round-trip, and everything
they produce must come back as bytes.  This module is that boundary:

* :class:`FilesystemSpec` — how a worker re-opens the corpus: by root
  path for the real filesystem (each process gets its own descriptors),
  or a by-value snapshot for in-memory filesystems (tests);
* :class:`WorkerBatch` — one worker's job: filesystem + the walk's
  ``FileRef`` records (path, size, stamp) +
  :class:`~repro.extract.ExtractorSpec` (format registry included);
* :func:`build_replica` — the worker body: read → (convert) → scan →
  dedup → private-replica update, returning the replica as RWIRE1 wire
  bytes plus its elapsed time.

The worker pipeline is deliberately lean.  Where the threaded engines
route every file through ``FnvHashSet`` de-duplication and an
``FnvHashMap``-backed index — chained containers probed by Python
loops, one frame per posting — a worker feeds the tokenizer straight
into a :class:`~repro.index.replica.ReplicaBuilder`, which
de-duplicates with a native set and stores postings as doc-id arrays.
The output is identical (the merge-equivalence tests prove it); only
the constant factor differs, and on a multi-core machine the workers
additionally run truly in parallel because each owns its own
interpreter and GIL.

The factor, measured in one process on the ``build_paper`` corpus
(102 files, 1.7 MB; tokenize → de-dup → update, best of 15 interleaved
reps): the FNV path used to take 6.8× the lean pipeline (0.47–0.53 s
against 0.07 s) when it evaluated FNV-1a byte by byte for every term
occurrence; with the hash interned (:func:`repro.hashing.fnv1a_interned`)
and de-duplication in one frame per file it takes 4.0× (0.28–0.30 s).
What is left is the price of containers written in Python, not of the
hash.  So the product and the reproduction stay separate: the
product's sequential build and refreshes use native containers too,
the threaded Implementations 1-3 keep the paper's FNV containers —
and with both sides native the process build's lead over a
sequential one is gone on a 2-CPU host (``docs/process_backend.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.faults import FileFailure, check_on_error
from repro.engine.stage2 import read_chunk_terms, read_file_terms
from repro.extract.base import ExtractorSpec
from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.fingerprint import Fingerprint
from repro.index.replica import ReplicaBuilder
from repro.obs.recorder import NULL_SPAN, Recorder
from repro.obs.spans import SpanRecord, rebase_spans


@dataclass(frozen=True)
class FilesystemSpec:
    """How a worker process re-opens the corpus filesystem.

    The real filesystem crosses the boundary as its root path only —
    each worker constructs a fresh :class:`OsFileSystem` and owns its
    file descriptors.  Any other backend (the in-memory VFS the tests
    use) is carried by value: ``snapshot`` is pickled wholesale, which
    is fine for test-sized corpora and meaningless for real ones.
    """

    base: Optional[str] = None
    snapshot: Optional[object] = None

    def __post_init__(self) -> None:
        if (self.base is None) == (self.snapshot is None):
            raise ValueError(
                "exactly one of base and snapshot must be set, got "
                f"base={self.base!r}, snapshot={self.snapshot!r}"
            )

    @classmethod
    def from_filesystem(cls, fs) -> "FilesystemSpec":
        # Only a real OsFileSystem may cross the boundary by root path.
        # Duck-typing on a string ``base`` attribute here would silently
        # reopen any in-memory filesystem that happens to carry one as
        # the wrong on-disk directory.
        from repro.fsmodel.realfs import OsFileSystem

        if isinstance(fs, OsFileSystem):
            return cls(base=fs.base)
        if not hasattr(fs, "read_file"):
            raise TypeError(
                f"{type(fs).__name__} is not a filesystem (no read_file)"
            )
        return cls(snapshot=fs)

    def open(self):
        """The worker-side filesystem object."""
        if self.base is not None:
            from repro.fsmodel.realfs import OsFileSystem

            return OsFileSystem(self.base)
        return self.snapshot


@dataclass(frozen=True)
class WorkerBatch:
    """Everything one worker process needs, as picklable data.

    ``refs`` are the walk's ``FileRef`` records, so a worker
    fingerprints each file under the stamp stage 1 took and stats
    nothing itself.  The extraction pipeline crosses the boundary as
    ``extractor`` (an :class:`~repro.extract.ExtractorSpec`, its format
    registry pickled by value; a registry that cannot be pickled fails
    fast in the parent).
    """

    fs: FilesystemSpec
    refs: Tuple[FileRef, ...]
    extractor: ExtractorSpec
    # Per-file error policy: "strict" raises across the pool boundary
    # (the original behaviour); "skip" records a FileFailure instead.
    on_error: str = "strict"
    # Record per-file ``extract.file`` detail spans in the worker (set
    # by the parent when tracing is enabled; the per-batch
    # ``extract.worker`` span is always recorded).
    trace: bool = False

    def __post_init__(self) -> None:
        check_on_error(self.on_error)


@dataclass(frozen=True)
class WorkerResult:
    """One worker's output: its replica as wire bytes, plus timings."""

    replica: bytes
    elapsed: float
    file_count: int
    failures: Tuple[FileFailure, ...] = ()
    # (path, fingerprint) of every file in the replica, hashed here in
    # the worker from the bytes it indexed; travels beside the RWIRE1
    # blob, not in it.
    fingerprints: Tuple[Tuple[str, Fingerprint], ...] = ()
    # Spans recorded inside the worker, with ``start`` *relative to the
    # worker body's start* so the parent can re-base them onto its own
    # perf_counter timeline (clocks are not comparable across
    # processes; the worker's elapsed time is).
    spans: Tuple[SpanRecord, ...] = ()


def build_replica(batch: WorkerBatch) -> WorkerResult:
    """The worker body: index ``batch.refs`` into a wire-format replica.

    Runs stage 2 (:func:`~repro.engine.stage2.read_file_terms`) and the
    replica update for every file in the batch, entirely inside this
    process, and returns the replica serialized as RWIRE1 bytes.  Must
    stay a module-level function so the multiprocessing pool can pickle
    a reference to it.

    Under ``on_error="skip"`` a failing file comes back as a
    :class:`FileFailure` instead of crossing the pool boundary; the
    replica then covers exactly the surviving files.  Process-killing
    events (``os._exit``, signals) are not exceptions and are handled
    by the parent's retry ladder, not here.
    """
    started = time.perf_counter()
    rec = Recorder()
    worker_span = rec.span("extract.worker")
    with worker_span:
        fs = batch.fs.open()
        extractor = batch.extractor.build()
        builder = ReplicaBuilder()
        add_scan = builder.add_scan
        trace = batch.trace
        failures: List[FileFailure] = []
        skipped = failures if batch.on_error == "skip" else None
        fingerprints: List[Tuple[str, Fingerprint]] = []
        for ref in batch.refs:
            file_span = (
                rec.span("extract.file", path=ref.path) if trace else NULL_SPAN
            )
            with file_span:
                unit = read_file_terms(fs, ref, extractor, skipped)
                if unit is not None:
                    terms, fingerprint = unit
                    add_scan(ref.path, terms)
                    fingerprints.append((ref.path, fingerprint))
        blob = builder.to_bytes()
    return WorkerResult(
        replica=blob,
        elapsed=time.perf_counter() - started,
        file_count=len(batch.refs),
        failures=tuple(failures),
        fingerprints=tuple(fingerprints),
        spans=tuple(rebase_spans(rec.spans, -started)),
    )


@dataclass(frozen=True)
class ChunkBatch:
    """One chunk of a split huge file, as a picklable pool job.

    Chunk jobs ride the same dispatch/recovery machinery as
    :class:`WorkerBatch` jobs; the worker returns raw terms (not a
    replica blob) because chunks of one file must be unioned *in chunk
    order* in the parent before any index update.
    """

    fs: FilesystemSpec
    ref: ChunkRef
    extractor: ExtractorSpec = field(default_factory=ExtractorSpec)
    on_error: str = "strict"
    trace: bool = False

    def __post_init__(self) -> None:
        check_on_error(self.on_error)


@dataclass(frozen=True)
class ChunkResult:
    """One chunk's output: its ordered terms (or one failure)."""

    terms: Optional[Tuple[str, ...]]
    elapsed: float
    failure: Optional[FileFailure] = None
    spans: Tuple[SpanRecord, ...] = ()


def extract_chunk(batch: ChunkBatch) -> ChunkResult:
    """The chunk worker body: stage 2 for one chunk
    (:func:`~repro.engine.stage2.read_chunk_terms`).

    Must stay module-level for pool pickling, like :func:`build_replica`.
    Under ``on_error="skip"`` a failing chunk returns its FileFailure
    (the parent then drops the whole file — no half-indexed documents);
    under ``"strict"`` the exception crosses the pool boundary and
    fails the build, exactly like a file error would.
    """
    started = time.perf_counter()
    rec = Recorder()
    ref = batch.ref
    failures: List[FileFailure] = []
    with rec.span(
        "extract.chunk",
        path=ref.path,
        start=ref.start,
        end=ref.end,
        index=ref.index,
    ):
        terms = read_chunk_terms(
            batch.fs.open(),
            ref,
            batch.extractor.build(),
            failures if batch.on_error == "skip" else None,
        )
    return ChunkResult(
        terms=None if terms is None else tuple(terms),
        elapsed=time.perf_counter() - started,
        failure=failures[0] if failures else None,
        spans=tuple(rebase_spans(rec.spans, -started)),
    )
