"""The process backend's worker side: picklable payloads + worker body.

Worker processes cannot share live engine objects with the parent —
everything they receive must survive a pickle round-trip, and everything
they produce must come back as bytes.  This module is that boundary:

* :class:`FilesystemSpec` — how a worker re-opens the corpus: by root
  path for the real filesystem (each process gets its own descriptors),
  or a by-value snapshot for in-memory filesystems (tests);
* :class:`WorkerBatch` — one worker's job: filesystem + file paths +
  :class:`~repro.extract.ExtractorSpec` (format registry included);
* :func:`build_replica` — the worker body: read → (convert) → scan →
  dedup → private-replica update, returning the replica as RWIRE1 wire
  bytes plus its elapsed time.

The worker pipeline is deliberately lean.  Where the threaded engine
routes every file through ``FnvHashSet`` de-duplication and an
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
hash, so the two paths stay separate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.engine.faults import ERROR_POLICIES, FileFailure
from repro.extract.base import ExtractorSpec
from repro.extract.split import read_chunk
from repro.index.fingerprint import Fingerprint, read_fingerprinted
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

    The extraction pipeline crosses the boundary as ``extractor`` (an
    :class:`~repro.extract.ExtractorSpec`, its format registry pickled
    by value; a registry that cannot be pickled fails fast in the
    parent).
    """

    fs: FilesystemSpec
    paths: Tuple[str, ...]
    extractor: ExtractorSpec
    # Per-file error policy: "strict" raises across the pool boundary
    # (the original behaviour); "skip" records a FileFailure instead.
    on_error: str = "strict"
    # Record per-file ``extract.file`` detail spans in the worker (set
    # by the parent when tracing is enabled; the per-batch
    # ``extract.worker`` span is always recorded).
    trace: bool = False

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )


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
    """The worker body: index ``batch.paths`` into a wire-format replica.

    Runs read → (format conversion) → scan → dedup → replica update for
    every file in the batch, entirely inside this process, and returns
    the replica serialized as RWIRE1 bytes.  Must stay a module-level
    function so the multiprocessing pool can pickle a reference to it.

    Under ``on_error="skip"`` every per-file exception is caught at its
    stage (read / extract / tokenize) and returned as a
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
        prepare = extractor.prepare
        tokenize = extractor.tokenize
        builder = ReplicaBuilder()
        add_scan = builder.add_scan
        trace = batch.trace
        failures: List[FileFailure] = []
        fingerprints: List[Tuple[str, Fingerprint]] = []
        if batch.on_error == "skip":
            for path in batch.paths:
                file_span = (
                    rec.span("extract.file", path=path) if trace else NULL_SPAN
                )
                with file_span:
                    try:
                        content, fingerprint = read_fingerprinted(fs, path)
                    except Exception as exc:
                        failures.append(
                            FileFailure.from_exception(path, "read", exc)
                        )
                        continue
                    try:
                        content = prepare(path, content)
                    except Exception as exc:
                        failures.append(
                            FileFailure.from_exception(path, "extract", exc)
                        )
                        continue
                    try:
                        # Materialized, not streamed: a tokenizer error
                        # must not leave a half-indexed document in the
                        # replica.
                        terms = tokenize(content)
                    except Exception as exc:
                        failures.append(
                            FileFailure.from_exception(path, "tokenize", exc)
                        )
                        continue
                    add_scan(path, terms)
                    fingerprints.append((path, fingerprint))
        elif trace:
            for path in batch.paths:
                with rec.span("extract.file", path=path):
                    content, fingerprint = read_fingerprinted(fs, path)
                    add_scan(path, tokenize(prepare(path, content)))
                    fingerprints.append((path, fingerprint))
        else:
            for path in batch.paths:
                content, fingerprint = read_fingerprinted(fs, path)
                add_scan(path, tokenize(prepare(path, content)))
                fingerprints.append((path, fingerprint))
        blob = builder.to_bytes()
    return WorkerResult(
        replica=blob,
        elapsed=time.perf_counter() - started,
        file_count=len(batch.paths),
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
    path: str
    file_size: int
    start: int
    end: int
    index: int
    count: int
    extractor: ExtractorSpec = field(default_factory=ExtractorSpec)
    on_error: str = "strict"
    trace: bool = False

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, "
                f"got {self.on_error!r}"
            )
        if not 0 <= self.start <= self.end <= self.file_size:
            raise ValueError(
                f"invalid chunk range [{self.start}, {self.end}) "
                f"in file of {self.file_size} bytes"
            )
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"chunk index {self.index} outside count {self.count}"
            )


@dataclass(frozen=True)
class ChunkResult:
    """One chunk's output: its ordered terms (or one failure)."""

    path: str
    index: int
    count: int
    terms: Optional[Tuple[str, ...]]
    elapsed: float
    failure: Optional[FileFailure] = None
    spans: Tuple[SpanRecord, ...] = ()


def extract_chunk(batch: ChunkBatch) -> ChunkResult:
    """The chunk worker body: boundary-aligned read + tokenize.

    Must stay module-level for pool pickling, like :func:`build_replica`.
    Under ``on_error="skip"`` a failing chunk returns its FileFailure
    (the parent then drops the whole file — no half-indexed documents);
    under ``"strict"`` the exception crosses the pool boundary and
    fails the build, exactly like a file error would.
    """
    started = time.perf_counter()
    rec = Recorder()
    failure: Optional[FileFailure] = None
    terms: Optional[Tuple[str, ...]] = None
    chunk_span = rec.span(
        "extract.chunk",
        path=batch.path,
        start=batch.start,
        end=batch.end,
        index=batch.index,
    )
    with chunk_span:
        fs = batch.fs.open()
        extractor = batch.extractor.build()
        if batch.on_error == "skip":
            try:
                data = read_chunk(
                    fs,
                    batch.path,
                    batch.file_size,
                    batch.start,
                    batch.end,
                    extractor.boundary_bytes,
                )
            except Exception as exc:
                failure = FileFailure.from_exception(batch.path, "read", exc)
            else:
                try:
                    terms = tuple(extractor.chunk_terms(data))
                except Exception as exc:
                    failure = FileFailure.from_exception(
                        batch.path, "tokenize", exc
                    )
        else:
            data = read_chunk(
                fs,
                batch.path,
                batch.file_size,
                batch.start,
                batch.end,
                extractor.boundary_bytes,
            )
            terms = tuple(extractor.chunk_terms(data))
    return ChunkResult(
        path=batch.path,
        index=batch.index,
        count=batch.count,
        terms=terms,
        elapsed=time.perf_counter() - started,
        failure=failure,
        spans=tuple(rebase_spans(rec.spans, -started)),
    )
