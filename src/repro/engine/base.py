"""Shared pipeline machinery for the three threaded implementations.

Stage 1 (single-threaded filename generation into memory), the extractor
worker loop, and the updater worker loop are identical across the three
designs; only the *sink* a term block flows into differs.  The base
class factors them out so each implementation is just a sink policy.

Timing comes from the observability layer: every build records its
phases (``phase.stage1`` / ``phase.extract`` / ``phase.update`` /
``phase.join``) and per-worker lifetimes (``extract.worker`` /
``update.worker``) as spans on a per-build
:class:`~repro.obs.recorder.Recorder`, and
:meth:`~repro.engine.results.StageTimings.from_spans` folds the span
tree back into the paper's stage breakdown.  Per-file detail spans
(``extract.file``) go through the process-global recorder and cost one
branch while tracing is disabled.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.concurrency.buffers import BoundedBuffer, Closed
from repro.concurrency.provider import SyncProvider, ThreadingSyncProvider
from repro.distribute.base import DistributionStrategy
from repro.distribute.roundrobin import RoundRobinStrategy
from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import ERROR_POLICIES, FileFailure
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.extract.registry import resolve_extractor
from repro.extract.split import SplitJoiner, expand_file_refs, read_chunk
from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.fingerprint import (
    FingerprintMap,
    read_fingerprinted,
    unhashed_fingerprint,
)
from repro.obs import recorder as obsrec
from repro.text.dedup import dedup_terms
from repro.text.termblock import TermBlock

BlockSink = Callable[[int, TermBlock], None]

class ThreadedIndexerBase:
    """Common scaffolding: stage 1, extractors, optional updater stage.

    Subclasses implement :meth:`_build` which wires term blocks into
    their index design and returns the finished index; stage timings
    are derived from the spans the shared machinery records.
    """

    implementation: Implementation

    def __init__(
        self,
        fs,
        *,
        strategy: Optional[DistributionStrategy] = None,
        buffer_capacity: int = 256,
        dynamic: Optional[str] = None,
        on_error: str = "strict",
        sync: Optional[SyncProvider] = None,
        extractor=None,
        split_threshold: Optional[int] = None,
    ) -> None:
        self.fs = fs
        # The extraction seam: one Extractor (format conversion +
        # tokenization).
        self.extractor = resolve_extractor(extractor)
        # Files above this size (bytes) are split into chunks extracted
        # in parallel (see repro.extract.split); None disables splitting.
        if split_threshold is not None and split_threshold < 1:
            raise ValueError(
                f"split_threshold must be positive, got {split_threshold}"
            )
        self.split_threshold = split_threshold
        self.strategy = strategy or RoundRobinStrategy()
        self.buffer_capacity = buffer_capacity
        # All locks, condition variables, buffers and worker threads come
        # from this provider; repro.schedcheck substitutes an instrumented
        # one to trace and deterministically schedule the build.
        self.sync = sync or ThreadingSyncProvider()
        # Dynamic work acquisition instead of static private vectors:
        # None (the paper's choice), "steal" (per-extractor deques with
        # work stealing) or "queue" (one shared synchronized queue) —
        # the runtime halves of section 2.1's four options.
        if dynamic not in (None, "steal", "queue"):
            raise ValueError(
                f"dynamic must be None, 'steal' or 'queue', got {dynamic!r}"
            )
        self.dynamic = dynamic
        # Per-file error policy: "strict" lets the first file error
        # abort the build; "skip" drops the file and records a
        # FileFailure (see repro.engine.faults).
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}"
            )
        self.on_error = on_error
        self.last_failures: List[FileFailure] = []
        # Fingerprints of the files the current build has indexed, set
        # by the extractor threads (a dict store is atomic under the
        # GIL and every path is one thread's); reset at each build().
        self._fingerprints: FingerprintMap = {}
        # The current build's span recorder; replaced at each build()
        # so stage helpers always have somewhere to record.
        self._recorder = obsrec.Recorder()
        # Per-build chunk-join state, created by _run_extractors when a
        # build actually splits files (None otherwise).
        self._split_joiner: Optional[SplitJoiner] = None
        self._split_lock = None
        self._split_fingerprints: FingerprintMap = {}

    # -- public API ------------------------------------------------------

    def build(self, config: ThreadConfig, root: str = "") -> BuildReport:
        """Run the full pipeline under ``config`` and report the result."""
        config.validate_for(self.implementation)
        self.last_failures = []
        self._fingerprints = {}
        rec = self._recorder = obsrec.Recorder()

        root_span = rec.span(
            "build",
            implementation=self.implementation.name,
            config=str(config),
        )
        with root_span:
            with rec.span("phase.stage1"):
                files = list(self.fs.list_files(root))
            index = self._build(config, files)

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
            # Publish the build's spans on the global recorder so
            # --trace-out sees them alongside detail and query spans.
            obsrec.get_recorder().absorb(spans)
        return BuildReport(
            implementation=self.implementation,
            config=config,
            index=index,
            wall_time=wall,
            timings=StageTimings.from_spans(spans),
            file_count=len(files),
            term_count=len(index),
            posting_count=index.posting_count,
            extractor_times=list(getattr(self, "last_extractor_times", [])),
            failures=list(self.last_failures),
            fingerprints=self._fingerprints,
            spans=spans,
            metrics=metrics,
        )

    # -- subclass hook -----------------------------------------------------

    def _build(self, config: ThreadConfig, files: Sequence[FileRef]):
        """Run stages 2+3 and return the finished index."""
        raise NotImplementedError

    # -- shared stage machinery ---------------------------------------------

    def _extract_file(self, ref: FileRef) -> Optional[TermBlock]:
        """Stage 2 for one file (or one chunk of a split file), with an
        ``extract.file`` / ``extract.chunk`` detail span when tracing is
        enabled (one branch when it is not)."""
        if isinstance(ref, ChunkRef):
            if not obsrec.enabled():
                return self._extract_chunk_inner(ref)
            with obsrec.span(
                "extract.chunk",
                path=ref.path,
                start=ref.start,
                end=ref.end,
                index=ref.index,
            ):
                return self._extract_chunk_inner(ref)
        if not obsrec.enabled():
            return self._extract_file_inner(ref)
        with obsrec.span("extract.file", path=ref.path, size=ref.size):
            return self._extract_file_inner(ref)

    def _extract_file_inner(self, ref: FileRef) -> Optional[TermBlock]:
        """Stage 2 for one file: read, prepare, scan, de-duplicate.

        Under ``on_error="skip"`` a failing file is recorded in
        ``self.last_failures`` and ``None`` is returned (the extractor
        loop drops it); under ``"strict"`` the error propagates.
        """
        extractor = self.extractor
        if self.on_error != "skip":
            # Strict: any error aborts the build, report and all.
            content, self._fingerprints[ref.path] = read_fingerprinted(
                self.fs, ref.path
            )
            return TermBlock(
                path=ref.path,
                terms=dedup_terms(
                    extractor.tokenize(extractor.prepare(ref.path, content))
                ),
            )
        try:
            content, fingerprint = read_fingerprinted(self.fs, ref.path)
        except Exception as exc:
            # list.append is atomic under the GIL, so extractor threads
            # can record failures without a lock.
            self.last_failures.append(
                FileFailure.from_exception(ref.path, "read", exc)
            )
            return None
        try:
            content = extractor.prepare(ref.path, content)
        except Exception as exc:
            self.last_failures.append(
                FileFailure.from_exception(ref.path, "extract", exc)
            )
            return None
        try:
            block = TermBlock(
                path=ref.path, terms=dedup_terms(extractor.tokenize(content))
            )
        except Exception as exc:
            self.last_failures.append(
                FileFailure.from_exception(ref.path, "tokenize", exc)
            )
            return None
        self._fingerprints[ref.path] = fingerprint
        return block

    def _extract_chunk_inner(self, ref: ChunkRef) -> Optional[TermBlock]:
        """Stage 2 for one chunk of a split file.

        Each chunk's terms land in the build's :class:`SplitJoiner`;
        whichever worker delivers a file's *last* chunk receives the
        unioned whole-file terms and returns the TermBlock (every other
        chunk returns ``None``).  Which worker that is doesn't matter —
        serialization canonicalizes block order.  Any chunk failure
        under ``"skip"`` poisons the whole file (one FileFailure, no
        block) so a document is never half-indexed.
        """
        extractor = self.extractor
        if self.on_error != "skip":
            data = read_chunk(
                self.fs,
                ref.path,
                ref.file_size,
                ref.start,
                ref.end,
                extractor.boundary_bytes,
            )
            terms = extractor.chunk_terms(data)
        else:
            try:
                data = read_chunk(
                    self.fs,
                    ref.path,
                    ref.file_size,
                    ref.start,
                    ref.end,
                    extractor.boundary_bytes,
                )
            except Exception as exc:
                self._record_chunk_failure(ref, "read", exc)
                return None
            try:
                terms = extractor.chunk_terms(data)
            except Exception as exc:
                self._record_chunk_failure(ref, "tokenize", exc)
                return None
        with self._split_lock:
            whole = self._split_joiner.add(
                ref.path, ref.index, ref.count, terms
            )
        if whole is None:
            return None
        self._fingerprints[ref.path] = self._split_fingerprints[ref.path]
        return TermBlock(path=ref.path, terms=dedup_terms(whole))

    def _record_chunk_failure(self, ref: ChunkRef, stage: str, exc) -> None:
        with self._split_lock:
            first = self._split_joiner.fail(ref.path, ref.count)
        if first:
            self.last_failures.append(
                FileFailure.from_exception(ref.path, stage, exc)
            )

    def _run_extractors(
        self,
        config: ThreadConfig,
        files: Sequence[FileRef],
        sink: BlockSink,
        inline_update: bool = False,
    ) -> float:
        """Run ``config.extractors`` extractor threads to completion.

        Each extractor acquires work per ``self.dynamic`` — a private
        static list (the paper's design), a stealing deque, or a shared
        queue — and pushes every term block into ``sink`` with its own
        worker id.  The whole phase is recorded as a ``phase.extract``
        span; each worker's lifetime as an ``extract.worker`` span.
        ``inline_update=True`` marks the phase as also performing index
        updates inside the extractor threads (the ``y = 0``
        configurations), which makes the derived update time equal the
        extract time — the interval the pre-span engines measured.
        Returns elapsed seconds.  Exceptions raised inside workers are
        re-raised here.
        """
        if self.split_threshold is not None:
            # Huge-file divide-and-conquer: oversized splittable files
            # become ChunkRefs that distribute across workers like
            # ordinary files, so one giant file no longer serializes
            # the build tail.
            files, split_paths = expand_file_refs(
                self.fs, files, self.extractor, self.split_threshold
            )
            if split_paths:
                self._split_joiner = SplitJoiner()
                self._split_lock = self.sync.lock("split-joiner")
                # Statted here, before any chunk of the file is read.
                self._split_fingerprints = {
                    path: unhashed_fingerprint(self.fs, path)
                    for path in split_paths
                }
                obsrec.metrics().counter("extract.files_split").inc(
                    len(split_paths)
                )
        errors: List[BaseException] = []
        worker = self._make_worker(config.extractors, files, sink, errors)
        self.last_extractor_times = [0.0] * config.extractors
        rec = self._recorder

        def timed_worker(worker_id: int) -> None:
            worker_span = rec.span("extract.worker", worker=worker_id)
            try:
                with worker_span:
                    worker(worker_id)
            finally:
                self.last_extractor_times[worker_id] = worker_span.duration

        attrs = {"inline_update": True} if inline_update else {}
        phase_span = rec.span("phase.extract", **attrs)
        with phase_span:
            threads = [
                self.sync.thread(
                    target=timed_worker, args=(i,), name=f"extract-{i}"
                )
                for i in range(config.extractors)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return phase_span.duration

    def _make_worker(
        self,
        extractors: int,
        files: Sequence[FileRef],
        sink: BlockSink,
        errors: List[BaseException],
    ) -> Callable[[int], None]:
        """Build the extractor thread body for the configured work mode."""
        if self.dynamic == "steal":
            from repro.distribute.worksteal import WorkStealingStrategy

            deques = WorkStealingStrategy().make_deques(files, extractors)

            def worker(worker_id: int) -> None:
                try:
                    while True:
                        ref = WorkStealingStrategy.next_item(deques, worker_id)
                        if ref is None:
                            return
                        block = self._extract_file(ref)
                        if block is not None:
                            sink(worker_id, block)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            return worker

        if self.dynamic == "queue":
            from repro.distribute.workqueue import WorkQueue

            queue = WorkQueue(files)
            queue.close()

            def worker(worker_id: int) -> None:
                try:
                    while True:
                        ref = queue.get()
                        if ref is None:
                            return
                        block = self._extract_file(ref)
                        if block is not None:
                            sink(worker_id, block)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            return worker

        # Static private vectors (the paper's round-robin default).
        distribution = self.strategy.distribute(files, extractors)

        def worker(worker_id: int) -> None:
            try:
                for ref in distribution.assignments[worker_id]:
                    block = self._extract_file(ref)
                    if block is not None:
                        sink(worker_id, block)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        return worker

    def _run_buffered(
        self,
        config: ThreadConfig,
        files: Sequence[FileRef],
        update: BlockSink,
    ) -> Tuple[float, float]:
        """Extractors -> bounded buffer -> ``config.updaters`` updaters.

        ``update`` receives (updater_id, block).  The update stage is
        recorded as a ``phase.update`` span spanning updater start to
        updater join; the nested ``phase.extract`` span covers the
        extractors.  The two stages overlap, so their summed durations
        exceed the wall-clock time of this phase.  Returns (extract_s,
        update_s) from those spans.

        Failure handling: a dying updater closes the buffer so blocked
        extractors cannot deadlock on a full buffer; the updater's
        original exception (not the extractors' secondary ``Closed``)
        is what propagates.
        """
        buffer: BoundedBuffer[TermBlock] = self.sync.buffer(
            self.buffer_capacity, name="term-buffer"
        )
        errors: List[BaseException] = []
        rec = self._recorder

        def updater(updater_id: int) -> None:
            with rec.span("update.worker", worker=updater_id):
                try:
                    while True:
                        try:
                            block = buffer.get()
                        except Closed:
                            return
                        update(updater_id, block)
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    errors.append(exc)
                    buffer.close()  # unblock producers; puts raise Closed

        extract_elapsed = 0.0
        phase_span = rec.span("phase.update")
        with phase_span:
            updater_threads = [
                self.sync.thread(target=updater, args=(i,), name=f"update-{i}")
                for i in range(config.updaters)
            ]
            for thread in updater_threads:
                thread.start()

            try:
                extract_elapsed = self._run_extractors(
                    config, files, lambda _w, block: buffer.put(block)
                )
            except Closed:
                # Secondary failure: an updater died and closed the
                # buffer; the phase.extract span is already recorded.
                pass
            buffer.close()
            for thread in updater_threads:
                thread.join()
        if errors:
            for error in errors:
                if not isinstance(error, Closed):
                    raise error
            raise errors[0]
        return extract_elapsed, phase_span.duration
