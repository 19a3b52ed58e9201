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
from repro.engine.faults import FileFailure, check_on_error
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.engine.stage2 import read_file_terms
from repro.extract.registry import resolve_extractor
from repro.fsmodel.nodes import FileRef
from repro.index.fingerprint import FingerprintMap
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
    ) -> None:
        self.fs = fs
        # The extraction seam: one Extractor (format conversion +
        # tokenization).
        self.extractor = resolve_extractor(extractor)
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
        self.on_error = check_on_error(on_error)
        self.last_failures: List[FileFailure] = []
        # The stage-2 ladders' failure list: last_failures under
        # "skip", None (errors propagate) under "strict".
        self._skipped: Optional[List[FileFailure]] = None
        # Fingerprints of the files the current build has indexed, set
        # by the extractor threads (a dict store is atomic under the
        # GIL and every path is one thread's); reset at each build().
        self._fingerprints: FingerprintMap = {}
        # The current build's span recorder; replaced at each build()
        # so stage helpers always have somewhere to record.
        self._recorder = obsrec.Recorder()

    # -- public API ------------------------------------------------------

    def build(self, config: ThreadConfig, root: str = "") -> BuildReport:
        """Run the full pipeline under ``config`` and report the result."""
        config.validate_for(self.implementation)
        self.last_failures = []
        self._skipped = self.last_failures if self.on_error == "skip" else None
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
        posting_count = index.posting_count
        metrics = build_metrics(
            file_count=len(files),
            byte_count=sum(ref.size for ref in files),
            term_count=len(index),
            posting_count=posting_count,
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
            posting_count=posting_count,
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
        """Stage 2 for one file, with an ``extract.file`` detail span
        when tracing is enabled (one branch when it is not).  ``None``
        when the file was skipped under ``"skip"`` (see
        :mod:`repro.engine.stage2`)."""
        if not obsrec.enabled():
            return self._extract_whole(ref)
        with obsrec.span("extract.file", path=ref.path, size=ref.size):
            return self._extract_whole(ref)

    def _extract_whole(self, ref: FileRef) -> Optional[TermBlock]:
        # list.append is atomic under the GIL, so extractor threads
        # record failures without a lock.
        unit = read_file_terms(self.fs, ref, self.extractor, self._skipped)
        if unit is None:
            return None
        terms, self._fingerprints[ref.path] = unit
        return TermBlock(path=ref.path, terms=dedup_terms(terms))

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
