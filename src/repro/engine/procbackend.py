"""Implementation 2 across OS processes: the GIL-free "Join Forces" engine.

The three threaded engines interleave on one interpreter because of the
GIL; their thread counts change scheduling, not parallelism.  Of the
paper's designs, Implementation 2 is the one whose stages 2-3 share *no*
mutable state — each writer owns a private replica and a barrier
separates build from join — so it is the one design that maps cleanly
onto processes:

1. stage 1 runs in the parent and splits the filename list into ``x``
   round-robin batches (any :mod:`repro.distribute` strategy works);
2. a process pool of up to ``x`` workers each runs read → scan →
   dedup → private-replica update in its own interpreter
   (:func:`repro.engine.procworker.build_replica`) and ships its replica
   back as the ``{term: [path, ...]}`` dict the index keeps, through
   the pool's own pickle;
3. the parent folds the dicts in batch order, never completion order,
   in one pass (:func:`_fold`) that also yields the build's documents
   and posting count.  One joiner only: the paper's reduction tree
   (``z > 1``) is the threaded Implementation 2's, since parent-side
   joiner threads would share one GIL.

Workers and parent exchange only picklable data — batches of the walk's
``FileRef`` records and extractor specs in, native postings out — so the
backend works under both ``fork`` and ``spawn`` start methods.

Fault tolerance
---------------

A build over a real corpus must *degrade*, not abort.  The backend
dispatches each batch asynchronously and recovers per
:class:`~repro.engine.faults.FaultPolicy`:

* **per-file errors** — under ``on_error="skip"`` workers catch
  read/extract/tokenize errors per file and return
  :class:`~repro.engine.faults.FileFailure` records instead of raising
  across the pool boundary (``"strict"`` keeps the original
  fail-the-build behaviour);
* **worker crashes and hangs** — a batch whose worker dies
  (``BrokenProcessPool``) or whose dispatch round exceeds
  ``batch_timeout`` is retried with bounded attempts and backoff,
  split in half on every retry to isolate poisoned files; once a batch
  exhausts its attempts the remaining sub-batch is indexed *in the
  parent* as last resort, so the build always terminates with a
  correct index over the surviving files;
* **pool unavailable** — if worker processes cannot be created at all,
  the build degrades to the threaded Implementation 2 engine with a
  ``RuntimeWarning`` instead of crashing (``BuildReport.degraded``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.distribute.base import DistributionStrategy
from repro.distribute.roundrobin import RoundRobinStrategy
from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import (
    FaultPolicy,
    PoolUnavailableError,
    reconcile_failures,
)
from repro.engine.procworker import (
    FilesystemSpec,
    WorkerBatch,
    WorkerResult,
    build_replica,
)
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.extract.registry import resolve_extractor
from repro.obs import recorder as obsrec
from repro.obs.spans import rebase_spans
from repro.fsmodel.nodes import FileRef
from repro.index.fingerprint import FingerprintMap
from repro.index.inverted import InvertedIndex


def _fold(
    results: Sequence[WorkerResult],
) -> Tuple[InvertedIndex, List[str], int]:
    """Join the batches' postings, in the order given, into one index;
    returns it with its documents and posting count.  The first dict is
    adopted; a later one extends a held term's list or inserts a new
    term — :func:`repro.index.binfmt.join_wire_replicas`'s result, with
    nothing encoded or decoded."""
    merged: Dict[str, List[str]] = {}
    documents: List[str] = []
    block_count = posting_count = 0
    for result in results:
        documents += result.documents
        block_count += len(result.fingerprints)
        posting_count += result.posting_count
        if not merged:
            merged = result.postings
            continue
        get = merged.get
        for term, paths in result.postings.items():
            held = get(term)
            if held is None:
                merged[term] = paths
            else:
                held += paths
    index = InvertedIndex.from_postings(merged, block_count)
    return index, documents, posting_count


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


def validate_worker_count(
    workers: int, oversubscribe: bool = False, cpus: Optional[int] = None
) -> None:
    """Reject pool sizes that would hang or silently degrade.

    A pool larger than the machine's CPU count cannot run in parallel —
    the extra processes only add fork, memory and scheduling cost — so
    it is almost always a configuration mistake.  ``oversubscribe=True``
    turns the error off for the cases where it is deliberate (CI boxes
    with one core, scheduling experiments).
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise TypeError(f"worker count must be an int, got {type(workers).__name__}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    limit = cpus if cpus is not None else available_cpus()
    if workers > limit and not oversubscribe:
        raise ValueError(
            f"{workers} worker processes exceed the {limit} CPU(s) "
            "available; a process pool cannot go faster than the cores "
            "it runs on — lower x, or pass oversubscribe=True if the "
            "oversubscription is deliberate"
        )


class _Job(NamedTuple):
    """One dispatchable unit: a batch, its worker slot, its attempt,
    and its fold key — the original batch's key, then the part's
    offset inside that batch."""

    batch: WorkerBatch
    slot: int
    attempt: int
    key: Tuple[int, int]

    def split(self) -> List["_Job"]:
        """The retry shape: halves (to isolate poisoned files) at
        attempt + 1, keyed to fold where the whole batch would.  A
        single-file batch cannot split further and just re-enters the
        ladder."""
        refs, (batch, offset) = self.batch.refs, self.key
        if len(refs) <= 1:
            return [self._replace(attempt=self.attempt + 1)]
        mid = len(refs) // 2
        return [
            _Job(replace(self.batch, refs=part), self.slot,
                 self.attempt + 1, (batch, offset + start))
            for start, part in ((0, refs[:mid]), (mid, refs[mid:]))
        ]


class _Tally:
    """One build's accounting, kept off the indexer while the build
    runs: ``build`` publishes it only when the build completes, so a
    strict build aborted by one batch keeps none of what its sibling
    batches, collected first, added."""

    __slots__ = ("times", "failures", "succeeded", "fingerprints", "retries")

    def __init__(self, workers: int) -> None:
        self.times = [0.0] * workers
        self.failures: List = []
        # Paths the batches indexed (vs. recorded as failures); used
        # after the ladder finishes to reconcile the failure list.
        self.succeeded: set = set()
        self.fingerprints: FingerprintMap = {}
        self.retries = 0


class ProcessReplicatedIndexer:
    """Implementation 2 semantics on a pool of worker processes."""

    implementation = Implementation.REPLICATED_JOINED

    def __init__(
        self,
        fs,
        *,
        strategy: Optional[DistributionStrategy] = None,
        buffer_capacity: int = 256,
        oversubscribe: bool = False,
        on_error: str = "strict",
        max_retries: int = 2,
        batch_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
        extractor=None,
    ) -> None:
        self.fs = fs
        # One Extractor seam (see repro.extract).
        self.extractor = resolve_extractor(extractor)
        self.strategy = strategy or RoundRobinStrategy()
        # Accepted for signature parity with the threaded engines; there
        # is no cross-process buffer stage.
        self.buffer_capacity = buffer_capacity
        self.oversubscribe = oversubscribe
        self.policy = FaultPolicy(
            on_error=on_error,
            max_retries=max_retries,
            batch_timeout=batch_timeout,
            retry_backoff=retry_backoff,
        )
        # Per-build observability, valid before the first build and
        # reset by every build (including failed ones).
        self.last_extractor_times: List[float] = []
        self.last_failures: List = []
        self.last_retries = 0
        self._recorder = obsrec.Recorder()
        # fork is the cheap path (no re-import, instant corpus
        # visibility); fall back to the platform default elsewhere.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]

    # -- public API ------------------------------------------------------

    def build(self, config: ThreadConfig, root: str = "") -> BuildReport:
        """Run the full pipeline under ``config`` and report the result."""
        config = config.with_backend("process")
        config.validate_for(self.implementation)
        validate_worker_count(config.extractors, self.oversubscribe)

        self.last_extractor_times = [0.0] * config.extractors
        self.last_failures = []
        self.last_retries = 0
        tally = _Tally(config.extractors)
        rec = self._recorder = obsrec.Recorder()

        root_span = rec.span(
            "build",
            implementation=self.implementation.name,
            config=str(config),
            backend="process",
        )
        try:
            with root_span:
                with rec.span("phase.stage1"):
                    files = list(self.fs.list_files(root))
                index, documents, posting_count = self._build(
                    config, files, tally
                )
        except PoolUnavailableError as exc:
            return self._degrade(config, root, exc)

        # A file the recovery ladder failed once but indexed on a later
        # attempt (or in the parent) must not count as a failure — the
        # report's indexed_file_count subtracts failed paths.
        self.last_failures = reconcile_failures(
            tally.failures, tally.succeeded
        )
        self.last_extractor_times = tally.times
        self.last_retries = tally.retries

        spans = rec.spans
        wall = root_span.duration
        metrics = build_metrics(
            file_count=len(files),
            byte_count=sum(ref.size for ref in files),
            term_count=len(index),
            posting_count=posting_count,
            wall_time=wall,
            failure_count=len(self.last_failures),
            retries=self.last_retries,
        )
        if obsrec.enabled():
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
            extractor_times=list(self.last_extractor_times),
            failures=list(self.last_failures),
            fingerprints=tally.fingerprints,
            documents=documents,
            retries=self.last_retries,
            spans=spans,
            metrics=metrics,
        )

    # -- graceful degradation --------------------------------------------

    def _degrade(
        self, config: ThreadConfig, root: str, cause: PoolUnavailableError
    ) -> BuildReport:
        """Pool creation failed: run the threaded Implementation 2."""
        warnings.warn(
            f"process pool unavailable ({cause}); degrading to the "
            "threaded Implementation 2 engine",
            RuntimeWarning,
            stacklevel=3,
        )
        from repro.engine.impl2 import ReplicatedJoinedIndexer

        indexer = ReplicatedJoinedIndexer(
            self.fs,
            extractor=self.extractor,
            strategy=self.strategy,
            buffer_capacity=self.buffer_capacity,
            on_error=self.policy.on_error,
        )
        report = indexer.build(config.with_backend("thread"), root)
        report.degraded = True
        if report.metrics:
            report.metrics["build.degraded"] = 1.0
        self.last_extractor_times = list(report.extractor_times)
        self.last_failures = list(report.failures)
        return report

    # -- stages ----------------------------------------------------------

    def _build(
        self, config: ThreadConfig, files: Sequence[FileRef], tally: _Tally
    ) -> Tuple[InvertedIndex, List[str], int]:
        """Extract on the pool, then join in the parent; returns the
        index, its documents and its posting count."""
        # Extraction and update are fused inside each worker; attribute
        # the pool phase to extraction only (no phase.update span, no
        # inline_update marker) so StageTimings.total does not
        # double-count the entire parallel phase.
        with self._recorder.span("phase.extract"):
            results = self._run_workers(config, files, tally)
        # The pool's completion is the barrier; now the join phase runs
        # in the parent.
        with self._recorder.span("phase.join", joiners=config.joiners):
            return _fold(results)

    def _run_workers(
        self, config: ThreadConfig, files: Sequence[FileRef], tally: _Tally
    ) -> List[WorkerResult]:
        """Fan the batches out to the pool; returns the batches'
        results in stage-1 order, and accounts each collected batch in
        ``tally``.

        Dispatches per-batch (not one blocking ``map``) and walks the
        recovery ladder on crash/timeout: retry → split → in-parent.
        """
        workers = config.extractors
        policy = self.policy
        # Join order is stage-1 order: a batch is keyed by its first
        # path's position, and a retried or split part by that key and
        # its offset inside the batch, so neither completion order nor
        # a recovery reaches the index.
        position = {ref.path: i for i, ref in enumerate(files)}
        distribution = self.strategy.distribute(files, workers)
        fs_spec = FilesystemSpec.from_filesystem(self.fs)
        extractor_spec = self.extractor.spec()
        rec = self._recorder
        trace = obsrec.enabled()

        jobs: List[_Job] = []
        for slot, assignment in enumerate(distribution.assignments):
            if not assignment:
                # Fewer files than workers: nothing to fork for this
                # slot; its extractor_times entry stays 0.0 so the
                # imbalance accounting keeps length x.
                continue
            jobs.append(
                _Job(
                    WorkerBatch(
                        fs=fs_spec,
                        refs=tuple(assignment),
                        extractor=extractor_spec,
                        on_error=policy.on_error,
                        trace=trace,
                    ),
                    slot,
                    0,
                    (position[assignment[0].path], 0),
                )
            )

        results: Dict[Tuple[int, int], WorkerResult] = {}

        def absorb_spans(job: _Job, result: WorkerResult) -> None:
            if not result.spans:
                return
            # Worker span starts are relative to the worker body's
            # start; perf_counter minus the worker's elapsed time is
            # that instant on the parent's timeline (collection
            # happens promptly after completion).
            offset = time.perf_counter() - result.elapsed
            rebased = []
            for span in rebase_spans(result.spans, offset):
                if span.name == "extract.worker":
                    span = replace(
                        span,
                        attrs={
                            **span.attrs,
                            "worker": job.slot,
                            "attempt": job.attempt,
                        },
                    )
                rebased.append(span)
            rec.absorb(rebased)

        def collect(job: _Job, result: WorkerResult) -> None:
            # Only a result that reaches this line is merged, so a batch
            # the ladder re-runs contributes its fingerprints once.
            results[job.key] = result
            tally.fingerprints.update(result.fingerprints)
            tally.times[job.slot] += result.elapsed
            tally.failures.extend(result.failures)
            failed = {failure.path for failure in result.failures}
            tally.succeeded.update(
                ref.path for ref in job.batch.refs if ref.path not in failed
            )
            absorb_spans(job, result)

        # Cap the pool at the number of non-empty batches — forking
        # processes that would only receive empty work is pure cost.
        pool_size = min(workers, len(jobs))

        while jobs:
            dispatch: List[_Job] = []
            for job in jobs:
                if job.attempt > policy.max_retries:
                    # Last resort: run the remaining sub-batch in the
                    # parent so the build terminates no matter what the
                    # pool does.  Per-file errors still follow
                    # ``on_error``; under "strict" they raise, exactly
                    # like the pre-fault-tolerance engine.
                    collect(job, build_replica(job.batch))
                else:
                    dispatch.append(job)
            jobs = []
            if dispatch:
                requeued = self._dispatch_round(dispatch, pool_size, collect)
                if requeued:
                    tally.retries += len(requeued)
                    if policy.retry_backoff > 0:
                        attempt = min(job.attempt for job in requeued)
                        time.sleep(policy.retry_backoff * attempt)
                    jobs = requeued
        return [results[key] for key in sorted(results)]

    # -- dispatch machinery ----------------------------------------------

    def _create_executor(self, max_workers: int) -> ProcessPoolExecutor:
        """One pool; failures here mean 'degrade to threads'."""
        try:
            context = multiprocessing.get_context(self.start_method)
            return ProcessPoolExecutor(
                max_workers=max_workers, mp_context=context
            )
        except (OSError, ValueError, ImportError) as exc:
            raise PoolUnavailableError(str(exc)) from exc

    def _dispatch_round(
        self,
        dispatch: List[_Job],
        pool_size: int,
        collect: Callable[[_Job, WorkerResult], None],
    ) -> List[_Job]:
        """Run one async round over a fresh pool.

        Collects every completed batch, and returns the jobs that must
        be retried (split, attempt + 1): batches whose worker died and
        batches still unfinished when the round's deadline expired.
        Deterministic worker exceptions (a file error under "strict")
        propagate unchanged — retrying them cannot help.
        """
        policy = self.policy
        executor = self._create_executor(min(pool_size, len(dispatch)))
        requeued: List[_Job] = []
        timed_out = False
        try:
            try:
                futures = {
                    executor.submit(build_replica, job.batch): job
                    for job in dispatch
                }
            except OSError as exc:
                raise PoolUnavailableError(str(exc)) from exc
            deadline = None
            if policy.batch_timeout is not None:
                # Every batch's window starts at submission; rounds with
                # more batches than pool slots queue some batches, so
                # the round deadline scales with the queue depth.
                waves = -(-len(dispatch) // max(pool_size, 1))
                deadline = time.monotonic() + policy.batch_timeout * waves
            not_done = set(futures)
            while not_done:
                if deadline is None:
                    done, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # Hung batches: everything unfinished is retried.
                        for future in not_done:
                            requeued.extend(futures[future].split())
                        timed_out = True
                        return requeued
                    done, not_done = wait(
                        not_done,
                        timeout=remaining,
                        return_when=FIRST_COMPLETED,
                    )
                for future in done:
                    job = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        # The worker running some batch died; this
                        # future (and, as the pool collapses, every
                        # pending one) lands here and re-enters the
                        # ladder split in half.
                        requeued.extend(job.split())
                    else:
                        collect(job, result)
            return requeued
        finally:
            if timed_out:
                self._terminate(executor)
            else:
                executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _terminate(executor: ProcessPoolExecutor) -> None:
        """Hard-stop a pool with hung workers; best effort."""
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - truly stuck
                process.kill()

