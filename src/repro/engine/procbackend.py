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
   back as RWIRE1 wire bytes;
3. the parent joins: with ``z = 1`` each blob is folded straight into
   the final index (:func:`repro.index.binfmt.merge_wire_replica`, no
   intermediate indices); with ``z > 1`` the replicas are materialized
   and merged by the existing pairwise reduction tree with ``z``
   threads per level.

Workers and parent exchange only picklable data — file-path batches and
extractor specs in, wire bytes out — so the backend works under
both ``fork`` and ``spawn`` start methods.

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
from typing import Callable, List, Optional, Sequence

from repro.distribute.base import DistributionStrategy
from repro.distribute.roundrobin import RoundRobinStrategy
from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import (
    FaultPolicy,
    PoolUnavailableError,
    reconcile_failures,
)
from repro.engine.procworker import (
    ChunkBatch,
    ChunkResult,
    FilesystemSpec,
    WorkerBatch,
    WorkerResult,
    build_replica,
    extract_chunk,
)
from repro.engine.results import BuildReport, StageTimings, build_metrics
from repro.extract.registry import resolve_extractor
from repro.extract.split import SplitJoiner, expand_file_refs
from repro.obs import recorder as obsrec
from repro.obs.spans import rebase_spans
from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.binfmt import load_index_wire, merge_wire_replica
from repro.index.fingerprint import FingerprintMap, unhashed_fingerprint
from repro.index.inverted import InvertedIndex
from repro.index.merge import join_pairwise_tree
from repro.text.dedup import dedup_terms
from repro.text.termblock import TermBlock


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


class _Job:
    """One dispatchable unit: a batch, its worker slot, its attempt."""

    __slots__ = ("batch", "slot", "attempt")

    def __init__(self, batch: WorkerBatch, slot: int, attempt: int) -> None:
        self.batch = batch
        self.slot = slot
        self.attempt = attempt

    def split(self) -> List["_Job"]:
        """The retry shape: halves (to isolate poisoned files) at
        attempt + 1.  A single-file batch — and a chunk job, which is
        already one indivisible unit of one file — cannot split
        further and just re-enters the ladder."""
        if isinstance(self.batch, ChunkBatch):
            return [_Job(self.batch, self.slot, self.attempt + 1)]
        paths = self.batch.paths
        if len(paths) <= 1:
            return [_Job(self.batch, self.slot, self.attempt + 1)]
        mid = len(paths) // 2
        return [
            _Job(replace(self.batch, paths=paths[:mid]), self.slot, self.attempt + 1),
            _Job(replace(self.batch, paths=paths[mid:]), self.slot, self.attempt + 1),
        ]

    @property
    def fn(self):
        """The module-level worker body this job dispatches to."""
        if isinstance(self.batch, ChunkBatch):
            return extract_chunk
        return build_replica


class ProcessReplicatedIndexer:
    """Implementation 2 semantics on a pool of worker processes."""

    implementation = Implementation.REPLICATED_JOINED

    def __init__(
        self,
        fs,
        *,
        strategy: Optional[DistributionStrategy] = None,
        buffer_capacity: int = 256,
        dynamic: Optional[str] = None,
        oversubscribe: bool = False,
        start_method: Optional[str] = None,
        on_error: str = "strict",
        max_retries: int = 2,
        batch_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
        extractor=None,
        split_threshold: Optional[int] = None,
    ) -> None:
        if dynamic is not None:
            raise ValueError(
                "the process backend distributes work as static batches; "
                "dynamic acquisition across process boundaries "
                f"({dynamic!r}) is not supported"
            )
        self.fs = fs
        # One Extractor seam (see repro.extract).
        self.extractor = resolve_extractor(extractor)
        if split_threshold is not None and split_threshold < 1:
            raise ValueError(
                f"split_threshold must be positive, got {split_threshold}"
            )
        self.split_threshold = split_threshold
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
        self._succeeded_paths: set = set()
        self._fingerprints: FingerprintMap = {}
        self._recorder = obsrec.Recorder()
        if start_method is not None:
            if start_method not in multiprocessing.get_all_start_methods():
                raise ValueError(
                    f"start method {start_method!r} not available on this "
                    f"platform; choose from "
                    f"{multiprocessing.get_all_start_methods()}"
                )
            self.start_method = start_method
        else:
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
        self._succeeded_paths = set()
        self._fingerprints = {}
        self._chunk_blocks: List[TermBlock] = []
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
                index = self._build(config, files)
        except PoolUnavailableError as exc:
            return self._degrade(config, root, exc)

        # A file the recovery ladder failed once but indexed on a later
        # attempt (or in the parent) must not count as a failure — the
        # report's indexed_file_count subtracts failed paths.
        self.last_failures = reconcile_failures(
            self.last_failures, self._succeeded_paths
        )

        spans = rec.spans
        wall = root_span.duration
        metrics = build_metrics(
            file_count=len(files),
            byte_count=sum(ref.size for ref in files),
            term_count=len(index),
            posting_count=index.posting_count,
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
            posting_count=index.posting_count,
            extractor_times=list(self.last_extractor_times),
            failures=list(self.last_failures),
            fingerprints=self._fingerprints,
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
            split_threshold=self.split_threshold,
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
        self, config: ThreadConfig, files: Sequence[FileRef]
    ) -> InvertedIndex:
        # Extraction and update are fused inside each worker; attribute
        # the pool phase to extraction only (no phase.update span, no
        # inline_update marker) so StageTimings.total does not
        # double-count the entire parallel phase.
        with self._recorder.span("phase.extract"):
            blobs = self._run_workers(config, files)
        # The pool's completion is the barrier; now the join phase runs
        # in the parent.
        with self._recorder.span("phase.join", joiners=config.joiners):
            if not blobs:
                index = InvertedIndex()
            elif config.joiners == 1:
                index = InvertedIndex()
                for blob in blobs:
                    merge_wire_replica(index, blob)
            else:
                replicas = [load_index_wire(blob) for blob in blobs]
                index = join_pairwise_tree(
                    replicas, threads_per_level=config.joiners
                )
            # Split huge files were unioned from their chunks in the
            # parent; their term blocks update the index here, in the
            # join phase (serialization canonicalizes order, so block
            # position relative to the merged replicas is immaterial).
            for block in self._chunk_blocks:
                index.add_block(block)
        return index

    def _run_workers(
        self, config: ThreadConfig, files: Sequence[FileRef]
    ) -> List[bytes]:
        """Fan the batches out to the pool; returns the replica blobs.

        Dispatches per-batch (not one blocking ``map``) and walks the
        recovery ladder on crash/timeout: retry → split → in-parent.
        """
        workers = config.extractors
        policy = self.policy
        split_fingerprints: FingerprintMap = {}
        if self.split_threshold is not None:
            # Huge-file divide-and-conquer: chunks of an oversized file
            # distribute across worker slots like ordinary files, so
            # one giant file no longer pins a single worker's tail.
            files, split_paths = expand_file_refs(
                self.fs, files, self.extractor, self.split_threshold
            )
            if split_paths:
                obsrec.metrics().counter("extract.files_split").inc(
                    len(split_paths)
                )
                # Statted here, before any chunk of the file is read.
                split_fingerprints = {
                    path: unhashed_fingerprint(self.fs, path)
                    for path in split_paths
                }
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
            whole = [ref for ref in assignment if not isinstance(ref, ChunkRef)]
            if whole:
                jobs.append(
                    _Job(
                        WorkerBatch(
                            fs=fs_spec,
                            paths=tuple(ref.path for ref in whole),
                            extractor=extractor_spec,
                            on_error=policy.on_error,
                            trace=trace,
                        ),
                        slot,
                        0,
                    )
                )
            for ref in assignment:
                if not isinstance(ref, ChunkRef):
                    continue
                # Each chunk is its own pool job: chunks of one file
                # must be able to land on different workers, which is
                # the entire point of splitting.
                jobs.append(
                    _Job(
                        ChunkBatch(
                            fs=fs_spec,
                            path=ref.path,
                            file_size=ref.file_size,
                            start=ref.start,
                            end=ref.end,
                            index=ref.index,
                            count=ref.count,
                            extractor=extractor_spec,
                            on_error=policy.on_error,
                            trace=trace,
                        ),
                        slot,
                        0,
                    )
                )

        blobs: List[bytes] = []
        joiner = SplitJoiner()

        def absorb_spans(job: _Job, result) -> None:
            if not result.spans:
                return
            # Worker span starts are relative to the worker body's
            # start; perf_counter minus the worker's elapsed time is
            # that instant on the parent's timeline (collection
            # happens promptly after completion).
            offset = time.perf_counter() - result.elapsed
            rebased = []
            for span in rebase_spans(result.spans, offset):
                if span.name in ("extract.worker", "extract.chunk"):
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

        def collect(job: _Job, result) -> None:
            if isinstance(result, ChunkResult):
                self.last_extractor_times[job.slot] += result.elapsed
                absorb_spans(job, result)
                if result.failure is not None:
                    # One failed chunk poisons the whole file: exactly
                    # one FileFailure, and the joiner never releases a
                    # block for it (no half-indexed documents).
                    if joiner.fail(result.path, result.count):
                        self.last_failures.append(result.failure)
                    return
                whole_terms = joiner.add(
                    result.path, result.index, result.count, result.terms
                )
                if whole_terms is not None:
                    self._chunk_blocks.append(
                        TermBlock(
                            path=result.path,
                            terms=dedup_terms(whole_terms),
                        )
                    )
                    self._succeeded_paths.add(result.path)
                    self._fingerprints[result.path] = split_fingerprints[
                        result.path
                    ]
                return
            # Only a result that reaches this line is merged, so a batch
            # the ladder re-runs contributes its fingerprints once.
            blobs.append(result.replica)
            self._fingerprints.update(result.fingerprints)
            self.last_extractor_times[job.slot] += result.elapsed
            self.last_failures.extend(result.failures)
            # Paths the batch indexed (vs. recorded as failures); used
            # after the ladder finishes to reconcile the failure list.
            failed = {failure.path for failure in result.failures}
            self._succeeded_paths.update(
                path for path in job.batch.paths if path not in failed
            )
            absorb_spans(job, result)

        # Cap the pool at the number of non-empty batches — forking
        # processes that would only receive empty work is pure cost.
        pool_size = min(workers, len(jobs))

        while jobs:
            dispatch: List[_Job] = []
            for job in jobs:
                if job.attempt > policy.max_retries:
                    # Last resort: run the remaining sub-batch (or
                    # chunk) in the parent so the build terminates no
                    # matter what the pool does.  Per-file errors still
                    # follow ``on_error``; under "strict" they raise,
                    # exactly like the pre-fault-tolerance engine.
                    collect(job, job.fn(job.batch))
                else:
                    dispatch.append(job)
            jobs = []
            if dispatch:
                requeued = self._dispatch_round(dispatch, pool_size, collect)
                if requeued:
                    self.last_retries += len(requeued)
                    if policy.retry_backoff > 0:
                        attempt = min(job.attempt for job in requeued)
                        time.sleep(policy.retry_backoff * attempt)
                    jobs = requeued
        return blobs

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
                    executor.submit(job.fn, job.batch): job
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


class CompactionExecutor:
    """Runs independent compaction merge jobs on a process pool.

    The segmented index's compaction rounds (:func:`repro.index.
    segments.compact_manifest`) produce groups that merge independently
    — the same shape as a build's replica batches, so they get the same
    resilience contract: if the pool cannot be created
    (:class:`PoolUnavailableError`) or dies mid-round
    (``BrokenProcessPool``), the remaining jobs run in-parent instead
    of failing the compaction.  Merges are pure functions of picklable
    plain data, so the fallback is result-identical, just slower.
    """

    def __init__(
        self,
        max_workers: int = 2,
        oversubscribe: bool = True,
        start_method: str = "spawn",
    ) -> None:
        validate_worker_count(max_workers, oversubscribe=oversubscribe)
        self.max_workers = max_workers
        self.start_method = start_method
        self.fallbacks = 0

    def run(self, fn: Callable, payloads: Sequence) -> List:
        """``[fn(p) for p in payloads]``, pool-parallel when possible."""
        if len(payloads) <= 1:
            return [fn(p) for p in payloads]
        try:
            context = multiprocessing.get_context(self.start_method)
            executor = ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(payloads)),
                mp_context=context,
            )
        except (OSError, ValueError, ImportError):
            self.fallbacks += 1
            return [fn(p) for p in payloads]
        results: List = [None] * len(payloads)
        pending = list(range(len(payloads)))
        try:
            futures = {
                executor.submit(fn, payloads[i]): i for i in pending
            }
            for future, i in futures.items():
                results[i] = future.result()
                pending.remove(i)
        except (BrokenProcessPool, OSError):
            # A dead pool fails the round, not the compaction: finish
            # the unfinished jobs in-parent, deterministically.
            self.fallbacks += 1
            for i in pending:
                results[i] = fn(payloads[i])
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return results
