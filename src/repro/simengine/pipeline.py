"""Simulated index-generation pipelines.

:class:`SimPipeline` builds and runs, on the DES kernel, the same
pipelines :mod:`repro.engine` runs on real threads:

* :meth:`run_sequential` — the naive sequential baseline (per-term
  inserts) or the en-bloc sequential variant;
* :meth:`stage_times` — the four isolated stage measurements of Table 1;
* :meth:`run` — a parallel run of Implementation 1/2/3 under an
  ``(x, y, z)`` thread configuration.

The structure mirrors the threaded engine deliberately: stage 1
pre-generates filenames (modelled as its measured constant time),
extractors own round-robin file vectors, term blocks either update the
index inline or flow through a bounded buffer to updater threads, and
Implementation 2 joins replicas after a barrier.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.engine.config import Implementation, ThreadConfig
from repro.platforms.profile import PlatformProfile
from repro.sim import (
    BUFFER_CLOSED,
    Acquire,
    Close,
    Delay,
    Get,
    Kernel,
    Put,
    Release,
    Use,
    WaitBarrier,
)
from repro.sim.resources import SimBarrier, SimBuffer, SimLock
from repro.simengine.batches import WorkBatch, make_batches
from repro.simengine.costmodel import CostModel
from repro.simengine.results import SimRunResult, SimStageTimes
from repro.simengine.workload import Workload

_MB = 1_000_000.0


class SimPipeline:
    """Runs simulated index generation for one platform and workload."""

    def __init__(
        self,
        platform: PlatformProfile,
        workload: Workload,
        batches_per_extractor: int = 200,
        buffer_capacity_files: int = 256,
        tracer=None,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.model = CostModel(platform, workload)
        self.batches_per_extractor = batches_per_extractor
        self.buffer_capacity_files = buffer_capacity_files
        # Optional repro.sim.trace.Tracer attached to every kernel this
        # pipeline creates (see examples/trace_timeline.py).
        self.tracer = tracer
        self._batches: Dict[Tuple[int, int], List[List[WorkBatch]]] = {}

    def _batch_lists(self, x: int, target: int) -> List[List[WorkBatch]]:
        """The workload dealt round-robin into ``x`` vectors, each cut
        into at most ``target`` batches.  They depend on nothing else
        this pipeline varies, so a sweep computes each set once."""
        key = (x, target)
        lists = self._batches.get(key)
        if lists is None:
            files = self.workload.files
            lists = self._batches[key] = [
                make_batches(files[i::x], self.model, target) for i in range(x)
            ]
        return lists

    # -- kernel/resource scaffolding ----------------------------------------

    def _fresh_kernel(self):
        kernel = Kernel(tracer=self.tracer)
        cpu = kernel.resource("cpu", total_rate=float(self.platform.cores),
                              per_job_cap=1.0)
        disk = kernel.resource(
            "disk",
            total_rate=self.platform.aggregate_mbps * _MB,
            per_job_cap=self.platform.per_stream_mbps * _MB,
        )
        return kernel, cpu, disk

    # -- sequential and stage runs ------------------------------------------

    def run_sequential(self, naive: bool = True) -> SimRunResult:
        """The single-threaded baseline.

        ``naive=True`` reproduces the paper's original sequential
        implementation (per-occurrence inserts with the linear duplicate
        search); ``naive=False`` is the en-bloc sequential pipeline.
        """
        kernel, cpu, disk = self._fresh_kernel()
        batches = self._batch_lists(1, self.batches_per_extractor * 4)[0]

        stream_bw = self.platform.per_stream_mbps * _MB

        def sequential():
            yield Delay(self.platform.filename_gen_s)
            for batch in batches:
                yield Use(disk, batch.disk_bytes + batch.seek_s * stream_bw)
                yield Use(cpu, batch.read_cpu_s + batch.scan_cpu_s)
                if naive:
                    yield Use(cpu, batch.naive_cpu_s)
                else:
                    yield Use(cpu, batch.prep_cpu_s + batch.critical_cpu_s)

        kernel.spawn("sequential", sequential())
        total = kernel.run()
        return SimRunResult(
            platform_name=self.platform.name,
            implementation=None,
            config=None,
            total_s=total,
            filename_gen_s=self.platform.filename_gen_s,
            build_s=total - self.platform.filename_gen_s,
            disk_utilization=disk.utilization(total),
            cpu_utilization=cpu.utilization(total),
        )

    def stage_times(self) -> SimStageTimes:
        """Reproduce Table 1: each stage timed in an isolated run."""
        read_s = self._timed_stage(read=True, scan=False, update=False)
        read_extract_s = self._timed_stage(read=True, scan=True, update=False)
        update_s = self._timed_stage(read=False, scan=False, update=True)
        return SimStageTimes(
            filename_generation=self.platform.filename_gen_s,
            read_files=read_s,
            read_and_extract=read_extract_s,
            index_update=update_s,
        )

    def _timed_stage(self, read: bool, scan: bool, update: bool) -> float:
        kernel, cpu, disk = self._fresh_kernel()
        batches = self._batch_lists(1, self.batches_per_extractor * 4)[0]

        stream_bw = self.platform.per_stream_mbps * _MB

        def stage():
            for batch in batches:
                if read:
                    yield Use(disk, batch.disk_bytes + batch.seek_s * stream_bw)
                    yield Use(cpu, batch.read_cpu_s)
                if scan:
                    yield Use(cpu, batch.scan_cpu_s)
                if update:
                    yield Use(cpu, batch.prep_cpu_s + batch.critical_cpu_s)

        kernel.spawn("stage", stage())
        return kernel.run()

    # -- the parallel run ------------------------------------------------------

    def run(
        self,
        implementation: Implementation,
        config: ThreadConfig,
        pipelined_stage1: bool = False,
        shards: int = 1,
    ) -> SimRunResult:
        """Simulate one parallel build under ``config``.

        With ``pipelined_stage1=True`` the filename generator runs
        *concurrently* with the extractors instead of pre-generating the
        list: its metadata traversal competes for the disk, and every
        filename handed over costs a pair of contended lock operations —
        the design the paper tried and found "highly inefficient".

        ``shards > 1`` stripes the shared index's lock over that many
        independent locks (only meaningful for Implementation 1): the
        serialized critical work divides across the stripes, modelling
        :class:`~repro.index.sharded.ShardedInvertedIndex`.
        """
        config.validate_for(implementation)
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        kernel, cpu, disk = self._fresh_kernel()
        model = self.model
        platform = self.platform

        # Round-robin distribution into private per-extractor vectors,
        # identical to the threaded engine's default strategy.
        x = config.extractors
        batch_lists = self._batch_lists(x, self.batches_per_extractor)

        shared = implementation is Implementation.SHARED_LOCKED
        sharers = x + config.updaters if config.uses_buffer else x
        mult = platform.coherence_multiplier(sharers) if shared else 1.0
        stream_bw = platform.per_stream_mbps * _MB
        seek_mult = platform.seek_multiplier(x)

        index_locks = (
            [SimLock(f"index-shard-{k}") for k in range(shards)] if shared else []
        )
        buffer = None
        if config.uses_buffer:
            # Capacity is a file count in the real engine; convert it to
            # batches so backpressure kicks in at the same point.
            mean_batch_files = max(
                1.0, len(self.workload.files) / max(1, sum(map(len, batch_lists)))
            )
            capacity = max(2, round(self.buffer_capacity_files / mean_batch_files))
            buffer = SimBuffer("blocks", capacity=capacity)
        extractors_done = SimBarrier(x + 1, "extractors-done")
        writers_done = SimBarrier(
            (config.updaters if config.uses_buffer else x) + 1, "writers-done"
        )
        # Pairs accumulated per replica, for the join schedule.
        replica_pairs = [0] * config.replica_count
        phase_marks = {}

        def deliver_shared(batch: WorkBatch):
            """Insert a batch into the locked shared index.

            The handoff cost is charged inside the critical section: it
            models the futex wake-up and cache-line transfer that the
            *next* acquirer cannot overlap with anything.  With striping
            the batch's critical work divides over the shard locks.
            """
            yield Use(cpu, batch.prep_cpu_s)
            yield Use(cpu, batch.file_count * model.lock_op_s)
            serialized = (
                batch.critical_cpu_s * mult
                + batch.file_count * model.lock_handoff_s
            ) / shards
            for lock in index_locks:
                yield Acquire(lock)
                yield Use(cpu, serialized)
                yield Release(lock)

        # Pipelined stage 1: a contended lock pair per filename, both on
        # the producer and on the consumer side (the paper's measured
        # objection), with contention making each operation dearer.
        filename_lock = SimLock("filenames") if pipelined_stage1 else None
        # Producer and consumer each pay a lock pair per filename, and the
        # hot lock changes hands constantly — the same handoff cost the
        # shared index pays, serialized on both sides.
        contended_lock_op = 2.0 * model.lock_op_s + model.lock_handoff_s

        def filename_generator():
            # Metadata traversal competes with the extractors for the
            # disk instead of running before them.
            metadata_bytes = platform.filename_gen_s * stream_bw
            chunks = 50
            for _ in range(chunks):
                yield Use(disk, metadata_bytes / chunks)
                yield Acquire(filename_lock)
                yield Use(
                    cpu,
                    len(self.workload.files) / chunks * contended_lock_op,
                )
                yield Release(filename_lock)

        def extractor(i: int):
            if not pipelined_stage1:
                # Stage 1 pre-generates all filenames before extraction.
                yield Delay(platform.filename_gen_s)
            for batch in batch_lists[i]:
                if pipelined_stage1:
                    yield Acquire(filename_lock)
                    yield Use(cpu, batch.file_count * contended_lock_op)
                    yield Release(filename_lock)
                yield Use(disk, batch.disk_bytes + batch.seek_s * stream_bw * seek_mult)
                yield Use(cpu, batch.read_cpu_s + batch.scan_cpu_s)
                if buffer is not None:
                    yield Use(cpu, batch.file_count * model.buffer_op_s)
                    yield Put(buffer, batch)
                elif shared:
                    yield from deliver_shared(batch)
                else:
                    # Inline private replica (replica i belongs to me).
                    replica_pairs[i] += batch.unique_pairs
                    yield Use(cpu, batch.prep_cpu_s + batch.critical_cpu_s)
            yield WaitBarrier(extractors_done)
            if buffer is None:
                yield WaitBarrier(writers_done)

        def updater(w: int):
            while True:
                item = yield Get(buffer)
                if item is BUFFER_CLOSED:
                    break
                yield Use(cpu, item.file_count * model.buffer_op_s)
                if shared:
                    yield from deliver_shared(item)
                else:
                    replica_pairs[w] += item.unique_pairs
                    yield Use(cpu, item.prep_cpu_s + item.critical_cpu_s)
            yield WaitBarrier(writers_done)

        def closer():
            yield WaitBarrier(extractors_done)
            if buffer is not None:
                yield Close(buffer)

        def join_controller():
            yield WaitBarrier(writers_done)
            phase_marks["build_done"] = kernel.now
            if implementation is not Implementation.REPLICATED_JOINED:
                return
            if config.joiners == 1:
                # A single joiner folds every replica into a fresh index,
                # touching every pair once.
                yield Use(cpu, model.join_cpu(sum(replica_pairs)))
                return
            levels = _reduction_levels(replica_pairs)
            level_barrier = SimBarrier(config.joiners, "join-level")
            for j in range(config.joiners):
                kernel.spawn(f"joiner-{j}", joiner(j, levels, level_barrier))

        def joiner(j: int, levels: List[List[int]], barrier: SimBarrier):
            for level in levels:
                my_pairs = sum(level[j :: config.joiners])
                yield Use(cpu, model.join_cpu(my_pairs))
                yield WaitBarrier(barrier)

        if pipelined_stage1:
            kernel.spawn("filename-generator", filename_generator())
        for i in range(x):
            kernel.spawn(f"extractor-{i}", extractor(i))
        if buffer is not None:
            for w in range(config.updaters):
                kernel.spawn(f"updater-{w}", updater(w))
        kernel.spawn("closer", closer())
        kernel.spawn("join-controller", join_controller())

        total = kernel.run()
        build_done = phase_marks.get("build_done", total)
        return SimRunResult(
            platform_name=platform.name,
            implementation=implementation,
            config=config,
            total_s=total,
            filename_gen_s=platform.filename_gen_s,
            build_s=build_done - platform.filename_gen_s,
            join_s=total - build_done,
            lock_acquires=sum(lock.acquires for lock in index_locks),
            lock_contended=sum(
                lock.contended_acquires for lock in index_locks
            ),
            lock_wait_s=sum(lock.total_wait_time for lock in index_locks),
            buffer_peak=buffer.peak_occupancy if buffer else 0,
            disk_utilization=disk.utilization(total),
            cpu_utilization=cpu.utilization(total),
        )


def _reduction_levels(replica_pairs: List[int]) -> List[List[int]]:
    """Per-level merge costs (pairs moved) of the pairwise reduction tree.

    Merging replica b into a moves b's pairs; levels halve the replica
    count until one remains.
    """
    sizes = [p for p in replica_pairs]
    levels: List[List[int]] = []
    while len(sizes) > 1:
        moved = [sizes[i + 1] for i in range(0, len(sizes) - 1, 2)]
        merged = [sizes[i] + sizes[i + 1] for i in range(0, len(sizes) - 1, 2)]
        if len(sizes) % 2:
            merged.append(sizes[-1])
        levels.append(moved)
        sizes = merged
    return levels
