"""Shard replicas as OS processes serving RIDX2 off mmap.

The local shard backend (:class:`~repro.service.sharded.
LocalShardReplica`) shares this process's GIL; real horizontal scaling
puts each shard replica in its **own process**, the serving-side
analogue of the build's "Join Forces" multiprocessing backend.  A
:class:`ProcessShardReplica` spawns one worker process that mmaps the
shard's RIDX2 file (61-byte open, page cache shared between replicas of
the same shard) and answers queries over a request/response queue pair.

Death is detected, never waited out: every response wait is bounded,
the worker's liveness is re-checked while waiting, and any of
timeout / EOF / dead-process turns into a typed
:class:`~repro.service.sharded.ShardDeadError` that the broker's
failover ladder and ``partial`` policy consume.  :meth:`kill`
terminates the worker with a real signal — the fault-injection path CI
uses to prove dead-shard handling, exercising the same detection a
genuine crash would.

This module deliberately uses plain ``multiprocessing`` primitives
(not the SyncProvider seam): the seam exists so the schedule checker
can sweep *thread* interleavings, and a child process is outside any
schedule a cooperative scheduler could control — exactly like
:mod:`repro.engine.procbackend` on the build side.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_mod
import time
from typing import Optional

from repro.query.ranking import RankedHit
from repro.service.sharded import ShardDeadError
from repro.service.snapshot import QueryResult

#: How long the parent polls between liveness re-checks while waiting.
_POLL_S = 0.05


def shard_worker_main(ridx2_path, statistics, requests, responses) -> None:
    """Entry point of one shard worker process.

    Opens the shard's RIDX2 file off mmap, ranking on the collection
    ``statistics`` it was spawned with (or the file's own), and serves
    ``(req_id, text, parallel, rank, topk)`` requests until a ``None``
    sentinel arrives.  Per-query failures travel back as
    ``("error", message)`` — the worker itself stays up; only a crash
    (or kill) takes it down, which the parent detects by liveness.
    """
    from repro.index.ondisk import MmapPostingsReader
    from repro.service.snapshot import IndexSnapshot

    snapshot = IndexSnapshot.from_ondisk(
        MmapPostingsReader(ridx2_path), statistics=statistics
    )
    while True:
        item = requests.get()
        if item is None:
            return
        req_id, text, parallel, rank, topk = item
        try:
            result = snapshot.answer(text, parallel, rank, topk)
            if rank == "bm25":
                payload = ("hits", [(h.path, h.score) for h in result.hits])
            else:
                payload = ("paths", result.paths)
        except Exception as exc:
            payload = ("error", f"{type(exc).__name__}: {exc}")
        responses.put((req_id,) + payload)


class ProcessShardReplica:
    """One shard replica running in its own OS process.

    Wears the same face as
    :class:`~repro.service.sharded.LocalShardReplica` (``query`` /
    ``alive`` / ``kill`` / ``close`` / ``max_inflight``), so
    :class:`~repro.service.sharded.ShardGroup` treats both backends
    identically.  BM25 ranks on ``statistics``, the whole collection's
    N, avgdl and df per term, pickled to the worker once at spawn (it
    never sees per-document counts).  One request is in flight per
    replica at a time (the replica lock serializes callers);
    concurrency comes from R replicas per shard and N shards per
    broker, all in separate processes — which is the point.
    """

    kind = "process"

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        ridx2_path: str,
        max_inflight: int = 32,
        timeout_s: float = 30.0,
        sync=None,
        start_method: Optional[str] = None,
        statistics=None,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.ridx2_path = ridx2_path
        self.name = f"shard{shard_id}.proc{replica_id}"
        self.max_inflight = max_inflight
        self.timeout_s = timeout_s
        self._lock = sync.lock(f"{self.name}.io-lock")
        self._dead = False
        self._ids = itertools.count(1)
        context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._requests = context.Queue()
        self._responses = context.Queue()
        self._process = context.Process(
            target=shard_worker_main,
            args=(ridx2_path, statistics, self._requests, self._responses),
            name=self.name,
            daemon=True,
        )
        self._process.start()

    @property
    def alive(self) -> bool:
        with self._lock:
            return not self._dead and self._process.is_alive()

    def query(
        self,
        query_text: str,
        parallel: bool = False,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        """Round-trip one query to the worker; bounded, never a hang.

        Raises :class:`~repro.service.sharded.ShardDeadError` when the
        worker is (or dies) unreachable; per-query worker exceptions
        re-raise here as :class:`RuntimeError` with the worker's
        message.
        """
        started = time.perf_counter()
        with self._lock:
            if self._dead or not self._process.is_alive():
                self._dead = True
                raise ShardDeadError(f"{self.name}: worker process is dead")
            req_id = next(self._ids)
            try:
                self._requests.put((req_id, query_text, parallel, rank, topk))
            except (OSError, ValueError) as exc:
                self._dead = True
                raise ShardDeadError(
                    f"{self.name}: request pipe broken"
                ) from exc
            deadline = started + self.timeout_s
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self._dead = True
                    raise ShardDeadError(
                        f"{self.name}: no answer in {self.timeout_s}s"
                    )
                try:
                    item = self._responses.get(
                        timeout=min(remaining, _POLL_S)
                    )
                except queue_mod.Empty:
                    if not self._process.is_alive():
                        self._dead = True
                        raise ShardDeadError(
                            f"{self.name}: worker died mid-query"
                        )
                    continue
                except (OSError, EOFError) as exc:
                    self._dead = True
                    raise ShardDeadError(
                        f"{self.name}: response pipe broken"
                    ) from exc
                answer_id, status, payload = item
                if answer_id != req_id:
                    # A stale answer from a request that timed out
                    # earlier; drop it and keep waiting for ours.
                    continue
                break
        elapsed = time.perf_counter() - started
        if status == "error":
            raise RuntimeError(f"{self.name}: {payload}")
        if status == "hits":
            hits = [RankedHit(path, score) for path, score in payload]
            return QueryResult(
                paths=[hit.path for hit in hits],
                generation=0,
                elapsed_s=elapsed,
                hits=hits,
            )
        return QueryResult(paths=payload, generation=0, elapsed_s=elapsed)

    def kill(self) -> None:
        """Fault injection: SIGKILL the worker, like a real crash.

        The replica is *not* marked dead here — the next query runs
        the genuine detection path (liveness check → typed error),
        exactly what a production crash would exercise.
        """
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def close(self) -> None:
        """Graceful shutdown: sentinel, bounded join, then terminate."""
        with self._lock:
            already_dead = self._dead
            self._dead = True
        if not already_dead and self._process.is_alive():
            try:
                self._requests.put(None)
            except (OSError, ValueError):
                pass
            self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        # Drop the queue feeder threads so interpreter exit never waits
        # on a pipe the dead worker will not drain.
        for q in (self._requests, self._responses):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
