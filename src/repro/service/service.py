"""The always-on query service: caller-runs queries, atomic swap, admission.

:class:`SearchService` is the broker between query traffic and index
maintenance:

* **readers never block on writers** — a query loads the current
  :class:`~repro.service.snapshot.IndexSnapshot` reference under a
  short snapshot lock and then evaluates entirely against that object;
  an update's snapshot is built off to the side by whoever owns the
  index and published with one compare and one reference store under
  the same lock.  Both sides go through the
  :class:`~repro.concurrency.provider.SyncProvider` seam and declare
  their accesses, so the schedule checker can sweep the swap/read
  interleavings and the race detector watches the swap;
* **caller-runs** — a query is evaluated on the thread that asked it;
  the service starts no thread of its own.  ``workers`` evaluation
  slots bound how many callers evaluate at once, and callers beyond
  them wait for a slot in arrival order;
* **admission control** — at most ``max_inflight`` queries may be
  waiting for a slot or evaluating.  Beyond that the service sheds
  (:class:`ServiceOverloadedError`, policy ``"reject"``, the default)
  or makes the caller wait to be admitted (policy ``"block"``).  The
  queue depth and in-flight count are published as gauges;
* **graceful shutdown** — :meth:`SearchService.close` stops admission
  and returns once every accepted query has finished.

Updates arrive either through :meth:`SearchService.publish` (hand in a
newer snapshot) or :meth:`SearchService.refresh` (invoke the configured
refresher, e.g. the one :meth:`repro.api.Search.serve` installs, which
runs the session's incremental refresh and hands on the session's own
snapshot); ``start_watch`` runs refresh on a period in a background
thread, which is what ``repro-cli serve --watch`` drives.  The service
builds no snapshot of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs import recorder as obsrec
from repro.service.snapshot import IndexSnapshot, QueryResult

SHED_POLICIES: Tuple[str, ...] = ("reject", "block")


class ServiceOverloadedError(RuntimeError):
    """The in-flight bound is reached and the policy is ``"reject"``."""


class ServiceClosedError(RuntimeError):
    """The service no longer admits queries (shutdown has begun)."""


@dataclass(frozen=True)
class RefreshOutcome:
    """What one service refresh published."""

    generation: int
    change: object = None

    def __str__(self) -> str:
        text = f"published generation {self.generation}"
        if self.change is not None:
            text += f" ({self.change})"
        return text


class SearchService:
    """Serves concurrent callers against the live snapshot.

    ``refresher`` is an optional zero-argument callable that brings the
    index up to date off-line and returns ``(snapshot, change)``: the
    snapshot to serve and a report of what changed.  :meth:`refresh`
    invokes it and publishes the snapshot atomically.
    """

    def __init__(
        self,
        snapshot: IndexSnapshot,
        refresher: Optional[Callable[[], object]] = None,
        workers: int = 2,
        max_inflight: int = 32,
        shed: str = "reject",
        sync=None,
        name: str = "service",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be at least 1, got {max_inflight}"
            )
        if shed not in SHED_POLICIES:
            raise ValueError(
                f"shed must be one of {SHED_POLICIES}, got {shed!r}"
            )
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.name = name
        self.workers = workers
        self.max_inflight = max_inflight
        self.shed = shed
        self._sync = sync
        self._refresher = refresher

        # The swap seam: one lock guards exactly one reference.  Readers
        # hold it for a pointer load, the publisher for a pointer store;
        # query evaluation happens entirely outside it.
        self._snap_lock = sync.lock(f"{name}.snapshot-lock")
        self._snapshot = snapshot

        # Admission state under one lock: the in-flight budget, the
        # evaluation slots and the FIFO of callers waiting for one.  A
        # waiter's turn is a list the releasing caller appends to: True
        # hands it the slot, an exception sheds it.
        self._lock = sync.lock(f"{name}.state-lock")
        self._done = sync.condition(self._lock, f"{name}.done-cond")
        self._queue: Deque[List[object]] = deque()
        self._evaluating = 0
        self._waiting = 0
        self._inflight = 0
        self._closing = False
        self._served = 0
        self._shed_count = 0

        # One refresh at a time.
        self._refresh_lock = sync.lock(f"{name}.refresh-lock")

        self._watch_cond = sync.condition(self._lock, f"{name}.watch-cond")
        self._watch_stop = False
        self._watch_thread = None

        obsrec.metrics().gauge(f"{name}.generation").set(snapshot.generation)

    # -- the read side ----------------------------------------------------

    @property
    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (atomic reference load)."""
        with self._snap_lock:
            self._sync.access(f"{self.name}.snapshot", write=False)
            return self._snapshot

    @property
    def generation(self) -> int:
        return self.snapshot.generation

    def query(
        self,
        query_text: str,
        parallel: bool = False,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        """Admit one query and evaluate it on this thread; typed hits.

        ``rank="bm25"`` asks the snapshot for BM25 top-``topk`` instead
        of the plain boolean match (the result then carries scored
        ``hits``); it needs a ranking-capable snapshot, e.g. one opened
        via :meth:`IndexSnapshot.from_ondisk`.  Raises
        :class:`ServiceOverloadedError` when the in-flight bound is hit
        under the ``"reject"`` policy (or the caller is still waiting
        for a slot at ``close(drain=False)``) and
        :class:`ServiceClosedError` once shutdown has begun.
        """
        if rank not in ("bool", "bm25"):
            raise ValueError(f"rank must be 'bool' or 'bm25', got {rank!r}")
        metrics = obsrec.metrics()
        with self._lock:
            if self._inflight >= self.max_inflight and not self._closing:
                if self.shed == "reject":
                    self._shed_count += 1
                    metrics.counter(f"{self.name}.shed").inc()
                    raise ServiceOverloadedError(
                        f"{self.name}: {self._inflight} queries in flight "
                        f"(bound {self.max_inflight})"
                    )
                # A blocked-then-admitted (or blocked-then-closed) query
                # is never counted as shed: it was never rejected.
                while (
                    self._inflight >= self.max_inflight and not self._closing
                ):
                    self._wait_locked()
            if self._closing:
                raise ServiceClosedError(f"{self.name} is shut down")
            self._inflight += 1
            metrics.counter(f"{self.name}.queries").inc()
            metrics.gauge(f"{self.name}.inflight").set(self._inflight)
            if self._evaluating < self.workers:
                self._evaluating += 1
            else:
                # Every slot is taken: wait in line.  A releasing caller
                # hands its slot straight to the head, so no later
                # arrival can overtake a waiter.
                turn: List[object] = []
                self._queue.append(turn)
                metrics.gauge(f"{self.name}.queue_depth").set(len(self._queue))
                while not turn:
                    self._wait_locked()
                if turn[0] is not True:
                    raise turn[0]
        try:
            snapshot = self.snapshot
            with obsrec.span(
                f"{self.name}.query", generation=snapshot.generation
            ):
                return snapshot.answer(query_text, parallel, rank, topk)
        except BaseException:
            metrics.counter(f"{self.name}.errors").inc()
            raise
        finally:
            with self._lock:
                if self._queue:
                    self._queue.popleft().append(True)
                    metrics.gauge(f"{self.name}.queue_depth").set(
                        len(self._queue)
                    )
                else:
                    self._evaluating -= 1
                self._inflight -= 1
                self._served += 1
                metrics.gauge(f"{self.name}.inflight").set(self._inflight)
                if self._waiting:
                    self._done.notify_all()

    # -- the write side ---------------------------------------------------

    def publish(self, snapshot: IndexSnapshot) -> None:
        """Swap ``snapshot`` in as the one queries load.

        Handed the snapshot already served, it does nothing; any other
        must carry a newer generation (``ValueError`` otherwise), so the
        generation readers see never goes backwards.  The compare and
        the store are one critical section under the snapshot lock.
        """
        with obsrec.span(
            f"{self.name}.publish", generation=snapshot.generation
        ):
            with self._snap_lock:
                self._sync.access(f"{self.name}.snapshot", write=False)
                current = self._snapshot
                if snapshot is current:
                    return
                if snapshot.generation <= current.generation:
                    raise ValueError(
                        f"{self.name}: cannot publish generation "
                        f"{snapshot.generation} over generation "
                        f"{current.generation}"
                    )
                self._sync.access(f"{self.name}.snapshot", write=True)
                self._snapshot = snapshot
                obsrec.metrics().gauge(f"{self.name}.generation").set(
                    snapshot.generation
                )

    def refresh(self) -> RefreshOutcome:
        """Bring the index up to date via the refresher and publish the
        snapshot it returns.

        Runs in the calling thread (or the watch thread); queries keep
        being served from the old snapshot the whole time.
        """
        self._require_refresher()
        with obsrec.span(f"{self.name}.refresh"):
            with self._refresh_lock:
                snapshot, change = self._refresher()
                self.publish(snapshot)
        obsrec.metrics().counter(f"{self.name}.refreshes").inc()
        return RefreshOutcome(generation=snapshot.generation, change=change)

    def start_watch(self, interval_s: float) -> None:
        """Refresh on a period in a background thread until close()."""
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self._require_refresher()
        if self._watch_thread is not None:
            raise RuntimeError(f"{self.name} is already watching")

        def loop() -> None:
            while True:
                with self._lock:
                    if self._watch_stop or self._closing:
                        return
                    # Interruptible sleep: close() notifies this
                    # condition, so shutdown never waits out an interval.
                    self._watch_cond.wait(timeout=interval_s)
                    if self._watch_stop or self._closing:
                        return
                self.refresh()

        self._watch_thread = self._sync.thread(
            loop, name=f"{self.name}-watch"
        )
        self._watch_thread.start()

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Graceful shutdown: stop admission, settle the queue, wait.

        ``drain=True`` (default) lets every accepted query run, those
        still waiting for a slot included.  ``drain=False`` sheds the
        callers still waiting for a slot: each raises
        :class:`ServiceOverloadedError` and is counted on the shed
        counter exactly once; callers already evaluating still complete.
        Either way callers blocked on admission (``shed="block"``) are
        woken and raise :class:`ServiceClosedError` — close never
        leaves a waiter hanging — and close returns only once no
        accepted query is still running.
        """
        metrics = obsrec.metrics()
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._watch_stop = True
            if not drain:
                while self._queue:
                    self._queue.popleft().append(
                        ServiceOverloadedError(
                            f"{self.name}: shed at close(drain=False)"
                        )
                    )
                    self._inflight -= 1
                    self._shed_count += 1
                    metrics.counter(f"{self.name}.shed").inc()
                metrics.gauge(f"{self.name}.queue_depth").set(0)
                metrics.gauge(f"{self.name}.inflight").set(self._inflight)
            self._done.notify_all()
            self._watch_cond.notify_all()
            while self._inflight:
                self._wait_locked()
        if self._watch_thread is not None:
            self._watch_thread.join()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closing

    def __enter__(self) -> "SearchService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> Dict[str, float]:
        """A point-in-time digest of the service counters."""
        with self._lock:
            queued = len(self._queue)
            inflight = self._inflight
            served = self._served
            shed = self._shed_count
        return {
            "service.generation": float(self.generation),
            "service.queue_depth": float(queued),
            "service.inflight": float(inflight),
            "service.served": float(served),
            "service.shed": float(shed),
        }

    # -- internals --------------------------------------------------------

    def _require_refresher(self) -> None:
        if self._refresher is None:
            raise ValueError(
                f"{self.name} serves a fixed snapshot and cannot refresh: "
                "it has no refresher (a Search session opened without "
                "source= has no filesystem to refresh from; pass "
                "Search.open(path, source=directory))"
            )

    def _wait_locked(self) -> None:
        """Wait on the done-condition, counted so that a release only
        notifies when somebody is waiting."""
        self._waiting += 1
        try:
            self._done.wait()
        finally:
            self._waiting -= 1
