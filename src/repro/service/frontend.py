"""The batched, coalescing query front end.

:class:`~repro.service.service.SearchService` answers one query per
caller thread: each ``query()`` pays its own snapshot pointer load and
its own admission transaction — and two callers asking the *same*
question evaluate it twice.  Under open-loop traffic those per-query
costs dominate the tail.  :class:`AsyncSearchFrontend` is the
serving-side analogue of what the build side got from batching:

* **single-flight coalescing** — duplicate in-flight queries share one
  evaluation.  The key is the request as it was asked,
  :func:`~repro.query.cache.request_of` (query text, ranking mode,
  top-K for BM25 only), the cache's key, so a BM25 query can never
  satisfy a boolean waiter and two texts never share an answer.
  Followers get their *own*
  :class:`~repro.service.snapshot.QueryResult` — same paths/hits/
  generation, their own ``elapsed_s`` (time *they* waited, not the
  leader's evaluation time), and ``coalesced=True``;
* **cache hits at the door** — ``submit()`` asks the published
  snapshot's cache for the request
  (:meth:`~repro.service.snapshot.IndexSnapshot.probe`), the one probe
  a request gets; a hit comes back resolved (``cached=True``): no
  queue, parse or wake-up.  A miss takes its plan to
  ``snapshot.answer``, which puts the answer before the leader leaves
  the single-flight map;
* **batched admission** — ``submit()`` enqueues what the door did not
  answer; the batcher thread takes everything that has arrived, loads
  **one** snapshot pointer, plans it (parse, outside the lock) and then
  registers single-flight and admits the misses in **one** queue
  transaction, instead of a load and a transaction per query (a door
  probe loads its own).  ``batch_window`` > 0 holds the flush
  open briefly so a burst accumulates; 0 flushes as soon as the
  batcher wakes.  Admission control happens at the flush: leaders
  beyond the in-flight budget are shed
  (:class:`~repro.service.service.ServiceOverloadedError`) along with
  their followers, each affected caller counted exactly once;
* **two thread roles** — one batcher, ``workers`` evaluators.  Planning
  is 1–1.5 % of a sojourn and cannot overlap evaluation under the GIL,
  so, like the paper's filename generation, it gets no threads of its
  own (``docs/serving_latency.md``).  Each step is still a span
  (``frontend.plan``/``.evaluate``) and each caller's sojourn
  a ``frontend.query`` span, which the load harness's percentiles read;
* **deterministic shutdown** — :meth:`close` stops intake
  (:class:`~repro.service.service.ServiceClosedError` for late
  submitters), then either drains (default: every accepted ticket
  completes) or sheds the not-yet-admitted remainder
  (``drain=False`` → ``ServiceOverloadedError``).  Either way every
  ticket resolves; nothing hangs and no future is dropped.

Every lock, condition and thread comes from the
:class:`~repro.concurrency.provider.SyncProvider` seam and the shared
state (the coalescing map, the batch queue) is declared via
``sync.access``, so the schedule checker can sweep the coalesce /
flush / swap interleavings exactly like it sweeps the service's
snapshot swap (``tests/test_frontend_concurrency.py``).

The asyncio face is :meth:`AsyncSearchFrontend.query_async`: submission
is non-blocking, resolution is delivered onto the caller's event loop,
so one loop can keep thousands of queries in flight against the
thread-pool back end.  ``repro-cli serve --async`` and
:meth:`repro.api.Search.serve_async` are the front doors.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.obs import recorder as obsrec
from repro.query.cache import (
    CacheKey,
    Plan,
    check_rank,
    plan_query,
    request_of,
)
from repro.service.service import (
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.snapshot import IndexSnapshot, QueryResult


class QueryTicket:
    """One submitted query: resolves to a result or an error.

    Hand-rolled future on the provider seam (so the schedule checker
    can drive waiters deterministically) with an
    :meth:`add_done_callback` hook for the asyncio bridge.
    """

    __slots__ = (
        "text", "rank", "topk", "submitted",
        "plan", "key", "snapshot", "followers", "done", "value", "error",
        "_frontend", "_callbacks",
    )

    def __init__(
        self,
        frontend: "AsyncSearchFrontend",
        text: str,
        rank: str,
        topk: int,
    ) -> None:
        self.text = text
        self.rank = rank
        self.topk = topk
        self.submitted = time.perf_counter()
        self.plan: Optional[Plan] = None
        self.key: CacheKey = request_of(text, rank, topk)
        self.snapshot: Optional[IndexSnapshot] = None
        self.followers: List["QueryTicket"] = []
        self.done = False
        self.value: Optional[QueryResult] = None
        self.error: Optional[BaseException] = None
        self._frontend = frontend
        self._callbacks: List[Callable[["QueryTicket"], None]] = []

    def result(self, timeout: Optional[float] = None) -> QueryResult:
        """Block until resolution; returns the result or raises."""
        frontend = self._frontend
        # One deadline, however often the shared done-condition wakes
        # this waiter for somebody else's ticket.
        deadline = None if timeout is None else time.perf_counter() + timeout
        with frontend._lock:
            while not self.done:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"query {self.text!r} unresolved after "
                            f"{timeout}s"
                        )
                frontend._done.wait(timeout=remaining)
        if self.error is not None:
            raise self.error
        return self.value

    def add_done_callback(
        self, callback: Callable[["QueryTicket"], None]
    ) -> None:
        """Run ``callback(ticket)`` once resolved (immediately if it
        already is).  Called outside the frontend's locks; one that
        raises on a front-end thread is counted on ``callback_errors``."""
        with self._frontend._lock:
            if not self.done:
                self._callbacks.append(callback)
                return
        callback(self)


class AsyncSearchFrontend:
    """Single-flight, batch-admitted serving front end.

    Sits in front of a :class:`~repro.service.service.SearchService`
    and evaluates directly against its published snapshots (one pointer
    load per *batch*, plus one per door probe).  ``workers`` evaluation
    threads plus one batcher thread, which plans what it flushes, come
    from the ``sync`` provider.  ``max_inflight`` bounds admitted,
    unresolved leaders (coalesced followers ride free — that is the
    point); beyond it the flush sheds.  ``own_service=True`` makes
    :meth:`close` also close the wrapped service.
    """

    def __init__(
        self,
        service: SearchService,
        batch_window: float = 0.0,
        workers: int = 2,
        max_inflight: Optional[int] = None,
        own_service: bool = False,
        sync=None,
        name: str = "frontend",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if batch_window < 0:
            raise ValueError(
                f"batch_window must be non-negative, got {batch_window}"
            )
        if max_inflight is None:
            max_inflight = service.max_inflight
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be at least 1, got {max_inflight}"
            )
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.name = name
        self.service = service
        self.batch_window = batch_window
        self.max_inflight = max_inflight
        self._own_service = own_service
        self._sync = sync

        # One lock guards all frontend state; three conditions fan the
        # wakeups out by role (batcher / evaluators / result waiters).
        self._lock = sync.lock(f"{name}.state-lock")
        self._flush = sync.condition(self._lock, f"{name}.flush-cond")
        self._eval_work = sync.condition(self._lock, f"{name}.eval-cond")
        self._done = sync.condition(self._lock, f"{name}.done-cond")

        self._arrivals: List[QueryTicket] = []       # awaiting the batcher
        self._evalq: Deque[QueryTicket] = deque()    # admitted, awaiting eval
        self._inflight_map: Dict[CacheKey, QueryTicket] = {}
        self._inflight = 0            # admitted, unresolved leaders
        self._closing = False
        self._drain_on_close = True
        self._batcher_done = False

        self._submitted = 0
        self._served = 0
        self._coalesced = 0
        self._cached = 0              # answered in submit()
        self._shed = 0
        self._batches = 0
        self._evaluations = 0

        self._threads = [
            sync.thread(self._batcher_loop, name=f"{name}-batcher")
        ] + [
            sync.thread(self._eval_loop, name=f"{name}-eval-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -------------------------------------------------------

    def submit(
        self,
        query_text: str,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryTicket:
        """Enqueue one query; returns immediately with its ticket.

        A request the snapshot's cache holds comes back resolved.
        Raises :class:`~repro.service.service.ServiceClosedError` if
        shutdown has begun.  Parse errors are *not* raised here — they
        travel on the ticket, like any other per-query failure, so a
        bad query in a burst never blocks the submitter.
        """
        check_rank(rank)
        ticket = QueryTicket(self, query_text, rank, topk)
        metrics = obsrec.metrics()
        snapshot = self.service.snapshot
        hit = None
        if snapshot.cache is not None:
            hit = snapshot.probe(ticket.key, ticket.submitted)
        with self._lock:
            if self._closing:
                raise ServiceClosedError(f"{self.name} is shut down")
            self._submitted += 1
            metrics.counter(f"{self.name}.queries").inc()
            if hit is not None:
                ticket.value, ticket.done = hit, True
                self._served += 1
                self._cached += 1
                metrics.counter(f"{self.name}.cached").inc()
                self._record_sojourn(ticket, time.perf_counter())
                return ticket
            self._sync.access(f"{self.name}.batch-queue", write=True)
            self._arrivals.append(ticket)
            self._set_depth_gauge_locked(metrics)
            self._flush.notify()
        return ticket

    def query(
        self, query_text: str, rank: str = "bool", topk: int = 10
    ) -> QueryResult:
        """Submit and wait — the drop-in synchronous convenience."""
        return self.submit(query_text, rank=rank, topk=topk).result()

    async def query_async(
        self, query_text: str, rank: str = "bool", topk: int = 10
    ) -> QueryResult:
        """The asyncio face: await one query without blocking the loop.

        Submission happens inline (it only enqueues); resolution is
        delivered back onto the *calling* event loop, so one loop can
        hold arbitrarily many queries in flight.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[QueryResult]" = loop.create_future()
        ticket = self.submit(query_text, rank=rank, topk=topk)

        def deliver(resolved: QueryTicket) -> None:
            def transfer() -> None:
                if future.cancelled():
                    return
                if resolved.error is not None:
                    future.set_exception(resolved.error)
                else:
                    future.set_result(resolved.value)

            loop.call_soon_threadsafe(transfer)

        ticket.add_done_callback(deliver)
        return await future

    # -- lifecycle --------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop intake, resolve every outstanding ticket, join threads.

        ``drain=True`` (default) admits and completes everything
        already accepted.  ``drain=False`` completes what is admitted
        (mid-batch work) but sheds the not-yet-admitted remainder —
        queued and coalesced waiters then raise
        :class:`~repro.service.service.ServiceOverloadedError`.  Either
        way the outcome set is deterministic: complete or overloaded,
        never a hang, never an unresolved ticket.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._drain_on_close = drain
            self._flush.notify_all()
            self._eval_work.notify_all()
            self._done.notify_all()
        for thread in self._threads:
            thread.join()
        if self._own_service:
            self.service.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closing

    def __enter__(self) -> "AsyncSearchFrontend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> Dict[str, float]:
        """A point-in-time digest of the frontend counters."""
        with self._lock:
            snapshot = {
                "frontend.submitted": float(self._submitted),
                "frontend.served": float(self._served),
                "frontend.coalesced": float(self._coalesced),
                "frontend.cached": float(self._cached),
                "frontend.door_hits": float(self._cached),
                "frontend.shed": float(self._shed),
                "frontend.batches": float(self._batches),
                "frontend.evaluations": float(self._evaluations),
                "frontend.inflight": float(self._inflight),
                "frontend.queue_depth": float(
                    len(self._arrivals) + len(self._evalq)
                ),
            }
        submitted = snapshot["frontend.submitted"]
        snapshot["frontend.shed_rate"] = (
            snapshot["frontend.shed"] / submitted if submitted else 0.0
        )
        return snapshot

    # -- the batcher: plan, coalesce, admit --------------------------------

    def _batcher_loop(self) -> None:
        metrics = obsrec.metrics()
        while True:
            with self._lock:
                while not self._arrivals and not self._closing:
                    self._flush.wait()
                if not self._arrivals:
                    # Closing: submit() accepts nothing more.
                    self._batcher_done = True
                    self._eval_work.notify_all()
                    return
                if self.batch_window > 0 and not self._closing:
                    # Hold the flush open so a burst accumulates into
                    # one admission transaction.
                    self._flush.wait(timeout=self.batch_window)
                self._sync.access(f"{self.name}.batch-queue", write=True)
                arrived, self._arrivals = self._arrivals, []
                shedding = self._closing and not self._drain_on_close
            if shedding:  # the un-admitted remainder goes unparsed
                shed = arrived
            else:
                # One pointer load per batch, then planned outside the
                # lock, on this thread: submitters never wait on a parse.
                snapshot = self.service.snapshot
                for ticket in arrived:
                    ticket.snapshot = snapshot
                shed = self._admit(
                    [ticket for ticket in arrived if self._plan(ticket)],
                    metrics,
                )
            for ticket in shed:
                self._resolve(
                    ticket,
                    error=ServiceOverloadedError(
                        f"{self.name}: not admitted (in-flight bound "
                        f"{self.max_inflight} reached, or closed without "
                        "draining)"
                    ),
                )

    def _plan(self, ticket: QueryTicket) -> bool:
        """Parse one ticket; False for a bad query, which resolves on
        its own ticket and never holds up the rest of the burst."""
        try:
            with obsrec.span(f"{self.name}.plan"):
                ticket.plan = plan_query(ticket.text, ticket.rank, ticket.topk)
        except Exception as exc:  # ParseError etc. → the caller
            self._resolve(ticket, error=exc)
            return False
        return True

    def _admit(self, planned: List[QueryTicket], metrics) -> List[QueryTicket]:
        """Single-flight registration and admission for a whole batch
        in one transaction; returns the leaders to shed.  What fits the
        in-flight budget is admitted against the batch's one snapshot.
        A draining close admits all it accepted; a non-draining one
        that landed during planning sheds all not yet admitted."""
        with self._lock:
            batch: List[QueryTicket] = []
            for ticket in planned:
                self._sync.access(f"{self.name}.inflight-map", write=False)
                leader = self._inflight_map.get(ticket.key)
                if leader is not None:
                    self._sync.access(f"{self.name}.inflight-map", write=True)
                    leader.followers.append(ticket)
                    self._coalesced += 1
                    metrics.counter(f"{self.name}.coalesced").inc()
                    continue
                self._sync.access(f"{self.name}.inflight-map", write=True)
                self._inflight_map[ticket.key] = ticket
                batch.append(ticket)
            if self._closing:
                admit_count = len(batch) if self._drain_on_close else 0
            else:
                admit_count = max(
                    0, min(len(batch), self.max_inflight - self._inflight)
                )
            admitted = batch[:admit_count]
            if admitted:
                self._sync.access(f"{self.name}.batch-queue", write=True)
                self._evalq.extend(admitted)
                self._inflight += len(admitted)
                self._batches += 1
                metrics.counter(f"{self.name}.batches").inc()
                metrics.gauge(f"{self.name}.batch_size").set(len(admitted))
                metrics.gauge(f"{self.name}.inflight").set(self._inflight)
                self._set_depth_gauge_locked(metrics)
                self._eval_work.notify_all()
            return batch[admit_count:]

    # -- the evaluators ----------------------------------------------------

    def _eval_loop(self) -> None:
        metrics = obsrec.metrics()
        while True:
            with self._lock:
                while not self._evalq and not self._batcher_done:
                    self._eval_work.wait()
                if not self._evalq:
                    return  # closed, batcher finished, fully drained
                self._sync.access(f"{self.name}.batch-queue", write=True)
                ticket = self._evalq.popleft()
                self._set_depth_gauge_locked(metrics)
            snapshot = ticket.snapshot
            try:
                with obsrec.span(
                    f"{self.name}.evaluate",
                    generation=snapshot.generation,
                    rank=ticket.rank,
                ):
                    result = snapshot.answer(ticket.plan)
            except BaseException as exc:
                metrics.counter(f"{self.name}.errors").inc()
                self._resolve(ticket, error=exc, admitted=True)
            else:
                self._resolve(ticket, value=result, admitted=True)

    # -- resolution --------------------------------------------------------

    def _resolve(
        self,
        ticket: QueryTicket,
        value: Optional[QueryResult] = None,
        error: Optional[BaseException] = None,
        admitted: bool = False,
    ) -> None:
        """Settle a leader and all its followers, exactly once each.

        A follower's :class:`QueryResult` is its own: same paths, hits
        and generation as the leader's (lists of its own), but
        ``elapsed_s`` measured from the *follower's* submission and
        ``coalesced=True``.  Shed resolution (``error`` without
        ``admitted``) counts each caller on the shed counter exactly
        once — a ticket that passed single-flight and was then rejected
        at batch admission has never been counted before this point.
        """
        now = time.perf_counter()
        metrics = obsrec.metrics()
        callbacks: List[tuple] = []
        with self._lock:
            self._sync.access(f"{self.name}.inflight-map", write=True)
            if self._inflight_map.get(ticket.key) is ticket:
                del self._inflight_map[ticket.key]
            party = [ticket] + ticket.followers
            for waiter in party:
                if waiter.done:  # pragma: no cover - defensive
                    continue
                if error is not None:
                    waiter.error = error
                    if isinstance(error, ServiceOverloadedError):
                        self._shed += 1
                        metrics.counter(f"{self.name}.shed").inc()
                elif waiter is ticket:
                    waiter.value = value
                else:
                    waiter.value = QueryResult(
                        paths=list(value.paths),
                        generation=value.generation,
                        elapsed_s=now - waiter.submitted,
                        hits=None if value.hits is None else list(value.hits),
                        coalesced=True,
                        shards_ok=value.shards_ok,
                        shards_total=value.shards_total,
                    )
                waiter.done = True
                self._served += 1
                callbacks.extend(
                    (callback, waiter) for callback in waiter._callbacks
                )
                waiter._callbacks = []
                self._record_sojourn(waiter, now)
            if admitted:
                self._evaluations += 1
                self._inflight -= 1
                metrics.gauge(f"{self.name}.inflight").set(self._inflight)
            self._done.notify_all()
        # Callbacks run on the batcher or an evaluator: one that raises
        # (a closed event loop, say) must not end the thread.
        for callback, waiter in callbacks:
            try:
                callback(waiter)
            except Exception:
                metrics.counter(f"{self.name}.callback_errors").inc()

    def _record_sojourn(self, waiter: QueryTicket, now: float) -> None:
        """Absorb the caller-visible latency as a ``frontend.query``
        span, which is what the load harness reads percentiles from."""
        recorder = obsrec.get_recorder()
        if not recorder.enabled:
            return
        recorder.record_span(
            f"{self.name}.query",
            start=waiter.submitted,
            duration=now - waiter.submitted,
            rank=waiter.rank,
            coalesced=waiter.value is not None and waiter.value.coalesced,
            shed=isinstance(waiter.error, ServiceOverloadedError),
        )

    def _set_depth_gauge_locked(self, metrics) -> None:
        metrics.gauge(f"{self.name}.queue_depth").set(
            len(self._arrivals) + len(self._evalq)
        )
