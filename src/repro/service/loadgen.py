"""Open-loop load generation and tail-latency measurement.

A *closed-loop* driver (each client waits for its previous answer
before asking again) hides overload: when the server slows down the
clients slow down with it, offered load collapses, and the measured
tail looks rosy — the classic *coordinated omission* trap.  This
module drives the serving stack *open-loop* instead: arrivals follow a
seeded Poisson process at a configured offered rate and every query's
latency is measured from its **scheduled arrival time**, not from
whenever the harness got around to issuing it.  A query that had to
queue behind a saturated pool pays that delay in its own number.

Two drivers share one schedule:

* :meth:`OpenLoopLoadGenerator.run_frontend` — the
  :class:`~repro.service.frontend.AsyncSearchFrontend` path.  Because
  ``submit()`` only enqueues, one dispatcher thread keeps perfect
  arrival times at any offered load; completions arrive by done
  callback;
* :meth:`OpenLoopLoadGenerator.run_service` — the plain
  :class:`~repro.service.service.SearchService` baseline.  ``query()``
  blocks, so a pool of issuer threads pulls arrivals from the shared
  schedule; when the pool is saturated, arrivals go out late and the
  lateness is *counted* (latency is measured from the scheduled time).

Every completion is recorded as a ``loadgen.query`` span on the global
:mod:`repro.obs` recorder (scheduled start, sojourn duration, shed /
coalesced / measured attributes), and :meth:`LoadRunResult` percentiles
are computed back *from those spans* — the same channel the frontend's
own ``frontend.query`` spans ride on.  Arrivals inside the warmup
window are issued but excluded from the percentiles.

The benchmark driver (``benchmarks/test_extension_serving_latency.py``)
sweeps offered load over both drivers and emits
``BENCH_serving_latency.json``; ``examples/serving_latency_smoke.py``
is the CI-sized version.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.obs import recorder as obsrec
from repro.service.frontend import AsyncSearchFrontend, QueryTicket
from repro.service.service import (
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)

SPAN_NAME = "loadgen.query"

_RUN_IDS = itertools.count(1)


@dataclass(frozen=True)
class QuerySpec:
    """One query the workload can issue."""

    text: str
    rank: str = "bool"
    topk: int = 10


@dataclass(frozen=True)
class Arrival:
    """One scheduled arrival: *when* (offset from run start) and *what*."""

    at: float
    spec: QuerySpec


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile with linear interpolation; NaN when empty."""
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


@dataclass
class LoadRunResult:
    """What one open-loop run measured.

    Percentiles cover *measured* completions only (scheduled after the
    warmup window) and include shed queries — a rejection is an answer
    the caller waited for.  ``max_queue_depth`` is the queue-depth
    gauge's high-water mark over the run (requires a fresh metrics
    registry per run to be per-run exact).
    """

    label: str
    offered_qps: float
    duration_s: float
    warmup_s: float
    issued: int = 0
    measured: int = 0
    completed: int = 0
    shed: int = 0
    errors: int = 0
    coalesced: int = 0
    p50_ms: float = float("nan")
    p95_ms: float = float("nan")
    p99_ms: float = float("nan")
    mean_ms: float = float("nan")
    max_ms: float = float("nan")
    shed_rate: float = 0.0
    throughput_qps: float = 0.0
    max_queue_depth: float = 0.0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def require_measured(self, minimum: int = 1) -> "LoadRunResult":
        """Fail loudly when the run measured too few completions.

        An empty latency set turns every percentile NaN;
        ``round(nan)`` then writes literal ``NaN`` tokens into a
        ``BENCH_*.json`` digest — which is not JSON, and silently
        poisons any downstream comparison.  Benchmark and smoke drivers
        call this before serializing so a misconfigured run (warmup
        longer than the duration, a service shedding 100 %, a wedged
        frontend) aborts with a message instead.  Returns ``self`` for
        chaining.
        """
        if self.measured < minimum:
            raise ValueError(
                f"{self.label}: only {self.measured} measured "
                f"completions (need >= {minimum}); issued={self.issued} "
                f"shed={self.shed} errors={self.errors} — percentiles "
                "would be NaN"
            )
        return self

    def to_dict(self) -> Dict[str, float]:
        """The JSON-ready digest (raw samples excluded).

        Latency fields that were never measured (NaN) are emitted as
        ``None`` — JSON's ``null`` — never as a bare ``NaN`` token,
        which ``json.dumps`` would happily produce and no strict parser
        would accept.
        """

        def _ms(value: float, digits: int) -> Optional[float]:
            return None if math.isnan(value) else round(value, digits)

        return {
            "label": self.label,
            "offered_qps": round(self.offered_qps, 3),
            "duration_s": round(self.duration_s, 3),
            "warmup_s": round(self.warmup_s, 3),
            "issued": self.issued,
            "measured": self.measured,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "coalesced": self.coalesced,
            "p50_ms": _ms(self.p50_ms, 4),
            "p95_ms": _ms(self.p95_ms, 4),
            "p99_ms": _ms(self.p99_ms, 4),
            "mean_ms": _ms(self.mean_ms, 4),
            "max_ms": _ms(self.max_ms, 4),
            "shed_rate": round(self.shed_rate, 4),
            "throughput_qps": round(self.throughput_qps, 3),
            "max_queue_depth": self.max_queue_depth,
        }


class _Completion:
    """Mutable per-arrival completion slot filled by the drivers."""

    __slots__ = ("latency_s", "shed", "error", "coalesced", "measured")

    def __init__(self) -> None:
        self.latency_s = float("nan")
        self.shed = False
        self.error = False
        self.coalesced = False
        self.measured = False


class OpenLoopLoadGenerator:
    """A seeded Poisson arrival schedule plus two drivers over it.

    The schedule is generated once in the constructor (exponential
    inter-arrival gaps at ``offered_qps``, query specs sampled
    uniformly from ``specs``), so the frontend run and the baseline run
    replay the *same* arrivals — same times, same texts — and their
    tails are directly comparable.  Workload mix (duplicate fraction,
    rank mix) is controlled by the composition of ``specs``.
    """

    def __init__(
        self,
        specs: Sequence[QuerySpec],
        offered_qps: float,
        duration_s: float,
        warmup_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not specs:
            raise ValueError("need at least one QuerySpec")
        if offered_qps <= 0:
            raise ValueError(f"offered_qps must be positive, got {offered_qps}")
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if not 0 <= warmup_s < duration_s:
            raise ValueError(
                f"warmup_s must be in [0, duration_s), got {warmup_s}"
            )
        self.specs = list(specs)
        self.offered_qps = offered_qps
        self.duration_s = duration_s
        self.warmup_s = warmup_s
        self.seed = seed
        rng = Random(seed)
        arrivals: List[Arrival] = []
        at = rng.expovariate(offered_qps)
        while at < duration_s:
            arrivals.append(Arrival(at=at, spec=rng.choice(self.specs)))
            at += rng.expovariate(offered_qps)
        self.arrivals = arrivals

    # -- drivers -----------------------------------------------------------

    def run_frontend(
        self,
        frontend: AsyncSearchFrontend,
        label: str = "frontend",
        depth_gauge: Optional[str] = None,
    ) -> LoadRunResult:
        """Drive the frontend open-loop; submission never blocks."""
        run_id = next(_RUN_IDS)
        slots = [_Completion() for _ in self.arrivals]
        outstanding = len(slots)
        lock = threading.Lock()
        all_done = threading.Event()
        if not slots:
            all_done.set()
        origin = time.perf_counter()

        def finish(index: int, due: float, ticket: QueryTicket) -> None:
            nonlocal outstanding
            self._complete(
                label, run_id, slots[index], self.arrivals[index], due,
                error=ticket.error,
                coalesced=(
                    ticket.value is not None and ticket.value.coalesced
                ),
            )
            with lock:
                outstanding -= 1
                if outstanding == 0:
                    all_done.set()

        for index, arrival in enumerate(self.arrivals):
            due = origin + arrival.at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            spec = arrival.spec
            try:
                ticket = frontend.submit(
                    spec.text, rank=spec.rank, topk=spec.topk
                )
            except (ServiceClosedError, ServiceOverloadedError) as exc:
                self._complete(
                    label, run_id, slots[index], arrival, due,
                    error=exc, coalesced=False,
                )
                with lock:
                    outstanding -= 1
                    if outstanding == 0:
                        all_done.set()
                continue
            ticket.add_done_callback(
                lambda resolved, index=index, due=due: finish(
                    index, due, resolved
                )
            )
        # Every accepted ticket resolves (close() guarantees it), so
        # this only times out if the frontend itself is wedged.
        if not all_done.wait(timeout=max(60.0, 10 * self.duration_s)):
            raise TimeoutError(
                f"{label}: load run did not drain; frontend wedged?"
            )
        return self._summarize(
            label, slots, origin,
            depth_gauge or f"{frontend.name}.queue_depth",
        )

    def run_service(
        self,
        service: SearchService,
        workers: int = 8,
        label: str = "service",
        depth_gauge: Optional[str] = None,
    ) -> LoadRunResult:
        """Drive a plain service with a pool of blocking issuers.

        ``workers`` bounds issue concurrency; beyond it arrivals go out
        late and the lateness lands in their measured latency — the
        open-loop accounting, not a flattering closed-loop one.
        """
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        run_id = next(_RUN_IDS)
        slots = [_Completion() for _ in self.arrivals]
        cursor = itertools.count()
        origin = time.perf_counter()

        def issuer() -> None:
            while True:
                index = next(cursor)
                if index >= len(self.arrivals):
                    return
                arrival = self.arrivals[index]
                due = origin + arrival.at
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                spec = arrival.spec
                error: Optional[BaseException] = None
                try:
                    service.query(spec.text, rank=spec.rank, topk=spec.topk)
                except Exception as exc:
                    error = exc
                self._complete(
                    label, run_id, slots[index], arrival, due,
                    error=error, coalesced=False,
                )

        threads = [
            threading.Thread(
                target=issuer, name=f"loadgen-{label}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self._summarize(
            label, slots, origin, depth_gauge or f"{service.name}.queue_depth"
        )

    # -- accounting --------------------------------------------------------

    def _complete(
        self,
        label: str,
        run_id: int,
        slot: _Completion,
        arrival: Arrival,
        due: float,
        error: Optional[BaseException],
        coalesced: bool,
    ) -> None:
        now = time.perf_counter()
        slot.latency_s = now - due
        slot.shed = isinstance(error, ServiceOverloadedError)
        slot.error = error is not None and not slot.shed
        slot.coalesced = coalesced
        slot.measured = arrival.at >= self.warmup_s
        recorder = obsrec.get_recorder()
        if recorder.enabled:
            recorder.record_span(
                SPAN_NAME,
                start=due,
                duration=slot.latency_s,
                label=label,
                run_id=run_id,
                measured=slot.measured,
                shed=slot.shed,
                error=slot.error,
                coalesced=slot.coalesced,
                rank=arrival.spec.rank,
            )

    def _summarize(
        self,
        label: str,
        slots: List[_Completion],
        origin: float,
        depth_gauge: str,
    ) -> LoadRunResult:
        elapsed = time.perf_counter() - origin
        result = LoadRunResult(
            label=label,
            offered_qps=self.offered_qps,
            duration_s=self.duration_s,
            warmup_s=self.warmup_s,
            issued=len(slots),
        )
        latencies: List[float] = []
        for slot in slots:
            if slot.shed:
                result.shed += 1
            elif slot.error:
                result.errors += 1
            else:
                result.completed += 1
            if slot.coalesced:
                result.coalesced += 1
            if slot.measured and not math.isnan(slot.latency_s):
                result.measured += 1
                latencies.append(slot.latency_s * 1000.0)
        result.latencies_ms = latencies
        if latencies:
            result.p50_ms = percentile(latencies, 50)
            result.p95_ms = percentile(latencies, 95)
            result.p99_ms = percentile(latencies, 99)
            result.mean_ms = sum(latencies) / len(latencies)
            result.max_ms = max(latencies)
        if result.issued:
            result.shed_rate = result.shed / result.issued
        if elapsed > 0:
            result.throughput_qps = result.completed / elapsed
        gauge = obsrec.metrics().get(depth_gauge)
        if gauge is not None and hasattr(gauge, "max"):
            result.max_queue_depth = gauge.max
        return result


def format_ms(value: float) -> str:
    """A latency for a human footer: ``"n/a"`` when nothing was
    measured, never the string ``"nan"``."""
    return "n/a" if math.isnan(value) else f"{value:.2f}"


def summarize_spans(
    spans, label: Optional[str] = None, run_id: Optional[int] = None
) -> Dict[str, float]:
    """Percentiles recomputed from recorded ``loadgen.query`` spans.

    The cross-check channel: the drivers return a
    :class:`LoadRunResult` from their own slots, and this reads the
    *spans* back from an :class:`~repro.obs.recorder.Recorder` and must
    agree.  Only measured (post-warmup) spans count.
    """
    durations = [
        span.duration * 1000.0
        for span in spans
        if span.name == SPAN_NAME
        and span.attrs.get("measured")
        and (label is None or span.attrs.get("label") == label)
        and (run_id is None or span.attrs.get("run_id") == run_id)
    ]
    return {
        "count": float(len(durations)),
        "p50_ms": percentile(durations, 50),
        "p95_ms": percentile(durations, 95),
        "p99_ms": percentile(durations, 99),
    }
