"""A small thread-safe metrics registry: counters, gauges, histograms.

The registry is the numeric half of the observability layer: while
spans answer "when did stage X run", metrics answer "how many / how
fast" — files per second, buffer depths, batch retries, cache hit
rates.  Everything is dependency-free plain Python with one lock per
instrument and one per registry, taken only to create an instrument;
snapshots flatten to a ``Dict[str, float]`` so they can
ride on :attr:`repro.engine.results.BuildReport.metrics` or be printed
by ``--stats``.

Histograms use fixed buckets (powers of two by default) so percentile
estimation needs no per-sample storage — the same design Prometheus
uses, which keeps `observe` O(#buckets) and merge-friendly.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# Default histogram buckets: 20 powers of two starting at 1.  Suits the
# layer's native quantities (queue depths, file sizes in KB, ms
# latencies) without per-metric tuning.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(2.0 ** e for e in range(20))


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (queue depth, pool size)."""

    __slots__ = ("name", "_value", "_max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._max = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            if self._value > self._max:
                self._max = self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        """High-water mark since creation."""
        with self._lock:
            return self._max


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    ``buckets`` are the *upper* bounds of each bucket; observations
    above the last bound land in an implicit +Inf bucket.  Percentiles
    are estimated as the upper bound of the bucket containing the
    requested rank — exact enough for queue depths and latencies, with
    O(#buckets) memory regardless of sample count.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_lock")

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the ``p``-th percentile.

        ``p`` in [0, 100].  Returns 0.0 with no observations; the last
        finite bound for samples in the +Inf bucket.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._count:
                return 0.0
            rank = p / 100.0 * self._count
            seen = 0
            for index, count in enumerate(self._counts):
                seen += count
                if seen >= rank and count:
                    if index < len(self.buckets):
                        return self.buckets[index]
                    return self.buckets[-1]
            return self.buckets[-1]


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    ``counter``/``gauge``/``histogram`` create-or-return, so
    instrumentation sites need no registration step.  Returning an
    existing instrument is one dict read; only creation takes the
    registry lock.  A name may hold only one kind of instrument; mixing
    kinds raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    def _get_or_create(self, name: str, kind, *args):
        # An instrument, once registered, is never replaced, and a dict
        # read is atomic: the common case takes no lock.
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = kind(name, threading.Lock(), *args)
                    self._instruments[name] = instrument
                    return instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> Dict[str, float]:
        """Every instrument flattened to ``name -> float`` pairs.

        Counters and gauges export their value (gauges additionally a
        ``.max`` high-water mark); histograms export ``.count``,
        ``.mean``, ``.p50``, ``.p95`` and ``.p99``.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        flat: Dict[str, float] = {}
        for name, instrument in sorted(instruments):
            if isinstance(instrument, Counter):
                flat[name] = instrument.value
            elif isinstance(instrument, Gauge):
                flat[name] = instrument.value
                flat[f"{name}.max"] = instrument.max
            elif isinstance(instrument, Histogram):
                flat[f"{name}.count"] = float(instrument.count)
                flat[f"{name}.mean"] = instrument.mean
                flat[f"{name}.p50"] = instrument.percentile(50)
                flat[f"{name}.p95"] = instrument.percentile(95)
                flat[f"{name}.p99"] = instrument.percentile(99)
        return flat

    def merge_counts(self, pairs: Iterable[Tuple[str, float]]) -> None:
        """Fold external ``(counter name, amount)`` pairs in (used for
        counts shipped back from worker processes)."""
        for name, amount in pairs:
            self.counter(name).inc(amount)
