"""Query result caching.

Desktop-search users repeat queries (retyping, paging, live-search
keystrokes), and the index between refreshes is immutable — ideal
caching conditions.  :class:`QueryCache` is a from-scratch LRU keyed by
(normalized query, parallel flag, ranking mode, top-K) that a published
:class:`~repro.service.snapshot.IndexSnapshot` owns:
:meth:`~repro.service.snapshot.IndexSnapshot.answer` is the one cached
answer path.  Nothing is ever invalidated — an index change publishes a
new snapshot with an empty cache, and the old cache dies with the old
snapshot.

Normalization runs the query optimizer first, so ``a AND a`` and ``a``
share a cache entry.  The ranking mode and top-K are part of the key
because the same query text produces *different value types* per mode:
a boolean search returns paths, a BM25 search returns scored
:class:`~repro.query.ranking.RankedHit` entries truncated to K — a
cache keyed on the text alone would happily serve one for the other.

Thread safety: a desktop search serves queries from whatever thread the
UI or API happens to be on, so one cache is hammered concurrently.
Every operation — the LRU reorder in :meth:`QueryCache.get`, the
evict-and-insert in :meth:`QueryCache.put`, and the hit/miss tallies —
runs under one lock, which comes from a
:class:`~repro.concurrency.provider.SyncProvider` so the schedule
checker can drive the same cache deterministically.  Results are copied
*in* on put and *out* on get, both under the lock: a caller mutating a
list it got back (or the list it inserted) can never corrupt what a
later hit observes.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.obs import recorder as obsrec
from repro.query.ast import Query
from repro.query.optimizer import optimize
from repro.query.parser import parse_query

#: Cache key: (normalized query, parallel flag, ranking mode, top-K).
#: Boolean lookups use mode ``"bool"`` with ``topk=None``; BM25 lookups
#: use mode ``"bm25"`` with their K, so the two can never collide.  No
#: serving topology is part of it: a sharded broker answers every query
#: exactly as one unsharded engine would (``docs/sharded.md``).
CacheKey = Tuple[str, bool, str, Optional[int]]


def cache_key(
    normalized: str,
    parallel: bool,
    mode: str = "bool",
    topk: Optional[int] = None,
) -> CacheKey:
    """The canonical cache key for one lookup."""
    return (normalized, parallel, mode, topk)


def normalize_query(query_text: str) -> str:
    """The canonical string of the optimized AST.

    This is the normalization every cache-key producer must share —
    the snapshot cache and the serving front end's single-flight map
    both key on it, so ``a AND a`` and ``a`` coalesce everywhere or
    nowhere.  Raises :class:`~repro.query.parser.ParseError` on
    malformed queries.
    """
    return str(optimize(parse_query(query_text)))


class Plan(NamedTuple):
    """A request parsed once: ``answer``'s four arguments, then the
    optimised AST a boolean match evaluates and the cache key."""

    text: str
    parallel: bool
    rank: str
    topk: int
    query: Query
    key: CacheKey


def plan_query(text, parallel=False, rank="bool", topk=10) -> Plan:
    """Parse, optimise and key a request (``topk`` keys BM25 only);
    raises :class:`~repro.query.parser.ParseError` if it is malformed."""
    query = optimize(parse_query(text))
    bm25_topk = topk if rank == "bm25" else None
    key = cache_key(str(query), parallel, rank, bm25_topk)
    return Plan(text, parallel, rank, topk, query, key)


class QueryCache:
    """A fixed-capacity LRU cache of query results (thread-safe)."""

    def __init__(
        self, capacity: int = 128, sync=None, name: str = "query.cache"
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.capacity = capacity
        self.name = name
        self._sync = sync
        self._lock = sync.lock(f"{name}.lock")
        # dict preserves insertion order; recency = reinsertion order.
        self._entries: Dict[CacheKey, list] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[list]:
        """Cached result for ``key`` (refreshing recency), else None.

        The returned list is a copy made under the lock — mutate it
        freely, the cached value is unaffected.
        """
        with self._lock:
            self._sync.access(f"{self.name}.entries")
            if key not in self._entries:
                self.misses += 1
                hit = False
                result = None
            else:
                self.hits += 1
                hit = True
                value = self._entries.pop(key)
                self._entries[key] = value
                result = list(value)
            hit_rate = self._hit_rate_locked()
        self._record(hit, hit_rate)
        return result

    def put(self, key: CacheKey, value: list) -> None:
        """Insert a result, evicting the least recently used if full.

        The value is copied in under the lock, so later caller-side
        mutation of ``value`` cannot change what a future hit returns.
        """
        with self._lock:
            self._sync.access(f"{self.name}.entries")
            if key in self._entries:
                self._entries.pop(key)
            elif len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
            self._entries[key] = list(value)
            size = len(self._entries)
        obsrec.metrics().gauge(f"{self.name}.size").set(size)

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        with self._lock:
            return self._hit_rate_locked()

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _record(self, hit: bool, hit_rate: float) -> None:
        """Publish the lookup to the global metrics registry."""
        metrics = obsrec.metrics()
        metrics.counter(
            f"{self.name}.hits" if hit else f"{self.name}.misses"
        ).inc()
        metrics.gauge(f"{self.name}.hit_rate").set(hit_rate)
