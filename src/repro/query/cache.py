"""Query result caching.

Desktop-search users repeat queries (retyping, paging, live-search
keystrokes), and the index between refreshes is immutable — ideal
caching conditions.  :class:`QueryCache` is a from-scratch LRU keyed by
(normalized query, ranking mode, top-K) that a published
:class:`~repro.service.snapshot.IndexSnapshot` owns:
:meth:`~repro.service.snapshot.IndexSnapshot.answer` is the one cached
answer path.  Nothing is ever invalidated — an index change publishes a
new snapshot with an empty cache, and the old cache dies with the old
snapshot.

Normalization runs the query optimizer first, so ``a AND a`` and ``a``
share a cache entry.  A BM25 key also names what it scores: the
optimised AST decides the match set, but the *un*optimised parse's
terms decide the score, so a text whose optimiser dropped a scored
term (``a AND (a OR b)`` is matched as ``a`` but scores ``b`` too)
keys apart (:func:`request_key`).  The ranking mode and top-K are part
of the key because the same query text produces *different value
types* per mode: a boolean search returns paths, a BM25 search returns
scored :class:`~repro.query.ranking.RankedHit` entries truncated to K —
a cache keyed on the text alone would happily serve one for the other.

Beside its entries the cache keeps *aliases*, an LRU of at most
``capacity`` requests as asked, ``(text, mode, top-K)``, each mapped to
its key; :meth:`QueryCache.recall` answers a repeat by text, unparsed
(the serving front end's door).  An alias moves to the recent end each
time its request meets its entry (a hit, or a put that names it).

Thread safety: a desktop search serves queries from whatever thread the
UI or API happens to be on, so one cache is hammered concurrently.
Every operation — the LRU reorder in :meth:`QueryCache.get`, the
evict-and-insert in :meth:`QueryCache.put`, the hit/miss tallies
and the alias map beside them — runs under one lock, which comes from a
:class:`~repro.concurrency.provider.SyncProvider` so the schedule
checker can drive the same cache deterministically.  Results are copied
*in* on put and *out* on get, both under the lock: a caller mutating a
list it got back (or the list it inserted) can never corrupt what a
later hit observes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.obs import recorder as obsrec
from repro.query.ast import And, Not, Or, Prefix, Query, Term
from repro.query.optimizer import optimize
from repro.query.parser import parse_query

#: Cache key: (normalized query, ranking mode, top-K).  Boolean lookups
#: use mode ``"bool"`` with ``topk=None``; BM25 lookups use mode
#: ``"bm25"`` with their K, so the two can never collide.  No serving
#: topology is part of it: a sharded broker answers every query exactly
#: as one unsharded engine would (``docs/sharded.md``), and no session,
#: snapshot or shard holds unjoined replicas to fan a lookup out over.
CacheKey = Tuple[str, str, Optional[int]]

#: A request as asked: (query text, ranking mode, top-K for BM25 only).
Request = Tuple[str, str, Optional[int]]


def cache_key(
    normalized: str, mode: str = "bool", topk: Optional[int] = None
) -> CacheKey:
    """The canonical cache key for one lookup."""
    return (normalized, mode, topk)


def normalize_query(query_text: str) -> str:
    """The canonical string of the optimized AST.

    This is the text of every boolean key (:func:`request_key`) —
    the snapshot cache and the serving front end's single-flight map
    both key on it, so ``a AND a`` and ``a`` coalesce everywhere or
    nowhere.  Raises :class:`~repro.query.parser.ParseError` on
    malformed queries.
    """
    return str(optimize(parse_query(query_text)))


def _scored(query: Query) -> FrozenSet[str]:
    """What BM25 scores over ``query``: its terms, and its prefixes
    unexpanded (``b*``); a snapshot's dictionary never changes under
    its cache."""
    if isinstance(query, Term):
        return frozenset((query.value,))
    if isinstance(query, Prefix):
        return frozenset((str(query),))
    if isinstance(query, Not):
        return _scored(query.operand)
    if isinstance(query, (And, Or)):
        return frozenset().union(*map(_scored, query.operands))
    return frozenset()


def request_key(
    parsed: Query, query: Query, rank: str, topk: int
) -> CacheKey:
    """The key of a request parsed to ``parsed`` and optimised to
    ``query``: its text is the optimised AST, which decides the match
    set.  A BM25 key adds ``" | "`` and the parse's sorted scoring
    terms whenever the optimised AST does not name exactly those (no
    AST's text holds ``|``), so two texts that match alike but score
    apart never share an answer; only BM25 keys on ``topk``."""
    if rank != "bm25":
        return cache_key(str(query), rank)
    scored = _scored(parsed)
    if scored == _scored(query):
        return cache_key(str(query), rank, topk)
    return cache_key(f"{query} | {' '.join(sorted(scored))}", rank, topk)


class Plan(NamedTuple):
    """A request parsed once: ``answer``'s three arguments, then the
    optimised AST a boolean match evaluates and the cache key."""

    text: str
    rank: str
    topk: int
    query: Query
    key: CacheKey


def plan_query(text, rank="bool", topk=10) -> Plan:
    """Parse, optimise and key a request (``topk`` keys BM25 only);
    raises :class:`~repro.query.parser.ParseError` if it is malformed."""
    parsed = parse_query(text)
    query = optimize(parsed)
    key = request_key(parsed, query, rank, topk)
    return Plan(text, rank, topk, query, key)


def request_of(text: str, rank: str = "bool", topk: int = 10) -> Request:
    """The :data:`Request` of one ask (``topk`` keys BM25 only)."""
    return (text, rank, topk if rank == "bm25" else None)


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
        self._aliases: Dict[Request, CacheKey] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey, request=None) -> Optional[list]:
        """Cached result for ``key`` (refreshing recency), else None.

        The returned list is a copy made under the lock — mutate it
        freely, the cached value is unaffected.  A hit aliases
        ``request``, when given, to ``key``.
        """
        with self._lock:
            result = self._take_locked(key, request)
            if result is None:
                self.misses += 1
            hit_rate = self._hit_rate_locked()
        self._record(result is not None, hit_rate)
        return result

    def recall(self, request: Request) -> Optional[list]:
        """Cached result for ``request`` by its alias, else None; a
        probe that finds no live alias counts nothing (the lookup by
        key that follows counts the request)."""
        with self._lock:
            self._sync.access(f"{self.name}.aliases", write=False)
            key = self._aliases.get(request)
            result = None if key is None else self._take_locked(key, request)
            hit_rate = self._hit_rate_locked()
        if result is not None:
            self._record(True, hit_rate)
        return result

    def put(self, key: CacheKey, value: list, request=None) -> None:
        """Insert a result, evicting the least recently used if full,
        and alias ``request``, when given, to ``key``.

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
            if request is not None:
                self._alias_locked(request, key)
            size = len(self._entries)
        obsrec.metrics().gauge(f"{self.name}.size").set(size)

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        with self._lock:
            return self._hit_rate_locked()

    def _take_locked(self, key: CacheKey, request) -> Optional[list]:
        """A copy of ``key``'s value, counted as a hit, moved to the
        recent end and aliased by ``request``; None, uncounted, when
        the cache has no entry for ``key``."""
        self._sync.access(f"{self.name}.entries")
        value = self._entries.pop(key, None)
        if value is None:
            return None
        self.hits += 1
        self._entries[key] = value
        if request is not None:
            self._alias_locked(request, key)
        return list(value)

    def _alias_locked(self, request: Request, key: CacheKey) -> None:
        """Alias ``request`` at the recent end, evicting the least
        recent alias past capacity."""
        self._sync.access(f"{self.name}.aliases")
        aliases = self._aliases
        if aliases.pop(request, None) is None and len(aliases) >= self.capacity:
            del aliases[next(iter(aliases))]
        aliases[request] = key

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
