"""Immutable index snapshots and typed query results.

A :class:`IndexSnapshot` freezes everything a query needs — the index,
the universe of indexed paths (for ``NOT``), the generation number and
the provenance of the build — behind one object that is never mutated
after construction.  The owner of the index (a
:class:`~repro.api.Search` session) makes a *new* snapshot for every
index change, and :class:`~repro.service.service.SearchService` swaps
one reference to serve it; queries in flight keep the snapshot they
started with, which is the whole snapshot-isolation story.

The index behind a snapshot need not live in memory:
:meth:`IndexSnapshot.from_ondisk` wraps an
:class:`~repro.index.ondisk.MmapPostingsReader` with a
:class:`~repro.query.daat.DaatQueryEngine`, so a service can serve the
same query language straight off an mmap'd RIDX2 file.  An mmap'd file
is immutable by construction, which is snapshot isolation for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Union

from repro.index.inverted import InvertedIndex
from repro.index.multi import MultiIndex
from repro.query.cache import Plan, QueryCache, cache_key
from repro.query.evaluator import QueryEngine
from repro.query.optimizer import optimize
from repro.query.parser import parse_query

AnyIndex = Union[InvertedIndex, MultiIndex]


def universe_of(index: AnyIndex) -> FrozenSet[str]:
    """Every indexed path: asked of an index that knows its documents
    (a manifest's ``live_paths()``), else transposed from the postings."""
    live_paths = getattr(index, "live_paths", None)
    if live_paths is not None:
        return live_paths()
    paths = set()
    replicas = index.replicas if isinstance(index, MultiIndex) else [index]
    for replica in replicas:
        for _term, postings in replica.items():
            paths.update(postings)
    return frozenset(paths)


@dataclass(frozen=True)
class IndexSnapshot:
    """One immutable published state of the index.

    ``generation`` increases by one per index change; ``provenance``
    says where the snapshot came from (``"build"``, ``"refresh"``,
    ``"open"``, ...).  ``report`` optionally carries the
    :class:`~repro.engine.results.BuildReport` that produced the index.
    The snapshot owns its :class:`~repro.query.evaluator.QueryEngine`;
    callers must treat the index as frozen once it is wrapped here.
    ``cache``, when set, memoizes :meth:`answer` for every door that
    asks; it dies with the snapshot (each is made with an empty one of
    its own), so a cached answer never outlives its index.
    """

    index: AnyIndex
    generation: int = 0
    provenance: str = "build"
    universe: Optional[FrozenSet[str]] = None
    report: object = None
    engine: QueryEngine = field(default=None, repr=False, compare=False)
    cache: Optional[QueryCache] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.universe is None:
            object.__setattr__(self, "universe", universe_of(self.index))
        if self.engine is None:
            object.__setattr__(
                self, "engine", QueryEngine(self.index, universe=self.universe)
            )

    @classmethod
    def from_ondisk(
        cls,
        reader,
        generation: int = 0,
        provenance: str = "ondisk",
        statistics=None,
    ) -> "IndexSnapshot":
        """A snapshot served straight off an mmap'd RIDX2 file.

        ``reader`` is an :class:`~repro.index.ondisk.MmapPostingsReader`;
        the snapshot's engine is a DAAT evaluator over its posting
        blocks, so queries never materialize the index, which ranks on
        the collection ``statistics`` of a shard's whole corpus when
        given (:class:`~repro.query.daat.DaatQueryEngine`).  The reader
        doubles as the ``index`` (it speaks ``lookup``/``terms``); the
        universe comes from the file's doc table, giving ``NOT`` the
        same complement the in-memory engine would compute.  It carries
        no cache: a stream that rarely repeats would only pay for one.
        """
        from repro.query.daat import DaatQueryEngine

        return cls(
            index=reader,
            generation=generation,
            provenance=provenance,
            universe=frozenset(reader.doc_paths()),
            engine=DaatQueryEngine(reader, statistics),
        )

    def search(self, query_text: str, parallel: bool = False) -> List[str]:
        """Evaluate ``query_text`` against this snapshot only."""
        return self.engine.search(query_text, parallel=parallel)

    def search_bm25(self, query_text: str, topk: int = 10) -> list:
        """BM25 top-``topk`` against this snapshot; needs a scoring
        engine (the on-disk DAAT path, or any engine exposing
        ``search_bm25``)."""
        if not hasattr(self.engine, "search_bm25"):
            raise ValueError(
                "this snapshot's engine cannot rank; open the index "
                "on-disk (IndexSnapshot.from_ondisk) for BM25"
            )
        return self.engine.search_bm25(query_text, topk=topk)

    def answer(
        self,
        query: Union[str, Plan],
        parallel: bool = False,
        rank: str = "bool",
        topk: int = 10,
    ) -> "QueryResult":
        """One request answered against this snapshot, timed and
        labelled with its generation — the face every serving door
        calls, shared with the broker's
        :class:`~repro.service.sharded.ShardedSnapshot`.  A text is
        parsed once and looked up in :attr:`cache`; a
        :class:`~repro.query.cache.Plan` was looked up by its maker,
        the front end's batcher.  A miss is evaluated and put.  BM25
        hands the engine the text, whose unoptimised terms it scores."""
        started = time.perf_counter()
        cache = self.cache
        value = None
        if isinstance(query, Plan):
            query, parallel, rank, topk, parsed, key = query
        elif cache is not None or rank != "bm25":
            # plan_query's recipe inline: a call and a Plan per request
            # cost Search.query 4 % of its p50.
            parsed = optimize(parse_query(query))
            if cache is not None:
                bm25_topk = topk if rank == "bm25" else None
                key = cache_key(str(parsed), parallel, rank, bm25_topk)
                value = cache.get(key)
        cached = value is not None
        if not cached:
            if rank == "bm25":
                value = self.search_bm25(query, topk)
            else:
                value = self.engine.search_ast(parsed, parallel=parallel)
            if cache is not None:
                cache.put(key, value)
        return self._result(value, started, rank == "bm25", cached)

    def lookup(self, plan: Plan, started: float) -> Optional["QueryResult"]:
        """``plan``'s answer from :attr:`cache` (which must be set),
        labelled ``cached``; None on a miss."""
        value = self.cache.get(plan.key)
        if value is None:
            return None
        return self._result(value, started, plan.rank == "bm25", True)

    def _result(self, value, started, ranked, cached) -> "QueryResult":
        return QueryResult(
            paths=[hit.path for hit in value] if ranked else value,
            generation=self.generation,
            elapsed_s=time.perf_counter() - started,
            cached=cached,
            hits=value if ranked else None,
        )

    def describe(self) -> str:
        return (
            f"generation {self.generation} ({self.provenance}): "
            f"{len(self.universe)} files"
        )


@dataclass(frozen=True)
class QueryResult:
    """What a query returns: the hits plus where and when they came from.

    ``generation`` names the exact snapshot the query was evaluated
    against — concurrent updates never mix into a result, so callers
    can assert every result matches exactly one generation.  Ranked
    queries additionally carry their scored ``hits``
    (:class:`~repro.query.ranking.RankedHit` entries, score-descending);
    ``paths`` then lists the same documents in hit order.

    ``cached`` marks a result served from the snapshot's cache, through
    any door.  ``coalesced`` marks a result delivered by single-flight
    coalescing
    (:class:`~repro.service.frontend.AsyncSearchFrontend`): the paths,
    hits and generation are the leader's evaluation, but ``elapsed_s``
    is this caller's own wait.

    ``shards_ok``/``shards_total`` are the health tuple of a
    scatter-gathered result
    (:class:`~repro.service.sharded.ScatterGatherBroker`): how many
    shards answered out of how many exist.  ``shards_ok <
    shards_total`` marks a *degraded* result — correct over the live
    shards' documents, silent about the dead ones' (``partial=
    "degrade"``).  Both are ``None`` for unsharded results.
    """

    paths: List[str]
    generation: int
    elapsed_s: float = 0.0
    cached: bool = False
    hits: Optional[list] = None
    coalesced: bool = False
    shards_ok: Optional[int] = None
    shards_total: Optional[int] = None

    @property
    def degraded(self) -> bool:
        """True when some shards were dead at evaluation time."""
        return (
            self.shards_ok is not None
            and self.shards_total is not None
            and self.shards_ok < self.shards_total
        )

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __contains__(self, path: str) -> bool:
        return path in self.paths
