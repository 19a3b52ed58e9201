"""Document-partitioned sharded serving: the scatter-gather broker.

The "millions of users" architecture from *Design of a Parallel and
Distributed Web Search Engine*: the corpus is partitioned **by
document** across N shards, each shard runs today's
:class:`~repro.service.service.SearchService` over its *own*
:class:`~repro.service.snapshot.IndexSnapshot` (in-memory, or RIDX2
served off mmap in a separate OS process —
:mod:`repro.service.shardproc`), and a :class:`ScatterGatherBroker`
fans each query out to every shard, gathers the per-shard answers and
merges them into one result.

Merging — the scoring contract
------------------------------

* **Boolean** queries merge by *sorted set-union*.  Because evaluation
  is per-document and the shard universes are disjoint, every operator
  the query language has — ``AND``/``OR``/``NOT``/wildcards — commutes
  with document partitioning: a shard evaluates ``NOT t`` against its
  own universe, and the union over shards equals the global complement.
  The merged result is therefore **byte-identical** to the unsharded
  engine's (the differential gate in ``tests/test_sharded_service.py``
  asserts exactly this).
* **BM25** top-K merges by a global heap-merge of the per-shard top-K
  lists under the tie-break ``(score desc, path asc)`` — the same
  ordering both the in-memory ranker and the on-disk DAAT scorer
  already guarantee.  Every shard scores with the statistics of the
  **whole collection** — ``N``, ``avgdl`` and each term's ``df`` from
  the one :class:`~repro.query.ranking.FrequencyIndex` the builder is
  given — the global-statistics broker of Orlando, Perego and
  Silvestri.  A document's score therefore does not depend on the
  shard it landed on, each shard's top-K holds every one of its
  documents the global top-K holds, and the merged top-K **is** the
  unsharded top-K: paths and float scores, compared with ``==``.

Partial results — dead shards
-----------------------------

Each shard may run R replicas; a query walks the shard's replicas from
a rotating cursor and fails over on death (the serving analogue of the
process-pool recovery ladder in :mod:`repro.engine.procbackend`:
retry-on-another-replica, then degrade, then fail).  When a whole
shard is dead the broker's ``partial`` policy decides:

* ``partial="degrade"`` (default): answer from the live shards and
  mark the result with the health tuple
  ``QueryResult.shards_ok/shards_total`` (``shards_ok < shards_total``
  ⇒ ``result.degraded``).  A degraded result is *correct over the live
  shards' documents* and silent about the dead ones'.
* ``partial="fail"``: raise :class:`ShardDeadError` — a typed error,
  never a hang — as soon as any shard cannot answer.

Either way every in-flight query terminates: local replicas settle
their queues on kill, process replicas are detected by liveness checks
and bounded waits.

The broker wears the service's face (``query``/``snapshot``/``stats``/
``close``/``max_inflight``) and is its own snapshot (``answer``), so
the serving pieces compose unchanged: the open-loop load generator
drives it directly, and
:class:`~repro.service.frontend.AsyncSearchFrontend` seats on top so
single-flight coalescing happens *before* fan-out (one popular query
costs one scatter, not one per duplicate).  Admission control stays
per-shard — each replica's ``SearchService`` keeps its own
``max_inflight`` budget — exactly the paper's broker/worker split.

Front doors: :meth:`repro.api.Search.serve_sharded` and ``repro-cli
serve --shards N``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import defaultdict
from contextlib import ExitStack
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingsList
from repro.obs import recorder as obsrec
from repro.query.cache import Plan, check_rank
from repro.query.evaluator import QueryEngine
from repro.query.ranking import BM25Ranker, FrequencyIndex
from repro.query.ranking import search_bm25 as _ranked_search_bm25
from repro.service.service import (
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.snapshot import IndexSnapshot, QueryResult

#: Broker behaviour when a shard cannot answer.
PARTIAL_POLICIES: Tuple[str, ...] = ("fail", "degrade")


class ShardDeadError(RuntimeError):
    """A shard (all of its replicas) cannot answer.

    Raised per-shard inside the scatter, and from the broker itself
    when the ``partial="fail"`` policy forbids a degraded answer or no
    shard at all is left alive.
    """


# -- partitioning ---------------------------------------------------------


def partition_paths(paths: Iterable[str], shards: int) -> List[List[str]]:
    """Deal documents to ``shards`` buckets like cards: bucket ``i`` is
    ``sorted(paths)[i::shards]``.

    The paper's stage-1 rule (round-robin, which it measured fastest
    and kept over size-balanced and shared-queue distribution).  Paths
    are sorted first so the partition is a pure function of the
    document set, not of traversal order — the differential gate
    depends on that reproducibility.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    ordered = sorted(paths)
    return [ordered[i::shards] for i in range(shards)]


class RankedQueryEngine(QueryEngine):
    """A boolean engine plus a BM25 ranker over the same documents.

    Gives an *in-memory* shard snapshot the ``search_bm25`` face the
    on-disk DAAT engine has, scoring with the collection's
    :class:`~repro.query.ranking.FrequencyIndex`, per the scoring
    contract above.
    """

    def __init__(self, index, universe=None, frequencies=None) -> None:
        if frequencies is None:
            raise ValueError("RankedQueryEngine needs a FrequencyIndex")
        super().__init__(index, universe=universe)
        self.ranker = BM25Ranker(frequencies)

    def search_bm25(self, query_text: str, topk: int = 10) -> list:
        return _ranked_search_bm25(self, self.ranker, query_text, topk=topk)


def shard_snapshots(
    index: InvertedIndex,
    universe: Iterable[str],
    shards: int,
    frequencies: Optional[FrequencyIndex] = None,
    generation: int = 0,
) -> List[IndexSnapshot]:
    """Split one flat index into per-shard in-memory snapshots.

    One walk of ``index`` cuts every shard: each posting goes to the
    shard its path was dealt to (:func:`partition_paths`), in the
    order the term lists it, and a path outside ``universe`` goes
    nowhere.  Each shard also gets its slice of the universe (so
    per-shard ``NOT`` complements compose to the global one).  With
    ``frequencies``, each shard also gets a :class:`RankedQueryEngine`
    over that whole-collection sidecar, enabling sharded BM25.
    """
    parts = partition_paths(universe, shards)
    owner = {path: shard for shard, part in enumerate(parts) for path in part}
    cuts = [defaultdict(PostingsList) for _ in parts]
    for term, postings in index.items():
        for path in postings:
            shard = owner.get(path)
            if shard is not None:
                cuts[shard][term].append(path)
    snapshots = []
    for part, cut in zip(parts, cuts):
        keep: FrozenSet[str] = frozenset(part)
        sub = InvertedIndex.from_postings(cut)
        engine = None
        if frequencies is not None:
            engine = RankedQueryEngine(
                sub, universe=keep, frequencies=frequencies
            )
        snapshots.append(
            IndexSnapshot(
                index=sub,
                generation=generation,
                provenance="shard",
                universe=keep,
                engine=engine,
            )
        )
    return snapshots


# -- shard replicas and groups --------------------------------------------


class LocalShardReplica:
    """One in-process shard replica: a ``SearchService`` over its
    snapshot.

    The cheapest shard backend — threads in this process — and the one
    the deterministic schedule checker can sweep.  :meth:`kill` is the
    fault-injection hook: it marks the replica dead and settles the
    service without draining, so queries queued behind the crash get a
    typed error, executing ones finish, and nothing ever hangs.
    """

    kind = "local"

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        snapshot: IndexSnapshot,
        workers: int = 1,
        max_inflight: int = 32,
        sync=None,
    ) -> None:
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.name = f"shard{shard_id}.replica{replica_id}"
        self._sync = sync
        self._lock = sync.lock(f"{self.name}.dead-lock")
        self._dead = False
        self.service = SearchService(
            snapshot,
            workers=workers,
            max_inflight=max_inflight,
            sync=sync,
            name=self.name,
        )
        self.max_inflight = max_inflight

    @property
    def alive(self) -> bool:
        with self._lock:
            return not self._dead

    def query(
        self,
        query_text: str,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        if not self.alive:
            raise ShardDeadError(f"{self.name} is dead")
        try:
            return self.service.query(query_text, rank=rank, topk=topk)
        except ServiceClosedError as exc:
            # The service closed under us: from the broker's seat that
            # is a dead replica, not a client error.
            raise ShardDeadError(f"{self.name} is closed") from exc
        except ServiceOverloadedError:
            if not self.alive:
                # Shed by kill()'s drain=False settle, not by load.
                raise ShardDeadError(f"{self.name} died mid-query")
            raise

    def kill(self) -> None:
        """Fault injection: this replica stops answering, immediately."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
        self.service.close(drain=False)

    def close(self) -> None:
        self.service.close()


class ShardGroup:
    """One shard's replica set plus the failover ladder.

    A query walks the replicas from a rotating cursor (spreading load
    across replicas — the throughput point of R > 1): a dead replica
    is skipped and the next one tried (the procbackend ladder's
    "retry" rung); a replica that sheds for *load* is also retried on
    the next replica, and the overload only propagates if every live
    replica sheds.  Only when no replica can answer does the group
    raise :class:`ShardDeadError`, and the broker's ``partial`` policy
    takes over (the ladder's "degrade" rung).
    """

    def __init__(
        self, shard_id: int, replicas: Sequence, sync=None, name: str = "broker"
    ) -> None:
        if not replicas:
            raise ValueError(f"shard {shard_id} needs at least one replica")
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self._lock = sync.lock(f"{name}.shard{shard_id}.cursor-lock")
        self._cursor = 0

    def _rotation(self) -> List:
        with self._lock:
            start = self._cursor
            self._cursor = (self._cursor + 1) % len(self.replicas)
        count = len(self.replicas)
        return [self.replicas[(start + i) % count] for i in range(count)]

    @property
    def alive(self) -> bool:
        return any(replica.alive for replica in self.replicas)

    def query(
        self,
        query_text: str,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        metrics = obsrec.metrics()
        last_overload: Optional[ServiceOverloadedError] = None
        with obsrec.span("shard.query", shard=self.shard_id, rank=rank):
            for replica in self._rotation():
                if not replica.alive:
                    continue
                try:
                    return replica.query(query_text, rank=rank, topk=topk)
                except ShardDeadError:
                    metrics.counter("broker.failovers").inc()
                    continue
                except ServiceOverloadedError as exc:
                    last_overload = exc
                    continue
        if last_overload is not None:
            raise last_overload
        raise ShardDeadError(
            f"shard {self.shard_id}: all {len(self.replicas)} replicas dead"
        )

    def kill(self) -> None:
        for replica in self.replicas:
            replica.kill()

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()


# -- the broker -----------------------------------------------------------


class ScatterGatherBroker:
    """N shard groups behind one service-shaped face.

    ``query``/``snapshot``/``stats``/``close`` mirror
    :class:`~repro.service.service.SearchService`, so every existing
    consumer — the open-loop load generator, the async frontend, the
    CLI serve loop — drives a broker exactly like a single service.
    ``max_inflight`` defaults to the *weakest* shard's total replica
    budget: every query touches every shard, so global concurrency is
    bounded by the smallest shard's capacity.

    The broker is also its own snapshot: :attr:`snapshot` returns the
    broker, which wears the snapshot face (``generation``, ``cache``,
    :meth:`answer`), so
    :class:`~repro.service.frontend.AsyncSearchFrontend` seats on a
    broker with no changes to its batch/eval machinery — it loads one
    snapshot per batch and asks it for the answer, and here answering
    is the scatter-gather.  The shard set is fixed at construction;
    *health* is read live from the shard groups at query time, so a
    query after a shard died answers — degraded or failing per
    ``partial`` — without a republish.  ``cache`` is None: a degraded
    answer must not outlive the shard's death.

    Spans: each query records ``<name>.query`` wrapping one
    ``<name>.scatter`` (fan-out) and one ``<name>.gather``
    (join + merge), with per-shard ``shard.query`` spans inside the
    scatter.  Gauges ``<name>.shards_ok``/``<name>.shards_total``
    publish topology health; counters count served, degraded, shed
    and failed queries plus replica failovers.
    """

    cache = None

    def __init__(
        self,
        groups: Sequence[ShardGroup],
        partial: str = "degrade",
        max_inflight: Optional[int] = None,
        sync=None,
        name: str = "broker",
        generation: int = 0,
    ) -> None:
        if not groups:
            raise ValueError("a broker needs at least one shard group")
        if partial not in PARTIAL_POLICIES:
            raise ValueError(
                f"partial must be one of {PARTIAL_POLICIES}, got {partial!r}"
            )
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.name = name
        self.partial = partial
        self.groups = list(groups)
        self.generation = generation
        self._sync = sync
        if max_inflight is None:
            max_inflight = min(
                sum(replica.max_inflight for replica in group.replicas)
                for group in self.groups
            )
        self.max_inflight = max_inflight
        self._lock = sync.lock(f"{name}.stats-lock")
        self._closing = False
        # What the broker releases on close, after its replicas: the
        # shard files a process backend wrote.
        self.resources = ExitStack()
        self._served = 0
        self._degraded = 0
        self._shed = 0
        self._failed = 0
        self._refresh_health_gauges()

    # -- the snapshot face -------------------------------------------------

    @property
    def snapshot(self) -> "ScatterGatherBroker":
        """The broker itself (one pointer load, like a service's)."""
        return self

    @property
    def shards_total(self) -> int:
        return len(self.groups)

    def shards_ok(self) -> int:
        return sum(1 for group in self.groups if group.alive)

    def _scatter(self, query_text: str, rank: str, topk: int):
        """Fan the request out to every shard; gather and classify.

        Returns ``(per_shard_results, shards_ok)`` over the shards
        that answered.  :class:`ShardDeadError` from a shard is
        absorbed per the ``partial`` policy; any *other* error
        (overload with every replica saturated, a parse error — which
        every shard would raise identically) is re-raised: those are
        per-query failures, not topology damage, and masking them as
        "partial" would lie about the data.
        """
        groups = self.groups
        results: List[Optional[QueryResult]] = [None] * len(groups)
        errors: List[Optional[BaseException]] = [None] * len(groups)

        def run(i: int, group: ShardGroup) -> None:
            try:
                results[i] = group.query(query_text, rank=rank, topk=topk)
            except BaseException as exc:  # classified in the gather
                errors[i] = exc

        with obsrec.span(f"{self.name}.scatter", shards=len(groups)):
            threads = []
            if len(groups) == 1:
                run(0, groups[0])
            else:
                threads = [
                    self._sync.thread(
                        lambda i=i, group=group: run(i, group),
                        name=f"{self.name}-scatter-{i}",
                    )
                    for i, group in enumerate(groups)
                ]
                for thread in threads:
                    thread.start()
        with obsrec.span(f"{self.name}.gather", shards=len(groups)):
            for thread in threads:
                thread.join()
            answered: List[QueryResult] = []
            dead = 0
            fatal: Optional[BaseException] = None
            for result, error in zip(results, errors):
                if error is None:
                    answered.append(result)
                elif isinstance(error, ShardDeadError):
                    dead += 1
                elif fatal is None:
                    fatal = error
            if fatal is not None:
                raise fatal
            if dead and self.partial == "fail":
                raise ShardDeadError(
                    f"{self.name}: {dead}/{len(groups)} shards dead "
                    "(partial='fail' forbids a degraded answer)"
                )
            if not answered:
                raise ShardDeadError(
                    f"{self.name}: all {len(groups)} shards dead"
                )
            return answered, len(groups) - dead

    def answer(
        self,
        query_text: Union[str, Plan],
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        """:meth:`IndexSnapshot.answer <repro.service.snapshot.
        IndexSnapshot.answer>` by scatter-gather, plus the health tuple;
        a :class:`~repro.query.cache.Plan` scatters its text.

        Boolean answers merge by sorted set-union.  For BM25 each shard
        returns its top-``topk`` ordered by ``(score desc, path asc)``,
        scored on collection statistics; the first ``topk`` of the
        k-way merge under the same ordering is the unsharded top-K.
        """
        started = time.perf_counter()
        if isinstance(query_text, Plan):
            query_text, rank, topk = query_text[:3]
        answered, shards_ok = self._scatter(query_text, rank, topk)
        hits = None
        if rank == "bm25":
            merged = heapq.merge(
                *[result.hits for result in answered],
                key=lambda hit: (-hit.score, hit.path),
            )
            hits = list(itertools.islice(merged, topk))
            paths = [hit.path for hit in hits]
        else:
            paths = sorted(set().union(*[r.paths for r in answered]))
        return QueryResult(
            paths=paths,
            generation=self.generation,
            elapsed_s=time.perf_counter() - started,
            hits=hits,
            shards_ok=shards_ok,
            shards_total=self.shards_total,
        )

    # -- the service face --------------------------------------------------

    def query(
        self,
        query_text: str,
        rank: str = "bool",
        topk: int = 10,
    ) -> QueryResult:
        """Scatter one query, gather, merge; returns typed hits.

        The result carries the ``shards_ok/shards_total`` health tuple.
        Raises :class:`ShardDeadError` under ``partial="fail"`` (or
        when no shard is left), :class:`ServiceOverloadedError` when a
        shard's admission control sheds on every replica, and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        check_rank(rank)
        with self._lock:
            if self._closing:
                raise ServiceClosedError(f"{self.name} is shut down")
        metrics = obsrec.metrics()
        metrics.counter(f"{self.name}.queries").inc()
        try:
            with obsrec.span(
                f"{self.name}.query", rank=rank, shards=len(self.groups)
            ):
                result = self.answer(query_text, rank, topk)
        except ServiceOverloadedError:
            with self._lock:
                self._shed += 1
            metrics.counter(f"{self.name}.shed").inc()
            raise
        except ShardDeadError:
            with self._lock:
                self._failed += 1
            metrics.counter(f"{self.name}.failed").inc()
            self._refresh_health_gauges(metrics)
            raise
        with self._lock:
            self._served += 1
            if result.degraded:
                self._degraded += 1
        if result.degraded:
            metrics.counter(f"{self.name}.degraded").inc()
        self._refresh_health_gauges(metrics)
        return result

    # -- health and lifecycle ---------------------------------------------

    def _refresh_health_gauges(self, metrics=None) -> None:
        metrics = metrics or obsrec.metrics()
        metrics.gauge(f"{self.name}.shards_ok").set(self.shards_ok())
        metrics.gauge(f"{self.name}.shards_total").set(len(self.groups))

    def kill_shard(self, shard_id: int) -> None:
        """Fault injection: every replica of one shard dies, now."""
        self.groups[shard_id].kill()
        self._refresh_health_gauges()

    def stats(self) -> Dict[str, float]:
        """A point-in-time digest of the broker counters."""
        with self._lock:
            served = self._served
            degraded = self._degraded
            shed = self._shed
            failed = self._failed
        return {
            "broker.shards_total": float(len(self.groups)),
            "broker.shards_ok": float(self.shards_ok()),
            "broker.served": float(served),
            "broker.degraded": float(degraded),
            "broker.shed": float(shed),
            "broker.failed": float(failed),
        }

    def close(self) -> None:
        """Stop admission, close every replica of every shard, then
        release :attr:`resources`."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        try:
            for group in self.groups:
                group.close()
        finally:
            self.resources.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closing

    def __enter__(self) -> "ScatterGatherBroker":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# -- builders -------------------------------------------------------------


def local_broker(
    snapshots: Sequence[IndexSnapshot],
    replicas: int = 1,
    partial: str = "degrade",
    workers: int = 1,
    max_inflight: int = 32,
    sync=None,
    name: str = "broker",
    generation: int = 0,
) -> ScatterGatherBroker:
    """A broker over in-process shard replicas, one group per snapshot.

    Replicas of a shard share the (immutable) snapshot object; each
    gets its own ``SearchService`` evaluation slots and admission budget.
    Any snapshot serves — in-memory (:func:`shard_snapshots`) or an
    RIDX2 file off mmap (:meth:`IndexSnapshot.from_ondisk
    <repro.service.snapshot.IndexSnapshot.from_ondisk>`).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    groups = []
    for shard_id, snapshot in enumerate(snapshots):
        group_replicas = [
            LocalShardReplica(
                shard_id,
                replica_id,
                snapshot,
                workers=workers,
                max_inflight=max_inflight,
                sync=sync,
            )
            for replica_id in range(replicas)
        ]
        groups.append(ShardGroup(shard_id, group_replicas, sync, name=name))
    return ScatterGatherBroker(
        groups, partial=partial, sync=sync, name=name, generation=generation
    )


def _process_broker(
    snapshots: Sequence[IndexSnapshot],
    frequencies: Optional[FrequencyIndex],
    replicas: int,
    partial: str,
    max_inflight: int,
    sync,
    name: str,
    generation: int,
) -> ScatterGatherBroker:
    """Write each shard's RIDX2 file into a fresh temporary directory
    and spawn ``replicas`` worker processes over it; the broker's
    :meth:`~ScatterGatherBroker.close` removes the directory, and a
    failure before the broker exists closes what started and removes
    it at once."""
    import os
    import tempfile

    from repro.index.serialize import save_index
    from repro.service.shardproc import ProcessShardReplica

    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    directory = tempfile.TemporaryDirectory(prefix="repro-shards-")
    statistics = frequencies.statistics() if frequencies is not None else None
    started: List[ProcessShardReplica] = []
    try:
        groups = []
        for shard_id, snapshot in enumerate(snapshots):
            path = os.path.join(directory.name, f"shard-{shard_id:04d}.ridx2")
            save_index(
                snapshot.index, path, format="ridx2", frequencies=frequencies
            )
            for replica_id in range(replicas):
                started.append(
                    ProcessShardReplica(
                        shard_id,
                        replica_id,
                        path,
                        max_inflight=max_inflight,
                        sync=sync,
                        statistics=statistics,
                    )
                )
            groups.append(
                ShardGroup(shard_id, started[-replicas:], sync, name=name)
            )
        broker = ScatterGatherBroker(
            groups, partial=partial, sync=sync, name=name,
            generation=generation,
        )
    except BaseException:
        for replica in started:
            replica.close()
        directory.cleanup()
        raise
    broker.resources.callback(directory.cleanup)
    return broker


def build_sharded_service(
    index: InvertedIndex,
    universe: Iterable[str],
    shards: int = 2,
    replicas: int = 1,
    partial: str = "degrade",
    frequencies: Optional[FrequencyIndex] = None,
    workers: int = 1,
    max_inflight: int = 32,
    sync=None,
    name: str = "broker",
    generation: int = 0,
    backend: str = "local",
) -> ScatterGatherBroker:
    """Partition ``index`` and stand up a serving broker over it.

    ``backend="local"`` serves each in-memory shard from an in-process
    ``SearchService``.  ``backend="process"`` writes per-shard RIDX2
    files into a temporary directory the broker owns (``close()``
    removes it) and spawns one OS process per replica
    (:class:`~repro.service.shardproc.ProcessShardReplica`), the real
    escape from the GIL.  BM25 needs ``frequencies``, the whole
    collection's sidecar: in-memory shards rank with it, each shard's
    RIDX2 file takes its documents' counts from it, and the DAAT
    scorer in each worker reads N, avgdl and df from its
    :meth:`~repro.query.ranking.FrequencyIndex.statistics`, sent as
    plain data at spawn.
    """
    if backend not in ("local", "process"):
        raise ValueError(
            f"backend must be 'local' or 'process', got {backend!r}"
        )
    snapshots = shard_snapshots(
        index,
        universe,
        shards,
        frequencies=frequencies,
        generation=generation,
    )
    if backend == "process":
        return _process_broker(
            snapshots, frequencies, replicas, partial, max_inflight,
            sync, name, generation,
        )
    return local_broker(
        snapshots,
        replicas=replicas,
        partial=partial,
        workers=workers,
        max_inflight=max_inflight,
        sync=sync,
        name=name,
        generation=generation,
    )
