"""Long-running query serving over immutable index snapshots.

The paper stops once the index is built; a deployed desktop search is a
*service*: queries keep arriving while the filesystem underneath keeps
changing.  This package is that layer, in the mould of the query-broker
/ background-builder split of parallel web search engines:

* :class:`~repro.service.snapshot.IndexSnapshot` — an immutable
  (index, generation, provenance) triple with its own query engine.
  Readers evaluate entirely against one snapshot, so an update can
  never tear a result;
* :class:`~repro.service.service.SearchService` — answers each query
  on its caller's thread against the current snapshot.  Updates (full
  rebuilds or :class:`~repro.index.segments.SegmentedIndexer` deltas)
  are computed in the background and published with a single
  atomic reference swap through the
  :class:`~repro.concurrency.provider.SyncProvider` seam, so the
  schedule checker can sweep the swap/read interleavings;
* admission control — a bounded in-flight budget with a queue-depth
  gauge; at the bound the service sheds
  (:class:`~repro.service.service.ServiceOverloadedError`);
* graceful shutdown — :meth:`~repro.service.service.SearchService.close`
  returns once every accepted query has finished;
* :class:`~repro.service.frontend.AsyncSearchFrontend` — the batched,
  single-flight front end over a service: duplicate
  in-flight queries coalesce onto one evaluation, bursts are admitted
  with one snapshot load and one queue transaction, and an asyncio
  face keeps thousands of queries in flight from one event loop.  The
  open-loop load harness in :mod:`repro.service.loadgen` measures its
  tail latency (``BENCH_serving_latency.json``);
* :class:`~repro.service.sharded.ScatterGatherBroker` — document-
  partitioned scaling: N shards (each a ``SearchService`` over its own
  per-shard snapshot, in-process or one OS process each via
  :mod:`repro.service.shardproc`) behind a broker that scatters every
  query, gathers, and merges — sorted set-union for boolean results, a
  BM25 heap-merge of scores on collection statistics for ranked ones,
  both equal to the unsharded answer — with
  replica failover and ``partial=fail|degrade`` dead-shard policies
  (``docs/sharded.md``).

The one-liner front doors are :meth:`repro.api.Search.serve`,
:meth:`repro.api.Search.serve_async` and
:meth:`repro.api.Search.serve_sharded`.
"""

from repro.service.snapshot import IndexSnapshot, QueryResult
from repro.service.service import (
    RefreshOutcome,
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.service.frontend import AsyncSearchFrontend, QueryTicket
from repro.service.loadgen import (
    LoadRunResult,
    OpenLoopLoadGenerator,
    QuerySpec,
)
from repro.service.sharded import (
    PARTIAL_POLICIES,
    ScatterGatherBroker,
    ShardDeadError,
    ShardGroup,
    build_sharded_service,
    local_broker,
    shard_snapshots,
)

__all__ = [
    "AsyncSearchFrontend",
    "IndexSnapshot",
    "LoadRunResult",
    "OpenLoopLoadGenerator",
    "PARTIAL_POLICIES",
    "QueryResult",
    "QuerySpec",
    "QueryTicket",
    "RefreshOutcome",
    "ScatterGatherBroker",
    "SearchService",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ShardDeadError",
    "ShardGroup",
    "build_sharded_service",
    "local_broker",
    "shard_snapshots",
]
