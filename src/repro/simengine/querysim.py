"""Simulated query serving — the paper's future-work experiment.

"In the future we will analyze how to integrate the search query
functionality and parallelize it as well, for instance by using
multiple indices."  This module runs that analysis on the simulator:
a stream of boolean queries is served on a calibrated platform from
either

* ``joined`` — one joined index (what Implementation 2 pays the join
  for): each query is one lookup task;
* ``replicas-sequential`` — Implementation 3's k unjoined replicas,
  probed one after another by the query's worker;
* ``replicas-parallel`` — the k replicas probed by k concurrent
  lookup tasks per query, then merged (the paper's proposal).
  *Uncalibrated*: a task starts free here, while on the real engine
  each costs 30–794 µs (``benchmarks/test_extension_queries.py``).

Costs derive from the platform's calibrated index-touch rates: a hash
probe per (replica, term) plus a per-posting materialization cost, with
each replica holding ~1/k of every term's postings (round-robin blocks
spread every common term across replicas).  The study measures mean /
p95 latency and throughput as the number of concurrent query workers
grows — showing when intra-query parallelism helps (light load: latency
drops ~k-fold) and when it cannot (saturated cores: throughput is fixed
by total work).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.corpus.zipf import ZipfSampler
from repro.platforms.profile import PlatformProfile
from repro.sim import BUFFER_CLOSED, Close, Get, Kernel, Put, Use, WaitBarrier
from repro.sim.resources import SimBarrier, SimBuffer
from repro.simengine.workload import Workload

#: Serving modes.
MODES = ("joined", "replicas-sequential", "replicas-parallel")


@dataclass(frozen=True)
class QueryWorkloadSpec:
    """Shape of the simulated query stream."""

    query_count: int = 500
    mean_terms_per_query: float = 2.0
    vocabulary: int = 20_000
    zipf_exponent: float = 1.1
    seed: int = 11

    def __post_init__(self) -> None:
        if self.query_count < 1:
            raise ValueError("query_count must be positive")
        if self.mean_terms_per_query < 1.0:
            raise ValueError("queries need at least one term on average")


@dataclass(frozen=True)
class SimQuery:
    """One query: the postings volumes its terms touch."""

    postings_per_term: tuple


@dataclass
class QueryServiceResult:
    """Outcome of one query-serving simulation."""

    mode: str
    workers: int
    replicas: int
    total_s: float
    latencies: List[float] = field(default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second of virtual time."""
        return len(self.latencies) / self.total_s if self.total_s else 0.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean per-query latency in milliseconds."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies) * 1000.0

    def p95_latency_ms(self) -> float:
        """95th-percentile latency in milliseconds."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] * 1000.0


class QuerySimulation:
    """Simulates serving a query stream from the built index."""

    #: CPU seconds per hash probe of one (index, term) pair.
    HASH_PROBE_FRACTION = 2.0  # in units of one posting's touch cost
    #: Per-posting cost of merging partial result lists.
    MERGE_FRACTION = 0.25
    #: Per-shard dispatch overhead the scatter-gather broker pays, in
    #: hash-probe units (request marshalling + response handling).
    SCATTER_FRACTION = 1.0

    def __init__(
        self,
        platform: PlatformProfile,
        workload: Workload,
        spec: Optional[QueryWorkloadSpec] = None,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.spec = spec or QueryWorkloadSpec()
        # Touching one posting costs what the build paid to insert it.
        pairs = max(1, workload.total_unique_pairs)
        self._per_posting_s = platform.update_total_s / pairs
        self._queries = self._generate_queries()

    # -- query generation ---------------------------------------------------

    def _generate_queries(self) -> List[SimQuery]:
        """Queries whose term popularity follows the corpus Zipf."""
        spec = self.spec
        rng = random.Random(spec.seed)
        sampler = ZipfSampler(spec.vocabulary, spec.zipf_exponent,
                              seed=spec.seed + 1)
        # A term of rank r appears in df(r) files; approximate df by the
        # term's share of occurrences capped at the file count.
        total_files = len(self.workload.files)
        total_pairs = self.workload.total_unique_pairs

        def postings_of(rank: int) -> int:
            share = sampler.probability(rank)
            return max(1, min(total_files, int(share * total_pairs)))

        queries = []
        for _ in range(spec.query_count):
            n_terms = max(1, int(rng.expovariate(1.0 / spec.mean_terms_per_query))
                          or 1)
            n_terms = min(n_terms, 6)
            ranks = [sampler.sample() for _ in range(n_terms)]
            queries.append(
                SimQuery(tuple(postings_of(rank) for rank in ranks))
            )
        return queries

    # -- cost helpers -----------------------------------------------------

    def _probe_cpu(self, postings: int, replicas: int) -> float:
        """CPU to probe one index shard holding postings/replicas entries."""
        per_replica = max(1.0, postings / replicas)
        return (
            self.HASH_PROBE_FRACTION + per_replica
        ) * self._per_posting_s

    def _merge_cpu(self, postings: int) -> float:
        """CPU to merge one term's partial lists after a parallel probe."""
        return postings * self.MERGE_FRACTION * self._per_posting_s

    # -- the simulation ------------------------------------------------------

    def run(
        self, mode: str, workers: int, replicas: int = 4
    ) -> QueryServiceResult:
        """Serve the query stream and measure latency/throughput."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; one of {MODES}")
        if workers < 1 or replicas < 1:
            raise ValueError("workers and replicas must be positive")
        if mode == "joined":
            replicas = 1

        kernel = Kernel()
        cpu = kernel.resource("cpu", total_rate=float(self.platform.cores),
                              per_job_cap=1.0)
        queue = SimBuffer("queries", capacity=len(self._queries) + 1)
        latencies: List[float] = []

        def feeder():
            for query in self._queries:
                yield Put(queue, query)
            yield Close(queue)

        def lookup_child(query: SimQuery, replica_id: int,
                         barrier: SimBarrier):
            for postings in query.postings_per_term:
                yield Use(cpu, self._probe_cpu(postings, replicas))
            yield WaitBarrier(barrier)

        def worker(worker_id: int):
            while True:
                query = yield Get(queue)
                if query is BUFFER_CLOSED:
                    return
                started = kernel.now
                if mode == "replicas-parallel":
                    barrier = SimBarrier(replicas + 1, "query-join")
                    for replica_id in range(replicas):
                        kernel.spawn(
                            f"lookup-{worker_id}-{replica_id}",
                            lookup_child(query, replica_id, barrier),
                        )
                    yield WaitBarrier(barrier)
                    for postings in query.postings_per_term:
                        yield Use(cpu, self._merge_cpu(postings))
                else:
                    # joined: one probe per term over the full postings;
                    # replicas-sequential: k probes per term, 1/k each.
                    probes = 1 if mode == "joined" else replicas
                    for postings in query.postings_per_term:
                        for _ in range(probes):
                            yield Use(cpu, self._probe_cpu(postings, replicas))
                latencies.append(kernel.now - started)

        kernel.spawn("feeder", feeder())
        for worker_id in range(workers):
            kernel.spawn(f"query-worker-{worker_id}", worker(worker_id))
        total = kernel.run()
        return QueryServiceResult(
            mode=mode,
            workers=workers,
            replicas=replicas,
            total_s=total,
            latencies=latencies,
        )

    def sweep(
        self, workers_list: List[int], replicas: int = 4
    ) -> Dict[str, List[QueryServiceResult]]:
        """All three modes across the given worker counts."""
        return {
            mode: [self.run(mode, workers, replicas)
                   for workers in workers_list]
            for mode in MODES
        }

    # -- document-partitioned serving (the scatter-gather broker) ----------

    def run_doc_sharded(self, workers: int, shards: int) -> QueryServiceResult:
        """Document-partitioned scatter-gather serving.

        The serving-side topology of ``repro.service.sharded``: every
        query is scattered to ``shards`` document partitions, each
        probing ~1/``shards`` of every term's postings concurrently,
        and the broker pays a per-shard dispatch cost on scatter plus
        a per-posting merge on gather.  Structurally this is
        ``replicas-parallel`` with the fan-out overhead made explicit
        — which is exactly why the broker's win shrinks as shard
        count outgrows the live query volume.  ``mode`` in the result
        is ``"doc-sharded"`` (not a member of the pinned :data:`MODES`
        tuple) and ``replicas`` records the shard count.
        """
        if workers < 1 or shards < 1:
            raise ValueError("workers and shards must be positive")

        kernel = Kernel()
        cpu = kernel.resource("cpu", total_rate=float(self.platform.cores),
                              per_job_cap=1.0)
        queue = SimBuffer("queries", capacity=len(self._queries) + 1)
        latencies: List[float] = []
        scatter_cpu = (
            shards * self.SCATTER_FRACTION * self.HASH_PROBE_FRACTION
            * self._per_posting_s
        )

        def feeder():
            for query in self._queries:
                yield Put(queue, query)
            yield Close(queue)

        def shard_child(query: SimQuery, barrier: SimBarrier):
            for postings in query.postings_per_term:
                yield Use(cpu, self._probe_cpu(postings, shards))
            yield WaitBarrier(barrier)

        def worker(worker_id: int):
            while True:
                query = yield Get(queue)
                if query is BUFFER_CLOSED:
                    return
                started = kernel.now
                yield Use(cpu, scatter_cpu)
                barrier = SimBarrier(shards + 1, "gather")
                for shard_id in range(shards):
                    kernel.spawn(
                        f"shard-{worker_id}-{shard_id}",
                        shard_child(query, barrier),
                    )
                yield WaitBarrier(barrier)
                for postings in query.postings_per_term:
                    yield Use(cpu, self._merge_cpu(postings))
                latencies.append(kernel.now - started)

        kernel.spawn("feeder", feeder())
        for worker_id in range(workers):
            kernel.spawn(f"query-worker-{worker_id}", worker(worker_id))
        total = kernel.run()
        return QueryServiceResult(
            mode="doc-sharded",
            workers=workers,
            replicas=shards,
            total_s=total,
            latencies=latencies,
        )

    def sweep_doc_sharded(
        self, workers_list: List[int], shard_counts: List[int]
    ) -> Dict[int, List[QueryServiceResult]]:
        """``{shard count: per-worker-count results}`` for the broker."""
        return {
            shards: [self.run_doc_sharded(workers, shards)
                     for workers in workers_list]
            for shards in shard_counts
        }
