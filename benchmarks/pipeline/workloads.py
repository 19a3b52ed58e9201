"""The four journey workloads and every constant that sizes them.

Nothing is calibrated at run time: counts, client numbers and burst sizes
are the constants below, sized on a 2-core shared sandbox so that one run
measures for about ``NOMINAL_SECONDS`` (``--seconds`` scales the round
counts linearly, never below the floors).  Each workload runs the same
journey; only the sizes, the build configuration and the serving stack
differ, so every workload prints every end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from repro.corpus import PAPER_PROFILE, TINY_PROFILE
from repro.corpus.profiles import CorpusProfile

#: ``run_seconds`` of BENCHMARK.json: the measuring time the counts below
#: were sized for.
NOMINAL_SECONDS = 20

#: Floors that ``--seconds`` scaling never goes below (README, "cutting
#: rounds"): fewer build reps or refresh cycles make their medians
#: single-sample, fewer pooled latencies make p95 a handful of points.
MIN_BUILD_REPS = 3
MIN_CHURN_CYCLES = 9
MIN_LATENCY_SAMPLES = 7_000

#: One churn cycle's delta: files modified in place, added, removed.
DELTA_MODIFIED, DELTA_ADDED, DELTA_REMOVED = 15, 5, 5

#: The paper's corpus shape (many small files plus five large ones holding
#: 35 % of the bytes) at 2/1000: 102 files, 1.7 MB.
PAPER_SHAPE = PAPER_PROFILE.scaled(0.002, name="paper-2-1000")

#: Passage-shaped corpus: many short documents, almost no large-file skew.
PASSAGE_SHAPE = CorpusProfile(
    name="passage",
    file_count=1_000,
    total_bytes=1_500_000,
    large_bytes_fraction=0.05,
)


@dataclass(frozen=True)
class Workload:
    """One journey's sizes.  ``stack`` is what queries go through:
    ``session`` (``Search.query``, follows every refresh), ``service_ondisk``
    (RIDX2 off mmap behind ``SearchService``) or ``frontend``
    (``Search.serve_async``); the last two serve the pristine build."""

    name: str
    profile: CorpusProfile
    build: str  # "process" | "sequential"
    stack: str
    build_reps: int
    cold_reps: int
    query_passes: int
    queries_per_pass: int
    churn_cycles: int
    compact_every: int
    clients: int = 1
    burst: int = 1
    #: Query stream: ``hot_share`` of positions draw from ``hot_queries``
    #: distinct queries, the rest walk a pool of ``cold_queries``.
    hot_queries: int = 0
    hot_share: float = 0.0
    cold_queries: int = 0
    #: Share of the stream asked with ``rank="bm25", topk=10``.
    ranked_share: float = 0.0

    @property
    def rounds(self) -> int:
        return max(self.build_reps, self.query_passes, self.churn_cycles)

    def scaled(self, seconds: float) -> "Workload":
        """Round counts for a ``--seconds`` other than the nominal one."""
        factor = seconds / NOMINAL_SECONDS
        if factor == 1.0:
            return self
        passes = max(
            -(-MIN_LATENCY_SAMPLES // self.queries_per_pass),
            round(self.query_passes * factor),
        )
        return replace(
            self,
            build_reps=max(MIN_BUILD_REPS, round(self.build_reps * factor)),
            cold_reps=max(3, round(self.cold_reps * factor)),
            query_passes=passes,
            churn_cycles=max(
                MIN_CHURN_CYCLES, round(self.churn_cycles * factor)
            ),
        )

    def quick(self) -> "Workload":
        """The smoke-test size: TINY_PROFILE, two of everything."""
        return replace(
            self,
            profile=TINY_PROFILE,
            build_reps=2,
            cold_reps=2,
            query_passes=2,
            queries_per_pass=min(self.queries_per_pass, 96),
            churn_cycles=2,
            compact_every=2,
            cold_queries=min(self.cold_queries, 64),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="build_paper",
            # paper-shaped corpus built on the process backend: walk, read,
            # extract, update and join do the work and the five large files set
            # the parallel tail; serving is nearly idle
            profile=PAPER_SHAPE,
            build="process",
            stack="session",
            build_reps=5,
            cold_reps=5,
            query_passes=8,
            queries_per_pass=2_000,
            churn_cycles=12,
            compact_every=3,
            hot_queries=64,
            hot_share=0.10,
            cold_queries=1_800,
        ),
        Workload(
            name="serve_ondisk",
            # passage corpus served from RIDX2 off mmap, every query distinct in
            # a pass: binfmt encode, ondisk decode, DAAT and BM25 dominate and
            # no cache or coalescing can help
            profile=PASSAGE_SHAPE,
            build="sequential",
            stack="service_ondisk",
            build_reps=5,
            cold_reps=48,
            query_passes=8,
            queries_per_pass=1_000,
            churn_cycles=12,
            compact_every=3,
            cold_queries=1_000,
            ranked_share=0.30,
        ),
        Workload(
            name="serve_hot_frontend",
            # cheap in-memory evaluation behind the async front end, 60 % of
            # queries from a hot set of 8 in bursts of 8: the front-end hops,
            # batching and single-flight are the cost
            profile=PAPER_SHAPE,
            build="sequential",
            stack="frontend",
            build_reps=5,
            cold_reps=5,
            query_passes=12,
            queries_per_pass=2_000,
            churn_cycles=12,
            compact_every=3,
            clients=2,
            burst=8,
            hot_queries=8,
            hot_share=0.60,
            cold_queries=392,
        ),
        Workload(
            name="churn_refresh",
            # writes beside reads on one index: refresh, fingerprints,
            # tombstones, multi-segment lookup and compaction carry the load, so
            # a read gain paid on the write path shows
            profile=PAPER_SHAPE,
            build="sequential",
            stack="session",
            build_reps=5,
            cold_reps=5,
            query_passes=12,
            queries_per_pass=600,
            churn_cycles=12,
            compact_every=3,
            hot_queries=64,
            hot_share=0.10,
            cold_queries=1_800,
        ),
    )
}
