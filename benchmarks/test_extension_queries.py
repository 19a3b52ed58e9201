"""Extension study: parallel query processing over multiple indices.

The paper's stated future work: "analyze how to integrate the search
query functionality and parallelize it as well, for instance by using
multiple indices."  This study serves a Zipfian query stream on the
32-core platform from (a) one joined index, (b) Implementation 3's four
unjoined replicas probed sequentially, (c) the replicas probed in
parallel per query.

Expected shape: intra-query parallelism cuts latency severalfold while
cores are idle, costs nothing while the merge overhead is hidden, and
loses throughput once every core is busy — quantifying when
Implementation 3's "search works with multiple indices in parallel"
claim pays off.  The prediction is *uncalibrated*: ``replicas-parallel``
charges no cost to start a lookup task.

The measured half times the same question on this engine: the bench
corpus's Implementation 3 replica sets (2, 4 and 8 replicas) answer a
drawn query stream four ways — the ``join_indices`` flattening, the
serial ``QueryEngine(MultiIndex)`` the product keeps, one thread per
replica per query, and one long-lived ``ThreadPoolExecutor`` of replica
workers.  The two fan-outs live here, not in ``src/``: the table is why.
"""

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Implementation, IndexGenerator, ThreadConfig
from repro.index import join_indices
from repro.platforms import MANYCORE_32
from repro.query import QueryEngine, optimize, parse_query
from repro.simengine.querysim import QuerySimulation, QueryWorkloadSpec

WORKER_POINTS = (1, 4, 16, 64)
REPLICAS = 4


@pytest.fixture(scope="module")
def study(paper_workload, write_result):
    simulation = QuerySimulation(
        MANYCORE_32, paper_workload, QueryWorkloadSpec(query_count=400)
    )
    sweep = simulation.sweep(list(WORKER_POINTS), replicas=REPLICAS)
    lines = [
        "Query-serving study (manycore-32, 400 Zipfian queries, "
        f"{REPLICAS} replicas)",
        f"{'mode':<22}{'workers':>8}{'mean lat':>10}{'p95 lat':>10}"
        f"{'qps':>10}",
    ]
    for mode, results in sweep.items():
        for result in results:
            lines.append(
                f"{mode:<22}{result.workers:>8}"
                f"{result.mean_latency_ms:>8.1f}ms"
                f"{result.p95_latency_ms():>8.1f}ms"
                f"{result.throughput_qps:>10.1f}"
            )
    write_result("extension_queries.txt", "\n".join(lines))
    return sweep


def _at(study, mode, workers):
    return next(r for r in study[mode] if r.workers == workers)


class TestQueryStudy:
    def test_parallel_latency_wins_at_light_load(self, study):
        parallel = _at(study, "replicas-parallel", 1)
        joined = _at(study, "joined", 1)
        assert parallel.mean_latency_ms < joined.mean_latency_ms * 0.7

    def test_throughput_scales_with_workers(self, study):
        for mode in study:
            one = _at(study, mode, 1)
            sixteen = _at(study, mode, 16)
            assert sixteen.throughput_qps > one.throughput_qps * 8

    def test_saturation_erases_parallel_advantage(self, study):
        """At 64 workers on 32 cores, throughput is fixed by total CPU
        work — and parallel probing does strictly more of it (merge)."""
        joined = _at(study, "joined", 64)
        parallel = _at(study, "replicas-parallel", 64)
        assert joined.throughput_qps >= parallel.throughput_qps * 0.95

    def test_sequential_replicas_cost_little_over_joined(self, study):
        joined = _at(study, "joined", 16)
        sequential = _at(study, "replicas-sequential", 16)
        assert sequential.throughput_qps > joined.throughput_qps * 0.8

    def test_bench_one_service_run(self, benchmark, paper_workload):
        simulation = QuerySimulation(
            MANYCORE_32, paper_workload, QueryWorkloadSpec(query_count=200)
        )
        result = benchmark(simulation.run, "replicas-parallel", 8, REPLICAS)
        assert result.throughput_qps > 0


# -- measured: Implementation 3's replicas probed on this engine -----------

MEASURED_REPLICAS = (2, 4, 8)
DRAWN = 300  # drawn ``a AND b`` queries, and as many drawn terms
PASSES = 2  # best of
PROBES = ("joined", "serial", "thread-per-replica", "pool")


class _Fetched:
    """One query's postings, fetched by a fan-out, as an index."""

    def __init__(self, postings):
        self.lookup = postings.__getitem__


def _fetch(replica, terms):
    return {term: replica.lookup(term) for term in terms}


def _merged(partials, terms):
    """The replicas' partial postings, concatenated in replica order
    (what ``MultiIndex.lookup`` returns term by term)."""
    merged = {term: [] for term in terms}
    for partial in partials:
        for term, paths in partial.items():
            merged[term] += paths
    return merged


def _thread_per_replica(replicas, terms):
    """A thread started per replica per query, each fetching every
    term from its replica."""
    partials = [None] * len(replicas)

    def work(i, replica):
        partials[i] = _fetch(replica, terms)

    threads = [
        threading.Thread(target=work, args=(i, replica))
        for i, replica in enumerate(replicas)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return _merged(partials, terms)


def _pooled(pool, replicas, terms):
    """The same fetch on long-lived replica workers."""
    futures = [pool.submit(_fetch, replica, terms) for replica in replicas]
    return _merged([future.result() for future in futures], terms)


def _drawn_queries(terms, seed=7):
    rng = random.Random(seed)
    texts = [f"{rng.choice(terms)} AND {rng.choice(terms)}"
             for _ in range(DRAWN)]
    texts += [rng.choice(terms) for _ in range(DRAWN)]
    return [optimize(parse_query(text)) for text in texts]


def _time_per_query(answer, queries):
    """Best-of-``PASSES`` µs per query, and the last pass's answers."""
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        answers = [answer(query) for query in queries]
        best = min(best, time.perf_counter() - started)
    return best / len(queries) * 1e6, answers


@pytest.fixture(scope="module")
def measured(bench_corpus, write_result):
    generator = IndexGenerator(bench_corpus.fs)
    rows = {}
    for count in MEASURED_REPLICAS:
        multi = generator.build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(2, count, 0)
        ).index
        replicas = multi.replicas
        assert len(replicas) == count
        joined = QueryEngine(join_indices(replicas))
        queries = _drawn_queries(sorted(joined.index.terms()))
        serial = QueryEngine(multi)
        with ThreadPoolExecutor(max_workers=count) as pool:
            probes = {
                "joined": joined.search_ast,
                "serial": serial.search_ast,
                "thread-per-replica": lambda q: QueryEngine(
                    _Fetched(_thread_per_replica(replicas, q.terms()))
                ).search_ast(q),
                "pool": lambda q: QueryEngine(
                    _Fetched(_pooled(pool, replicas, q.terms()))
                ).search_ast(q),
            }
            rows[count] = {
                name: _time_per_query(probes[name], queries)
                for name in PROBES
            }
    lines = [
        "Implementation 3's replicas probed on this engine (bench corpus, "
        f"{len(list(bench_corpus.fs.list_files()))} files, -i 3 -x 2 "
        f"-y N -z 0; {DRAWN} drawn 'a AND b' + {DRAWN} drawn terms; "
        f"µs per query, best of {PASSES} passes)",
        f"{'replicas':>8}{'joined':>10}{'serial':>10}{'threads':>10}"
        f"{'pool':>10}{'ser/join':>10}{'thr/ser':>10}{'pool/ser':>10}"
        f"{'thr µs/task':>13}{'pool µs/task':>14}",
    ]
    for count, row in rows.items():
        joined_us, serial_us, threads_us, pool_us = (
            row[name][0] for name in PROBES
        )
        lines.append(
            f"{count:>8}{joined_us:>10.1f}{serial_us:>10.1f}"
            f"{threads_us:>10.1f}{pool_us:>10.1f}"
            f"{serial_us / joined_us:>9.2f}x{threads_us / serial_us:>9.1f}x"
            f"{pool_us / serial_us:>9.1f}x"
            f"{(threads_us - serial_us) / count:>13.1f}"
            f"{(pool_us - serial_us) / count:>14.1f}"
        )
    lines.append(
        "thr/pool µs/task: the fan-out's cost over the serial probe, per "
        "replica task — the start cost replicas-parallel does not charge"
    )
    write_result("extension_queries_measured.txt", "\n".join(lines))
    return rows


class TestMeasuredReplicaProbes:
    def test_every_probe_gives_the_joined_answers(self, measured):
        for row in measured.values():
            expected = row["joined"][1]
            for name in PROBES:
                assert row[name][1] == expected, name

    def test_no_fan_out_beats_the_serial_probe(self, measured):
        """The data the serial-only ``QueryEngine`` rests on: on this
        engine neither fan-out pays for itself at any replica count."""
        for row in measured.values():
            serial_us = row["serial"][0]
            assert row["thread-per-replica"][0] > serial_us
            assert row["pool"][0] > serial_us
