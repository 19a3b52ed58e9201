"""The staged driver behind ``--trace 1`` (child process).

Calls the layers one at a time — from outside, through their public
functions — over the same corpus, queries and deltas the journey uses,
with a harness span around each call, and derives every per-layer metric
of ``BENCHMARK.json`` from those spans and from the layers' own counters.
End-to-end metrics never come from this run.

Layer names are module names under ``src/repro``.  Which end-to-end metric
each row should move, and on which workload, is tabled in the README.
"""

from __future__ import annotations

import os
import time
from statistics import mean, median, stdev
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import Search
from repro.engine.config import Implementation
from repro.engine.runner import IndexGenerator
from repro.engine.sequential import SequentialIndexer
from repro.extract import AsciiExtractor
from repro.fsmodel.realfs import OsFileSystem
from repro.index.binfmt import dump_index_ridx2, merge_wire_replica
from repro.index.inverted import InvertedIndex
from repro.index.ondisk import MmapPostingsReader
from repro.index.replica import ReplicaBuilder
from repro.index.segments import SegmentedIndexer
from repro.index.serialize import index_to_bytes, load_index
from repro.obs import recorder as obsrec
from repro.query.cache import QueryCache, cache_key, normalize_query
from repro.query.daat import DaatQueryEngine
from repro.query.evaluator import QueryEngine
from repro.query.optimizer import optimize
from repro.query.parser import parse_query
from repro.query.ranking import FrequencyIndex
from repro.query.wildcard import expand_prefixes
from repro.service.frontend import AsyncSearchFrontend
from repro.service.service import SearchService
from repro.service.sharded import build_sharded_service
from repro.service.snapshot import IndexSnapshot

from benchmarks.pipeline.common import ref_kernel_ms
from benchmarks.pipeline.journey import (
    CACHE_CAPACITY,
    FRONTEND_MAX_INFLIGHT,
    SERVICE_MAX_INFLIGHT,
    SERVICE_WORKERS,
    STACKS,
    TOPK,
    apply_delta,
    build_config,
    product_digest,
    run_pass,
    settle,
)
from benchmarks.pipeline.spans import SpanRecorder

#: Queries probed one layer at a time; enough for a stable p50.
PROBE_QUERIES = 600
#: Per-query harness spans kept in the trace file.
TRACED_QUERIES = 300
#: Repetitions of the layer-by-layer build; the best of each layer is
#: reported, as for the end-to-end metrics.
BUILD_REPS = 3


class CountingFs:
    """Delegating filesystem that counts ``read_file`` calls, so a
    refresh's reads are counted where they happen."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.reads = 0

    def read_file(self, path: str) -> bytes:
        self.reads += 1
        return self._inner.read_file(path)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def each_us(call: Callable, items: Sequence) -> List[float]:
    """Per-item wall time of ``call(item)`` in microseconds."""
    clock = time.perf_counter
    out = []
    for item in items:
        started = clock()
        call(item)
        out.append((clock() - started) * 1e6)
    return out


def loop_s(call: Callable, items: Sequence) -> float:
    started = time.perf_counter()
    for item in items:
        call(item)
    return time.perf_counter() - started


def build_layers(rec: SpanRecorder, fs, counting, cpus: Sequence[int]) -> dict:
    """One repetition of everything a build is made of, each call under
    its own span; returns seconds per layer.

    The sequential build is replayed as the engine runs it — per file:
    read, extract, update — with the three calls timed apart.  Interleaved
    on purpose: as three batch passes the same calls are 15-20 % cheaper
    (warmer caches, fewer collections) and stop summing to the build.
    Each of the three is recorded as one span as long as its summed time,
    laid end to end under ``build.staged``.
    """
    span = rec.span
    clock = time.perf_counter
    extractor = AsciiExtractor()
    s: Dict[str, float] = {}
    settle()
    with span("fsmodel.walk") as walk:
        refs = list(fs.list_files())
    with span("fsmodel.stat") as stat:
        for ref in refs:
            fs.stat(ref.path)
    flat = InvertedIndex()
    blocks = []
    read_s = extract_s = large_s = update_s = 0.0
    corpus_bytes = occurrences = 0
    settle()
    with span("build.staged", files=len(refs)) as staged:
        for ref in refs:
            t0 = clock()
            content = fs.read_file(ref.path)
            t1 = clock()
            block = extractor.term_block(ref.path, content)
            t2 = clock()
            flat.add_block(block)
            t3 = clock()
            read_s += t1 - t0
            extract_s += t2 - t1
            update_s += t3 - t2
            if ref.path.startswith("large/"):
                large_s += t2 - t1
            blocks.append(block)
            corpus_bytes += len(content)
            occurrences += extractor.tokenizer.count_terms(content)
        at = staged["start"]
        for name, total in (
            ("fsmodel.read", read_s),
            ("extract.ascii", extract_s),
            ("index.inverted.add_block", update_s),
        ):
            rec.add(name, at, at + total, interleaved=True)
            at += total
    s["fsmodel.walk_s"] = walk["end"] - walk["start"]
    s["fsmodel.stat_s"] = stat["end"] - stat["start"]
    s["fsmodel.read_s"] = read_s
    s["extract.ascii_s"] = extract_s
    s["extract.large_s"] = large_s
    s["index.inverted.add_block_s"] = update_s
    facts = {
        "corpus_bytes": corpus_bytes,
        "occurrences": occurrences,
        "postings": flat.posting_count,
    }

    # index.replica / index.binfmt: the process build's join.
    settle()
    builder = ReplicaBuilder()
    with span("index.replica.add_block"):
        for block in blocks:
            builder.add_block(block)
    with span("index.replica.to_bytes") as to_bytes:
        wire = builder.to_bytes()
    with span("index.binfmt.merge_wire", bytes=len(wire)) as merge:
        merge_wire_replica(InvertedIndex(), wire)
    s["index.replica.to_bytes_s"] = to_bytes["end"] - to_bytes["start"]
    s["index.binfmt.merge_wire_s"] = merge["end"] - merge["start"]
    del blocks, builder, wire, flat

    # engine: sequential with the obs recorder off, then on; process.
    settle()
    with span("engine.sequential.build") as seq_span:
        sequential = SequentialIndexer(fs, naive=False).build()
    settle()
    obsrec.enable()
    try:
        with span("engine.sequential.build_obs") as obs_span:
            SequentialIndexer(fs, naive=False).build()
    finally:
        obsrec.disable()
        obsrec.get_recorder().clear()
    settle()
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # the pool's workers inherit the mask
    try:
        with span("engine.process.build") as proc_span:
            process = IndexGenerator(fs).build(
                Implementation.REPLICATED_JOINED, build_config("process")
            )
    finally:
        os.sched_setaffinity(0, pinned)
    s["engine.sequential.build_s"] = seq_span["end"] - seq_span["start"]
    s["engine.sequential.build_obs_s"] = obs_span["end"] - obs_span["start"]
    s["engine.process.build_s"] = proc_span["end"] - proc_span["start"]
    s["engine.process.extraction_s"] = process.timings.extraction
    s["engine.process.join_s"] = process.timings.join
    facts["files_failed"] = len(sequential.failures) + len(process.failures)
    facts["retries"] = process.retries
    del process

    # index.segments: what Search.build adds around the engine.
    settle()
    segmented = SegmentedIndexer(fs)
    with span("index.segments.fingerprint") as fingerprint:
        fingerprints = segmented.fingerprint_corpus()
    with span("index.segments.adopt") as adopt:
        segmented.adopt(sequential.index, fingerprints)
    with span("index.segments.materialize") as materialize:
        segmented.manifest.materialize()
    s["index.segments.fingerprint_s"] = fingerprint["end"] - fingerprint["start"]
    s["index.segments.adopt_s"] = adopt["end"] - adopt["start"]
    s["index.segments.materialize_s"] = materialize["end"] - materialize["start"]
    del segmented, sequential, fingerprints

    settle()
    with span("api.search_build") as whole:
        session = Search.build(counting, cache=CACHE_CAPACITY)
    s["api.search_build_s"] = whole["end"] - whole["start"]
    s["ref_kernel_ms"] = ref_kernel_ms()
    s["session"] = session
    s["facts"] = facts
    return s


def run_staged(plan: dict) -> dict:
    workload = plan["workload"]
    corpus_dir = plan["corpus_dir"]
    files = plan["files"]
    rec = SpanRecorder(f"{workload['name']}-{plan['seed']}")
    span = rec.span
    m: Dict[str, float] = {}
    kernel: List[float] = []
    out = {"verify_s": 0.0}

    stream: List[Tuple[str, str]] = next(
        s["queries"] for s in plan["rounds"] if s["queries"] is not None
    )
    distinct = list(dict.fromkeys(stream))
    boolean = [t for t, rank in distinct if rank == "bool"][:PROBE_QUERIES]
    # Rankable shapes only (no NOT, no wildcard): BM25 scores what matched.
    rankable = [t for t in boolean if "NOT" not in t and "*" not in t]
    plain_terms = [t for t in boolean if " " not in t and "*" not in t]

    with span("run", workload=workload["name"]):
        fs = OsFileSystem(corpus_dir)
        counting = CountingFs(fs)

        # -- the build, layer by layer, BUILD_REPS interleaved times ---
        reps = [
            build_layers(rec, fs, counting, plan["cpus"])
            for _ in range(1 if plan["quick"] else BUILD_REPS)
        ]
        kernel.extend(rep.pop("ref_kernel_ms") for rep in reps)
        # The layers below are single-threaded or hand work between
        # threads: one CPU, as in the journeys that serve through them.
        os.sched_setaffinity(0, plan["cpus"][-1:])
        session = reps[-1].pop("session")
        facts = reps[-1].pop("facts")
        for rep in reps[:-1]:
            del rep["session"], rep["facts"]
        layer_s = {name: min(rep[name] for rep in reps) for name in reps[0]}
        for name in (
            "fsmodel.walk_s",
            "fsmodel.stat_s",
            "fsmodel.read_s",
            "extract.ascii_s",
            "index.inverted.add_block_s",
            "index.replica.to_bytes_s",
            "index.binfmt.merge_wire_s",
            "engine.sequential.build_s",
            "engine.process.build_s",
            "engine.process.extraction_s",
            "engine.process.join_s",
            "index.segments.fingerprint_s",
            "index.segments.adopt_s",
            "index.segments.materialize_s",
        ):
            m[name] = layer_s[name]
        corpus_bytes, postings = facts["corpus_bytes"], facts["postings"]
        m["fsmodel.read_mb_per_s"] = corpus_bytes / 1e6 / m["fsmodel.read_s"]
        m["extract.ascii_mb_per_s"] = corpus_bytes / 1e6 / m["extract.ascii_s"]
        m["extract.terms_per_s"] = facts["occurrences"] / m["extract.ascii_s"]
        m["extract.large_file_share"] = (
            layer_s["extract.large_s"] / m["extract.ascii_s"]
        )
        m["index.inverted.postings_per_s"] = (
            postings / m["index.inverted.add_block_s"]
        )
        m["engine.process.speedup"] = (
            m["engine.sequential.build_s"] / m["engine.process.build_s"]
        )
        m["engine.files_failed"] = facts["files_failed"]
        m["engine.retries"] = facts["retries"]
        m["obs.build_overhead_ratio"] = (
            layer_s["engine.sequential.build_obs_s"]
            / m["engine.sequential.build_s"]
        )
        # The whole sequential Search.build against the sum of its layers.
        m["build.unaccounted_share"] = 1.0 - (
            sum(
                m[name]
                for name in (
                    "index.segments.fingerprint_s",
                    "fsmodel.walk_s",
                    "fsmodel.read_s",
                    "extract.ascii_s",
                    "index.inverted.add_block_s",
                    "index.segments.adopt_s",
                )
            )
            / layer_s["api.search_build_s"]
        )

        # -- persist: query.ranking, index.binfmt, index.serialize ----
        index = session.index
        started = time.perf_counter()
        out["digest_pristine"] = product_digest(index)
        out["verify_s"] += time.perf_counter() - started
        settle()
        with span("query.ranking.frequency_from_fs"):
            frequencies = FrequencyIndex.from_fs(fs)
        with span("index.binfmt.encode_ridx2"):
            ridx2 = dump_index_ridx2(index, frequencies=frequencies)
        with span("index.serialize.encode_ridx1"):
            ridx1 = index_to_bytes(index)
        with span("harness.write_files"):
            for path, data in ((files["ridx2"], ridx2), (files["ridx1"], ridx1)):
                with open(path, "wb") as fh:
                    fh.write(data)
        with span("index.serialize.load_ridx1"):
            load_index(files["ridx1"])
        m["query.ranking.frequency_from_fs_s"] = rec.duration(
            "query.ranking.frequency_from_fs"
        )
        m["index.binfmt.encode_ridx2_s"] = rec.duration("index.binfmt.encode_ridx2")
        m["index.binfmt.encode_postings_per_s"] = (
            postings / m["index.binfmt.encode_ridx2_s"]
        )
        m["index.binfmt.ridx2_bytes"] = len(ridx2)
        m["index.binfmt.ridx1_bytes"] = len(ridx1)
        m["index.binfmt.bytes_per_posting"] = len(ridx2) / postings
        m["index.serialize.load_ridx1_s"] = rec.duration("index.serialize.load_ridx1")
        out["ridx2_bytes"] = len(ridx2)
        del frequencies, ridx2, ridx1
        kernel.append(ref_kernel_ms())

        # -- index.ondisk ---------------------------------------------
        settle()
        for _ in range(25):
            with span("index.ondisk.open"):
                probe = MmapPostingsReader.open(files["ridx2"])
            probe.close()
        m["index.ondisk.open_us"] = min(rec.durations("index.ondisk.open")) * 1e6
        reader = MmapPostingsReader.open(files["ridx2"])
        with span("index.ondisk.doc_table"):
            reader.doc_paths()
        m["index.ondisk.doc_table_ms"] = rec.duration("index.ondisk.doc_table") * 1e3
        with span("index.ondisk.term_info", terms=len(plain_terms)):
            m["index.ondisk.term_info_us"] = median(
                each_us(reader.term_info, plain_terms)
            )
        decoded = 0
        with span("index.ondisk.decode"):
            for term in plain_terms:
                decoded += len(reader.lookup(term))
        m["index.ondisk.decode_postings_per_s"] = decoded / rec.duration(
            "index.ondisk.decode"
        )
        reader.close()

        # -- query.daat over a fresh reader (its counters start at 0) -
        settle()
        reader = MmapPostingsReader.open(files["ridx2"])
        daat = DaatQueryEngine(reader)
        with span("query.daat.bool", queries=len(boolean)):
            m["query.daat.bool_us_p50"] = median(each_us(daat.search, boolean))
        blocks_read = reader.stats()["ondisk.blocks_read"]
        blocks_skipped = reader.stats()["ondisk.blocks_skipped"]
        with span("query.daat.bm25", queries=len(rankable)):
            m["query.daat.bm25_us_p50"] = median(
                each_us(lambda t: daat.search_bm25(t, topk=TOPK), rankable)
            )
        touched = 0
        for text in boolean:
            for term in parse_query(text).terms():
                info = reader.term_info(term)
                touched += info.df if info is not None else 0
        m["query.daat.postings_per_query"] = touched / len(boolean)
        m["index.ondisk.blocks_read"] = blocks_read
        m["index.ondisk.blocks_skipped"] = blocks_skipped
        m["index.ondisk.skip_ratio"] = blocks_skipped / max(
            1, blocks_read + blocks_skipped
        )
        kernel.append(ref_kernel_ms())

        # -- query: parser, optimizer, wildcard, evaluator, cache -----
        settle()
        manifest = session.manifest
        evaluator = QueryEngine(manifest, universe=manifest.document_paths())
        with span("query.parser.parse"):
            m["query.parser.parse_us"] = median(each_us(parse_query, boolean))
        parsed = [parse_query(text) for text in boolean]
        with span("query.optimizer.optimize"):
            m["query.optimizer.optimize_us"] = median(each_us(optimize, parsed))
        dictionary = evaluator.prefix_dictionary()
        wildcards = [parse_query(t) for t in boolean if "*" in t]
        with span("query.wildcard.expand", queries=len(wildcards)):
            m["query.wildcard.expand_us"] = median(
                each_us(lambda q: expand_prefixes(q, dictionary), wildcards)
            )
        with span("query.evaluator.search", queries=len(boolean)):
            m["query.evaluator.search_us_p50"] = median(
                each_us(evaluator.search, boolean)
            )
        cache = QueryCache(CACHE_CAPACITY)
        get_us: List[float] = []
        clock = time.perf_counter
        with span("query.cache.stream", queries=len(stream)):
            for text, _rank in stream:
                key = cache_key(normalize_query(text), False)
                started = clock()
                hit = cache.get(key)
                get_us.append((clock() - started) * 1e6)
                if hit is None:
                    cache.put(key, evaluator.search(text))
        m["query.cache.hit_ratio"] = cache.hit_rate
        m["query.cache.get_us"] = median(get_us)
        kernel.append(ref_kernel_ms())

        # -- service: snapshot, service, frontend, sharded ------------
        if workload["stack"] == "service_ondisk":
            snapshot = IndexSnapshot.from_ondisk(reader)
        else:
            snapshot = session.snapshot()
        probe_stream = distinct[:PROBE_QUERIES]

        def direct(query):
            text, rank = query
            if rank == "bm25":
                return snapshot.search_bm25(text, topk=TOPK)
            return snapshot.search(text)

        settle()
        with span("service.snapshot.search", queries=len(probe_stream)):
            snapshot_p50 = median(each_us(direct, probe_stream))
        m["service.snapshot.search_us_p50"] = snapshot_p50
        on = off = 0.0
        for _ in range(2):
            with span("obs.query.off"):
                off += loop_s(direct, probe_stream)
            obsrec.enable()
            try:
                with span("obs.query.on"):
                    on += loop_s(direct, probe_stream)
            finally:
                obsrec.disable()
                obsrec.get_recorder().clear()
        m["obs.query_overhead_ratio"] = on / off

        settle()
        service = SearchService(
            snapshot, workers=SERVICE_WORKERS, max_inflight=SERVICE_MAX_INFLIGHT
        )

        def through_service(query):
            return service.query(query[0], rank=query[1], topk=TOPK)

        def traced_service(query):
            with span("service.service.query.one"):
                return service.query(query[0], rank=query[1], topk=TOPK)

        with span("service.service.query", queries=len(probe_stream)):
            service_p50 = median(each_us(through_service, probe_stream))
        m["service.service.overhead_us_p50"] = service_p50 - snapshot_p50
        # What one harness span per call costs, on the same calls.
        sample = probe_stream[:TRACED_QUERIES]
        plain = loop_s(through_service, sample)
        with span("harness.traced_queries", queries=len(sample)):
            traced = loop_s(traced_service, sample)
        m["harness.trace_overhead_ratio"] = traced / plain
        m["service.service.shed"] = service.stats()["service.shed"]
        service.close()
        kernel.append(ref_kernel_ms())

        settle()
        frontend = AsyncSearchFrontend(
            SearchService(snapshot, workers=1, max_inflight=FRONTEND_MAX_INFLIGHT),
            workers=SERVICE_WORKERS,
            max_inflight=FRONTEND_MAX_INFLIGHT,
            own_service=True,
        )

        class _Submit:
            def ask(self, text, rank):
                return frontend.submit(text, rank=rank, topk=TOPK)

        with span("service.frontend.pass", queries=len(stream)):
            burst_pass = run_pass(_Submit(), stream, clients=2, burst=8)
        stats = frontend.stats()
        frontend.close()
        served = max(1.0, stats["frontend.served"])
        latencies = [v for v in burst_pass["latency_ms"] if v is not None]
        m["service.frontend.overhead_us_p50"] = (
            median(latencies) * 1e3 - snapshot_p50
        )
        m["service.frontend.coalesced_ratio"] = stats["frontend.coalesced"] / served
        m["service.frontend.evaluations_per_query"] = (
            stats["frontend.evaluations"] / served
        )
        m["service.frontend.batch_size_mean"] = stats["frontend.submitted"] / max(
            1.0, stats["frontend.batches"]
        )
        m["service.frontend.shed"] = stats["frontend.shed"]
        kernel.append(ref_kernel_ms())

        # 2 local in-memory shards against one unsharded in-memory service.
        settle()
        unsharded = SearchService(session.snapshot(), workers=1)
        with span("service.sharded.unsharded", queries=len(boolean)):
            unsharded_p50 = median(each_us(unsharded.query, boolean))
        unsharded.close()
        broker = build_sharded_service(
            index, manifest.live_paths(), shards=2, workers=1
        )
        with span("service.sharded.query", queries=len(boolean)):
            m["service.sharded.query_us_p50"] = median(
                each_us(broker.query, boolean)
            )
        broker.close()
        m["service.sharded.overhead_ratio"] = (
            m["service.sharded.query_us_p50"] / unsharded_p50
        )
        reader.close()
        kernel.append(ref_kernel_ms())

        # -- the workload's own stack, one pass (answers are verified) -
        del index
        stack = STACKS[workload["stack"]](session, files)
        with span("stack.pass", stack=workload["stack"], queries=len(stream)):
            out["passes"] = [
                run_pass(stack, stream, workload["clients"], workload["burst"])
            ]
        stack.close()

        # -- churn: index.segments refresh, lookup, compaction --------
        reads: List[int] = []
        lookups: List[float] = []
        segments_max = 0
        tombstones_max = 0.0
        compacted_postings_per_s: List[float] = []
        out["refreshes"] = []
        for step in plan["rounds"]:
            if step["churn"] is None:
                continue
            apply_delta(corpus_dir, step["churn"])
            counting.reads = 0
            settle()
            with span("index.segments.refresh"):
                change = session.refresh()
            reads.append(counting.reads)
            out["refreshes"].append(
                {
                    "added": change.added,
                    "modified": change.modified,
                    "removed": change.removed,
                    "docs": len(session),
                }
            )
            segments_max = max(segments_max, session.manifest.segment_count)
            tombstones_max = max(tombstones_max, session.manifest.tombstone_ratio)
            if step["compact"]:
                with span(
                    "index.segments.lookup",
                    segments=session.manifest.segment_count,
                ):
                    lookups.append(
                        median(each_us(session.manifest.lookup, plain_terms))
                    )
                settle()
                with span("index.segments.compact") as compact_span:
                    session.compact()
                compacted_postings_per_s.append(
                    session.index.posting_count
                    / (compact_span["end"] - compact_span["start"])
                )
            kernel.append(ref_kernel_ms())
        m["index.segments.refresh_s"] = min(rec.durations("index.segments.refresh"))
        m["index.segments.files_read_per_refresh"] = median(reads)
        m["index.segments.segment_count_max"] = segments_max
        m["index.segments.tombstone_ratio_max"] = tombstones_max
        m["index.segments.lookup_us"] = min(lookups)
        m["index.segments.compact_s"] = min(rec.durations("index.segments.compact"))
        m["index.segments.compact_postings_per_s"] = max(compacted_postings_per_s)
        started = time.perf_counter()
        out["digest_final"] = product_digest(session.index)
        out["verify_s"] += time.perf_counter() - started

    m["machine.ref_kernel_ms_p50"] = median(kernel)
    m["machine.ref_kernel_cv"] = stdev(kernel) / mean(kernel)
    out["layers"] = m
    out["span_table"] = rec.table()
    out["chrome_trace"] = rec.chrome_trace()
    return out
