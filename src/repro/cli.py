"""Command-line interface: ``repro-desktopsearch``.

Subcommands:

* ``generate-corpus`` — materialize a synthetic benchmark corpus on disk
  (optionally mixed-format);
* ``index`` — build an index over a directory with one of the three
  implementations (or sequentially) and optionally save it (blocked
  RIDX2 — a ``.ridx2`` path is one file from any engine, with term
  frequencies baked in for BM25 — or compact RIDX1 with ``--binary``);
* ``search`` — run a boolean/wildcard query against a saved index,
  opened the way ``Search.open`` opens it (an RIDX2 file is mapped, not
  loaded; a replica directory is searched unjoined), optionally ranked
  (BM25 top-K) and optionally ``--ondisk``: the document-at-
  a-time engine over the mapped file, with BM25 off its frequencies;
  a malformed query (a multi-word quote among them) exits 2;
* ``serve`` — long-running query serving over a directory: a
  :class:`~repro.service.service.SearchService` answers a query stream
  concurrently while ``--watch`` refreshes the index in the background;
  with ``--ondisk`` the service queries an mmap'd RIDX2 file instead;
* ``refresh`` — incrementally update a saved index after file changes:
  ``Search.open(F, source=DIR)``, ``refresh()``, ``save(F)`` (a first
  run, with no ``F`` yet, builds it), the fingerprints kept at
  ``F + ".state"``;
* ``simulate`` — run one configuration on a simulated platform;
* ``tune`` — auto-tune the thread configuration on a simulated platform;
* ``tables`` — regenerate the paper's Tables 1-4.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.autotune import (
    ConfigurationSpace,
    ExhaustiveSearch,
    HillClimbing,
    RandomSearch,
)
from repro.corpus import CorpusGenerator, PAPER_PROFILE, materialize
from repro.engine import Implementation, IndexGenerator, SequentialIndexer, ThreadConfig
from repro.experiments import (
    render_best_config_table,
    render_table1,
    run_best_config_table,
    run_table1,
)
from repro.fsmodel import OsFileSystem
from repro.index import (
    ChangeReport,
    MultiIndex,
    join_indices,
    load_index,
    load_multi_index,
    save_index,
    save_multi_index,
)
from repro.platforms import ALL_PLATFORMS, platform_by_name
from repro.query import ParseError, QueryEngine
from repro.simengine import SimPipeline, Workload, WorkloadSpec


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-desktopsearch",
        description="Parallel index generation for desktop search "
        "(reproduction of Meder & Tichy 2010)",
    )
    sub = parser.add_subparsers(title="commands")

    p = sub.add_parser("generate-corpus", help="write a synthetic corpus to disk")
    p.add_argument("destination", help="empty or missing target directory")
    p.add_argument(
        "--scale", type=float, default=0.01,
        help="fraction of the paper's 51,000-file / 869 MB benchmark "
        "(default 0.01)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--mixed", action="store_true",
        help="emit a mix of plain/HTML/Markdown/CSV/DocZ files instead of "
        "plain text only",
    )
    p.set_defaults(func=_cmd_generate_corpus)

    p = sub.add_parser("index", help="index a directory")
    p.add_argument("directory")
    p.add_argument(
        "--implementation", "-i", type=int, choices=(1, 2, 3), default=None,
        help="1=shared+locked, 2=replicated+joined, 3=replicated unjoined "
        "(default: 3, or 2 with --backend process)",
    )
    p.add_argument("-x", "--extractors", type=int, default=3)
    p.add_argument("-y", "--updaters", type=int, default=None,
                   help="updater threads (default: 2; fixed at 0 with "
                   "--backend process)")
    p.add_argument("-z", "--joiners", type=int, default=None,
                   help="joiner threads (default: 0, or 1 with "
                   "--backend process)")
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="run the (x, y, z) tuple on Python threads (the "
                   "paper's design) or on OS worker processes "
                   "(Implementation 2 only, GIL-free)")
    p.add_argument("--oversubscribe", action="store_true",
                   help="allow more worker processes than CPUs "
                   "(--backend process only)")
    p.add_argument("--sequential", action="store_true",
                   help="use the naive sequential baseline instead")
    p.add_argument("--save", help="file (impl 1/2, or any path ending "
                   ".ridx2) or directory (impl 3) to save the index to")
    p.add_argument("--binary", action="store_true",
                   help="save in the compact RIDX1 format instead of "
                   "RIDX2 (impl 1/2 only)")
    p.add_argument("--formats", action="store_true",
                   help="extract text per file format (HTML, DocZ, ...) "
                   "before tokenizing")
    p.add_argument("--extractor", choices=("ascii", "code", "tsv"),
                   default="ascii",
                   help="extraction pipeline: 'ascii' (the paper's "
                   "tokenizer), 'code' (splits identifiers on camelCase "
                   "and snake_case), 'tsv' (indexes tab-separated "
                   "records line by line)")
    p.add_argument("--split-threshold", type=int, default=None,
                   metavar="BYTES",
                   help="chunk files larger than BYTES across workers "
                   "on separator boundaries (parallel builds only; "
                   "default: never split)")
    p.add_argument("--dynamic", choices=("steal", "queue"),
                   help="acquire work at runtime (work stealing or a "
                   "shared queue) instead of static round-robin vectors")
    p.add_argument("--on-error", choices=("strict", "skip"),
                   default="strict",
                   help="per-file error policy: 'strict' aborts the build "
                   "on the first unreadable file (default), 'skip' drops "
                   "the file, records it, and keeps building")
    p.add_argument("--max-retries", type=int, default=None,
                   help="times a batch whose worker crashed or timed out "
                   "is re-dispatched, split in half, before falling back "
                   "to in-parent indexing (--backend process only; "
                   "default 2)")
    p.add_argument("--batch-timeout", type=float, default=None,
                   help="seconds a dispatch round may run before its "
                   "unfinished batches count as hung and are retried "
                   "(--backend process only; default: no timeout)")
    _add_observability_args(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("search", help="query a saved index")
    p.add_argument("index_path", help="an .idx/.ridx file or a replica "
                   "directory")
    p.add_argument("query", help='boolean query, e.g. "cat AND (dog* OR '
                   'NOT fox)"; a trailing * makes a term a prefix wildcard')
    p.add_argument("--parallel", action="store_true",
                   help="search replicas with one thread each")
    p.add_argument("--ranked", metavar="CORPUS_DIR",
                   help="BM25 rank the hits (top --topk), computing term "
                   "frequencies from the given corpus directory")
    p.add_argument("--ondisk", action="store_true",
                   help="serve the query straight off the mmap'd RIDX2 "
                   "file (no in-memory postings); index_path must be an "
                   "RIDX2 index")
    p.add_argument("--rank", choices=("bool", "bm25"), default="bool",
                   help="result ordering: plain sorted boolean match "
                   "(default) or BM25 top-K")
    p.add_argument("--topk", type=int, default=10,
                   help="number of BM25 hits to return (default 10)")
    _add_observability_args(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "serve",
        help="serve a stream of queries concurrently over a directory",
    )
    p.add_argument("directory", help="corpus directory to index and serve")
    p.add_argument("--index", metavar="PATH",
                   help="open this saved index instead of building one "
                   "(the directory is still used for --watch refreshes)")
    p.add_argument("--workers", type=int, default=2,
                   help="evaluation slots: queries evaluated at once "
                   "(default 2)")
    p.add_argument("--max-inflight", type=int, default=32,
                   help="admission-control bound on queued+running "
                   "queries; excess queries are shed (default 32)")
    p.add_argument("--watch", type=float, metavar="SECONDS",
                   help="re-scan the directory every SECONDS and swap in "
                   "the refreshed index without stopping queries")
    p.add_argument("--queries", metavar="FILE",
                   help="newline-separated query file (default: stdin; "
                   "'#' lines are comments)")
    p.add_argument("--ondisk", action="store_true",
                   help="serve queries straight off the mmap'd RIDX2 file "
                   "given by --index (no in-memory postings; incompatible "
                   "with --watch)")
    p.add_argument("--rank", choices=("bool", "bm25"), default="bool",
                   help="answer queries with the boolean match (default) "
                   "or BM25 top-K (needs --ondisk)")
    p.add_argument("--topk", type=int, default=10,
                   help="number of BM25 hits per query (default 10)")
    p.add_argument("--compact-every", type=float, metavar="SECONDS",
                   help="run the background segment compactor every "
                   "SECONDS: refresh-sealed segments are folded back "
                   "down with layered k-way merges when the policy "
                   "says the manifest is due")
    p.add_argument("--fanin", type=int, default=4,
                   help="k-way merge width for segment compaction "
                   "(default 4)")
    p.add_argument("--max-segments", type=int, default=6,
                   help="compaction triggers once the manifest holds "
                   "more than this many segments (default 6)")
    p.add_argument("--compact-workers", type=int, default=0,
                   help="run compaction merges on a process pool of "
                   "this size (default 0 = in-process)")
    p.add_argument("--async", dest="async_frontend", action="store_true",
                   help="serve through the batched asyncio front end: "
                   "the whole query stream is submitted up front, "
                   "duplicate in-flight queries coalesce (single-"
                   "flight) and bursts are admitted batch-at-a-time "
                   "with one snapshot load each")
    p.add_argument("--batch-window", type=float, default=0.002,
                   metavar="SECONDS",
                   help="with --async: hold each admission flush open "
                   "this long so a burst accumulates into one batch "
                   "(default 0.002; 0 flushes immediately)")
    p.add_argument("--single-flight", dest="single_flight",
                   action="store_true", default=True,
                   help="with --async: coalesce duplicate in-flight "
                   "queries onto one evaluation (default)")
    p.add_argument("--no-single-flight", dest="single_flight",
                   action="store_false",
                   help="with --async: evaluate every query, even "
                   "duplicates")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="document-partition the corpus across N shard "
                   "services behind a scatter-gather broker: boolean "
                   "results merge by set-union, BM25 by a global "
                   "top-K heap-merge of scores on collection "
                   "statistics, equal to the unsharded ranking "
                   "(incompatible with --watch, --ondisk and "
                   "--compact-every)")
    p.add_argument("--replicas", type=int, default=1,
                   help="with --shards: replicas per shard; the "
                   "broker rotates to the next replica when one "
                   "dies (default 1)")
    p.add_argument("--partial", choices=("degrade", "fail"),
                   default="degrade",
                   help="with --shards: once every replica of a "
                   "shard is dead, answer from the live shards and "
                   "mark the result degraded (default) or fail the "
                   "query with a typed error")
    p.add_argument("--shard-strategy",
                   choices=("roundrobin", "sizebalanced"),
                   default="roundrobin",
                   help="with --shards: how documents are assigned "
                   "to shards (default roundrobin)")
    _add_observability_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("analyze", help="print statistics of a saved index")
    p.add_argument("index_path", help="an .idx/.ridx file or a replica "
                   "directory")
    p.add_argument("--top", type=int, default=10,
                   help="number of heavy-hitter terms to list")
    _add_observability_args(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "refresh",
        help="incrementally update a saved index after file changes",
    )
    p.add_argument("directory", help="the indexed corpus directory")
    p.add_argument("--index", required=True,
                   help="RIDX2 index file, created on first run; its "
                   "fingerprints live beside it in INDEX.state")
    _add_observability_args(p)
    p.set_defaults(func=_cmd_refresh)

    p = sub.add_parser("simulate", help="simulate one run on a paper platform")
    p.add_argument("--platform", default="quad-core",
                   choices=[pl.name for pl in ALL_PLATFORMS])
    p.add_argument("--implementation", "-i", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("-x", "--extractors", type=int, default=3)
    p.add_argument("-y", "--updaters", type=int, default=2)
    p.add_argument("-z", "--joiners", type=int, default=0)
    p.add_argument("--sequential", action="store_true")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload scale relative to the paper benchmark")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tune", help="auto-tune thread counts on a platform")
    p.add_argument("--platform", default="quad-core",
                   choices=[pl.name for pl in ALL_PLATFORMS])
    p.add_argument("--implementation", "-i", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--strategy", choices=("exhaustive", "random", "hill"),
                   default="hill")
    p.add_argument("--budget", type=int, default=40,
                   help="evaluation budget for random/hill strategies")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument("--fast", action="store_true",
                   help="coarser simulation and a narrower sweep (~6x faster)")
    p.add_argument("--markdown", metavar="FILE",
                   help="additionally write a paper-vs-measured markdown "
                   "report to FILE")
    p.set_defaults(func=_cmd_tables)

    return parser


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace_event JSON of the run to "
                   "PATH (load it in chrome://tracing or "
                   "https://ui.perfetto.dev)")
    p.add_argument("--stats", action="store_true",
                   help="print per-stage timings, worker lanes and "
                   "throughput/cache metrics after the run")


def _observability_requested(args: argparse.Namespace) -> bool:
    """Enable global span recording when --trace-out/--stats ask for it."""
    if getattr(args, "trace_out", None) or getattr(args, "stats", False):
        from repro import obs

        obs.enable()
        return True
    return False


def _emit_observability(args: argparse.Namespace, report=None) -> None:
    """Write the trace file and/or print the --stats digest."""
    from repro import obs

    spans = obs.get_recorder().spans
    if getattr(args, "trace_out", None):
        written = obs.write_chrome_trace(args.trace_out, spans)
        print(f"trace written to {args.trace_out} "
              f"({len(spans)} spans, {written} bytes)", file=sys.stderr)
    if getattr(args, "stats", False):
        metrics = (
            report.metrics
            if report is not None and report.metrics
            else obs.metrics().snapshot()
        )
        print(obs.human_summary(spans, metrics))


def _config_from(args: argparse.Namespace) -> ThreadConfig:
    return ThreadConfig(
        args.extractors,
        args.updaters,
        args.joiners,
        backend=getattr(args, "backend", "thread"),
    )


def _resolve_index_defaults(args: argparse.Namespace) -> None:
    """Fill the -i/-y/-z defaults the chosen backend implies.

    The threaded default reproduces the CLI's historical behaviour
    (Implementation 3 at (3, 2, 0)); the process backend defaults to its
    only valid shape, Implementation 2 at (x, 0, 1).
    """
    process = args.backend == "process"
    if args.implementation is None:
        args.implementation = 2 if process else 3
    if args.updaters is None:
        args.updaters = 0 if process else 2
    if args.joiners is None:
        args.joiners = 1 if process else 0


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    profile = PAPER_PROFILE.scaled(args.scale)
    if args.seed != 42:
        from dataclasses import replace

        profile = replace(profile, seed=args.seed)
    print(f"generating {profile.file_count} files, "
          f"{profile.total_bytes / 1e6:.1f} MB ...")
    if args.mixed:
        from repro.formats.mixed import generate_mixed_corpus

        mixed = generate_mixed_corpus(profile)
        count = materialize(mixed.fs, args.destination)
        breakdown = ", ".join(
            f"{name}: {n}" for name, n in sorted(mixed.format_counts.items())
        )
        print(f"wrote {count} files under {args.destination} ({breakdown})")
    else:
        corpus = CorpusGenerator(profile).generate()
        count = materialize(corpus.fs, args.destination)
        print(f"wrote {count} files under {args.destination}")
    return 0


def _reject_incompatible_index_args(args: argparse.Namespace) -> Optional[str]:
    """Flag combinations that silently do nothing (or fail deep inside
    a constructor) are rejected up front with a clear message."""
    if args.backend == "thread":
        if args.oversubscribe:
            return ("--oversubscribe only applies to --backend process "
                    "(threads share one interpreter; there is no pool "
                    "to oversubscribe)")
        if args.max_retries is not None:
            return "--max-retries only applies to --backend process"
        if args.batch_timeout is not None:
            return "--batch-timeout only applies to --backend process"
    if args.backend == "process" and args.dynamic:
        return ("--dynamic is incompatible with --backend process: the "
                "process backend distributes work as static batches; "
                "use --backend thread for work stealing or a shared "
                "queue")
    if args.sequential and args.split_threshold is not None:
        return ("--split-threshold only applies to parallel builds "
                "(chunks are extracted concurrently; the sequential "
                "baseline reads files whole)")
    if args.split_threshold is not None and args.split_threshold < 1:
        return "--split-threshold must be at least 1 byte"
    return None


def _print_failure_summary(report) -> None:
    """Echo skipped files, retries and degradation to stderr."""
    if report.degraded:
        print("warning: process pool unavailable; build degraded to the "
              "threaded Implementation 2 engine", file=sys.stderr)
    if report.retries:
        print(f"warning: {report.retries} batch(es) re-dispatched after "
              "worker crashes or timeouts", file=sys.stderr)
    if not report.failures:
        return
    print(f"warning: skipped {len(report.failures)} file(s):",
          file=sys.stderr)
    shown = 10
    for failure in report.failures[:shown]:
        print(f"  {failure}", file=sys.stderr)
    if len(report.failures) > shown:
        print(f"  ... and {len(report.failures) - shown} more",
              file=sys.stderr)


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.extract import get_extractor
    from repro.formats import default_registry

    conflict = _reject_incompatible_index_args(args)
    if conflict is not None:
        print(f"error: {conflict}", file=sys.stderr)
        return 2
    observing = _observability_requested(args)
    fs = OsFileSystem(args.directory)
    registry = default_registry() if args.formats else None
    extractor = get_extractor(args.extractor, registry=registry)
    if args.sequential:
        try:
            report = SequentialIndexer(
                fs, extractor=extractor, on_error=args.on_error
            ).build()
        except OSError as exc:
            print(f"error: build failed: {exc}", file=sys.stderr)
            return 1
    else:
        _resolve_index_defaults(args)
        implementation = Implementation(args.implementation)
        try:
            config = _config_from(args)
            config.validate_for(implementation)
            report = IndexGenerator(
                fs,
                extractor=extractor,
                split_threshold=args.split_threshold,
                dynamic=args.dynamic,
                oversubscribe=args.oversubscribe,
                on_error=args.on_error,
                max_retries=(
                    args.max_retries if args.max_retries is not None else 2
                ),
                batch_timeout=args.batch_timeout,
            ).build(implementation, config)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            # Under --on-error strict an unreadable file aborts the
            # build; report it as a build failure, not a traceback.
            print(f"error: build failed: {exc}", file=sys.stderr)
            return 1
    _print_failure_summary(report)
    print(report.summary())
    if observing:
        _emit_observability(args, report)
    if args.save:
        index = report.index
        ridx2 = not args.binary and args.save.lower().endswith(".ridx2")
        if ridx2 and isinstance(index, MultiIndex):
            # A .ridx2 path is one file, never a replica directory:
            # join the replicas as Search.build flattens them.
            index = join_indices(index.replicas)
        if isinstance(index, MultiIndex):
            if args.binary:
                print("error: --binary supports single-index "
                      "implementations (1 and 2)", file=sys.stderr)
                return 2
            save_multi_index(index, args.save)
            print(f"index saved to {args.save}")
        elif ridx2:
            # RIDX2 can carry real term frequencies and document
            # lengths; re-scan the corpus for them so BM25 served off
            # this file scores exactly like the in-memory ranker.
            from repro.query import FrequencyIndex

            frequencies = FrequencyIndex.from_fs(fs, extractor=extractor)
            written = save_index(
                index, args.save, format="ridx2",
                frequencies=frequencies,
            )
            print(f"index saved to {args.save} ({written} bytes, "
                  "RIDX2 with frequencies)")
        else:
            written = save_index(
                index,
                args.save,
                format="binary" if args.binary else "ridx2",
            )
            print(f"index saved to {args.save} ({written} bytes, "
                  f"{'RIDX1' if args.binary else 'RIDX2'})")
    return 0


def _print_ranked_hits(hits) -> None:
    for hit in hits:
        print(f"{hit.score:8.3f}  {hit.path}")
    print(f"-- {len(hits)} file(s)", file=sys.stderr)


def _cmd_search(args: argparse.Namespace) -> int:
    try:
        return _search(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _search(args: argparse.Namespace) -> int:
    if args.topk < 1:
        print("error: --topk must be at least 1", file=sys.stderr)
        return 2
    observing = _observability_requested(args)

    if args.ondisk:
        from repro.index import IndexFormatError, MmapPostingsReader
        from repro.query.daat import NO_FREQS, DaatQueryEngine

        try:
            reader = MmapPostingsReader(args.index_path)
        except (IndexFormatError, OSError) as exc:
            print(f"error: --ondisk needs an RIDX2 index file: {exc}",
                  file=sys.stderr)
            return 2
        with reader:
            if args.rank == "bm25" and not reader.has_freqs:
                print(f"error: {NO_FREQS}", file=sys.stderr)
                return 2
            daat = DaatQueryEngine(reader)
            if args.rank == "bm25":
                _print_ranked_hits(
                    daat.search_bm25(args.query, topk=args.topk)
                )
            else:
                paths = daat.search(args.query, parallel=args.parallel)
                for path in paths:
                    print(path)
                print(f"-- {len(paths)} file(s)", file=sys.stderr)
            stats = reader.stats()
        print(f"-- blocks: {stats['ondisk.blocks_read']} read, "
              f"{stats['ondisk.blocks_skipped']} skipped", file=sys.stderr)
        if observing:
            _emit_observability(args)
        return 0

    if os.path.isdir(args.index_path):
        # Implementation 3's unjoined replicas: searched as they are.
        engine = QueryEngine(load_multi_index(args.index_path))
    else:
        # A file opens the way the library opens it: RIDX2 is mapped,
        # not loaded, and the query decodes only the lists it touches.
        from repro.api import Search

        engine = Search.open(args.index_path, cache=0).snapshot().engine
    if args.rank == "bm25" and not args.ranked:
        print("error: in-memory BM25 needs term frequencies; pass "
              "--ranked CORPUS_DIR (or use --ondisk against an RIDX2 "
              "index with frequencies baked in)", file=sys.stderr)
        return 2
    if args.ranked:
        from repro.query import BM25Ranker, FrequencyIndex, search_bm25

        frequencies = FrequencyIndex.from_fs(OsFileSystem(args.ranked))
        _print_ranked_hits(search_bm25(
            engine, BM25Ranker(frequencies), args.query,
            topk=args.topk, parallel=args.parallel,
        ))
        if observing:
            _emit_observability(args)
        return 0
    paths = engine.search(args.query, parallel=args.parallel)
    for path in paths:
        print(path)
    print(f"-- {len(paths)} file(s)", file=sys.stderr)
    if observing:
        _emit_observability(args)
    return 0


def _drive_async_frontend(frontend, texts, rank="bool", topk=10):
    """Run a query stream through the asyncio face, preserving order.

    All queries are in flight at once — this is what lets the frontend
    coalesce duplicates and batch admissions across the whole stream.
    Returns ``(text, result, error)`` triples in submission order.
    """
    import asyncio

    from repro.service import ServiceOverloadedError, ShardDeadError

    async def run():
        tasks = [
            asyncio.ensure_future(
                frontend.query_async(text, rank=rank, topk=topk)
            )
            for text in texts
        ]
        outcomes = []
        for text, task in zip(texts, tasks):
            try:
                outcomes.append((text, await task, None))
            except (ParseError, ServiceOverloadedError, ShardDeadError,
                    ValueError) as exc:
                outcomes.append((text, None, exc))
        return outcomes

    return asyncio.run(run())


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api import Search
    from repro.service import ServiceOverloadedError, ShardDeadError

    if args.watch is not None and args.watch <= 0:
        print("error: --watch requires a positive interval in seconds",
              file=sys.stderr)
        return 2
    if args.workers < 1 or args.max_inflight < 1:
        print("error: --workers and --max-inflight must be at least 1",
              file=sys.stderr)
        return 2
    if args.topk < 1:
        print("error: --topk must be at least 1", file=sys.stderr)
        return 2
    if args.batch_window < 0:
        print("error: --batch-window must be non-negative",
              file=sys.stderr)
        return 2
    if args.shards:
        if args.shards < 2:
            print("error: --shards needs at least 2 shards (omit it "
                  "for a single-service deployment)", file=sys.stderr)
            return 2
        if args.replicas < 1:
            print("error: --replicas must be at least 1",
                  file=sys.stderr)
            return 2
        if args.watch:
            print("error: --shards serves an immutable document "
                  "partition; --watch cannot refresh it (rebuild and "
                  "restart instead)", file=sys.stderr)
            return 2
        if args.ondisk:
            print("error: --shards partitions the in-memory index; "
                  "--ondisk is the single-file mmap serving path",
                  file=sys.stderr)
            return 2
        if args.compact_every is not None:
            print("error: --shards serves an immutable document "
                  "partition; --compact-every cannot restructure it",
                  file=sys.stderr)
            return 2
    if args.ondisk:
        if not args.index:
            print("error: --ondisk needs --index pointing at an RIDX2 "
                  "file", file=sys.stderr)
            return 2
        if args.watch:
            print("error: --ondisk serves an immutable mmap'd file; "
                  "--watch cannot refresh it (rebuild and restart "
                  "instead)", file=sys.stderr)
            return 2
    elif args.rank == "bm25" and not args.shards:
        print("error: --rank bm25 under serve needs --ondisk (BM25 is "
              "scored from the RIDX2 file's frequencies) or --shards "
              "(scored from the collection's frequencies)", file=sys.stderr)
        return 2
    if args.compact_every is not None:
        if args.compact_every <= 0:
            print("error: --compact-every requires a positive interval "
                  "in seconds", file=sys.stderr)
            return 2
        if args.ondisk:
            print("error: --ondisk serves an immutable mmap'd file; "
                  "--compact-every cannot restructure it", file=sys.stderr)
            return 2
    if args.fanin < 2 or args.max_segments < 1 or args.compact_workers < 0:
        print("error: --fanin must be >= 2, --max-segments >= 1 and "
              "--compact-workers >= 0", file=sys.stderr)
        return 2
    observing = _observability_requested(args)

    reader = None
    if args.ondisk:
        from repro.index import IndexFormatError, MmapPostingsReader
        from repro.query.daat import NO_FREQS
        from repro.service import SearchService
        from repro.service.snapshot import IndexSnapshot

        try:
            reader = MmapPostingsReader(args.index)
        except (IndexFormatError, OSError) as exc:
            print(f"error: --ondisk needs an RIDX2 index file: {exc}",
                  file=sys.stderr)
            return 2
        if args.rank == "bm25" and not reader.has_freqs:
            reader.close()
            print(f"error: {NO_FREQS}", file=sys.stderr)
            return 2
        snapshot = IndexSnapshot.from_ondisk(reader)
        # Behind --async the frontend evaluates; the service keeps one
        # worker only for completeness.
        service_cm = SearchService(
            snapshot,
            workers=1 if args.async_frontend else args.workers,
            max_inflight=args.max_inflight,
        )
        print(f"serving {reader.doc_count} file(s) off mmap "
              f"({reader.term_count} terms) with {args.workers} worker(s)",
              file=sys.stderr)
    session = None
    if not args.ondisk:
        if args.index:
            session = Search.open(args.index, source=args.directory)
        else:
            session = Search.build(args.directory)
        if args.shards:
            service_cm = session.serve_sharded(
                shards=args.shards,
                replicas=args.replicas,
                strategy=args.shard_strategy,
                partial=args.partial,
                workers=1 if args.async_frontend else args.workers,
                max_inflight=args.max_inflight,
                bm25=(args.rank == "bm25"),
            )
            print(f"serving {len(session)} file(s) across "
                  f"{args.shards} shard(s) x {args.replicas} "
                  f"replica(s), partial={args.partial}",
                  file=sys.stderr)
        else:
            service_cm = session.serve(
                workers=1 if args.async_frontend else args.workers,
                max_inflight=args.max_inflight,
            )
            print(f"serving {len(session)} file(s) with {args.workers} "
                  f"worker(s)", file=sys.stderr)

    stream = (
        open(args.queries, "r", encoding="utf-8")
        if args.queries
        else sys.stdin
    )
    served = failed = 0
    compactor = None
    try:
        with service_cm as service:
            if args.watch:
                service.start_watch(args.watch)
            if args.compact_every and session is not None:
                from repro.index.segments import CompactionPolicy

                compactor = session.start_compactor(
                    args.compact_every,
                    policy=CompactionPolicy(
                        fanin=args.fanin, max_segments=args.max_segments
                    ),
                    workers=args.compact_workers,
                )
            frontend = None
            if args.async_frontend:
                from repro.service import AsyncSearchFrontend

                frontend = AsyncSearchFrontend(
                    service,
                    batch_window=args.batch_window,
                    single_flight=args.single_flight,
                    workers=args.workers,
                    max_inflight=args.max_inflight,
                )
            try:
                def run_one(text):
                    return service.query(text, rank=args.rank,
                                         topk=args.topk)

                def emit(text, result):
                    print(f"[gen {result.generation}] {text} "
                          f"-> {len(result)} file(s)")
                    if result.hits is not None:
                        for hit in result.hits:
                            print(f"  {hit.score:8.3f}  {hit.path}")
                    else:
                        for path in result:
                            print(f"  {path}")

                texts = [
                    text for text in (line.strip() for line in stream)
                    if text and not text.startswith("#")
                ]
                if frontend is not None:
                    outcomes = _drive_async_frontend(
                        frontend, texts, rank=args.rank, topk=args.topk
                    )
                else:
                    outcomes = []
                    for text in texts:
                        try:
                            outcomes.append((text, run_one(text), None))
                        except (ParseError, ServiceOverloadedError,
                                ShardDeadError, ValueError) as exc:
                            outcomes.append((text, None, exc))
                for text, result, error in outcomes:
                    if error is not None:
                        print(f"error: {text}: {error}", file=sys.stderr)
                        failed += 1
                        continue
                    emit(text, result)
                    served += 1
            finally:
                if frontend is not None:
                    frontend.close()
                if stream is not sys.stdin:
                    stream.close()
        stats = service.stats()
        if args.shards:
            print(f"-- served {served} query(ies), {failed} failed; "
                  f"shards {stats['broker.shards_ok']:.0f}/"
                  f"{stats['broker.shards_total']:.0f} alive, "
                  f"{stats['broker.degraded']:.0f} degraded, "
                  f"{stats['broker.shed']:.0f} shed, "
                  f"{stats['broker.failed']:.0f} dead-shard "
                  f"failure(s)", file=sys.stderr)
        else:
            print(f"-- served {served} query(ies), {failed} failed; "
                  f"generation {stats['service.generation']:.0f}, "
                  f"shed {stats['service.shed']:.0f}", file=sys.stderr)
        if frontend is not None:
            fstats = frontend.stats()
            print(f"-- frontend: {fstats['frontend.batches']:.0f} "
                  f"batch(es), {fstats['frontend.coalesced']:.0f} "
                  f"coalesced, {fstats['frontend.cached']:.0f} cached, "
                  f"{fstats['frontend.shed']:.0f} shed, "
                  f"{fstats['frontend.evaluations']:.0f} evaluation(s)",
                  file=sys.stderr)
        if reader is not None:
            io_stats = reader.stats()
            print(f"-- blocks: {io_stats['ondisk.blocks_read']} read, "
                  f"{io_stats['ondisk.blocks_skipped']} skipped",
                  file=sys.stderr)
        if session is not None:
            manifest = session.manifest
            print(f"-- segments: {manifest.segment_count}, "
                  f"tombstones {len(manifest.tombstones)}, "
                  f"generation {manifest.generation}", file=sys.stderr)
    finally:
        if compactor is not None:
            compactor.stop()
        if reader is not None:
            reader.close()
    if observing:
        _emit_observability(args)
    return 0 if failed == 0 else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.index.analysis import (
        analyze,
        estimate_memory_bytes,
        postings_histogram,
        top_terms,
    )

    observing = _observability_requested(args)
    # Whole-index statistics: every format loads in full, sniffed.
    load = load_multi_index if os.path.isdir(args.index_path) else load_index
    index = load(args.index_path)
    stats = analyze(index)
    print(f"terms:            {stats.term_count}")
    print(f"postings:         {stats.posting_count}")
    print(f"postings/term:    mean {stats.mean_postings:.2f}, "
          f"median {stats.median_postings:.1f}, max {stats.max_postings}")
    print(f"singleton terms:  {stats.singleton_terms} "
          f"({stats.singleton_fraction:.0%})")
    print(f"est. memory:      {estimate_memory_bytes(index) / 1e6:.2f} MB")
    print(f"top {args.top} terms by document frequency:")
    for term, count in top_terms(index, args.top):
        print(f"  {count:>8}  {term}")
    print("postings-length histogram (log2 buckets):")
    for low, high, count in postings_histogram(index):
        label = f"{low}..{high}" if high != -1 else f"{low}+"
        print(f"  {label:>12}: {count}")
    if observing:
        _emit_observability(args)
    return 0


def _cmd_refresh(args: argparse.Namespace) -> int:
    from repro.api import Search

    observing = _observability_requested(args)
    source = OsFileSystem(args.directory)
    if os.path.exists(args.index):
        session = Search.open(args.index, source=source)
        report = session.refresh()
    else:
        session = Search.build(source)
        report = ChangeReport(added=session.universe)
    print(f"refresh: +{len(report.added)} added, "
          f"-{len(report.removed)} removed, "
          f"~{len(report.modified)} modified")
    session.save(args.index)
    print(f"index: {args.index}, state: {args.index}.state")
    if observing:
        _emit_observability(args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    platform = platform_by_name(args.platform)
    workload = _workload_at_scale(args.scale)
    pipeline = SimPipeline(platform, workload)
    if args.sequential:
        result = pipeline.run_sequential()
    else:
        implementation = Implementation(args.implementation)
        config = _config_from(args)
        try:
            config.validate_for(implementation)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = pipeline.run(implementation, config)
    print(result.summary())
    print(f"  disk utilization {result.disk_utilization:.0%}, "
          f"cpu utilization {result.cpu_utilization:.0%}")
    if result.lock_acquires:
        print(f"  index lock: {result.lock_acquires} acquires, "
              f"{result.lock_contended} contended, "
              f"{result.lock_wait_s:.1f}s total wait")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    platform = platform_by_name(args.platform)
    implementation = Implementation(args.implementation)
    workload = _workload_at_scale(1.0)
    pipeline = SimPipeline(platform, workload)
    space = ConfigurationSpace(implementation)
    strategies = {
        "exhaustive": ExhaustiveSearch(),
        "random": RandomSearch(budget=args.budget),
        "hill": HillClimbing(restarts=3, budget=args.budget),
    }
    result = strategies[args.strategy].run(
        space, lambda config: pipeline.run(implementation, config).total_s
    )
    print(f"{implementation.paper_name} on {platform.name}: "
          f"best {result.best_config} -> {result.best_value:.1f}s "
          f"({result.evaluations} evaluations)")
    for config, value in result.top(5):
        print(f"  {config}: {value:.1f}s")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    workload = _workload_at_scale(1.0)
    sweep = (
        dict(max_extractors=8, max_updaters=4, batches_per_extractor=60)
        if args.fast
        else {}
    )
    table1_rows = run_table1(workload)
    print(render_table1(table1_rows))
    results = {"table1": table1_rows}
    for platform in ALL_PLATFORMS:
        table = run_best_config_table(platform, workload, **sweep)
        results[platform.name] = table
        print()
        print(render_best_config_table(table))
    if args.markdown:
        from repro.experiments import comparison_report

        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(comparison_report(results) + "\n")
        print(f"\nmarkdown report written to {args.markdown}")
    return 0


def _workload_at_scale(scale: float) -> Workload:
    if scale == 1.0:
        return Workload.synthesize()
    profile = PAPER_PROFILE.scaled(scale)
    return Workload.synthesize(WorkloadSpec(profile=profile))


if __name__ == "__main__":
    sys.exit(main())
