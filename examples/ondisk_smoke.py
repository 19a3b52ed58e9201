"""On-disk serving smoke test: 170 mixed queries answered off mmap.

Builds an index over a synthetic corpus, saves it as RIDX2 (with term
frequencies baked in), then stands up a
:class:`~repro.service.service.SearchService` over an mmap-backed
snapshot — postings are decoded block-by-block from the file, never
materialized into dicts.  170 mixed boolean/BM25 queries, nested ones
included, drawn from the corpus's own vocabulary are served, and every
answer is differentially checked against the in-memory engine: boolean
results must be list-identical, BM25 results identical down to the
float.  The ranked battery holds the shapes where a term's match-time
decode does not cover every match — a ``NOT`` over an ``AND``, an
``AND`` that stops early inside an ``OR`` — and a prefix under ``AND``.

The run also asserts that block skipping actually fired
(``blocks_skipped > 0``) — a smoke that passes by decoding everything
would not be testing it — that a ranked single-term query reads exactly
as many blocks as its boolean twin (BM25 scores from the blocks its
match decoded), and prints the blocks read per query.  It checks that
the service starts no thread and that every ``service.query`` span ran
on the thread that asked, that a fresh reader ranks the 90 queries and
answers the 80 boolean ones exactly as the warmed one does (the
lexicon probe memo, the term memo and the decode memo change no
answer), that the warmed reader's probe memo stays within its bound,
that its term memo holds between 1 and ``term_count`` entries, that a
burst of absent-term probes does not grow it, and that its decode memo
holds between 1 and ``DECODE_MEMO_POSTINGS`` postings after serving,
exactly the ids and tfs its one block map holds.  A fresh bare reader,
never asked for its doc table, must resolve ids as that table does.

Run:  PYTHONPATH=src python examples/ondisk_smoke.py [index.ridx2]
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading

from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.engine import SequentialIndexer
from repro.index import MmapPostingsReader, save_index
from repro.index.ondisk import DECODE_MEMO_POSTINGS, PROBE_MEMO_MAX
from repro.obs import recorder as obsrec
from repro.query import BM25Ranker, FrequencyIndex, QueryEngine, search_bm25
from repro.query.daat import DaatQueryEngine
from repro.service import SearchService
from repro.service.snapshot import IndexSnapshot

TOTAL_QUERIES = 170
TOPK = 10


def build_queries(index):
    """80 boolean + 90 ranked queries over the corpus's real vocabulary.

    Deterministic: drawn from the document-frequency extremes so the
    battery exercises long multi-block postings (frequent terms),
    filters through them (AND with rare terms), complements, nested
    AND / OR / NOT, and wildcards.
    """
    by_df = sorted(index.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    frequent = [term for term, _ in by_df[:10]]
    rare = [term for term, _ in by_df[-10:]]
    boolean = []
    for i in range(10):
        f, f2 = frequent[i], frequent[(i + 1) % 10]
        r, r2 = rare[i], rare[(i + 1) % 10]
        boolean.append(f)
        boolean.append(r)
        boolean.append(f"{f} AND {r}")
        boolean.append(f"{f} AND NOT {f2}")
        boolean.append(f"{r} OR {r2}")
        # Nested: an Or driving a NOT filter, a bare complement, and a
        # frequent list filtered by the union of two rare ones.
        boolean.append(f"({f} OR {r}) AND NOT {f2}")
        boolean.append(f"NOT {r}")
        boolean.append(f"{f} AND ({r} OR {r2})")
    ranked = []
    for i in range(10):
        f, f2, f3 = frequent[i], frequent[(i + 1) % 10], frequent[(i + 2) % 10]
        r, r2 = rare[i], rare[(i + 1) % 10]
        ranked.append(f)
        ranked.append(r)
        ranked.append(f"{f} OR {r}")
        ranked.append(f"{f} AND {f2}")
        ranked.append(f"{f[:3]}*")
        ranked.append(f"{f} AND ({r} OR {r2})")
        ranked.append(f"({f} OR {r}) AND NOT ({f2} AND {f3})")
        ranked.append(f"(zzzabsent AND {f2}) OR {r}")
        ranked.append(f"{f[:3]}* AND {f2}")
    assert len(boolean) + len(ranked) == TOTAL_QUERIES
    return boolean, ranked


def main(path: str | None = None) -> int:
    if path is not None:
        return run(path)
    # Without a path the index lives and dies in a temporary directory.
    with tempfile.TemporaryDirectory() as directory:
        return run(os.path.join(directory, "smoke.ridx2"))


def run(path: str) -> int:
    corpus = CorpusGenerator(PAPER_PROFILE.scaled(0.01, name="smoke")).generate()
    report = SequentialIndexer(corpus.fs, naive=False).build()
    frequencies = FrequencyIndex.from_fs(corpus.fs)
    written = save_index(
        report.index, path, format="ridx2", frequencies=frequencies
    )
    print(f"indexed {report.file_count} files, "
          f"{len(report.index)} terms -> {path} ({written} bytes, RIDX2)")

    memory = QueryEngine(
        report.index,
        universe=frozenset(ref.path for ref in corpus.fs.list_files()),
    )
    ranker = BM25Ranker(frequencies)
    boolean, ranked = build_queries(report.index)

    mismatches = []
    threads_before = set(threading.enumerate())
    recorder = obsrec.Recorder()
    previous = obsrec.set_recorder(recorder)
    with MmapPostingsReader(path) as reader:
        term_count = reader.term_count
        snapshot = IndexSnapshot.from_ondisk(reader)
        with SearchService(snapshot, workers=2) as service:
            started = set(threading.enumerate()) - threads_before
            for query in boolean:
                got = service.query(query).paths
                expected = memory.search(query)
                if got != expected:
                    mismatches.append(("bool", query, got, expected))
            for query in ranked:
                hits = service.query(query, rank="bm25", topk=TOPK).hits
                expected = search_bm25(memory, ranker, query, topk=TOPK)
                if [(h.path, h.score) for h in hits] != [
                    (h.path, h.score) for h in expected
                ]:
                    mismatches.append(("bm25", query, hits, expected))
            stats = service.stats()
        blocks = reader.stats()
        decoded = blocks["ondisk.memo_postings"]
        held = sum(
            len(value) for value in reader._blocks.values()
            if isinstance(value, list)
        )
        # A fresh engine, so no cached answer hides a read.
        engine, term = DaatQueryEngine(reader), boolean[0]
        before = reader.blocks_read
        engine.search(term)
        boolean_blocks = reader.blocks_read - before
        engine.search_bm25(term, topk=TOPK)
        ranked_blocks = reader.blocks_read - before - boolean_blocks
        memoized = len(reader._probe_memo)
        terms_memoized = len(reader._term_memo)
        for i in range(1000):
            reader.term_info(f"zzzabsent{i}")
        absent_grew = len(reader._term_memo) - terms_memoized
        with MmapPostingsReader(path) as bare:
            ids = list(range(bare.doc_count))[::-7]
            by_id = bare.doc_paths_of(ids)
            table = bare.doc_paths()
            table_ids = [table[i] for i in ids]
        with MmapPostingsReader(path) as fresh_reader:
            fresh = DaatQueryEngine(fresh_reader)
            for query in boolean:
                got, expected = engine.search(query), fresh.search(query)
                if got != expected:
                    mismatches.append(("warm bool", query, got, expected))
            for query in ranked:
                got = engine.search_bm25(query, topk=TOPK)
                expected = fresh.search_bm25(query, topk=TOPK)
                if got != expected:
                    # "memory" in the report below is the fresh reader.
                    mismatches.append(("warm bm25", query, got, expected))
    obsrec.set_recorder(previous)
    query_threads = {
        span.tid for span in recorder.spans if span.name == "service.query"
    }

    print(f"served {TOTAL_QUERIES} queries ({len(boolean)} boolean, "
          f"{len(ranked)} bm25); service stats: {stats}")
    print(f"blocks: {blocks['ondisk.blocks_read']} read "
          f"({blocks['ondisk.blocks_read'] / TOTAL_QUERIES:.2f} per query), "
          f"{blocks['ondisk.blocks_skipped']} skipped")

    if mismatches:
        mode, query, got, expected = mismatches[0]
        print(f"FAIL: {len(mismatches)} differential mismatches, e.g. "
              f"{mode} query {query!r}: mmap={got!r} memory={expected!r}",
              file=sys.stderr)
        return 1
    if started:
        print(f"FAIL: the service started threads "
              f"{sorted(thread.name for thread in started)}", file=sys.stderr)
        return 1
    if query_threads != {threading.get_ident()}:
        print("FAIL: service.query spans ran on threads "
              f"{sorted(query_threads)}, not only on the caller's "
              f"{threading.get_ident()}", file=sys.stderr)
        return 1
    if ranked_blocks != boolean_blocks:
        print(f"FAIL: ranked {term!r} read {ranked_blocks} blocks, its "
              f"boolean twin {boolean_blocks}", file=sys.stderr)
        return 1
    if not 0 < memoized <= PROBE_MEMO_MAX:
        print(f"FAIL: the warmed reader memoized {memoized} lexicon "
              f"records, outside 1..{PROBE_MEMO_MAX}", file=sys.stderr)
        return 1
    if not 0 < terms_memoized <= term_count:
        print(f"FAIL: the warmed reader memoized {terms_memoized} terms, "
              f"outside 1..{term_count}", file=sys.stderr)
        return 1
    if absent_grew:
        print(f"FAIL: 1000 absent-term probes grew the term memo by "
              f"{absent_grew} entries", file=sys.stderr)
        return 1
    if not 0 < decoded <= DECODE_MEMO_POSTINGS:
        print(f"FAIL: the warmed reader's decode memo holds {decoded} "
              f"postings, outside 1..{DECODE_MEMO_POSTINGS}", file=sys.stderr)
        return 1
    if held != decoded:
        print(f"FAIL: the warmed reader counts {decoded} memoized postings "
              f"but its block map holds {held} ids and tfs", file=sys.stderr)
        return 1
    if by_id != table_ids:
        print(f"FAIL: a bare reader resolved {len(ids)} ids to paths its "
              "doc table does not hold", file=sys.stderr)
        return 1
    if blocks["ondisk.blocks_skipped"] <= 0:
        print("FAIL: no posting blocks were skipped — the DAAT seek "
              "path never engaged", file=sys.stderr)
        return 1
    print("OK: every mmap answer matched the in-memory engine, "
          "with block skipping engaged, on the caller's thread; ranked "
          f"{term!r} read {ranked_blocks} blocks, as its boolean twin; "
          f"a fresh reader answered as the warmed one ({memoized} lexicon "
          f"records, {terms_memoized} of {term_count} terms and "
          f"{decoded} decoded postings memoized; absent terms kept none)")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
