"""Quickstart: build an index in memory and search it.

Generates a small synthetic corpus (no disk I/O), indexes it with the
paper's winning design (Implementation 3: replicated indices, never
joined), and runs a few boolean queries.

Run:  python examples/quickstart.py
"""

from repro import QueryEngine, ThreadConfig
from repro.corpus import TINY_PROFILE, CorpusGenerator
from repro.engine import Implementation, IndexGenerator


def main() -> None:
    # 1. A deterministic synthetic corpus: ~60 ASCII files, Zipfian text.
    corpus = CorpusGenerator(TINY_PROFILE).generate()
    stats = corpus.stats()
    print(f"corpus: {stats.file_count} files, {stats.total_bytes / 1e3:.0f} KB")

    # 2. Build the index: 3 extractor threads feed 2 updater threads,
    #    each updater owns a private index replica (config (3, 2, 0)).
    report = IndexGenerator(corpus.fs).build(
        Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
    )
    print(report.summary())

    # 3. Search.  Implementation 3 leaves the replicas unjoined; the
    #    query engine unions them (optionally with a thread per replica).
    universe = [ref.path for ref in corpus.fs.list_files()]
    engine = QueryEngine(report.index, universe=universe)

    common = corpus.vocabulary[0]  # rank-0 word: appears almost everywhere
    rare = corpus.vocabulary[len(corpus.vocabulary) - 1]
    for query in (common, f"{common} AND {rare}", f"{common} AND NOT {rare}"):
        hits = engine.search(query, parallel=True)
        print(f"  {query!r}: {len(hits)} file(s)"
              + (f", e.g. {hits[0]}" if hits else ""))


if __name__ == "__main__":
    main()
