"""Desktop search end-to-end on a real directory.

The scenario the paper's introduction motivates: a user's document
folder must be indexed and searched.  This example materializes a
synthetic document tree on disk, indexes it with all three of the
paper's implementations (verifying they produce identical indices),
persists the winner's index, and answers queries from the saved index —
the complete desktop-search life cycle on the real filesystem.

Run:  python examples/desktop_search.py
"""

import os
import shutil
import tempfile
import time

from repro import QueryEngine, ThreadConfig
from repro.corpus import PAPER_PROFILE, CorpusGenerator, materialize
from repro.engine import Implementation, IndexGenerator
from repro.fsmodel import OsFileSystem
from repro.index import join_indices, load_multi_index, save_multi_index

RUNS = [
    (Implementation.SHARED_LOCKED, ThreadConfig(3, 1, 0)),
    (Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)),
    (Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)),
]


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="desktop-search-")
    try:
        documents = os.path.join(workdir, "documents")
        index_dir = os.path.join(workdir, "index")

        # 1. A 0.4%-scale replica of the paper's benchmark (~200 files).
        corpus = CorpusGenerator(PAPER_PROFILE.scaled(0.004)).generate()
        count = materialize(corpus.fs, documents)
        print(f"materialized {count} documents under {documents}")

        # 2. Index with all three implementations; verify equivalence.
        fs = OsFileSystem(documents)
        generator = IndexGenerator(fs)
        reports = {}
        for implementation, config in RUNS:
            t0 = time.perf_counter()
            report = generator.build(implementation, config)
            elapsed = time.perf_counter() - t0
            reports[implementation] = report
            print(f"  {implementation.paper_name} {config}: "
                  f"{elapsed:.2f}s wall, {report.term_count} terms, "
                  f"{report.posting_count} postings")

        multi = reports[Implementation.REPLICATED_UNJOINED].index
        joined = reports[Implementation.REPLICATED_JOINED].index
        shared = reports[Implementation.SHARED_LOCKED].index
        assert join_indices(multi.replicas) == joined == shared
        print("all three implementations produced identical indices")

        # 3. Persist Implementation 3's replicas and reload them — the
        #    join is never paid, not even at save time.
        save_multi_index(multi, index_dir)
        loaded = load_multi_index(index_dir)
        print(f"saved and reloaded {len(loaded.replicas)} replicas")

        # 4. Query the saved index: the replicas are probed in turn.
        universe = [ref.path for ref in fs.list_files()]
        engine = QueryEngine(loaded, universe=universe)
        vocabulary = corpus.vocabulary
        queries = [
            vocabulary[0],
            f"{vocabulary[0]} AND {vocabulary[5]}",
            f"({vocabulary[0]} OR {vocabulary[1]}) AND NOT {vocabulary[2]}",
        ]
        for query in queries:
            hits = engine.search(query)
            print(f"  search {query!r}: {len(hits)} file(s)")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
