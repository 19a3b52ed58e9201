"""Segmented-index smoke test: churn, background compaction, byte parity.

Builds a session over a synthetic corpus, then runs mutate/refresh
rounds (adds, edits, deletes) while a :class:`BackgroundCompactor`
folds sealed segments together in-process.  The oracle is
merge equivalence: after a final forced compaction the manifest's
canonical RIDX2 bytes must be *identical* to a from-scratch rebuild of
the filesystem — any divergence in the segment/tombstone bookkeeping
shows up as a byte diff.

Run:  PYTHONPATH=src python examples/segments_smoke.py
"""

from __future__ import annotations

import sys
import time

from repro import Search
from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.engine import SequentialIndexer
from repro.index.binfmt import dump_index_ridx2
from repro.index.segments import CompactionPolicy

ROUNDS = 6
MARKER = "glockenspielsmoke"


def main() -> int:
    corpus = CorpusGenerator(TINY_PROFILE).generate()
    session = Search.build(corpus.fs)
    print(f"indexed {len(session)} files; running {ROUNDS} churn rounds "
          f"with background compaction")

    policy = CompactionPolicy(fanin=2, max_segments=3)
    compactor = session.start_compactor(0.02, policy=policy)
    try:
        for round_no in range(1, ROUNDS + 1):
            corpus.fs.write_file(
                f"smoke-{round_no}.txt",
                f"{MARKER} round {round_no}".encode(),
            )
            if round_no > 2:
                corpus.fs.replace_file(
                    f"smoke-{round_no - 2}.txt",
                    f"{MARKER} rewritten in {round_no}".encode(),
                )
            if round_no > 3:
                corpus.fs.remove_file(f"smoke-{round_no - 3}.txt")
            change = session.refresh()
            manifest = session.manifest
            print(f"  round {round_no}: {change} -> "
                  f"{manifest.segment_count} segment(s), "
                  f"{len(manifest.tombstones)} tombstone(s)")
            time.sleep(0.04)  # let the compactor take a tick
    finally:
        compactor.stop()

    session.compact(force=True)
    manifest = session.manifest
    print(f"final: {manifest.segment_count} segment(s), "
          f"generation {manifest.generation}")

    hits = session.query(MARKER)
    live = sorted(p for p in manifest.live_paths() if p.startswith("smoke-"))
    if sorted(hits) != live:
        print(f"FAIL: query answered {sorted(hits)}, live files are {live}",
              file=sys.stderr)
        return 1

    rebuilt = SequentialIndexer(corpus.fs, naive=False).build().index
    if manifest.to_ridx2() != dump_index_ridx2(rebuilt):
        print("FAIL: compacted manifest bytes differ from a from-scratch "
              "rebuild", file=sys.stderr)
        return 1
    if manifest.segment_count > 1 or manifest.tombstones:
        print(f"FAIL: compaction left {manifest.segment_count} segments, "
              f"{len(manifest.tombstones)} tombstones", file=sys.stderr)
        return 1
    print("OK: compacted segments byte-identical to a from-scratch rebuild")
    return 0


if __name__ == "__main__":
    sys.exit(main())
