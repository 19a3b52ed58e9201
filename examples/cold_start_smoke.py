"""Cold-start smoke test: a saved index is opened, not loaded.

Builds a session over a synthetic corpus, saves it as ``x.ridx`` (which
``Search.save`` writes as RIDX2) and reopens the file in a **fresh
process**, the way ``repro-cli search`` or a restarted server meets it.
The child asserts what the design promises:

* the opened session's manifest is one ``DiskSegment`` over the file —
  nothing was decoded into an ``InvertedIndex``;
* after one single-term query the segment's reader has read exactly one
  posting block (an eager load reads every posting of every term);
* one hundred mixed boolean queries answer exactly as the session that
  built the index answered them.

Run:  PYTHONPATH=src python examples/cold_start_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from repro import Search
from repro.corpus import CorpusGenerator, PAPER_PROFILE
from repro.index import DiskSegment

TOTAL_QUERIES = 100


def build_queries(index):
    """100 boolean queries over the corpus's real vocabulary: terms from
    both ends of the document-frequency order, conjunctions,
    complements, disjunctions and prefixes."""
    by_df = sorted(index.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    frequent = [term for term, _ in by_df[:20]]
    rare = [term for term, _ in by_df[-20:]]
    queries = []
    for i in range(20):
        queries.append(rare[i])
        queries.append(f"{frequent[i]} AND {rare[i]}")
        queries.append(f"{frequent[i]} AND NOT {frequent[(i + 1) % 20]}")
        queries.append(f"({rare[i]} OR {rare[(i + 1) % 20]}) AND {frequent[i]}")
        queries.append(f"{frequent[i][:3]}*")
    assert len(queries) == TOTAL_QUERIES
    return queries


def reopen(path: str, expected_path: str) -> int:
    """The fresh process: open, count, compare."""
    with open(expected_path, "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    session = Search.open(path)
    segments = session.manifest.segments
    if len(segments) != 1 or not isinstance(segments[0], DiskSegment):
        print(f"FAIL: opened manifest is {segments!r}, not one DiskSegment",
              file=sys.stderr)
        return 1
    first = expected[0][0]
    session.query(first)
    blocks = segments[0].stats()["ondisk.blocks_read"]
    if blocks != 1:
        print(f"FAIL: one term query ({first!r}) read {blocks} blocks, "
              "expected exactly 1", file=sys.stderr)
        return 1
    wrong = []
    for query, paths in expected:
        got = session.query(query).paths
        if got != paths:
            wrong.append((query, got, paths))
    if wrong:
        query, got, paths = wrong[0]
        print(f"FAIL: {len(wrong)} of {len(expected)} answers differ, e.g. "
              f"{query!r}: opened={got!r} built={paths!r}", file=sys.stderr)
        return 1
    print(f"OK: {path} opened as {segments[0]!r}; 1 block read by the "
          f"first query; {len(expected)} answers equal the built session's")
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cold-start-") as work:
        path = os.path.join(work, "x.ridx")
        corpus = CorpusGenerator(
            PAPER_PROFILE.scaled(0.002, name="smoke")
        ).generate()
        built = Search.build(corpus.fs)
        written = built.save(path)
        print(f"indexed {len(built)} files, {len(built.index)} terms "
              f"-> {path} ({written} bytes)")
        expected = [
            (query, built.query(query).paths)
            for query in build_queries(built.index)
        ]
        expected_path = os.path.join(work, "expected.json")
        with open(expected_path, "w", encoding="utf-8") as fh:
            json.dump(expected, fh)
        return subprocess.run(
            [sys.executable, __file__, "--reopen", path, expected_path],
            check=False,
        ).returncode


if __name__ == "__main__":
    if sys.argv[1:2] == ["--reopen"]:
        sys.exit(reopen(*sys.argv[2:]))
    sys.exit(main())
