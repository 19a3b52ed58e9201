"""Extraction-pipeline smoke test: byte parity and the code extractor.

Builds a mixed corpus — small notes, a source file, a TSV table, and
one large text file — then:

* builds it on the threaded and the process backends and diffs each
  against a sequential build — the canonical index bytes must be
  identical, because the engine may only change *who* extracts a file,
  never what lands in the index;
* runs the named ``code`` extractor end to end through the ``Search``
  facade and queries a term that only camelCase splitting can produce.

Run:  PYTHONPATH=src python examples/extraction_smoke.py
"""

from __future__ import annotations

import sys

from repro import Search
from repro.engine import (
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    ThreadConfig,
)
from repro.fsmodel import VirtualFileSystem
from repro.index.binfmt import dump_index_bytes
from repro.index.merge import join_indices


def build_corpus() -> VirtualFileSystem:
    fs = VirtualFileSystem()
    for i in range(8):
        fs.write_file(f"note-{i}.txt", b"cat dog ferret gecko heron " * 30)
    fs.write_file(
        "tool.py",
        b"def parseHTTPHeader(raw):\n    return splitHeaderValue(raw)\n",
    )
    fs.write_file("table.tsv", b"1\talpha beta\tgamma\n2\tdelta\tepsilon\n")
    # One file holding most of the corpus bytes.
    fs.write_file("archive.txt", b"alpha beta gamma delta epsilon " * 6_000)
    return fs


def flat_bytes(report) -> bytes:
    index = report.index
    if hasattr(index, "replicas"):
        index = join_indices(index.replicas)
    return dump_index_bytes(index)


def main() -> int:
    fs = build_corpus()
    baseline = SequentialIndexer(fs, naive=False).build()
    want = flat_bytes(baseline)
    print(f"corpus: {baseline.file_count} files, "
          f"{fs.file_size('archive.txt')} bytes in the large file")

    for label, build in (
        ("threaded", lambda: ReplicatedJoinedIndexer(fs).build(
            ThreadConfig(2, 0, 1)
        )),
        ("process", lambda: ProcessReplicatedIndexer(
            fs, oversubscribe=True
        ).build(ThreadConfig(2, 0, 1, backend="process"))),
    ):
        report = build()
        print(f"  {label}: indexed {report.file_count} files")
        if flat_bytes(report) != want:
            print(f"FAIL: {label} build bytes differ from the sequential "
                  "build", file=sys.stderr)
            return 1
    print("OK: threaded and process builds byte-identical to the "
          "sequential build")

    session = Search.build(fs, extractor="code")
    hits = session.query("parsehttpheader").paths
    if hits != ["tool.py"]:
        print(f"FAIL: code extractor query answered {hits}", file=sys.stderr)
        return 1
    print("OK: named 'code' extractor resolves camelCase identifiers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
