"""Extension study: index persistence formats.

Compares the two formats ``save_index`` writes on a real corpus's
index: the compact gap-coded RIDX1 and the blocked, mmap-servable
RIDX2 — file size, save time, load time.  RIDX1's postings cost ~1 byte
per (term, file) pair; RIDX2 pays a little more for its block layout
and lexicon, which let a reader serve a query without loading the file.
"""

import os

import pytest

from repro.engine import SequentialIndexer
from repro.index.binfmt import dump_index_bytes, load_index_bytes
from repro.index.serialize import load_index, save_index


@pytest.fixture(scope="module")
def built_index(bench_corpus):
    return SequentialIndexer(bench_corpus.fs, naive=False).build().index


class TestPersistenceFormats:
    @pytest.mark.parametrize("format", ("binary", "ridx2"))
    def test_bench_save(self, benchmark, built_index, tmp_path_factory, format):
        target = str(tmp_path_factory.mktemp(format) / f"index.{format}")

        def save():
            if os.path.exists(target):
                os.remove(target)
            save_index(built_index, target, format=format)

        benchmark(save)

    def test_bench_ridx2_load(self, benchmark, built_index, tmp_path_factory):
        target = str(tmp_path_factory.mktemp("rload") / "index.ridx2")
        save_index(built_index, target, format="ridx2")
        loaded = benchmark(load_index, target)
        assert loaded == built_index

    def test_bench_binary_load(self, benchmark, built_index):
        blob = dump_index_bytes(built_index)
        loaded = benchmark(load_index_bytes, blob)
        assert loaded == built_index

    def test_size_comparison(self, built_index, tmp_path_factory,
                             write_result):
        directory = tmp_path_factory.mktemp("sizes")
        sizes = {
            format: save_index(
                built_index, str(directory / f"index.{format}"), format=format
            )
            for format in ("binary", "ridx2")
        }
        pairs = built_index.posting_count
        lines = [
            "Persistence-format study (1%-scale corpus index)",
            f"{'format':<10}{'bytes':>12}{'bytes/pair':>12}",
        ]
        for name, format in (("RIDX1", "binary"), ("RIDX2", "ridx2")):
            size = sizes[format]
            lines.append(f"{name:<10}{size:>12}{size / pairs:>12.2f}")
        lines.append(f"ratio RIDX2/RIDX1: {sizes['ridx2'] / sizes['binary']:.2f}x")
        write_result("extension_binfmt.txt", "\n".join(lines))
        # Both stay compact: a path string per pair (what JSON-lines
        # paid) would be ~30 bytes.
        assert sizes["binary"] < 2 * pairs
        assert sizes["ridx2"] < 4 * pairs
