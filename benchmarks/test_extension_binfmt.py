"""Extension study: index persistence formats.

Compares the transparent JSON-lines format against the gap-compressed
binary format on a real corpus's index: file size, save time, load
time.  The binary format's postings cost ~1 byte per (term, file) pair;
JSON pays the full path string per pair.
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
    def test_bench_json_save(self, benchmark, built_index, tmp_path_factory):
        target = str(tmp_path_factory.mktemp("json") / "index.idx")

        def save():
            if os.path.exists(target):
                os.remove(target)
            save_index(built_index, target)

        benchmark(save)

    def test_bench_binary_save(self, benchmark, built_index, tmp_path_factory):
        target = str(tmp_path_factory.mktemp("bin") / "index.ridx")

        def save():
            if os.path.exists(target):
                os.remove(target)
            save_index(built_index, target)

        benchmark(save)

    def test_bench_json_load(self, benchmark, built_index, tmp_path_factory):
        target = str(tmp_path_factory.mktemp("jload") / "index.idx")
        save_index(built_index, target)
        loaded = benchmark(load_index, target)
        assert loaded == built_index

    def test_bench_binary_load(self, benchmark, built_index):
        blob = dump_index_bytes(built_index)
        loaded = benchmark(load_index_bytes, blob)
        assert loaded == built_index

    def test_size_comparison(self, built_index, tmp_path_factory,
                             write_result):
        directory = tmp_path_factory.mktemp("sizes")
        json_path = str(directory / "index.idx")
        binary_path = str(directory / "index.ridx")
        save_index(built_index, json_path)
        save_index(built_index, binary_path)
        json_size = os.path.getsize(json_path)
        binary_size = os.path.getsize(binary_path)
        pairs = built_index.posting_count
        lines = [
            "Persistence-format study (1%-scale corpus index)",
            f"{'format':<10}{'bytes':>12}{'bytes/pair':>12}",
            f"{'json':<10}{json_size:>12}{json_size / pairs:>12.2f}",
            f"{'binary':<10}{binary_size:>12}{binary_size / pairs:>12.2f}",
            f"ratio: {json_size / binary_size:.1f}x",
        ]
        write_result("extension_binfmt.txt", "\n".join(lines))
        assert binary_size * 3 < json_size
