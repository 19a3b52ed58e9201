"""FNV-1a is the reproduction's hash, evaluated once per distinct term.

End-to-end pins on the interned hash path under :mod:`repro.adt`:

* an exact count — Implementation 1's build runs the per-byte spec
  once per distinct term, never once per occurrence or per posting;
* the product never hashes — its builds, refreshes, joins, merges and
  loaders keep native dicts, so FNV-1a runs zero times on them;
* hash-seed independence — the product's index is a ``dict`` in
  insertion order, so the same corpus is built under two
  ``PYTHONHASHSEED`` values and must serialise byte-identically in
  RIDX1 and in RWIRE1 (which lists terms in the map's order and each
  term's paths in postings order, unsorted).
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import ExitStack
from unittest import mock

import pytest

import repro.engine.procbackend as procbackend
from repro.api import Search
from repro.engine import Implementation, ThreadConfig
from repro.hashing import fnv
from repro.index import (
    IndexFormatError,
    dump_index_ridx2,
    dump_index_wire,
    index_from_bytes,
)
from repro.index.serialize import load_index, save_index
from tests.test_native_build import assert_same_content
from tests.test_serialize_formats import write_legacy

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def implementation_1(fs):
    return Search.build(
        fs,
        implementation=Implementation.SHARED_LOCKED,
        config=ThreadConfig(1, 0, 0),
    )


def test_build_hashes_each_distinct_term_exactly_once(tiny_fs, tokenizer):
    occurrences = sum(
        tokenizer.count_terms(tiny_fs.read_file(ref.path))
        for ref in tiny_fs.list_files()
    )
    fnv._interned.clear()
    with mock.patch.object(fnv, "fnv1a_64", wraps=fnv.fnv1a_64) as spec:
        first = implementation_1(tiny_fs)
        cold = spec.call_count
        second = implementation_1(tiny_fs)
        warm = spec.call_count - cold
        product = Search.build(tiny_fs)
        assert spec.call_count == cold + warm
    distinct = len(first.index)
    assert distinct < fnv._INTERN_LIMIT  # else the table starts over mid-build
    assert cold == distinct  # the pre-interning engine: occurrences + postings
    assert warm == 0
    assert occurrences > 10 * distinct
    assert second.index == first.index
    assert_same_content(product.index, first.index)


class CountingFnv:
    """Counts every FNV-1a evaluation: misses through the per-byte spec,
    hits through each module's bound ``fnv1a_interned``."""

    def __init__(self):
        self.calls = 0

    def __enter__(self):
        self._stack = ExitStack()
        interned = fnv.fnv1a_interned
        modules = [
            module
            for module in list(sys.modules.values())
            if getattr(module, "fnv1a_interned", None) is interned
        ]
        assert fnv in modules

        def counted(real):
            def wrapper(data):
                self.calls += 1
                return real(data)

            return wrapper

        for module in modules:
            self._stack.enter_context(
                mock.patch.object(module, "fnv1a_interned", counted(interned))
            )
        self._stack.enter_context(
            mock.patch.object(fnv, "fnv1a_64", counted(fnv.fnv1a_64))
        )
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)


@pytest.fixture
def churned_fs(tiny_fs):
    """A writable copy of the tiny corpus."""
    from repro.fsmodel import VirtualFileSystem

    fs = VirtualFileSystem()
    for ref in tiny_fs.list_files():
        directory = ref.path.rpartition("/")[0]
        if directory and not fs.exists(directory):
            fs.mkdir(directory, parents=True)
        fs.write_file(ref.path, tiny_fs.read_file(ref.path))
    return fs


def test_product_paths_evaluate_fnv_zero_times(churned_fs, tmp_path, monkeypatch):
    monkeypatch.setattr(procbackend, "available_cpus", lambda: 2)
    fs = churned_fs
    paths = [ref.path for ref in fs.list_files()]
    with CountingFnv() as counter:
        session = Search.build(fs, cache=0)
        process = Search.build(
            fs, config=ThreadConfig(2, 0, 1, backend="process"), cache=0
        )
        assert dump_index_ridx2(process.index) == dump_index_ridx2(
            session.index
        )
        fs.replace_file(paths[0], b"rewritten zebra words")
        fs.remove_file(paths[1])
        fs.write_file("added.txt", b"zebra newcomer")
        session.refresh()
        assert session.manifest.segment_count == 2
        assert session.query("zebra").paths == sorted([paths[0], "added.txt"])
        assert session.compact()
        index = session.index
        for format in ("binary", "ridx2"):
            path = str(tmp_path / f"index.{format}")
            save_index(index, path, format=format)
            assert load_index(path, format=format) == index
        assert index_from_bytes(dump_index_wire(index)) == index
        # A JSON-lines file is refused by its first byte, nothing decoded.
        write_legacy(str(tmp_path / "legacy.jsonl"))
        with pytest.raises(IndexFormatError):
            load_index(str(tmp_path / "legacy.jsonl"))
    assert counter.calls == 0
_BUILD_AND_SAVE = """
import sys
from repro.api import Search
from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.index import index_to_bytes

session = Search.build(CorpusGenerator(TINY_PROFILE).generate().fs)
for format in ("binary", "wire"):
    with open(sys.argv[1] + "." + format, "wb") as fh:
        fh.write(index_to_bytes(session.index, format=format))
"""


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-c", _BUILD_AND_SAVE, str(tmp_path / seed)],
            env=env,
            check=True,
            timeout=120,
        )
    for extension in (".binary", ".wire"):
        one = (tmp_path / ("1" + extension)).read_bytes()
        two = (tmp_path / ("2" + extension)).read_bytes()
        assert len(one) > 1000
        assert one == two, f"{extension} differs between hash seeds"
