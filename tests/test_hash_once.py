"""FNV-1a is evaluated once per distinct term, and decides every order.

Two end-to-end pins on the interned hash path under :mod:`repro.adt`:

* an exact count — a full ``Search.build`` runs the per-byte spec once
  per distinct term, never once per occurrence or per posting;
* hash-seed independence — a ``dict`` now sits on the hash path, so the
  same corpus is built under two ``PYTHONHASHSEED`` values and must
  serialise byte-identically in RIDX1 and in RWIRE1 (which lists terms
  in the hash map's bucket order and each term's paths in postings
  order, unsorted).
"""

from __future__ import annotations

import os
import subprocess
import sys
from unittest import mock

from repro.api import Search
from repro.hashing import fnv

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def test_build_hashes_each_distinct_term_exactly_once(tiny_fs, tokenizer):
    occurrences = sum(
        tokenizer.count_terms(tiny_fs.read_file(ref.path))
        for ref in tiny_fs.list_files()
    )
    fnv._interned.clear()
    with mock.patch.object(fnv, "fnv1a_64", wraps=fnv.fnv1a_64) as spec:
        first = Search.build(tiny_fs)
        cold = spec.call_count
        second = Search.build(tiny_fs)
        warm = spec.call_count - cold
    distinct = len(first.index)
    assert distinct < fnv._INTERN_LIMIT  # else the table starts over mid-build
    assert cold == distinct  # the parent: occurrences + postings
    assert warm == 0
    assert occurrences > 10 * distinct
    assert second.index == first.index


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
