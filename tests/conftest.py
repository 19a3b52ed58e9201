"""Shared fixtures: tiny deterministic corpora and workloads.

Everything here but :func:`fresh_metrics` is session-scoped and
read-only; tests must not mutate fixture objects (build a fresh
index/engine per test instead).
"""

from __future__ import annotations

import pytest

from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.obs import recorder as obsrec
from repro.simengine import Workload
from repro.text import Tokenizer


@pytest.fixture(scope="session")
def tiny_corpus():
    """A ~60-file, ~400 KB deterministic corpus (read-only)."""
    return CorpusGenerator(TINY_PROFILE).generate()


@pytest.fixture(scope="session")
def tiny_fs(tiny_corpus):
    """The tiny corpus's virtual filesystem (read-only)."""
    return tiny_corpus.fs


@pytest.fixture(scope="session")
def tiny_workload(tiny_corpus):
    """Exact per-file statistics of the tiny corpus."""
    return Workload.from_corpus(tiny_corpus)


@pytest.fixture(scope="session")
def tokenizer():
    """A default tokenizer (stateless, safe to share)."""
    return Tokenizer()


@pytest.fixture(scope="session")
def tiny_reference_index(tiny_fs, tokenizer):
    """A dict-of-sets reference index built with plain Python, used to
    cross-check every engine implementation."""
    reference = {}
    for ref in tiny_fs.list_files():
        terms = set(tokenizer.tokenize(tiny_fs.read_file(ref.path)))
        for term in terms:
            reference.setdefault(term, set()).add(ref.path)
    return reference


@pytest.fixture
def fresh_metrics():
    """A fresh metrics registry for one test (the recorder off)."""
    previous = obsrec.set_recorder(obsrec.Recorder(enabled=False))
    yield obsrec.metrics()
    obsrec.set_recorder(previous)
