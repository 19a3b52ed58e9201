"""Property: every cached door answers as the uncached engine does.

The result cache and the front end's single-flight map key a request as
it was asked — ``(text, rank, top-K for BM25 only)`` — so no text is
ever served another text's answer.  Hypothesis draws request streams
whose texts are rewrites of each other (duplication, absorption, operand
order, double negation, whitespace and case: texts that match alike,
and some that score apart), boolean and BM25 at several top-K, with
repeats, and publishes an index change between any two asks.  Every
answer must equal the uncached engine's on the generation it is
labelled with: boolean paths byte for byte, BM25 hits and scores float
for float.  The doors: ``Search.query``, ``SearchService.query`` and the
front end (its door, its batcher and coalescing); the last test runs
the front end from several threads under a short switch interval.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.api import Search
from repro.fsmodel import VirtualFileSystem
from repro.index import MmapPostingsReader, save_index
from repro.query import QueryCache
from repro.service import AsyncSearchFrontend, IndexSnapshot, SearchService
from tests.test_sharded_service import DOCS, build_corpus

TERMS = ("alpha", "beta", "gamma", "delta", "zeta")

#: The second corpus an index change alternates to.
CHANGED = {
    **{path: text for path, text in DOCS.items() if path < "doc08.txt"},
    "doc12.txt": "beta beta gamma alpha",
    "doc13.txt": "zeta zeta delta",
}

#: Rewrites that keep the match set; absorption of a term ``c`` the
#: query lacks also makes BM25 score ``c``.
REWRITES = (
    lambda q, c: f"({q}) AND (({q}) OR {c})",  # absorption
    lambda q, c: f"({q}) AND ({q})",  # duplication
    lambda q, c: f"NOT NOT ({q})",  # double negation
    lambda q, c: "  " + q.replace(" ", "   ") + " ",  # whitespace
    lambda q, c: q.upper(),  # case
    lambda q, c: q.lower(),
)


@st.composite
def pools(draw):
    """A query and up to three rewrites of it, which match alike (and
    some, absorbing a term, score apart)."""
    a, b, c = (draw(st.sampled_from(TERMS)) for _ in range(3))
    first, second = draw(st.permutations((a, b)))  # operand order
    base = draw(
        st.sampled_from(
            (a, f"{first} AND {second}", f"{first} OR {second}",
             f"{a} AND NOT {b}", f"{a[:3]}*")
        )
    )
    pool = [base]
    for chain in draw(
        st.lists(
            st.lists(st.sampled_from(REWRITES), min_size=1, max_size=2),
            min_size=1,
            max_size=3,
        )
    ):
        query = base
        for rewrite in chain:
            query = rewrite(query, c)
        pool.append(query)
    return pool


@st.composite
def streams(draw):
    """A pool of rewrites, then asks into it — each in one of up to
    three (rank, top-K) modes the stream draws, so texts meet again —
    about one in four after a publish."""
    pool = draw(pools())
    modes = draw(
        st.lists(
            st.tuples(st.sampled_from(("bm25", "bool")), st.sampled_from((3, 1, 10))),
            min_size=1,
            max_size=3,
        )
    )
    step = st.tuples(
        st.integers(0, 3),
        st.sampled_from(modes),
        st.sampled_from((False, False, False, True)),
    )
    return pool, draw(st.lists(step, min_size=1, max_size=16))


def asks(stream):
    """The stream's requests and publishes, texts resolved."""
    pool, steps = stream
    for at, (rank, topk), publish in steps:
        if publish:
            yield "publish"
        yield pool[at % len(pool)], rank, topk


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """The two corpora as RIDX2 files with frequencies, mapped."""
    opened = []
    for number, docs in enumerate((DOCS, CHANGED)):
        index, frequencies = build_corpus(docs)
        path = str(tmp_path_factory.mktemp("cacheprop") / f"{number}.ridx2")
        save_index(index, path, format="ridx2", frequencies=frequencies)
        opened.append(MmapPostingsReader(path))
    yield opened
    for reader in opened:
        reader.close()


def published(readers, generation: int) -> IndexSnapshot:
    """Generation ``generation`` of the index, with an empty cache."""
    snapshot = IndexSnapshot.from_ondisk(
        readers[generation % 2], generation=generation
    )
    return dataclasses.replace(snapshot, cache=QueryCache(4))


def check(readers, request, result) -> None:
    """``result`` is the uncached engine's answer to ``request``."""
    text, rank, topk = request
    oracle = IndexSnapshot.from_ondisk(readers[result.generation % 2])
    if rank == "bm25":
        hits = oracle.search_bm25(text, topk)
        assert result.hits == hits, request
        assert [h.score for h in result.hits] == [h.score for h in hits]
        assert result.paths == [hit.path for hit in hits], request
    else:
        assert result.hits is None, request
        assert result.paths == oracle.search(text), request


@seed(20265701)
@settings(max_examples=40, deadline=None)
@given(pool=pools(), data=st.data())
def test_search_query(pool, data):
    fs = VirtualFileSystem()
    for path, text in DOCS.items():
        fs.write_file(path, text.encode())
    session = Search.build(fs, cache=4)
    steps = data.draw(
        st.lists(st.one_of(st.just(None), st.integers(0, 3)), max_size=14)
    )
    for number, step in enumerate(steps):
        if step is None:  # an index change between two asks
            fs.write_file(f"new{number}.txt", TERMS[number % 5].encode())
            session.refresh()
            continue
        text = pool[step % len(pool)]
        result = session.query(text)
        snapshot = session.snapshot()
        assert result.generation == snapshot.generation
        assert result.paths == snapshot.search(text), text


@seed(20265702)
@settings(max_examples=40, deadline=None)
@given(stream=streams(), bursts=st.data())
def test_service_and_front_end(readers, stream, bursts):
    generation = 0
    service = SearchService(published(readers, 0), workers=1)
    frontend = AsyncSearchFrontend(service, workers=2, own_service=True)
    try:
        pending = []
        for step in asks(stream):
            if step == "publish":
                generation += 1
                service.publish(published(readers, generation))
                continue
            if bursts.draw(st.booleans()):
                check(readers, step, service.query(*step))
            else:
                pending.append((step, frontend.submit(*step)))
            if bursts.draw(st.booleans()):  # a burst in flight at once
                for request, ticket in pending:
                    check(readers, request, ticket.result(timeout=30))
                del pending[:]
        for request, ticket in pending:
            check(readers, request, ticket.result(timeout=30))
        stats = frontend.stats()
        assert stats["frontend.door_hits"] == stats["frontend.cached"]
        assert (
            stats["frontend.evaluations"]
            + stats["frontend.coalesced"]
            + stats["frontend.cached"]
            == stats["frontend.served"]
        )
    finally:
        frontend.close()


@seed(20265703)
@settings(max_examples=8, deadline=None)
@given(stream=streams())
def test_front_end_threads_under_a_short_switch_interval(readers, stream):
    requests = [step for step in asks(stream) if step != "publish"]
    publishes = sum(step == "publish" for step in asks(stream))
    service = SearchService(published(readers, 0), workers=1)
    frontend = AsyncSearchFrontend(service, workers=2, own_service=True)
    errors = []

    def asker() -> None:
        try:
            for _ in range(3):
                tickets = [(r, frontend.submit(*r)) for r in requests]
                for request, ticket in tickets:
                    check(readers, request, ticket.result(timeout=30))
        except BaseException as exc:  # pragma: no cover - on failure
            errors.append(exc)

    def publisher() -> None:
        for generation in range(1, publishes + 1):
            service.publish(published(readers, generation))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=asker) for _ in range(3)]
        threads.append(threading.Thread(target=publisher))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        frontend.close()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    stats = frontend.stats()
    assert stats["frontend.served"] == 3 * 3 * len(requests)
    assert stats["frontend.door_hits"] == stats["frontend.cached"]
