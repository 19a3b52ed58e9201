"""Property: single-flight coalescing is result-transparent.

Hypothesis drives bursts of concurrent queries — identical and
distinct texts, boolean and BM25, mixed top-K —
through an :class:`~repro.service.frontend.AsyncSearchFrontend` over a
stub engine whose answers are a *pure function of the optimised plan,
its mode and top-K*.  The oracle: every caller gets exactly the result
a solo run of its own request would have produced, no matter what it
coalesced with.  In particular a BM25 entry can never satisfy a boolean
waiter (their keys differ, so their pure-function answers differ), and
two texts that optimise to the same plan take an evaluation each (the
key is the text as asked) and still get the same answer.

Bookkeeping must balance too: every submission is either an evaluated
leader or a coalesced follower — ``evaluations + coalesced ==
submitted``.  Over a snapshot that carries a result cache repeats are
answered from it at the door, and the law becomes ``evaluations +
coalesced + cached == served``, with every hit a door hit.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.inverted import InvertedIndex
from repro.query import QueryCache, RankedHit, normalize_query
from repro.query.cache import request_of
from repro.service import AsyncSearchFrontend, IndexSnapshot, SearchService
from repro.text.termblock import TermBlock

#: texts chosen so some pairs optimise identically ("alpha AND bravo"
#: vs the whitespace variant), keyed apart but answered alike, and
#: others are genuinely distinct.
TEXTS = (
    "alpha",
    "bravo",
    "alpha AND bravo",
    "alpha  AND   bravo",
    "alpha OR bravo",
    "NOT alpha",
)

submissions = st.lists(
    st.tuples(
        st.sampled_from(TEXTS),
        st.sampled_from(("bool", "bm25")),
        st.sampled_from((1, 3, 10)),
    ),
    min_size=1,
    max_size=10,
)


class PureKeyEngine:
    """Answers are a deterministic pure function of the optimised plan."""

    def search(self, text: str):
        return [f"bool:{normalize_query(text)}"]

    def search_ast(self, query):
        return [f"bool:{query}"]

    def search_bm25(self, text: str, topk: int = 10):
        normalized = normalize_query(text)
        return [
            RankedHit(f"bm25:{normalized}:rank={k}", 1.0 / (k + 1))
            for k in range(min(topk, 4))
        ]


def tiny_snapshot() -> IndexSnapshot:
    index = InvertedIndex()
    index.add_block(TermBlock("doc.txt", ("alpha", "bravo")))
    return IndexSnapshot(index, engine=PureKeyEngine())


def solo_answer(spec):
    """What a lone run of this exact submission must return."""
    text, rank, topk = spec
    engine = PureKeyEngine()
    if rank == "bm25":
        hits = engine.search_bm25(text, topk=topk)
        return [hit.path for hit in hits], hits
    return engine.search(text), None


class TestCoalescingTransparency:
    @settings(max_examples=30, deadline=None)
    @given(burst=submissions)
    def test_every_caller_gets_its_own_keys_solo_result(self, burst):
        service = SearchService(tiny_snapshot(), workers=1, max_inflight=64)
        frontend = AsyncSearchFrontend(
            service,
            workers=2,
            own_service=True,
        )
        try:
            tickets = [
                frontend.submit(text, rank=rank, topk=topk)
                for text, rank, topk in burst
            ]
            results = [ticket.result(timeout=30) for ticket in tickets]
            for spec, result in zip(burst, results):
                expected_paths, expected_hits = solo_answer(spec)
                assert result.paths == expected_paths, spec
                if expected_hits is None:
                    assert result.hits is None, spec
                else:
                    assert [
                        (hit.path, hit.score) for hit in result.hits
                    ] == [
                        (hit.path, hit.score) for hit in expected_hits
                    ], spec
            stats = frontend.stats()
            assert stats["frontend.submitted"] == len(burst)
            assert stats["frontend.served"] == len(burst)
            assert stats["frontend.shed"] == 0
            # Every submission is either an evaluated leader or a
            # coalesced follower.
            assert (
                stats["frontend.evaluations"] + stats["frontend.coalesced"]
                == len(burst)
            )
        finally:
            frontend.close()


class TestCachedSnapshot:
    """The same bursts, several in a row, over a snapshot that carries
    a result cache: the door answers repeats from it."""

    @settings(max_examples=30, deadline=None)
    @given(bursts=st.lists(submissions, min_size=1, max_size=3))
    def test_every_caller_is_counted_once_and_answered_solo(self, bursts):
        snapshot = dataclasses.replace(tiny_snapshot(), cache=QueryCache(128))
        service = SearchService(snapshot, workers=1, max_inflight=64)
        frontend = AsyncSearchFrontend(
            service,
            workers=2,
            own_service=True,
        )
        earlier = set()
        cached = 0
        try:
            for burst in bursts:
                tickets = [
                    frontend.submit(text, rank=rank, topk=topk)
                    for text, rank, topk in burst
                ]
                keys = []
                for spec, ticket in zip(burst, tickets):
                    result = ticket.result(timeout=30)
                    expected_paths, expected_hits = solo_answer(spec)
                    assert result.paths == expected_paths, spec
                    if expected_hits is None:
                        assert result.hits is None, spec
                    else:
                        assert result.hits == expected_hits, spec
                    key = request_of(*spec)
                    if key in earlier:  # answered and put before: a hit
                        assert result.cached and not result.coalesced
                    cached += result.cached
                    keys.append(key)
                earlier.update(keys)
            stats = frontend.stats()
            submitted = sum(len(burst) for burst in bursts)
            assert stats["frontend.served"] == submitted
            assert stats["frontend.cached"] == cached
            assert (
                stats["frontend.evaluations"]
                + stats["frontend.coalesced"]
                + stats["frontend.cached"]
                == stats["frontend.served"]
            )
            assert stats["frontend.door_hits"] == cached
        finally:
            frontend.close()
