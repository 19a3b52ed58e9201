"""A cached BM25 answer is the answer: its key is the request as asked.

The optimiser decides a request's match set, but BM25 scores the
*un*optimised parse's terms (:func:`~repro.query.ranking.scoring_terms`):
``alpha AND (alpha OR beta)`` matches as ``alpha`` yet scores ``beta``
too.  Keyed on the optimised AST alone, the two texts shared one cache
entry and one single-flight slot, so the text asked second was served
the first one's scores and order.  Keyed on its text, no request shares
an entry with another text.  Every door that answers from a snapshot's
cache is asked both texts here — ``SearchService.query``, the front
end's door and two texts in flight at once — and each answer must equal
the uncached engine's, float for float.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import Search
from repro.index import save_index
from repro.query.cache import plan_query
from tests.test_sharded_service import build_corpus

#: Matches as ``alpha`` (absorption), scores ``alpha`` and ``beta``.
WIDE = "alpha AND (alpha OR beta)"
NARROW = "alpha"
TOPK = 3


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The 12-document corpus as an RIDX2 file with frequencies."""
    index, frequencies = build_corpus()
    path = str(tmp_path_factory.mktemp("bm25key") / "docs.ridx2")
    save_index(index, path, format="ridx2", frequencies=frequencies)
    return path


@pytest.fixture
def session(saved):
    return Search.open(saved)


def engine(session, text):
    """The uncached engine's top-``TOPK`` for ``text``."""
    return session.snapshot().search_bm25(text, TOPK)


def test_the_two_texts_match_alike_and_score_apart(session):
    assert plan_query(WIDE).query == plan_query(NARROW).query
    wide, narrow = engine(session, WIDE), engine(session, NARROW)
    assert [hit.path for hit in wide] != [hit.path for hit in narrow]
    assert plan_query(WIDE, "bm25", TOPK).key != plan_query(
        NARROW, "bm25", TOPK
    ).key


def test_texts_that_score_alike_keep_keys_of_their_own(session):
    narrow = plan_query(NARROW, "bm25", TOPK)
    for text in ("alpha AND alpha", "NOT NOT alpha"):
        plan = plan_query(text, "bm25", TOPK)
        assert plan.query == narrow.query and plan.key != narrow.key
        assert engine(session, text) == engine(session, NARROW)


def test_search_service_query(session):
    with session.serve(workers=1) as service:
        first = service.query(WIDE, rank="bm25", topk=TOPK)
        second = service.query(NARROW, rank="bm25", topk=TOPK)
        again = service.query(NARROW, rank="bm25", topk=TOPK)
        same = service.query("alpha AND alpha", rank="bm25", topk=TOPK)
    assert first.hits == engine(session, WIDE)
    assert not second.cached
    assert second.hits == engine(session, NARROW)
    assert again.cached and again.hits == second.hits
    assert not same.cached and same.hits == second.hits


def test_the_front_end_batcher_and_door(session):
    with session.serve_async(workers=1) as frontend:
        first = frontend.query(WIDE, rank="bm25", topk=TOPK)
        second = frontend.query(NARROW, rank="bm25", topk=TOPK)
        doors = frontend.stats()["frontend.door_hits"]
        # The repeat is answered at the door, by the entry the
        # evaluation put under its text.
        again = frontend.query(NARROW, rank="bm25", topk=TOPK)
        assert frontend.stats()["frontend.door_hits"] == doors + 1
    assert first.hits == engine(session, WIDE)
    assert not second.cached
    assert second.hits == engine(session, NARROW)
    assert again.cached and again.hits == second.hits


def test_two_texts_in_flight_do_not_coalesce(session):
    with session.serve_async(workers=1, batch_window=0.2) as frontend:
        # The batcher cannot take the interpreter before both are in.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(30.0)
        try:
            tickets = [
                frontend.submit(text, rank="bm25", topk=TOPK)
                for text in (WIDE, NARROW)
            ]
        finally:
            sys.setswitchinterval(interval)
        wide, narrow = (ticket.result(timeout=30) for ticket in tickets)
        stats = frontend.stats()
    assert wide.hits == engine(session, WIDE)
    assert narrow.hits == engine(session, NARROW)
    assert not narrow.coalesced
    assert stats["frontend.coalesced"] == 0
    assert stats["frontend.evaluations"] == 2
