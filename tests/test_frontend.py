"""Unit tests for the async single-flight query front end.

Functional guarantees of
:class:`~repro.service.frontend.AsyncSearchFrontend` on real threads
(the interleaving-level guarantees live in
``test_frontend_concurrency.py``, transparency properties in
``test_frontend_properties.py``):

* differential identity with a direct ``SearchService.query``;
* single-flight coalescing and batched admission under a controlled
  burst (a blocking stub engine holds the leader in evaluation);
* the two regression fixes: a coalesced follower's ``elapsed_s`` is
  its *own* wait, not the leader's evaluation time, and a query
  rejected at batch admission after passing single-flight lands on the
  shed counter exactly once per affected caller;
* error plumbing (parse errors on the ticket, closed/overloaded
  raises), done-callbacks that raise, and the asyncio face.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.index.inverted import InvertedIndex
from repro.obs import recorder as obsrec
from repro.query import ParseError, RankedHit, normalize_query
from repro.service import (
    AsyncSearchFrontend,
    IndexSnapshot,
    SearchService,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.text.termblock import TermBlock


def tiny_index() -> InvertedIndex:
    index = InvertedIndex()
    index.add_block(TermBlock("doc.txt", ("alpha", "bravo")))
    index.add_block(TermBlock("other.txt", ("alpha", "charlie")))
    return index


class StubEngine:
    """Deterministic engine: results are a pure function of the key.

    ``gate`` (a ``threading.Event``) holds every evaluation until set,
    so tests can pile a burst up behind one in-flight leader.
    """

    def __init__(self, gate: threading.Event = None) -> None:
        self.gate = gate
        self.calls = []

    def _wait(self) -> None:
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)

    def search(self, text: str, parallel: bool = False):
        self._wait()
        self.calls.append(("bool", text))
        return [f"bool:{normalize_query(text)}:{int(parallel)}"]

    def search_ast(self, query, parallel: bool = False):
        # The text as the tests write it: the AST's string without the
        # outer parentheses an And / Or / Not prints around itself.
        text = str(query)
        return self.search(
            text[1:-1] if text.startswith("(") else text, parallel
        )

    def search_bm25(self, text: str, topk: int = 10):
        self._wait()
        self.calls.append(("bm25", text))
        return [
            RankedHit(f"bm25:{normalize_query(text)}:{k}", 1.0 / (k + 1))
            for k in range(min(topk, 3))
        ]


def make_frontend(engine=None, **kwargs):
    snapshot = IndexSnapshot(tiny_index(), engine=engine)
    service = SearchService(snapshot, workers=1, max_inflight=64)
    kwargs.setdefault("own_service", True)
    return AsyncSearchFrontend(service, **kwargs)


def wait_until(predicate, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.001)


class TestDifferentialIdentity:
    def test_frontend_answers_match_direct_service(self):
        snapshot = IndexSnapshot(tiny_index())
        direct = SearchService(snapshot, workers=1)
        service = SearchService(snapshot, workers=1)
        frontend = AsyncSearchFrontend(service, own_service=True)
        try:
            for text in ("alpha", "alpha AND bravo", "alpha AND NOT charlie",
                         "bravo OR charlie"):
                served = frontend.query(text)
                reference = direct.query(text)
                assert served.paths == reference.paths
                assert served.generation == reference.generation
                assert not served.coalesced
        finally:
            frontend.close()
            direct.close()


class TestSingleFlight:
    def test_burst_coalesces_onto_one_evaluation(self):
        gate = threading.Event()
        engine = StubEngine(gate)
        frontend = make_frontend(engine, workers=1, batch_window=0.0)
        try:
            leader = frontend.submit("alpha AND bravo")
            # Leader admitted and held in evaluation by the gate.
            wait_until(lambda: frontend.stats()["frontend.inflight"] == 1)
            followers = [
                frontend.submit("alpha  AND   bravo")  # same normalized key
                for _ in range(4)
            ]
            wait_until(
                lambda: frontend.stats()["frontend.coalesced"] == 4
            )
            gate.set()
            lead_result = leader.result(timeout=10)
            for follower in followers:
                result = follower.result(timeout=10)
                assert result.paths == lead_result.paths
                assert result.generation == lead_result.generation
                assert result.coalesced
            assert not lead_result.coalesced
            stats = frontend.stats()
            assert stats["frontend.submitted"] == 5
            assert stats["frontend.served"] == 5
            assert stats["frontend.evaluations"] == 1
            assert stats["frontend.coalesced"] == 4
            assert engine.calls == [("bool", "alpha AND bravo")]
        finally:
            frontend.close()

    def test_single_flight_disabled_evaluates_every_query(self):
        engine = StubEngine()
        frontend = make_frontend(engine, single_flight=False)
        try:
            for _ in range(3):
                frontend.query("alpha AND bravo")
            stats = frontend.stats()
            assert stats["frontend.evaluations"] == 3
            assert stats["frontend.coalesced"] == 0
        finally:
            frontend.close()

    def test_bm25_never_satisfies_a_boolean_waiter(self):
        gate = threading.Event()
        engine = StubEngine(gate)
        frontend = make_frontend(engine, workers=2)
        try:
            ranked = frontend.submit("alpha", rank="bm25", topk=3)
            boolean = frontend.submit("alpha", rank="bool")
            wait_until(lambda: frontend.stats()["frontend.inflight"] == 2)
            gate.set()
            ranked_result = ranked.result(timeout=10)
            boolean_result = boolean.result(timeout=10)
            # Distinct keys -> no coalescing -> each mode's own answer.
            assert frontend.stats()["frontend.coalesced"] == 0
            assert all(p.startswith("bm25:") for p in ranked_result.paths)
            assert ranked_result.hits is not None
            assert all(p.startswith("bool:") for p in boolean_result.paths)
            assert boolean_result.hits is None
        finally:
            frontend.close()


class TestRegressions:
    def test_follower_elapsed_is_its_own_wait_not_leader_eval_time(self):
        # Regression: followers used to inherit the leader's QueryResult
        # verbatim, reporting the leader's evaluation time as their own.
        gate = threading.Event()
        engine = StubEngine(gate)
        frontend = make_frontend(engine, workers=1)
        try:
            leader = frontend.submit("alpha")
            wait_until(lambda: frontend.stats()["frontend.inflight"] == 1)
            time.sleep(0.15)  # leader evaluation drags on...
            follower = frontend.submit("alpha")
            wait_until(lambda: frontend.stats()["frontend.coalesced"] == 1)
            time.sleep(0.05)  # ...while the follower waits only this long
            gate.set()
            lead_result = leader.result(timeout=10)
            follow_result = follower.result(timeout=10)
            # The leader really did evaluate for ~0.2 s.
            assert lead_result.elapsed_s >= 0.18
            # The follower only waited ~0.05 s and must report that.
            assert follow_result.coalesced
            assert follow_result.elapsed_s < lead_result.elapsed_s
            assert 0.04 <= follow_result.elapsed_s < 0.15
        finally:
            frontend.close()

    def test_a_followers_hits_are_its_own(self):
        # Regression: coalesced followers were handed the leader's hits
        # list itself, so a caller sorting or truncating its hits
        # changed the leader's result and every other follower's.
        gate = threading.Event()
        frontend = make_frontend(StubEngine(gate), workers=1)
        try:
            leader = frontend.submit("alpha", rank="bm25", topk=3)
            wait_until(lambda: frontend.stats()["frontend.inflight"] == 1)
            followers = [
                frontend.submit("alpha", rank="bm25", topk=3)
                for _ in range(2)
            ]
            wait_until(lambda: frontend.stats()["frontend.coalesced"] == 2)
            gate.set()
            lead = leader.result(timeout=10)
            first, second = (f.result(timeout=10) for f in followers)
            expected = list(lead.hits)
            assert len(expected) == 3
            first.hits.sort(key=lambda hit: hit.score)
            del first.hits[1:]
            assert lead.hits == expected
            assert second.hits == expected
            assert first.hits == [expected[-1]]
        finally:
            frontend.close()

    def test_admission_shed_counts_each_caller_exactly_once(self):
        # Regression: a leader that passed single-flight and was then
        # rejected at batch admission was double-counted on the shed
        # counter (once at registration cleanup, once at resolution).
        gate = threading.Event()
        engine = StubEngine(gate)
        frontend = make_frontend(
            engine, workers=1, max_inflight=1, batch_window=0.3
        )
        try:
            blocker = frontend.submit("alpha")  # fills the only budget slot
            wait_until(lambda: frontend.stats()["frontend.inflight"] == 1)
            leader = frontend.submit("bravo")       # passes single-flight,
            follower = frontend.submit("bravo")     # coalesces onto it
            wait_until(lambda: frontend.stats()["frontend.coalesced"] == 1)
            # The batch window expires with the budget still full: the
            # leader and its follower are shed together.
            with pytest.raises(ServiceOverloadedError):
                leader.result(timeout=10)
            with pytest.raises(ServiceOverloadedError):
                follower.result(timeout=10)
            gate.set()
            blocker.result(timeout=10)
            stats = frontend.stats()
            assert stats["frontend.shed"] == 2  # one per caller, not 3/4
            assert stats["frontend.served"] == 3
            assert stats["frontend.evaluations"] == 1
            assert stats["frontend.shed_rate"] == pytest.approx(2 / 3)
        finally:
            frontend.close()


class TestErrorsAndLifecycle:
    def test_parse_error_travels_on_the_ticket(self):
        frontend = make_frontend()
        try:
            with pytest.raises(ParseError):
                frontend.query("AND AND")
            # The frontend survives a bad query.
            assert frontend.query("alpha").paths
        finally:
            frontend.close()

    def test_submit_after_close_raises(self):
        frontend = make_frontend()
        frontend.close()
        with pytest.raises(ServiceClosedError):
            frontend.submit("alpha")
        assert frontend.closed

    def test_invalid_arguments_raise(self):
        frontend = make_frontend()
        try:
            with pytest.raises(ValueError):
                frontend.submit("alpha", rank="pagerank")
        finally:
            frontend.close()
        snapshot = IndexSnapshot(tiny_index())
        service = SearchService(snapshot, workers=1)
        try:
            with pytest.raises(ValueError):
                AsyncSearchFrontend(service, workers=0)
            with pytest.raises(ValueError):
                AsyncSearchFrontend(service, batch_window=-0.1)
            with pytest.raises(ValueError):
                AsyncSearchFrontend(service, max_inflight=0)
        finally:
            service.close()

    def test_context_manager_closes_owned_service(self):
        snapshot = IndexSnapshot(tiny_index())
        service = SearchService(snapshot, workers=1)
        with AsyncSearchFrontend(service, own_service=True) as frontend:
            assert frontend.query("alpha").paths
        assert frontend.closed
        with pytest.raises(ServiceClosedError):
            service.query("alpha")

    def test_result_timeout(self):
        gate = threading.Event()
        frontend = make_frontend(StubEngine(gate))
        try:
            ticket = frontend.submit("alpha")
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            gate.set()
            assert ticket.result(timeout=10).paths
        finally:
            frontend.close()


class TestAsyncioFace:
    def test_gather_with_duplicates(self):
        frontend = make_frontend(StubEngine(), workers=2)

        async def drive():
            return await asyncio.gather(*[
                frontend.query_async("alpha AND bravo")
                for _ in range(8)
            ])

        try:
            results = asyncio.run(drive())
            assert len(results) == 8
            expected = results[0].paths
            assert all(r.paths == expected for r in results)
        finally:
            frontend.close()

    def test_async_parse_error_raises_in_caller(self):
        frontend = make_frontend()

        async def drive():
            with pytest.raises(ParseError):
                await frontend.query_async("AND AND")

        try:
            asyncio.run(drive())
        finally:
            frontend.close()


def callback_errors() -> float:
    return obsrec.metrics().counter("frontend.callback_errors").value


class TestDoneCallbackErrors:
    """A done-callback that raises runs on a front-end thread (the
    batcher or an evaluator); it is counted and dropped, never allowed
    to end that thread and strand every later ticket."""

    def test_raising_callback_leaves_the_front_end_serving(self):
        gate = threading.Event()
        frontend = make_frontend(StubEngine(gate), workers=1)
        before = callback_errors()

        def explode(_ticket):
            raise RuntimeError("callback failed")

        delivered, pending = [], []
        try:
            first = frontend.submit("alpha")
            first.add_done_callback(explode)
            first.add_done_callback(delivered.append)  # still runs
            gate.set()
            assert first.result(timeout=5).paths
            # The evaluator that ran the callback answers the next query.
            assert frontend.submit("bravo").result(timeout=5).paths
            wait_until(lambda: callback_errors() == before + 1)
            assert delivered == [first]
            pending = [frontend.submit("charlie") for _ in range(3)]
        finally:
            frontend.close()
        assert all(ticket.done for ticket in pending)

    def test_query_async_whose_loop_closed_before_delivery(self):
        gate = threading.Event()
        frontend = make_frontend(StubEngine(gate), workers=1)
        before = callback_errors()

        async def abandon():
            # Leave with the query still held in evaluation: asyncio.run
            # cancels it and closes the loop before the answer exists.
            asyncio.ensure_future(frontend.query_async("alpha"))
            while frontend.stats()["frontend.submitted"] < 1:
                await asyncio.sleep(0.001)

        try:
            asyncio.run(abandon())
            gate.set()
            # Delivery onto the closed loop raises on the evaluator.
            wait_until(lambda: callback_errors() == before + 1)
            assert frontend.submit("bravo").result(timeout=5).paths
        finally:
            frontend.close()
