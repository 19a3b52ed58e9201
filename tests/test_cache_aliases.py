"""The query cache answers a request by its text as asked.

The cache once kept an alias map beside its entries, from a request as
asked to a key normalised on the optimised AST; the request is now the
key itself (:func:`~repro.query.cache.request_of`), so one map answers a
repeat unparsed.  The claims pinned here: a request's mode and (for
BM25) top-K are part of it; the cache is an LRU of at most ``capacity``
requests, whose recency a hot text keeps; and each ask is counted once
in ``hits`` / ``misses``.
"""

from __future__ import annotations

import sys
import threading

from repro.query.cache import QueryCache, request_of


def ask(cache: QueryCache, text: str, rank: str = "bool", topk: int = 10):
    """One request as the front end makes it: a probe by its text, then
    a put on a miss.  Returns (value, how it was answered)."""
    key = request_of(text, rank, topk)
    value = cache.get(key)
    if value is not None:
        return value, "door"
    value = [f"{key}"]
    cache.put(key, value)
    return value, "miss"


class TestAliases:
    def test_mode_and_bm25_top_k_are_part_of_the_request(self):
        cache = QueryCache(4)
        ranked, _ = ask(cache, "a", "bm25", 10)
        assert ask(cache, "a", "bm25", 10) == (ranked, "door")
        boolean, how = ask(cache, "a", "bool")
        assert how == "miss" and boolean != ranked
        assert ask(cache, "a", "bm25", 5)[1] == "miss"
        # Only BM25 keys on top-K: a boolean request at any K is one.
        assert request_of("a", "bool", 5) == request_of("a", "bool", 10)
        assert ask(cache, "a", "bool", 3) == (boolean, "door")

    def test_a_hot_text_stays_cached_while_cold_texts_pass(self):
        # A text asked every third request stays at the door while
        # 4 x capacity distinct texts pass through a cache of capacity 4.
        cache = QueryCache(4)
        ask(cache, "hot")
        for cold in range(16):
            ask(cache, f"cold{cold}")
            if cold % 2:
                assert ask(cache, "hot")[1] == "door", cold

    def test_the_cache_holds_at_most_capacity_requests(self):
        cache = QueryCache(3)
        for text in ("a", "b", "a AND a", "b OR b", "c", "NOT a"):
            for rank, topk in (("bool", 10), ("bm25", 2), ("bm25", 3)):
                ask(cache, text, rank, topk)
                assert len(cache) <= cache.capacity
        assert len(cache) == cache.capacity

    def test_each_ask_is_counted_once(self):
        cache = QueryCache(2)
        asked = ["a", "b", "c", "a", "a AND a", "d", "b", "a", "c", "c"]
        hows = [ask(cache, text)[1] for text in asked]
        assert cache.hits == hows.count("door") > 0
        assert cache.hits + cache.misses == len(asked)

    def test_a_recalled_value_is_a_copy(self):
        cache = QueryCache(2)
        ask(cache, "a")
        cache.get(request_of("a")).append("evil")
        assert cache.get(request_of("a")) == [str(request_of("a"))]


class TestThreadStress:
    THREADS = 6
    ASKS = 300

    def test_threads_asking_by_text_keep_every_count_and_answer(self):
        # More threads than cores and a short switch interval: a lost
        # update to the entries or the tallies shows as a wrong answer,
        # an oversized map or a request counted twice or never.
        cache = QueryCache(4)
        texts = ["hot", "hot AND hot"] + [f"cold{i}" for i in range(12)]
        start = threading.Barrier(self.THREADS)
        errors = []

        def worker(worker_id: int) -> None:
            start.wait(timeout=10)
            try:
                for n in range(self.ASKS):
                    at = 0 if n % 3 == 0 else (worker_id + n) % len(texts)
                    text = texts[at]
                    value, _how = ask(cache, text)
                    if value != [str(request_of(text))]:
                        errors.append((text, value))
                    if len(cache) > cache.capacity:
                        errors.append("cache past capacity")
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.hits + cache.misses == self.THREADS * self.ASKS
        assert len(cache) <= cache.capacity
