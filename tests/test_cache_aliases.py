"""The query cache's aliases: a request's text mapped to its key.

:meth:`~repro.query.cache.QueryCache.recall` answers a request by its
text, unparsed, when an earlier hit or put named that request.  The
claims pinned here: texts that normalize alike share one entry but keep
an alias each; a request's mode and (for BM25) top-K are part of it;
the alias map is an LRU of at most ``capacity`` requests that follows
its entries' recency; and a probe that finds nothing counts nothing, so
each request is still counted once in ``hits`` / ``misses``.
"""

from __future__ import annotations

import sys
import threading

from repro.query.cache import QueryCache, plan_query, request_of


def ask(cache: QueryCache, text: str, rank: str = "bool", topk: int = 10):
    """One request as the front end makes it: a probe by text, then a
    lookup by key, then a put.  Returns (value, how it was answered)."""
    request = request_of(text, rank, topk)
    value = cache.recall(request)
    if value is not None:
        return value, "door"
    key = plan_query(text, rank, topk).key
    value = cache.get(key, request)
    if value is not None:
        return value, "key"
    value = [f"{key}"]
    cache.put(key, value, request)
    return value, "miss"


class TestAliases:
    def test_a_shared_entry_keeps_one_alias_per_text(self):
        cache = QueryCache(4)
        assert ask(cache, "a")[1] == "miss"
        assert ask(cache, "a AND a")[1] == "key"
        assert ask(cache, "a")[1] == "door"
        assert ask(cache, "a AND a")[1] == "door"
        assert len(cache) == 1
        assert cache.recall(request_of("a")) == cache.recall(
            request_of("a AND a")
        )

    def test_mode_and_bm25_top_k_are_part_of_the_request(self):
        cache = QueryCache(4)
        ranked, _ = ask(cache, "a", "bm25", 10)
        assert ask(cache, "a", "bm25", 10) == (ranked, "door")
        assert cache.recall(request_of("a", "bool", 10)) is None
        assert cache.recall(request_of("a", "bm25", 5)) is None
        boolean, how = ask(cache, "a", "bool")
        assert how == "miss" and boolean != ranked
        assert ask(cache, "a", "bm25", 5)[1] == "miss"
        # Only BM25 keys on top-K: a boolean request at any K is one.
        assert request_of("a", "bool", 5) == request_of("a", "bool", 10)
        assert ask(cache, "a", "bool", 3) == (boolean, "door")

    def test_a_hot_text_keeps_its_alias_while_cold_texts_pass(self):
        # Aliases follow their entries' recency: a text asked every
        # third request stays at the door while 4 x capacity distinct
        # texts pass through a cache of capacity 4.
        cache = QueryCache(4)
        ask(cache, "hot")
        for cold in range(16):
            ask(cache, f"cold{cold}")
            if cold % 2:
                assert ask(cache, "hot")[1] == "door", cold

    def test_the_alias_map_holds_at_most_capacity_requests(self):
        cache = QueryCache(3)
        for text in ("a", "b", "a AND a", "b OR b", "c", "NOT a"):
            for rank, topk in (("bool", 10), ("bm25", 2), ("bm25", 3)):
                ask(cache, text, rank, topk)
                assert len(cache._aliases) <= cache.capacity
                assert len(cache) <= cache.capacity
        assert len(cache._aliases) == cache.capacity

    def test_a_probe_that_misses_counts_nothing(self):
        cache = QueryCache(2)
        assert cache.recall(request_of("never")) is None
        assert (cache.hits, cache.misses) == (0, 0)
        ask(cache, "a")
        ask(cache, "b")
        # Put without a request: evicts a's entry, leaves a's alias.
        cache.put(plan_query("c").key, ["c"])
        assert cache.recall(request_of("a")) is None
        assert (cache.hits, cache.misses) == (0, 2)
        asked = ["a", "b", "c", "a", "a AND a", "d", "b", "a", "c", "c"]
        for text in asked:
            ask(cache, text)
        assert cache.hits + cache.misses == 2 + len(asked)

    def test_a_recalled_value_is_a_copy(self):
        cache = QueryCache(2)
        ask(cache, "a")
        cache.recall(request_of("a")).append("evil")
        assert cache.recall(request_of("a")) == [str(plan_query("a").key)]


class TestThreadStress:
    THREADS = 6
    ASKS = 300

    def test_threads_asking_by_text_keep_every_count_and_answer(self):
        # More threads than cores and a short switch interval: a lost
        # update to the alias map or the tallies shows as a wrong
        # answer, an oversized map or a request counted twice or never.
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
                    if value != [str(plan_query(text).key)]:
                        errors.append((text, value))
                    if len(cache._aliases) > cache.capacity:
                        errors.append("alias map past capacity")
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
        assert len(cache._aliases) <= cache.capacity
