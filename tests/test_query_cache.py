"""Tests for the query result cache."""

import pytest

from repro.index import InvertedIndex
from repro.query import QueryEngine
from repro.query.cache import QueryCache, cache_key, request_of
from repro.service.snapshot import IndexSnapshot
from repro.text import TermBlock


def make_engine():
    index = InvertedIndex()
    index.add_block(TermBlock("f1", ("cat", "dog")))
    index.add_block(TermBlock("f2", ("cat",)))
    return QueryEngine(index, universe=["f1", "f2"])


def make_snapshot():
    engine = make_engine()
    return IndexSnapshot(engine.index, engine=engine, cache=QueryCache())


class TestCacheKeySchema:
    """Pins the key tuple — every producer and consumer shares it, so
    a silent reshape would let entries cross lookup modes."""

    def test_schema_is_the_three_tuple(self):
        assert cache_key("cat") == ("cat", "bool", None)
        assert cache_key("cat", "bm25", 10) == ("cat", "bm25", 10)
        # A request's key is its text as asked; only BM25 keys on K.
        assert request_of(" Cat ", "bool", 5) == (" Cat ", "bool", None)
        assert request_of("cat", "bm25", 5) == ("cat", "bm25", 5)


class TestQueryCache:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get(("q", False)) is None
        cache.put(("q", False), ["a"])
        assert cache.get(("q", False)) == ["a"]
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(("a", False), [])
        cache.put(("b", False), [])
        cache.get(("a", False))  # refresh "a"
        cache.put(("c", False), [])  # evicts "b"
        assert cache.get(("b", False)) is None
        assert cache.get(("a", False)) is not None

    def test_put_existing_updates(self):
        cache = QueryCache(capacity=1)
        cache.put(("q", False), ["old"])
        cache.put(("q", False), ["new"])
        assert cache.get(("q", False)) == ["new"]
        assert len(cache) == 1

    def test_returned_list_is_a_copy(self):
        cache = QueryCache()
        cache.put(("q", False), ["a"])
        cache.get(("q", False)).append("junk")
        assert cache.get(("q", False)) == ["a"]

    def test_hit_rate(self):
        cache = QueryCache()
        assert cache.hit_rate == 0.0
        cache.put(("q", False), [])
        cache.get(("q", False))
        cache.get(("other", False))
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)


class TestCachingQueryEngine:
    """The cached answer path: a snapshot that carries a cache."""

    def test_results_match_uncached(self):
        plain = make_engine()
        caching = make_snapshot()
        for query in ("cat", "cat AND dog", "cat OR dog", "NOT dog"):
            assert caching.answer(query).paths == plain.search(query)
            # Second time: served from cache, still identical.
            again = caching.answer(query)
            assert again.cached and again.paths == plain.search(query)

    def test_repeat_query_hits_cache(self):
        caching = make_snapshot()
        caching.answer("cat")
        caching.answer("cat")
        assert caching.cache.hits == 1

    def test_texts_that_optimise_alike_take_an_entry_each(self):
        # The key is the request as asked: no normal form is shared.
        caching = make_snapshot()
        first = caching.answer("cat AND cat")
        second = caching.answer("cat")
        assert not second.cached and second.paths == first.paths
        assert caching.cache.hits == 0 and len(caching.cache) == 2
        assert caching.answer("cat AND cat").cached

    def test_incremental_workflow(self):
        """Cache + session refresh: the refreshed manifest is published
        as a new snapshot, whose cache starts empty."""
        from repro.api import Search
        from repro.fsmodel import VirtualFileSystem

        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"needle here")
        session = Search.build(fs)
        assert session.query("needle").paths == ["a.txt"]

        fs.write_file("b.txt", b"another needle")
        session.refresh()
        result = session.query("needle")
        assert result.paths == ["a.txt", "b.txt"]
        assert not result.cached
