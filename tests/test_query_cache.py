"""Tests for the query result cache."""

import pytest

from repro.index import InvertedIndex
from repro.query import QueryEngine
from repro.query.cache import CachingQueryEngine, QueryCache, cache_key
from repro.text import TermBlock


def make_engine():
    index = InvertedIndex()
    index.add_block(TermBlock("f1", ("cat", "dog")))
    index.add_block(TermBlock("f2", ("cat",)))
    return QueryEngine(index, universe=["f1", "f2"])


class TestCacheKeySchema:
    """Pins the key tuple — every producer and consumer shares it, so
    a silent reshape would let entries cross lookup modes or serving
    topologies."""

    def test_schema_is_the_five_tuple(self):
        assert cache_key("cat", False) == ("cat", False, "bool", None, None)
        assert cache_key("cat", True, "bm25", 10, "shards=3") == (
            "cat", True, "bm25", 10, "shards=3"
        )

    def test_topology_scope_separates_entries(self):
        # A sharded BM25 top-K is scored with shard-local statistics:
        # it must never satisfy an unsharded lookup or one behind a
        # different shard count.
        unsharded = cache_key("cat", False, "bm25", 10)
        three = cache_key("cat", False, "bm25", 10, "shards=3")
        five = cache_key("cat", False, "bm25", 10, "shards=5")
        assert len({unsharded, three, five}) == 3
        cache = QueryCache()
        cache.put(three, ["sharded-garbage"])
        assert cache.get(unsharded) is None
        assert cache.get(five) is None
        assert cache.get(three) == ["sharded-garbage"]


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

    def test_clear(self):
        cache = QueryCache()
        cache.put(("q", False), ["a"])
        cache.clear()
        assert cache.get(("q", False)) is None

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
    def test_results_match_uncached(self):
        plain = make_engine()
        caching = CachingQueryEngine(make_engine())
        for query in ("cat", "cat AND dog", "cat OR dog", "NOT dog"):
            assert caching.search(query) == plain.search(query)
            # Second time: served from cache, still identical.
            assert caching.search(query) == plain.search(query)

    def test_repeat_query_hits_cache(self):
        caching = CachingQueryEngine(make_engine())
        caching.search("cat")
        caching.search("cat")
        assert caching.cache.hits == 1

    def test_normalization_shares_entries(self):
        caching = CachingQueryEngine(make_engine())
        caching.search("cat AND cat")
        caching.search("cat")
        assert caching.cache.hits == 1

    def test_parallel_flag_separates_entries(self):
        caching = CachingQueryEngine(make_engine())
        caching.search("cat", parallel=False)
        caching.search("cat", parallel=True)
        assert caching.cache.hits == 0

    def test_invalidation(self):
        caching = CachingQueryEngine(make_engine())
        caching.search("cat")
        caching.invalidate()
        caching.search("cat")
        assert caching.cache.misses == 2

    def test_incremental_workflow(self):
        """Cache + segmented refresh: the refreshed manifest gets a new
        engine, and the cache is invalidated with the swap."""
        from repro.fsmodel import VirtualFileSystem
        from repro.index.segments import SegmentedIndexer

        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"needle here")
        indexer = SegmentedIndexer(fs)
        indexer.refresh()
        caching = CachingQueryEngine(QueryEngine(indexer.manifest))
        assert caching.search("needle") == ["a.txt"]

        fs.write_file("b.txt", b"another needle")
        indexer.refresh()
        caching.engine = QueryEngine(indexer.manifest)
        caching.invalidate()
        assert caching.search("needle") == ["a.txt", "b.txt"]
