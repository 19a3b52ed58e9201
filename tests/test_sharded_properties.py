"""Property-based tests (hypothesis) of the sharded scoring contract.

Random corpora, random shard counts and partition strategies, random
boolean queries — the broker must honour the two halves of the
contract in ``docs/sharded.md``:

* **boolean**: the merged answer is byte-identical to the unsharded
  engine's, for *any* query the language can express (document
  partitioning commutes with per-document evaluation);
* **BM25**: every shard scores on the whole collection's statistics,
  so the merged top-K — paths and float scores, compared with ``==`` —
  equals the unsharded in-memory ranker's and the DAAT engine's over
  the unsharded RIDX2 file, for any shard count, strategy and backend,
  term-less files included; it is also the first K of the
  concatenated per-shard top-K lists under the ``(score desc, path
  asc)`` tie-break.
"""

from __future__ import annotations

import os
import string
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.binfmt import dump_index_ridx2
from repro.index.inverted import InvertedIndex
from repro.index.ondisk import MmapPostingsReader
from repro.query.daat import DaatQueryEngine
from repro.query.evaluator import QueryEngine
from repro.query.ranking import BM25Ranker, FrequencyIndex, search_bm25
from repro.service.sharded import (
    SHARD_STRATEGIES,
    build_sharded_service,
    local_broker,
    partition_paths,
    shard_snapshots,
)
from repro.text.termblock import TermBlock

#: A small shared vocabulary so random documents overlap on terms —
#: merges with no overlap would never stress the set-union or the
#: tie-break.  Shared prefixes stress wildcard expansion per shard.
VOCAB = ("alpha", "alphabet", "beta", "gamma", "delta", "zeta")

paths = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)
corpora = st.dictionaries(
    paths,
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8),
    min_size=1,
    max_size=10,
)
shard_counts = st.integers(min_value=1, max_value=4)
strategies = st.sampled_from(SHARD_STRATEGIES)

atoms = st.sampled_from(VOCAB + ("nosuchterm", "alph*", "ze*", "qq*"))
queries = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.tuples(children, children).map(
            lambda pair: f"({pair[0]} AND {pair[1]})"
        ),
        st.tuples(children, children).map(
            lambda pair: f"({pair[0]} OR {pair[1]})"
        ),
        children.map(lambda q: f"(NOT {q})"),
    ),
    max_leaves=4,
)


#: Corpora where some files have no terms at all: those are not
#: documents, so they count towards no shard's universe and no N.
corpora_with_termless = st.dictionaries(
    paths,
    st.lists(st.sampled_from(VOCAB), min_size=0, max_size=8),
    min_size=1,
    max_size=10,
)


def build_corpus(docs):
    index = InvertedIndex()
    frequencies = FrequencyIndex()
    for path in sorted(docs):
        words = docs[path]
        index.add_block(TermBlock(path, tuple(sorted(set(words)))))
        frequencies.add_document(path, words)
    return index, frequencies


class TestPartitionProperties:
    @given(docs=corpora, shards=shard_counts, strategy=strategies)
    @settings(max_examples=40, deadline=None)
    def test_partition_is_always_a_disjoint_cover(self, docs, shards,
                                                  strategy):
        sizes = {path: len(words) for path, words in docs.items()}
        parts = partition_paths(docs, shards, strategy, sizes=sizes)
        assert len(parts) == shards
        flat = [path for part in parts for path in part]
        assert sorted(flat) == sorted(docs)
        assert len(flat) == len(set(flat))


class TestBooleanEquivalence:
    @given(docs=corpora, shards=shard_counts, strategy=strategies,
           query=queries)
    @settings(max_examples=25, deadline=None)
    def test_sharded_boolean_equals_unsharded_byte_for_byte(
        self, docs, shards, strategy, query
    ):
        index, _ = build_corpus(docs)
        engine = QueryEngine(index, universe=frozenset(docs))
        snapshots = shard_snapshots(index, docs, shards,
                                    strategy=strategy)
        broker = local_broker(snapshots)
        try:
            result = broker.query(query)
            assert result.paths == engine.search(query)
            assert result.shards_ok == result.shards_total == shards
        finally:
            broker.close()


class TestBM25Prefix:
    @given(docs=corpora, shards=shard_counts, query=queries,
           topk=st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_merge_is_a_permutation_stable_prefix(self, docs, shards,
                                                  query, topk):
        index, frequencies = build_corpus(docs)
        snapshots = shard_snapshots(index, docs, shards,
                                    frequencies=frequencies)
        broker = local_broker(snapshots)
        try:
            merged = broker.query(query, rank="bm25", topk=topk).hits
            per_shard = []
            for group in broker.groups:
                per_shard.extend(
                    group.query(query, rank="bm25", topk=topk).hits
                )
            per_shard.sort(key=lambda hit: (-hit.score, hit.path))
            assert merged == per_shard[:topk]
            # the merge itself is ordered under the documented tie-break
            keys = [(-hit.score, hit.path) for hit in merged]
            assert keys == sorted(keys)
        finally:
            broker.close()


class TestBM25EqualsUnsharded:
    @given(docs=corpora_with_termless,
           shards=st.integers(min_value=1, max_value=5),
           strategy=strategies, ondisk=st.booleans(), query=queries,
           topk=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_sharded_bm25_equals_the_unsharded_ranking(
        self, docs, shards, strategy, ondisk, query, topk
    ):
        index, frequencies = build_corpus(docs)
        universe = frozenset(path for path, words in docs.items() if words)
        expected = search_bm25(
            QueryEngine(index, universe=universe), BM25Ranker(frequencies),
            query, topk=topk,
        )
        with tempfile.TemporaryDirectory() as directory:
            unsharded = os.path.join(directory, "all.ridx2")
            with open(unsharded, "wb") as fh:
                fh.write(dump_index_ridx2(index, frequencies))
            reader = MmapPostingsReader(unsharded)
            try:
                daat = DaatQueryEngine(reader).search_bm25(query, topk=topk)
            finally:
                reader.close()
            assert daat == expected
            broker = build_sharded_service(
                index, universe, shards=shards, strategy=strategy,
                frequencies=frequencies,
                ridx2_dir=os.path.join(directory, "shards") if ondisk else None,
            )
            with broker:
                hits = broker.query(query, rank="bm25", topk=topk).hits
        assert hits == expected
