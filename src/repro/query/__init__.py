"""Search queries over the generated index.

The paper's index generator exists to serve desktop search: "In its
simplest form, it returns a list of files that contain a given
combination of search terms."  Its stated future work is integrating
and parallelizing query evaluation, "for instance by using multiple
indices" — which is exactly what makes Implementation 3 viable.

This package implements that search side: a boolean query language
(terms, AND/OR/NOT, parentheses, implicit AND), an evaluator over a
single index, a parallel evaluator over the replicas of an unjoined
multi-index, and a document-at-a-time evaluator
(:class:`~repro.query.daat.DaatQueryEngine`) that serves the same
language off an mmap'd RIDX2 file with block skipping and BM25 top-K
ranking.
"""

from repro.query.ast import And, Not, Or, Phrase, Prefix, Query, Term
from repro.query.cache import (
    CachingQueryEngine,
    QueryCache,
    cache_key,
    normalize_query,
)
from repro.query.daat import DaatQueryEngine
from repro.query.evaluator import QueryEngine
from repro.query.optimizer import node_count, optimize
from repro.query.parser import ParseError, parse_query
from repro.query.ranking import (
    BM25_B,
    BM25_K1,
    BM25Ranker,
    FrequencyIndex,
    RankedHit,
    search_bm25,
)
from repro.query.wildcard import PrefixDictionary, expand_prefixes, has_prefixes

__all__ = [
    "And",
    "BM25_B",
    "BM25_K1",
    "BM25Ranker",
    "CachingQueryEngine",
    "DaatQueryEngine",
    "FrequencyIndex",
    "Not",
    "Or",
    "ParseError",
    "Phrase",
    "Prefix",
    "PrefixDictionary",
    "Query",
    "QueryEngine",
    "RankedHit",
    "Term",
    "QueryCache",
    "cache_key",
    "normalize_query",
    "expand_prefixes",
    "has_prefixes",
    "node_count",
    "optimize",
    "parse_query",
    "search_bm25",
]
