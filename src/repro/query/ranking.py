"""Ranked retrieval: BM25 scoring on top of boolean matching.

The paper's index is boolean (term -> files); a usable desktop search
also ranks hits.  :class:`FrequencyIndex` keeps what boolean postings
drop — per-(term, file) occurrence counts plus document lengths — and
:class:`BM25Ranker` orders a boolean result set with Okapi BM25 (the
usual saturation ``k1`` and length-normalization ``b`` knobs),
truncating to a top-K.

The frequency index is an optional sidecar: the boolean engines stay
exactly as the paper describes them.  BM25 is deliberately written to
match :meth:`repro.query.daat.DaatQueryEngine.search_bm25` operation
for operation — the same formula, the same sorted-term accumulation
order, the same (score desc, path asc) tie-break — so the in-memory
and mmap paths produce *identical* hits over the same corpus, which is
what the differential suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.adt import FnvHashMap
from repro.query.parser import parse_query
from repro.query.wildcard import expand_prefixes, has_prefixes

#: The standard Okapi BM25 knobs: term-frequency saturation and
#: document-length normalization.
BM25_K1 = 1.2
BM25_B = 0.75


class FrequencyIndex:
    """term -> {path: occurrence count}, plus document statistics."""

    def __init__(self) -> None:
        self._counts: FnvHashMap[Dict[str, int]] = FnvHashMap()
        self._document_lengths: FnvHashMap[int] = FnvHashMap()

    @property
    def document_count(self) -> int:
        """Number of indexed documents."""
        return len(self._document_lengths)

    @property
    def total_length(self) -> int:
        """Sum of every document's length (total term occurrences)."""
        return sum(self._document_lengths.values())

    @property
    def average_document_length(self) -> float:
        """Mean document length; 0.0 for an empty index."""
        count = len(self._document_lengths)
        return self.total_length / count if count else 0.0

    def add_document(self, path: str, terms: Iterable[str]) -> None:
        """Index a document from its term *occurrences* (with duplicates)."""
        if path in self._document_lengths:
            raise ValueError(f"{path!r} already indexed")
        length = 0
        for term in terms:
            length += 1
            per_doc = self._counts.setdefault(term, {})
            per_doc[path] = per_doc.get(path, 0) + 1
        self._document_lengths[path] = length

    def tf(self, term: str, path: str) -> int:
        """Occurrences of ``term`` in ``path`` (0 if absent)."""
        per_doc = self._counts.get(term)
        return per_doc.get(path, 0) if per_doc else 0

    def df(self, term: str) -> int:
        """Number of documents containing ``term``."""
        per_doc = self._counts.get(term)
        return len(per_doc) if per_doc else 0

    def document_length(self, path: str) -> int:
        """Total term occurrences in ``path``."""
        return self._document_lengths.get(path, 0)

    def subset(self, keep) -> "FrequencyIndex":
        """A new frequency index restricted to documents in ``keep``.

        Exact decomposition for document-partitioned sharding: the
        per-(term, path) counts and per-document lengths are copied for
        kept paths only, so the shard's ``df``/``avgdl``/``N`` become
        genuinely *shard-local* statistics — which is what the
        distributed BM25 scoring contract (``docs/sharded.md``) scores
        with.  ``keep`` is any ``in``-supporting container (use a set).
        """
        sub = FrequencyIndex()
        for term, per_doc in self._counts.items():
            kept = {
                path: count
                for path, count in per_doc.items()
                if path in keep
            }
            if kept:
                sub._counts[term] = kept
        for path, length in self._document_lengths.items():
            if path in keep:
                sub._document_lengths[path] = length
        return sub

    @classmethod
    def from_fs(cls, fs, *, root: str = "",
                extractor=None) -> "FrequencyIndex":
        """Build a frequency index by scanning a filesystem."""
        from repro.extract.registry import resolve_extractor

        extractor = resolve_extractor(extractor)
        index = cls()
        for ref in fs.list_files(root):
            content = fs.read_file(ref.path)
            index.add_document(ref.path, extractor.terms(ref.path, content))
        return index


@dataclass(frozen=True)
class RankedHit:
    """One scored search result."""

    path: str
    score: float


class BM25Ranker:
    """Okapi BM25 over a :class:`FrequencyIndex`.

    score(d) = sum over query terms of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * |d| / avgdl))

    with the non-negative idf ``ln(1 + (N - df + 0.5) / (df + 0.5))``.
    Mirrors the mmap-side scorer in
    :meth:`repro.query.daat.DaatQueryEngine.search_bm25` exactly.
    """

    def __init__(
        self,
        frequencies: FrequencyIndex,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> None:
        self.frequencies = frequencies
        self.k1 = k1
        self.b = b

    def idf(self, term: str) -> float:
        """Non-negative BM25 inverse document frequency."""
        n = self.frequencies.document_count
        df = self.frequencies.df(term)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def score(
        self, path: str, terms: Sequence[str], avgdl: Optional[float] = None
    ) -> float:
        """BM25 score of one document against the query terms
        (``avgdl``: the mean document length, when the caller — see
        :meth:`rank` — has it; reading it sums every length)."""
        frequencies = self.frequencies
        if avgdl is None:
            avgdl = frequencies.average_document_length
        length = frequencies.document_length(path)
        norm = self.k1 * (
            1.0 - self.b + self.b * (length / avgdl if avgdl else 0.0)
        )
        total = 0.0
        for term in terms:
            tf = frequencies.tf(term, path)
            if tf:
                total += self.idf(term) * (tf * (self.k1 + 1.0)) / (tf + norm)
        return total

    def rank(
        self, paths: Iterable[str], terms: Sequence[str],
        topk: Optional[int] = None,
    ) -> List[RankedHit]:
        """Top-``topk`` hits by (score desc, path asc); all if None."""
        avgdl = self.frequencies.average_document_length
        hits = [
            RankedHit(path, self.score(path, terms, avgdl)) for path in paths
        ]
        hits.sort(key=lambda hit: (-hit.score, hit.path))
        return hits if topk is None else hits[:topk]


def scoring_terms(engine, query_text: str) -> List[str]:
    """The terms a ranked query is scored over, sorted: those of the
    parsed, **un**optimised query (absorption turns ``a AND (a OR b)``
    into ``a`` and would drop ``b`` from the score), wildcards expanded
    against the engine's dictionary so their matches score too.  The
    in-memory rankers and :meth:`repro.query.daat.DaatQueryEngine.
    search_bm25` (which derives the same list from its one parse) all
    accumulate over this list, in this order, which keeps their scores
    float-identical."""
    query = parse_query(query_text)
    if has_prefixes(query):
        query = expand_prefixes(query, engine.prefix_dictionary())
    return sorted(query.terms())


def search_bm25(
    engine,
    ranker: BM25Ranker,
    query_text: str,
    topk: int = 10,
    parallel: bool = False,
) -> List[RankedHit]:
    """Boolean match via ``engine``, then BM25 top-``topk`` ordering.

    The in-memory ranked-query scenario: the operators decide the match
    set, the query's positive terms drive the score (a NOT-ed term
    contributes nothing to survivors), and the result is truncated to
    the top-K.  Its on-disk twin is
    :meth:`repro.query.daat.DaatQueryEngine.search_bm25`.
    """
    if topk < 1:
        raise ValueError(f"topk must be at least 1, got {topk}")
    paths = engine.search(query_text, parallel=parallel)
    return ranker.rank(paths, scoring_terms(engine, query_text), topk=topk)
