"""List-at-a-time evaluation over an mmap'd RIDX2 file.

The in-memory :class:`~repro.query.evaluator.QueryEngine` fetches each
term's *entire* postings into a Python set and then does set algebra —
fine when the index is already dict-resident, a dead end when postings
live on disk.  :class:`DaatQueryEngine` evaluates the same boolean
query language against an RIDX2 file through
:meth:`~repro.index.ondisk.MmapPostingsReader.read_postings`: every AST
node yields an ascending doc-id list, built from whole decoded blocks,
so the per-posting work runs in C (block decode, set union and
intersection) and only the per-node and per-block steps are Python.

* A ``Term`` decodes its list; an ``Or`` is the union of its operands'
  lists; a ``Not`` is the complement against ``range(doc_count)``.
* An ``And`` evaluates its cheapest operand (by df; an ``Or`` costs
  the sum of its operands; a ``Not`` drives only when every operand is
  one) and passes the candidates through the other operands, cheapest
  first, in *filter* mode: a ``Term`` then decodes only the blocks
  whose ``last_docid`` range holds a candidate — the blocks in between
  are skipped, never decoded — a ``Not`` drops what its operand keeps,
  and ``And`` / ``Or`` recurse.

Each query resolves each distinct term once (one ``term_info`` probe)
into a map that is passed down the recursion and never stored on the
engine, which concurrent service callers share.

Doc ids in RIDX2 are assigned in sorted-path order, so ascending doc
ids mapped to paths reproduce the in-memory engine's ``sorted(paths)``
output *byte for byte* — the differential property the test suite pins
across every build backend.

BM25 ranking rides the same machinery: :meth:`DaatQueryEngine.
search_bm25` computes the boolean match list, decodes ``{doc id: tf}``
of each scoring term from only the blocks holding a match, and scores
the matches into a bounded top-K heap.  The scoring formula and the
term accumulation order mirror :class:`~repro.query.ranking.BM25Ranker`
exactly, so ondisk and in-memory BM25 agree to the last float.  A file
written without term frequencies refuses to rank (:data:`NO_FREQS`).
"""

from __future__ import annotations

import heapq
import math
from itertools import filterfalse
from typing import Dict, List, Optional

from repro.index.ondisk import MmapPostingsReader, TermInfo
from repro.obs import recorder as obsrec
from repro.query.ast import And, Not, Or, Phrase, Query, Term
from repro.query.optimizer import optimize as optimize_query
from repro.query.parser import parse_query
from repro.query.ranking import BM25_B, BM25_K1, RankedHit
from repro.query.wildcard import PrefixDictionary, expand_prefixes, has_prefixes

#: One query's term map: each distinct term's lexicon entry, or None.
Infos = Dict[str, Optional[TermInfo]]

#: Why an RIDX2 file without stored term frequencies refuses BM25
#: rather than rank every match on tf = 1.
NO_FREQS = (
    "this RIDX2 file stores no term frequencies, so it cannot rank; "
    "save it with frequencies (repro-cli index --save FILE.ridx2) for BM25"
)


class DaatQueryEngine:
    """Evaluates boolean queries against an RIDX2 file via mmap.

    Drop-in for :class:`~repro.query.evaluator.QueryEngine` on the
    read path: ``search`` has the same signature (``parallel`` is
    accepted for interface parity — there are no replicas to fan out
    over) and returns the identical sorted path list.  Phrase queries
    need the positional sidecar, which RIDX2 does not carry, and raise.
    BM25 reads N, avgdl and df from the file, or from the collection
    ``statistics`` of a shard's whole corpus when given
    (:class:`~repro.query.ranking.CollectionStatistics`).
    """

    def __init__(self, reader: MmapPostingsReader, statistics=None) -> None:
        self.reader = reader
        self.statistics = statistics
        self._prefix_dictionary: Optional[PrefixDictionary] = None

    def search(
        self, query_text: str, parallel: bool = False, optimize: bool = True
    ) -> List[str]:
        """Parse, optimise, :meth:`search_ast` — the contract of
        :meth:`repro.query.evaluator.QueryEngine.search`, ``ParseError``
        before anything is evaluated or counted included."""
        query = parse_query(query_text)
        if optimize:
            query = optimize_query(query)
        return self.search_ast(query, parallel=parallel)

    def search_ast(self, query: Query, parallel: bool = False) -> List[str]:
        """Evaluate a parsed query; returns sorted file paths.  Wildcards
        are expanded here, *after* the caller's optimisation, so the
        optimiser never walks the expanded ``Or``."""
        with obsrec.span("query.daat", parallel=parallel):
            obsrec.metrics().counter("query.daat.searches").inc()
            query = self._expand(query)
            ids = self._match(query, self._infos(query))
            return self.reader.doc_paths_of(ids)

    def search_bm25(
        self,
        query_text: str,
        topk: int = 10,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> List[RankedHit]:
        """Boolean match, then BM25 top-``topk`` over the matches.

        Matches :func:`repro.query.ranking.search_bm25` (same formula,
        same sorted-term accumulation order, same (score desc, path
        asc) ordering), so the two paths produce identical hits when
        the RIDX2 file was dumped with the same frequency sidecar (a
        shard's file ranking on that sidecar's statistics).  The text is
        parsed and expanded once, and not optimised: the scoring terms
        are those of the un-optimised query
        (:func:`~repro.query.ranking.scoring_terms`), and the optimiser
        never changes which documents match.  A file without stored
        term frequencies raises ``ValueError`` (:data:`NO_FREQS`).
        """
        if topk < 1:
            raise ValueError(f"topk must be at least 1, got {topk}")
        if not self.reader.has_freqs:
            raise ValueError(NO_FREQS)
        with obsrec.span("query.bm25", topk=topk):
            query = self._expand(parse_query(query_text))
            infos = self._infos(query)
            matches = self._match(query, infos)
            if not matches:
                return []
            reader = self.reader
            n, avgdl, dfs = self.statistics or (
                reader.doc_count, reader.average_document_length, None
            )
            scorers: List[tuple] = []
            for term in sorted(infos):
                info = infos[term]
                if info is not None:
                    df = info.df if dfs is None else dfs.get(term, 0)
                    idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                    tfs = reader.read_postings(info, matches, with_freqs=True)
                    scorers.append((idf, tfs))
            # Min-heap of (score, -doc_id): among equal scores the
            # larger doc id (later path) is evicted first, matching the
            # in-memory ranker's (score desc, path asc) tie-break.
            heap: List[tuple] = []
            for doc_id in matches:
                length = reader.doc_length(doc_id)
                norm = k1 * (1.0 - b + b * (length / avgdl if avgdl else 0.0))
                score = 0.0
                for idf, tfs in scorers:
                    tf = tfs.get(doc_id)
                    if tf:
                        score += idf * (tf * (k1 + 1.0)) / (tf + norm)
                entry = (score, -doc_id)
                if len(heap) < topk:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            ordered = sorted(heap, key=lambda e: (-e[0], -e[1]))
            return [
                RankedHit(reader.doc_path(-neg_id), score)
                for score, neg_id in ordered
            ]

    def prefix_dictionary(self) -> PrefixDictionary:
        """The file's term dictionary (one lexicon walk, then cached)."""
        if self._prefix_dictionary is None:
            self._prefix_dictionary = PrefixDictionary(self.reader.terms())
        return self._prefix_dictionary

    # -- internals --------------------------------------------------------

    def _expand(self, query: Query) -> Query:
        """Prefixes expanded; a phrase anywhere is refused up front, as
        evaluation may never reach it (an empty ``And`` stops early)."""
        if _has_phrase(query):
            raise ValueError(
                "phrase queries need a positional index, which the RIDX2 "
                "on-disk format does not carry; evaluate phrases with the "
                "in-memory QueryEngine"
            )
        if has_prefixes(query):
            query = expand_prefixes(query, self.prefix_dictionary())
        return query

    def _infos(self, query: Query) -> Infos:
        """One lexicon probe per distinct term of the (expanded) query."""
        term_info = self.reader.term_info
        return {term: term_info(term) for term in query.terms()}

    def _cost(self, query: Query, infos: Infos) -> int:
        """An upper bound on how many doc ids ``query`` matches."""
        if isinstance(query, Term):
            info = infos[query.value]
            return info.df if info is not None else 0
        if isinstance(query, Or):
            return sum(self._cost(op, infos) for op in query.operands)
        if isinstance(query, And):
            return min(self._cost(op, infos) for op in query.operands)
        return self.reader.doc_count

    def _match(
        self, query: Query, infos: Infos, candidates: Optional[List[int]] = None
    ) -> List[int]:
        """The ascending doc ids ``query`` matches: all of them, or — in
        filter mode — those of the ascending ``candidates``."""
        if isinstance(query, Term):
            info = infos[query.value]
            if info is None:
                return []
            return self.reader.read_postings(info, candidates)
        if isinstance(query, And):
            ids = candidates
            for operand in sorted(
                query.operands,
                key=lambda op: (isinstance(op, Not), self._cost(op, infos)),
            ):
                ids = self._match(operand, infos, ids)
                if not ids:
                    break
            return ids
        if isinstance(query, Or):
            matched = (self._match(op, infos, candidates) for op in query.operands)
            lists = [ids for ids in matched if ids]
            if len(lists) == 1:
                return lists[0]
            return sorted(set().union(*lists))
        if isinstance(query, Not):
            drop = set(self._match(query.operand, infos, candidates))
            if candidates is None:
                candidates = range(self.reader.doc_count)
            return list(filterfalse(drop.__contains__, candidates))
        raise TypeError(f"unknown query node: {type(query).__name__}")


def _has_phrase(query: Query) -> bool:
    if isinstance(query, Phrase):
        return True
    if isinstance(query, (And, Or)):
        return any(_has_phrase(op) for op in query.operands)
    if isinstance(query, Not):
        return _has_phrase(query.operand)
    return False
