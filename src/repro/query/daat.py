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

Each query resolves each distinct term once into a map that is passed
down the recursion and never stored on the engine, which concurrent
service callers share; a prefix's expansion seeds that map from the
lexicon range it walks (:meth:`~repro.index.ondisk.MmapPostingsReader.
expand`).

Doc ids in RIDX2 are assigned in sorted-path order, so ascending doc
ids mapped to paths reproduce the in-memory engine's ``sorted(paths)``
output *byte for byte* — the differential property the test suite pins
across every build backend.

BM25 ranking rides the same machinery, one decode per list:
:meth:`DaatQueryEngine.search_bm25` scores a term from the aligned
``(doc ids, tfs)`` columns its match decoded whole, or filtered by
candidates holding every match; any other term is read again over the
matches.  Scores add up per term in sorted order, as
:class:`~repro.query.ranking.BM25Ranker` adds them, so ondisk and
in-memory BM25 agree to the last float; ``heapq.nlargest`` over
ascending doc ids, a stable sort cut to K, picks the top-K.  A file
written without term frequencies refuses to rank (:data:`NO_FREQS`).
"""

from __future__ import annotations

import math
from heapq import nlargest
from itertools import compress, filterfalse
from functools import partial
from operator import itemgetter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.index.ondisk import MmapPostingsReader, TermInfo
from repro.obs import recorder as obsrec
from repro.query.ast import And, Not, Or, Query, Term
from repro.query.optimizer import optimize as optimize_query
from repro.query.parser import parse_query
from repro.query.ranking import BM25_B, BM25_K1, RankedHit
from repro.query.wildcard import expand_prefixes, has_prefixes

#: One query's term map: each distinct term's lexicon entry, or None.
Infos = Dict[str, Optional[TermInfo]]
#: A ranked query's decoded terms: (filter candidates or None, (ids, tfs)).
Decoded = Dict[str, Tuple[Optional[List[int]], Tuple[List[int], List[int]]]]

#: Why an RIDX2 file without stored term frequencies refuses BM25
#: rather than rank every match on tf = 1.
NO_FREQS = (
    "this RIDX2 file stores no term frequencies, so it cannot rank; "
    "save it with frequencies (repro-cli index --save FILE.ridx2) for BM25"
)


class DaatQueryEngine:
    """Evaluates boolean queries against an RIDX2 file via mmap.

    Drop-in for :class:`~repro.query.evaluator.QueryEngine` on the
    read path: ``search`` returns the identical sorted path list (it
    takes no ``parallel``: one file has no replicas to fan out over).
    BM25 reads N, avgdl and df from the file, or from the collection
    ``statistics`` of a shard's whole corpus when given
    (:class:`~repro.query.ranking.CollectionStatistics`).
    """

    def __init__(self, reader: MmapPostingsReader, statistics=None) -> None:
        self.reader = reader
        self.statistics = statistics
        self._norms: Optional[Tuple[tuple, List[float], List[float]]] = None

    def search(self, query_text: str) -> List[str]:
        """Parse, optimise, :meth:`search_ast` — the contract of
        :meth:`repro.query.evaluator.QueryEngine.search`, ``ParseError``
        before anything is evaluated or counted included."""
        return self.search_ast(optimize_query(parse_query(query_text)))

    def search_ast(self, query: Query) -> List[str]:
        """Evaluate a parsed query; returns sorted file paths.  Wildcards
        are expanded here, *after* the caller's optimisation, so the
        optimiser never walks the expanded ``Or``."""
        with obsrec.span("query.daat"):
            obsrec.metrics().counter("query.daat.searches").inc()
            query, infos = self._resolve(query)
            return self.reader.doc_paths_of(self._match(query, infos))

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
            query, infos = self._resolve(parse_query(query_text))
            decoded: Decoded = {}
            matches = self._match(query, infos, None, decoded)
            if not matches:
                return []
            reader = self.reader
            n, avgdl, dfs = self.statistics or (
                reader.doc_count, reader.average_document_length, None
            )
            norms, ones = self._doc_norms(k1, b, avgdl)
            scores = dict.fromkeys(matches, 0.0)
            # In a union every term is decoded whole, and each id a match.
            union = _is_union(query)
            k1_plus = k1 + 1.0
            for term in sorted(infos):
                info = infos[term]
                if info is None:
                    continue
                df = info.df if dfs is None else dfs.get(term, 0)
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                # A filtered decode saw only its candidates' blocks.
                seen = decoded.get(term)
                if seen and (seen[0] is None or set(seen[0]).issuperset(matches)):
                    ids, tfs = seen[1]
                else:
                    ids, tfs = reader.read_postings(info, matches, with_freqs=True)
                postings = zip(ids, tfs)
                if not union:
                    postings = compress(postings, map(scores.__contains__, ids))
                # At tf == 1, 1 * (k1 + 1.0) is exact and 1 + norm is the
                # same sum as tf + norm: the general formula's float.
                one = idf * k1_plus
                for doc_id, tf in postings:
                    if tf == 1:
                        scores[doc_id] += one / ones[doc_id]
                    else:
                        scores[doc_id] += idf * (tf * k1_plus) / (tf + norms[doc_id])
            # Equal to a stable sort over ascending doc ids, cut to
            # topk: ties keep path order.
            ranked = nlargest(topk, scores.items(), key=itemgetter(1))
            return [
                RankedHit(reader.doc_path(doc_id), score)
                for doc_id, score in ranked
            ]

    def prefix_dictionary(self) -> MmapPostingsReader:
        """The file's term dictionary: the reader itself."""
        return self.reader

    # -- internals --------------------------------------------------------

    def _resolve(self, query: Query) -> Tuple[Query, Infos]:
        """The query, prefixes expanded, and its term map: the entries
        the expansion walked, plus one lexicon probe per other distinct
        term."""
        infos: Infos = {}
        if has_prefixes(query):
            expand = partial(self.reader.expand, into=infos)
            query = expand_prefixes(query, SimpleNamespace(expand=expand))
        term_info = self.reader.term_info
        for term in query.terms() - infos.keys():
            infos[term] = term_info(term)
        return query, infos

    def _doc_norms(
        self, k1: float, b: float, avgdl: float
    ) -> Tuple[List[float], List[float]]:
        """Each document's BM25 length norm, and ``1 + norm`` (the
        denominator at tf = 1), once per ``(k1, b, avgdl)`` (lock-free:
        racing threads compute equal lists)."""
        cached = self._norms
        if cached is None or cached[0] != (k1, b, avgdl):
            norms = [
                k1 * (1.0 - b + b * (length / avgdl if avgdl else 0.0))
                for length in self.reader.doc_lengths()
            ]
            cached = self._norms = (
                (k1, b, avgdl), norms, [1 + norm for norm in norms]
            )
        return cached[1], cached[2]

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
        self,
        query: Query,
        infos: Infos,
        candidates: Optional[List[int]] = None,
        decoded: Optional[Decoded] = None,
    ) -> List[int]:
        """The ascending doc ids ``query`` matches: all of them, or — in
        filter mode — those of the ascending ``candidates``.  Each term
        decoded goes in ``decoded`` as its ``(ids, tfs)`` columns, when
        given: a whole list always, a filtered one when the term has no
        entry."""
        if isinstance(query, Term):
            info = infos[query.value]
            if info is None:
                return []
            if decoded is None:
                return self.reader.read_postings(info, candidates)
            columns = self.reader.read_postings(info, candidates, with_freqs=True)
            if candidates is None:
                decoded[query.value] = (None, columns)
                return columns[0]
            decoded.setdefault(query.value, (candidates, columns))
            return sorted(set(columns[0]).intersection(candidates))
        if isinstance(query, And):
            ids = candidates
            for operand in sorted(
                query.operands,
                key=lambda op: (isinstance(op, Not), self._cost(op, infos)),
            ):
                ids = self._match(operand, infos, ids, decoded)
                if not ids:
                    break
            return ids
        if isinstance(query, Or):
            matched = (
                self._match(op, infos, candidates, decoded)
                for op in query.operands
            )
            lists = [ids for ids in matched if ids]
            if len(lists) == 1:
                return lists[0]
            return sorted(set().union(*lists))
        if isinstance(query, Not):
            drop = set(self._match(query.operand, infos, candidates, decoded))
            if candidates is None:
                candidates = range(self.reader.doc_count)
            return list(filterfalse(drop.__contains__, candidates))
        raise TypeError(f"unknown query node: {type(query).__name__}")


def _is_union(query: Query) -> bool:
    """True when ``query`` is a term or an ``Or`` of unions: each term
    is then decoded whole and every id it holds is a match."""
    if isinstance(query, Or):
        return all(map(_is_union, query.operands))
    return isinstance(query, Term)
