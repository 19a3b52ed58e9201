"""Document-at-a-time evaluation over mmap-backed posting cursors.

The in-memory :class:`~repro.query.evaluator.QueryEngine` fetches each
term's *entire* postings into a Python set and then does set algebra —
fine when the index is already dict-resident, a dead end when postings
live on disk.  :class:`DaatQueryEngine` evaluates the same boolean
query language against an RIDX2 file through
:class:`~repro.index.ondisk.BlockCursor` seeks instead: every AST node
becomes a *stream* with a ``seek(target)`` operation, conjunctions
leapfrog their operands to a common doc id, and cursor seeks translate
into ``last_docid`` block skips — postings that cannot match are never
decoded, let alone materialized.

Doc ids in RIDX2 are assigned in sorted-path order, so emitting
matches in doc-id order and mapping them to paths reproduces the
in-memory engine's ``sorted(paths)`` output *byte for byte* — the
differential property the test suite pins across every build backend.

BM25 ranking rides the same machinery: :meth:`DaatQueryEngine.
search_bm25` computes the boolean match set DAAT-style, then scores
survivors with per-term frequency cursors (monotone seeks, so the
second pass is one forward sweep) into a bounded top-K heap.  The
scoring formula and iteration order mirror
:class:`~repro.query.ranking.BM25Ranker` exactly, so ondisk and
in-memory BM25 agree to the last float.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional

from repro.index.ondisk import DONE, BlockCursor, MmapPostingsReader
from repro.obs import recorder as obsrec
from repro.query.ast import And, Not, Or, Phrase, Query, Term
from repro.query.optimizer import optimize as optimize_query
from repro.query.parser import parse_query
from repro.query.ranking import BM25_B, BM25_K1, RankedHit, scoring_terms
from repro.query.wildcard import PrefixDictionary, expand_prefixes, has_prefixes


class _TermStream:
    """One term's cursor as a stream (absent terms match nothing)."""

    __slots__ = ("cursor", "docid")

    def __init__(self, cursor: Optional[BlockCursor]) -> None:
        self.cursor = cursor
        self.docid = -1 if cursor is not None else DONE

    def seek(self, target: int) -> int:
        if self.docid < target:
            self.docid = self.cursor.seek(target)
        return self.docid


class _AndStream:
    """Leapfrog intersection: operands chase the maximum candidate."""

    __slots__ = ("children", "docid")

    def __init__(self, children: List[object]) -> None:
        self.children = children
        self.docid = -1

    def seek(self, target: int) -> int:
        if self.docid >= target:
            return self.docid
        candidate = target
        while candidate < DONE:
            for child in self.children:
                found = child.seek(candidate)
                if found > candidate:
                    candidate = found
                    break
            else:
                break
        self.docid = candidate
        return candidate


class _OrStream:
    """Union: the minimum of the children's frontiers."""

    __slots__ = ("children", "docid")

    def __init__(self, children: List[object]) -> None:
        self.children = children
        self.docid = -1

    def seek(self, target: int) -> int:
        if self.docid >= target:
            return self.docid
        minimum = DONE
        for child in self.children:
            found = child.docid
            if found < target:
                found = child.seek(target)
            if found < minimum:
                minimum = found
        self.docid = minimum
        return minimum


class _NotStream:
    """Complement against the dense doc-id universe [0, doc_count)."""

    __slots__ = ("child", "doc_count", "docid")

    def __init__(self, child: object, doc_count: int) -> None:
        self.child = child
        self.doc_count = doc_count
        self.docid = -1

    def seek(self, target: int) -> int:
        if self.docid >= target:
            return self.docid
        candidate = target
        while candidate < self.doc_count:
            if self.child.seek(candidate) != candidate:
                break
            candidate += 1
        self.docid = candidate if candidate < self.doc_count else DONE
        return self.docid


class DaatQueryEngine:
    """Evaluates boolean queries against an RIDX2 file via mmap.

    Drop-in for :class:`~repro.query.evaluator.QueryEngine` on the
    read path: ``search`` has the same signature (``parallel`` is
    accepted for interface parity — there are no replicas to fan out
    over) and returns the identical sorted path list.  Phrase queries
    need the positional sidecar, which RIDX2 does not carry, and raise.
    """

    def __init__(self, reader: MmapPostingsReader) -> None:
        self.reader = reader
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
            reader = self.reader
            return [
                reader.doc_path(doc_id)
                for doc_id in self._match_ids(self._expand(query))
            ]

    def search_bm25(
        self,
        query_text: str,
        topk: int = 10,
        k1: float = BM25_K1,
        b: float = BM25_B,
    ) -> List[RankedHit]:
        """Boolean match, then BM25 top-``topk`` over the survivors.

        Matches :func:`repro.query.ranking.search_bm25` (same formula,
        same sorted-term accumulation order, same (score desc, path
        asc) ordering), so the two paths produce identical hits when
        the RIDX2 file was dumped with the same frequency sidecar.
        """
        if topk < 1:
            raise ValueError(f"topk must be at least 1, got {topk}")
        with obsrec.span("query.bm25", topk=topk):
            terms = scoring_terms(self, query_text)
            query = self._expand(optimize_query(parse_query(query_text)))
            reader = self.reader
            n = reader.doc_count
            avgdl = reader.average_document_length
            idf: Dict[str, float] = {}
            scorers: List[tuple] = []
            for term in terms:
                info = reader.term_info(term)
                df = info.df if info is not None else 0
                idf[term] = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                if info is not None:
                    scorers.append((term, BlockCursor(reader, info)))
            # Min-heap of (score, -doc_id): among equal scores the
            # larger doc id (later path) is evicted first, matching the
            # in-memory ranker's (score desc, path asc) tie-break.
            heap: List[tuple] = []
            for doc_id in self._match_ids(query):
                length = reader.doc_length(doc_id)
                norm = k1 * (1.0 - b + b * (length / avgdl if avgdl else 0.0))
                score = 0.0
                for term, cursor in scorers:
                    if cursor.docid() < doc_id:
                        cursor.seek(doc_id)
                    if cursor.docid() == doc_id:
                        tf = cursor.freq()
                        score += idf[term] * (tf * (k1 + 1.0)) / (tf + norm)
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
        if has_prefixes(query):
            query = expand_prefixes(query, self.prefix_dictionary())
        return query

    def _match_ids(self, query: Query):
        """Yield matching doc ids in ascending order (one DAAT sweep)."""
        stream = self._build(query)
        doc_id = stream.seek(0)
        while doc_id < DONE:
            yield doc_id
            doc_id = stream.seek(doc_id + 1)

    def _build(self, query: Query):
        if isinstance(query, Term):
            return _TermStream(self.reader.cursor(query.value))
        if isinstance(query, And):
            return _AndStream([self._build(op) for op in query.operands])
        if isinstance(query, Or):
            return _OrStream([self._build(op) for op in query.operands])
        if isinstance(query, Not):
            return _NotStream(
                self._build(query.operand), self.reader.doc_count
            )
        if isinstance(query, Phrase):
            raise ValueError(
                "phrase queries need a positional index, which the RIDX2 "
                "on-disk format does not carry; evaluate phrases with the "
                "in-memory QueryEngine"
            )
        raise TypeError(f"unknown query node: {type(query).__name__}")
