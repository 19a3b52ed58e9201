"""Query evaluation over single and replicated indices.

:class:`QueryEngine` evaluates a parsed query against either one
:class:`~repro.index.inverted.InvertedIndex` or a
:class:`~repro.index.multi.MultiIndex`.  A multi-index — Implementation
3's unjoined replicas — is probed one replica after another: on this
engine a per-query fan-out costs more than the probes it overlaps
(``benchmarks/test_extension_queries.py``).

``NOT`` is evaluated as set difference against the universe of indexed
files, which the engine is given at construction (the engine-produced
build reports know their file set).
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Union,
)

from repro.index.inverted import InvertedIndex
from repro.index.multi import MultiIndex
from repro.obs import recorder as obsrec
from repro.query.ast import And, Not, Or, Query, Term
from repro.query.optimizer import optimize as optimize_query
from repro.query.parser import parse_query
from repro.query.wildcard import PrefixDictionary, expand_prefixes, has_prefixes

AnyIndex = Union[InvertedIndex, MultiIndex]


class QueryEngine:
    """Evaluates boolean and wildcard queries against an index."""

    def __init__(
        self, index: AnyIndex, universe: Optional[Iterable[str]] = None
    ) -> None:
        self.index = index
        self._universe: Optional[FrozenSet[str]] = (
            frozenset(universe) if universe is not None else None
        )
        self._prefix_dictionary = None

    def search(self, query_text: str) -> List[str]:
        """Parse and evaluate ``query_text``; returns sorted file paths.

        Parse, simplify the AST, then :meth:`search_ast`.  A caller
        that has already parsed the text should hand the AST to
        :meth:`search_ast` instead of having it parsed twice.  A malformed query raises
        :class:`~repro.query.parser.ParseError` before anything is
        evaluated or counted.
        """
        return self.search_ast(optimize_query(parse_query(query_text)))

    def search_ast(self, query: Query) -> List[str]:
        """Evaluate a parsed query; returns sorted file paths.

        The one evaluation entry point: one ``query.search`` span and
        one ``query.searches`` count per call.  Wildcard terms
        (``inter*``) are expanded against :meth:`prefix_dictionary`.
        """
        with obsrec.span("query.search"):
            obsrec.metrics().counter("query.searches").inc()
            if has_prefixes(query):
                query = expand_prefixes(query, self.prefix_dictionary())
            with obsrec.span("query.fetch"):
                postings = {
                    term: set(self.index.lookup(term))
                    for term in query.terms()
                }
            return sorted(self._evaluate(query, postings))

    def prefix_dictionary(self):
        """What :func:`~repro.query.wildcard.expand_prefixes` expands
        against: anything with ``expand(prefix, limit)``.

        An index that keeps its own term dictionary — a
        :class:`~repro.index.segments.SegmentManifest` answers
        ``expand`` from its sealed segments' — is used as is; for any
        other a :class:`~repro.query.wildcard.PrefixDictionary` is
        built from ``terms()`` on the first wildcard query and cached.
        """
        if self._prefix_dictionary is None:
            index = self.index
            self._prefix_dictionary = (
                index
                if hasattr(index, "expand")
                else PrefixDictionary(index.terms())
            )
        return self._prefix_dictionary

    # -- internals --------------------------------------------------------

    def _evaluate(
        self, query: Query, postings: Dict[str, Set[str]]
    ) -> AbstractSet[str]:
        if isinstance(query, Term):
            return postings.get(query.value, set())
        if isinstance(query, And):
            sets = [self._evaluate(op, postings) for op in query.operands]
            result = sets[0]
            for other in sets[1:]:
                result = result & other
            return result
        if isinstance(query, Or):
            result: Set[str] = set()
            for op in query.operands:
                result |= self._evaluate(op, postings)
            return result
        if isinstance(query, Not):
            # A frozenset minus a set: the universe is never copied.
            return self._require_universe() - self._evaluate(
                query.operand, postings
            )
        raise TypeError(f"unknown query node: {type(query).__name__}")

    def _require_universe(self) -> FrozenSet[str]:
        if self._universe is None:
            raise ValueError(
                "NOT queries need the universe of indexed files; construct "
                "QueryEngine(index, universe=...)"
            )
        return self._universe
