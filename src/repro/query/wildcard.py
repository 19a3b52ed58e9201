"""Prefix (wildcard) query support.

``inter*`` matches every indexed term starting with ``inter``.  The
expansion needs a *term dictionary*: a sorted list of the index's terms
over which a prefix is a binary-searchable range.  Expansion rewrites
each :class:`~repro.query.ast.Prefix` node into an ``Or`` of concrete
terms, after which the ordinary boolean evaluator (including its
parallel multi-index fetch) applies unchanged.

:class:`PrefixDictionary` is that list for an index that keeps none of
its own.  :func:`expand_prefixes` asks only for ``expand(prefix,
limit)``, so an index that can answer it directly — a
:class:`~repro.index.segments.SegmentManifest`, from its sealed
segments' dictionaries — stands in for one.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List

from repro.query.ast import And, Not, Or, Prefix, Query, Term


class PrefixDictionary:
    """A sorted term dictionary supporting prefix-range expansion."""

    def __init__(self, terms: Iterable[str]) -> None:
        self._terms: List[str] = sorted(set(terms))

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: str) -> bool:
        i = bisect.bisect_left(self._terms, term)
        return i < len(self._terms) and self._terms[i] == term

    def expand(self, prefix: str, limit: int = 1000) -> List[str]:
        """All terms starting with ``prefix`` (at most ``limit``).

        The limit guards against degenerate wildcards like ``a*`` on a
        large vocabulary blowing the rewritten query up; desktop-search
        UIs impose the same kind of cap.
        """
        if not prefix:
            raise ValueError("empty prefix")
        low = bisect.bisect_left(self._terms, prefix)
        high = bisect.bisect_left(self._terms, prefix + "\U0010ffff")
        matches = self._terms[low:high]
        return matches[:limit]


def expand_prefixes(
    query: Query, dictionary: PrefixDictionary, limit: int = 1000
) -> Query:
    """Rewrite every Prefix node into an Or over matching terms.

    ``dictionary`` is a :class:`PrefixDictionary` or anything else with
    its ``expand(prefix, limit)``.  A prefix matching nothing becomes a
    term that cannot match (wildcards never raise; they just find
    nothing).
    """
    if isinstance(query, Prefix):
        matches = dictionary.expand(query.value, limit)
        if not matches:
            # An impossible term: evaluates to the empty posting set.
            return Term(query.value + "\x00unmatchable")
        if len(matches) == 1:
            return Term(matches[0])
        return Or(tuple(Term(m) for m in matches))
    if isinstance(query, And):
        return And(
            tuple(expand_prefixes(op, dictionary, limit) for op in query.operands)
        )
    if isinstance(query, Or):
        return Or(
            tuple(expand_prefixes(op, dictionary, limit) for op in query.operands)
        )
    if isinstance(query, Not):
        return Not(expand_prefixes(query.operand, dictionary, limit))
    return query


def has_prefixes(query: Query) -> bool:
    """Whether the AST contains any Prefix node."""
    if isinstance(query, Prefix):
        return True
    if isinstance(query, (And, Or)):
        return any(has_prefixes(op) for op in query.operands)
    if isinstance(query, Not):
        return has_prefixes(query.operand)
    return False
