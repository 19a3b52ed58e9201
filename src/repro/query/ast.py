"""Query abstract syntax tree.

Immutable node types; :meth:`Query.terms` enumerates the positive terms
a node needs from the index, which the parallel evaluator prefetches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple


class Query:
    """Base class for query AST nodes."""

    def terms(self) -> FrozenSet[str]:
        """All term literals mentioned anywhere in the query."""
        raise NotImplementedError


@dataclass(frozen=True)
class Term(Query):
    """A single search term (already lower-cased by the parser)."""

    value: str

    def terms(self) -> FrozenSet[str]:
        return frozenset((self.value,))

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Prefix(Query):
    """A wildcard term ``value*``: matches every term with that prefix.

    Carries no postings itself — :func:`repro.query.wildcard.expand_prefixes`
    rewrites it into an :class:`Or` of concrete terms against a term
    dictionary before evaluation.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("a prefix query needs at least one character")

    def terms(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return f"{self.value}*"


@dataclass(frozen=True)
class And(Query):
    """Conjunction: files matching every operand."""

    operands: Tuple[Query, ...]

    def terms(self) -> FrozenSet[str]:
        return frozenset().union(*(op.terms() for op in self.operands))

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Query):
    """Disjunction: files matching any operand."""

    operands: Tuple[Query, ...]

    def terms(self) -> FrozenSet[str]:
        return frozenset().union(*(op.terms() for op in self.operands))

    def __str__(self) -> str:
        return "(" + " OR ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Query):
    """Negation: files not matching the operand."""

    operand: Query

    def terms(self) -> FrozenSet[str]:
        return self.operand.terms()

    def __str__(self) -> str:
        return f"(NOT {self.operand})"
