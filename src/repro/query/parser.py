"""Boolean query parser.

Grammar (standard precedence NOT > AND > OR; adjacency is implicit AND)::

    query   := or_expr
    or_expr := and_expr ( OR and_expr )*
    and_expr:= not_expr ( [AND] not_expr )*
    not_expr:= NOT not_expr | atom
    atom    := '(' or_expr ')' | TERM | PREFIX* | "TERM"

Operators are case-insensitive keywords; terms are lower-cased to match
the tokenizer's normalization.  A trailing ``*`` makes a term a prefix
(wildcard) query, e.g. ``inter*``.  A quoted word is just that term; a
quote of two or more words is a phrase, which raises :class:`ParseError`
as no index stores term positions.
"""

from __future__ import annotations

import re
from typing import List

from repro.query.ast import And, Not, Or, Prefix, Query, Term

_TOKEN = re.compile(r"\(|\)|\"[^\"]*\"|[A-Za-z0-9]+\*?")
_WORD = re.compile(r"[A-Za-z0-9]+")


class ParseError(ValueError):
    """Raised for malformed query strings."""


def parse_query(text: str) -> Query:
    """Parse ``text`` into a query AST."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty query")
    parser = _Parser(tokens)
    query = parser.parse_or()
    if parser._pos < len(tokens):
        raise ParseError(f"unexpected token: {tokens[parser._pos]!r}")
    return query


class _Parser:
    """Recursive descent over the token list.  Each token is upper-cased
    once, up front, for the keyword tests; ``_upper`` ends in a ``""``
    sentinel so a look past the last token needs no bounds check."""

    def __init__(self, tokens: List[str]) -> None:
        self._tokens = tokens
        self._upper = [token.upper() for token in tokens] + [""]
        self._pos = 0

    def parse_or(self) -> Query:
        operands = [self.parse_and()]
        while self._upper[self._pos] == "OR":
            self._pos += 1
            operands.append(self.parse_and())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def parse_and(self) -> Query:
        operands = [self.parse_not()]
        upper = self._upper
        while True:
            keyword = upper[self._pos]
            if keyword == "AND":
                self._pos += 1
            elif keyword in ("OR", ")", ""):
                break
            # Otherwise adjacency: "cat dog" means "cat AND dog".
            operands.append(self.parse_not())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def parse_not(self) -> Query:
        if self._upper[self._pos] == "NOT":
            self._pos += 1
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Query:
        pos = self._pos
        if pos == len(self._tokens):
            raise ParseError("unexpected end of query")
        token = self._tokens[pos]
        self._pos = pos + 1
        if token == "(":
            inner = self.parse_or()
            if self._upper[self._pos] != ")":
                raise ParseError("missing closing parenthesis")
            self._pos += 1
            return inner
        if token == ")":
            raise ParseError("unexpected closing parenthesis")
        if token.startswith('"'):
            words = [w.lower() for w in _WORD.findall(token)]
            if not words:
                raise ParseError("empty phrase")
            if len(words) > 1:
                raise ParseError(
                    "phrase queries are not supported: "
                    "no index stores term positions"
                )
            return Term(words[0])
        if self._upper[pos] in ("AND", "OR", "NOT"):
            raise ParseError(f"operator {token!r} used where a term is expected")
        if token.endswith("*"):
            return Prefix(token[:-1].lower())
        return Term(token.lower())
