"""Query optimization: AST normalization and simplification.

Users type redundant queries (``cat AND cat AND (dog OR dog)``); naive
evaluation fetches and intersects the same postings repeatedly.  The
optimizer rewrites a query into a smaller equivalent one:

* **flattening** — nested same-operator nodes collapse
  (``And(And(a, b), c)`` -> ``And(a, b, c)``);
* **deduplication** — repeated operands drop (``a AND a`` -> ``a``);
* **double negation** — ``NOT NOT q`` -> ``q``;
* **absorption** — ``a AND (a OR b)`` -> ``a``; ``a OR (a AND b)`` -> ``a``;
* **complement laws** — ``a AND NOT a`` -> nothing (an unmatchable
  term); ``a OR NOT a`` -> everything (a NOT over the unmatchable term);
* **singleton unwrap** — one-operand And/Or nodes unwrap.

Every rewrite preserves boolean-evaluation semantics; the property
tests verify equivalence on randomized indices.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.query.ast import And, Not, Or, Prefix, Query, Term

#: A term no tokenizer can ever produce ("\x00" is not a term byte), so
#: its posting set is empty: the optimizer's canonical FALSE.  NOT of it
#: is the canonical TRUE (the whole universe).
NOTHING = Term("\x00nothing")
EVERYTHING = Not(NOTHING)

_LEAVES = frozenset((Term, Prefix))


def optimize(query: Query) -> Query:
    """Return a smaller query with identical evaluation semantics."""
    return _simplify(query)


def _simplify(query: Query) -> Query:
    if isinstance(query, (Term, Prefix)):
        return query
    if isinstance(query, Not):
        inner = _simplify(query.operand)
        if isinstance(inner, Not):  # double negation
            return inner.operand
        return query if inner is query.operand else Not(inner)
    if isinstance(query, And):
        return _simplify_nary(query, And, Or, NOTHING, EVERYTHING)
    if isinstance(query, Or):
        return _simplify_nary(query, Or, And, EVERYTHING, NOTHING)
    raise TypeError(f"unknown query node: {type(query).__name__}")


def _simplify_nary(query, node_cls, dual_cls, absorbing, identity) -> Query:
    """Shared And/Or logic; ``absorbing`` annihilates, ``identity`` drops.

    For And: absorbing=NOTHING (a AND false = false), identity=EVERYTHING.
    For Or:  absorbing=EVERYTHING (a OR true = true), identity=NOTHING.
    """
    raw_operands = query.operands
    if (
        len(raw_operands) > 1
        and type(raw_operands) is tuple
        and all(type(op) in _LEAVES for op in raw_operands)
    ):
        # Distinct leaves, none of them NOTHING: no law applies, so the
        # node is already its simplest form.
        distinct = set(raw_operands)
        if len(distinct) == len(raw_operands) and NOTHING not in distinct:
            return query

    # Flatten nested nodes of the same class and simplify children.
    operands: List[Query] = []
    for raw in raw_operands:
        child = _simplify(raw)
        if isinstance(child, node_cls):
            operands.extend(child.operands)
        else:
            operands.append(child)

    # Deduplicate (order-preserving) and apply identity/absorbing laws.
    seen: List[Query] = []
    for operand in operands:
        if operand == absorbing:
            return absorbing
        if operand == identity:
            continue
        if operand not in seen:
            seen.append(operand)

    # Complement law: q and NOT q together, found from the NOT side.
    for operand in seen:
        if isinstance(operand, Not) and operand.operand in seen:
            return absorbing

    # Absorption: for And, drop any Or-operand containing another
    # operand (a AND (a OR b) = a); dually for Or.
    survivors: List[Query] = []
    for operand in seen:
        if isinstance(operand, dual_cls) and any(
            other in operand.operands for other in seen if other is not operand
        ):
            continue
        survivors.append(operand)

    if not survivors:
        return identity
    if len(survivors) == 1:
        return survivors[0]
    # Nothing rewritten: the node itself (a tuple compare, by identity
    # first), not an equal copy.
    survivors = tuple(survivors)
    return query if survivors == raw_operands else node_cls(survivors)


def node_count(query: Query) -> int:
    """Number of AST nodes (the optimizer's cost metric)."""
    if isinstance(query, (Term, Prefix)):
        return 1
    if isinstance(query, Not):
        return 1 + node_count(query.operand)
    return 1 + sum(node_count(op) for op in query.operands)


def describe_rewrites(original: Query, optimized: Query) -> Tuple[int, int]:
    """(original node count, optimized node count) for reporting."""
    return node_count(original), node_count(optimized)
