"""Tests for the query optimizer, including equivalence properties."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import InvertedIndex
from repro.query import And, Not, Or, QueryEngine, Term, parse_query
from repro.query.optimizer import (
    EVERYTHING,
    NOTHING,
    describe_rewrites,
    node_count,
    optimize,
)
from repro.text import TermBlock


class TestRewrites:
    def test_flatten_nested_and(self):
        query = And((And((Term("a"), Term("b"))), Term("c")))
        assert optimize(query) == And((Term("a"), Term("b"), Term("c")))

    def test_flatten_nested_or(self):
        query = Or((Term("a"), Or((Term("b"), Term("c")))))
        assert optimize(query) == Or((Term("a"), Term("b"), Term("c")))

    def test_deduplicate(self):
        assert optimize(parse_query("a AND a")) == Term("a")
        assert optimize(parse_query("a OR a OR a")) == Term("a")

    def test_double_negation(self):
        assert optimize(parse_query("NOT NOT a")) == Term("a")
        assert optimize(parse_query("NOT NOT NOT a")) == Not(Term("a"))

    def test_complement_and(self):
        assert optimize(parse_query("a AND NOT a")) == NOTHING

    def test_complement_or(self):
        assert optimize(parse_query("a OR NOT a")) == EVERYTHING

    def test_absorption_and(self):
        assert optimize(parse_query("a AND (a OR b)")) == Term("a")

    def test_absorption_or(self):
        assert optimize(parse_query("a OR (a AND b)")) == Term("a")

    def test_singleton_unwrap(self):
        assert optimize(And((Term("a"),))) == Term("a")

    def test_mixed_not_flattened_across_operators(self):
        query = optimize(parse_query("a AND (b OR c)"))
        assert query == And((Term("a"), Or((Term("b"), Term("c")))))

    def test_idempotent(self):
        query = parse_query("a AND a AND NOT NOT (b OR b)")
        once = optimize(query)
        assert optimize(once) == once

    def test_canonical_false_among_leaves(self):
        # No parse produces NOTHING, but an optimised AST may be fed back.
        assert optimize(And((Term("a"), NOTHING, Term("b")))) == NOTHING
        assert optimize(Or((Term("a"), NOTHING))) == Term("a")
        assert optimize(Or((NOTHING, Term("a"), Term("b")))) == Or(
            (Term("a"), Term("b"))
        )

    def test_a_node_nothing_rewrites_is_returned_not_rebuilt(self):
        for text in ("a b c", "a OR b*", "a AND NOT b",
                     "(a OR b) AND NOT (c AND d)"):
            query = parse_query(text)
            assert optimize(query) is query, text
        lists = And([Term("a"), Term("b")])  # operands not a tuple
        assert optimize(lists) == And((Term("a"), Term("b")))

    def test_node_count(self):
        # And + a + Or + b + Not + c
        assert node_count(parse_query("a AND (b OR NOT c)")) == 6

    def test_describe_rewrites(self):
        original = parse_query("a AND a AND a")
        before, after = describe_rewrites(original, optimize(original))
        assert before == 4 and after == 1


def _build_engine(docs):
    index = InvertedIndex()
    universe = []
    for path, doc_terms in docs:
        index.add_block(TermBlock(path, tuple(doc_terms)))
        universe.append(path)
    return QueryEngine(index, universe=universe)


class TestEngineIntegration:
    @pytest.fixture
    def engine(self):
        return _build_engine(
            [("f1", ["a", "b"]), ("f2", ["a"]), ("f3", ["b", "c"])]
        )

    def test_redundant_query_same_result(self, engine):
        assert engine.search("a AND a") == engine.search("a")

    def test_complement_matches_everything(self, engine):
        assert engine.search("a OR NOT a") == ["f1", "f2", "f3"]

    def test_complement_matches_nothing(self, engine):
        assert engine.search("c AND NOT c") == []

    def test_optimize_flag_off_still_correct(self, engine):
        query = "a AND (a OR b)"
        assert engine.search(query, optimize=False) == engine.search(query)


# -- equivalence property: optimize() never changes evaluation --------------

term_names = st.sampled_from(list("abcd"))


@st.composite
def query_trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return Term(draw(term_names))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(query_trees(depth=depth + 1)))
    n = draw(st.integers(min_value=1, max_value=3))
    operands = tuple(draw(query_trees(depth=depth + 1)) for _ in range(n))
    return And(operands) if kind == "and" else Or(operands)


@st.composite
def document_sets(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    docs = []
    for i in range(n):
        doc_terms = draw(
            st.lists(term_names, max_size=4, unique=True)
        )
        docs.append((f"d{i}", doc_terms))
    return docs


class TestEquivalenceProperty:
    @given(query_trees(), document_sets())
    @settings(max_examples=150, deadline=None)
    def test_optimized_query_evaluates_identically(self, query, docs):
        engine = _build_engine(docs)
        postings = engine._fetch_postings(
            query.terms() | optimize(query).terms(), parallel=False
        )
        original = engine._evaluate(query, postings)
        rewritten = engine._evaluate(optimize(query), postings)
        assert original == rewritten

    @given(query_trees())
    @settings(max_examples=150)
    def test_never_grows(self, query):
        assert node_count(optimize(query)) <= node_count(query)

    @given(query_trees())
    @settings(max_examples=100)
    def test_idempotent(self, query):
        once = optimize(query)
        assert optimize(once) == once
