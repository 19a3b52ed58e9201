"""Tests for the query parser and evaluator."""

import pytest

from repro.index import InvertedIndex, MultiIndex, join_indices
from repro.query import And, Not, Or, ParseError, QueryEngine, Term, parse_query
from repro.text import TermBlock


class TestParser:
    def test_single_term(self):
        assert parse_query("cat") == Term("cat")

    def test_lowercases_terms(self):
        assert parse_query("CaT") == Term("cat")

    def test_and(self):
        assert parse_query("cat AND dog") == And((Term("cat"), Term("dog")))

    def test_implicit_and(self):
        assert parse_query("cat dog") == And((Term("cat"), Term("dog")))

    def test_or(self):
        assert parse_query("cat OR dog") == Or((Term("cat"), Term("dog")))

    def test_not(self):
        assert parse_query("NOT cat") == Not(Term("cat"))

    def test_double_negation(self):
        assert parse_query("NOT NOT cat") == Not(Not(Term("cat")))

    def test_precedence_not_over_and_over_or(self):
        query = parse_query("a OR b AND NOT c")
        assert query == Or((Term("a"), And((Term("b"), Not(Term("c"))))))

    def test_parentheses(self):
        query = parse_query("(a OR b) AND c")
        assert query == And((Or((Term("a"), Term("b"))), Term("c")))

    def test_operators_case_insensitive(self):
        assert parse_query("a and b") == And((Term("a"), Term("b")))
        assert parse_query("a or b") == Or((Term("a"), Term("b")))
        assert parse_query("not a") == Not(Term("a"))

    def test_terms_collects_all(self):
        query = parse_query("a AND (b OR NOT c)")
        assert query.terms() == frozenset({"a", "b", "c"})

    def test_str_round_trippable(self):
        query = parse_query("a AND (b OR c)")
        assert parse_query(str(query)) == query

    @pytest.mark.parametrize(
        "bad",
        ["", "AND", "a AND", "(a", "a)", "()", "a AND OR b", "NOT",
         '"a b"', 'cat AND NOT (x OR "a b")'],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_query(bad)


def make_index():
    index = InvertedIndex()
    index.add_block(TermBlock("f1", ("cat", "dog")))
    index.add_block(TermBlock("f2", ("cat", "fish")))
    index.add_block(TermBlock("f3", ("dog",)))
    return index


UNIVERSE = ["f1", "f2", "f3"]


class TestEvaluator:
    @pytest.fixture
    def engine(self):
        return QueryEngine(make_index(), universe=UNIVERSE)

    def test_term(self, engine):
        assert engine.search("cat") == ["f1", "f2"]

    def test_missing_term(self, engine):
        assert engine.search("unicorn") == []

    def test_and(self, engine):
        assert engine.search("cat AND dog") == ["f1"]

    def test_or(self, engine):
        assert engine.search("cat OR dog") == ["f1", "f2", "f3"]

    def test_not(self, engine):
        assert engine.search("NOT cat") == ["f3"]

    def test_and_not(self, engine):
        assert engine.search("dog AND NOT cat") == ["f3"]

    def test_nested(self, engine):
        assert engine.search("(cat OR dog) AND NOT fish") == ["f1", "f3"]

    def test_not_without_universe_rejected(self):
        engine = QueryEngine(make_index())
        with pytest.raises(ValueError):
            engine.search("NOT cat")

    def test_queries_case_insensitive(self, engine):
        assert engine.search("CAT") == ["f1", "f2"]

    def test_results_sorted(self, engine):
        assert engine.search("cat OR dog OR fish") == sorted(
            engine.search("cat OR dog OR fish")
        )


class TestMultiIndexEvaluation:
    @pytest.fixture
    def multi_engine(self):
        r1 = InvertedIndex()
        r1.add_block(TermBlock("f1", ("cat", "dog")))
        r2 = InvertedIndex()
        r2.add_block(TermBlock("f2", ("cat", "fish")))
        r2.add_block(TermBlock("f3", ("dog",)))
        return QueryEngine(MultiIndex([r1, r2]), universe=UNIVERSE)

    def test_union_across_replicas(self, multi_engine):
        assert multi_engine.search("cat") == ["f1", "f2"]

    def test_parallel_matches_sequential(self, multi_engine):
        """The replicas of a parallel build, probed one after another,
        answer as the joined (sequential-shaped) index does."""
        joined = QueryEngine(
            join_indices(multi_engine.index.replicas), universe=UNIVERSE
        )
        for query in ("cat", "cat AND dog", "cat OR dog", "NOT fish"):
            assert multi_engine.search(query) == joined.search(query)


class TestEngineIntegration:
    def test_search_over_built_index(self, tiny_fs, tiny_reference_index):
        from repro.engine import Implementation, IndexGenerator, ThreadConfig

        report = IndexGenerator(tiny_fs).build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        universe = [ref.path for ref in tiny_fs.list_files()]
        engine = QueryEngine(report.index, universe=universe)
        term, paths = next(iter(tiny_reference_index.items()))
        assert engine.search(term) == sorted(paths)
        assert engine.search(f"NOT {term}") == sorted(set(universe) - paths)
