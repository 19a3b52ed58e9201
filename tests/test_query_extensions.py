"""Tests for the query extensions: wildcards and ranked retrieval."""

import pytest

from repro.extract import AsciiExtractor
from repro.index import InvertedIndex
from repro.query import (
    BM25Ranker,
    FrequencyIndex,
    ParseError,
    Prefix,
    PrefixDictionary,
    QueryEngine,
    Term,
    expand_prefixes,
    has_prefixes,
    parse_query,
    search_bm25,
)
from repro.query.ast import And, Or
from repro.text import TermBlock


class TestPrefixParsing:
    def test_trailing_star_is_prefix(self):
        assert parse_query("inter*") == Prefix("inter")

    def test_prefix_lowercased(self):
        assert parse_query("Inter*") == Prefix("inter")

    def test_prefix_in_boolean_expression(self):
        query = parse_query("cat AND dog*")
        assert query == And((Term("cat"), Prefix("dog")))

    def test_has_prefixes(self):
        assert has_prefixes(parse_query("a AND (b OR c*)"))
        assert not has_prefixes(parse_query("a AND b"))

    def test_bare_star_is_not_a_token(self):
        with pytest.raises(ParseError):
            parse_query("*")


class TestPrefixDictionary:
    @pytest.fixture
    def dictionary(self):
        return PrefixDictionary(
            ["apple", "application", "apply", "banana", "band", "bandit"]
        )

    def test_expand(self, dictionary):
        assert dictionary.expand("appl") == ["apple", "application", "apply"]

    def test_expand_exact_word(self, dictionary):
        assert dictionary.expand("banana") == ["banana"]

    def test_expand_nothing(self, dictionary):
        assert dictionary.expand("zebra") == []

    def test_expand_limit(self, dictionary):
        assert len(dictionary.expand("b", limit=2)) == 2

    def test_empty_prefix_rejected(self, dictionary):
        with pytest.raises(ValueError):
            dictionary.expand("")

    def test_contains(self, dictionary):
        assert "band" in dictionary
        assert "ban" not in dictionary

    def test_deduplicates(self):
        assert len(PrefixDictionary(["a", "a", "b"])) == 2


class TestExpandPrefixes:
    def test_rewrites_to_or(self):
        dictionary = PrefixDictionary(["cat", "catalog", "dog"])
        expanded = expand_prefixes(parse_query("cat*"), dictionary)
        assert expanded == Or((Term("cat"), Term("catalog")))

    def test_single_match_becomes_term(self):
        dictionary = PrefixDictionary(["dog"])
        assert expand_prefixes(parse_query("do*"), dictionary) == Term("dog")

    def test_no_match_becomes_unmatchable(self):
        dictionary = PrefixDictionary(["dog"])
        expanded = expand_prefixes(parse_query("zebra*"), dictionary)
        assert isinstance(expanded, Term)

    def test_nested_expansion(self):
        dictionary = PrefixDictionary(["cat", "car", "dog"])
        expanded = expand_prefixes(parse_query("NOT ca* AND dog"), dictionary)
        assert not has_prefixes(expanded)


def make_engine():
    index = InvertedIndex()
    index.add_block(TermBlock("f1", ("interface", "internal", "cat")))
    index.add_block(TermBlock("f2", ("internet", "dog")))
    index.add_block(TermBlock("f3", ("cat", "dog")))
    return QueryEngine(index, universe=["f1", "f2", "f3"])


class TestWildcardSearch:
    def test_prefix_matches_all_expansions(self):
        assert make_engine().search("inter*") == ["f1", "f2"]

    def test_prefix_with_boolean(self):
        assert make_engine().search("inter* AND dog") == ["f2"]

    def test_prefix_no_matches(self):
        assert make_engine().search("zzz*") == []

    def test_prefix_under_not(self):
        assert make_engine().search("NOT inter*") == ["f3"]

    def test_dictionary_cached(self):
        engine = make_engine()
        engine.search("inter*")
        first = engine._prefix_dictionary
        engine.search("cat*")
        assert engine._prefix_dictionary is first

    def test_wildcard_over_multi_index(self):
        from repro.index import MultiIndex

        r1 = InvertedIndex()
        r1.add_block(TermBlock("f1", ("interface",)))
        r2 = InvertedIndex()
        r2.add_block(TermBlock("f2", ("internet",)))
        engine = QueryEngine(MultiIndex([r1, r2]))
        assert engine.search("inter*") == ["f1", "f2"]


class TestFrequencyIndex:
    @pytest.fixture
    def frequencies(self):
        index = FrequencyIndex()
        index.add_document("f1", ["cat", "cat", "cat", "dog"])
        index.add_document("f2", ["cat", "fish"])
        index.add_document("f3", ["dog", "dog"])
        return index

    def test_tf(self, frequencies):
        assert frequencies.tf("cat", "f1") == 3
        assert frequencies.tf("cat", "f2") == 1
        assert frequencies.tf("cat", "f3") == 0

    def test_df(self, frequencies):
        assert frequencies.df("cat") == 2
        assert frequencies.df("fish") == 1
        assert frequencies.df("ghost") == 0

    def test_document_count_and_length(self, frequencies):
        assert frequencies.document_count == 3
        assert frequencies.document_length("f1") == 4
        assert frequencies.document_length("ghost") == 0

    def test_duplicate_document_rejected(self, frequencies):
        with pytest.raises(ValueError):
            frequencies.add_document("f1", ["x"])

    def test_from_fs(self, tiny_fs, tokenizer):
        frequencies = FrequencyIndex.from_fs(
            tiny_fs, extractor=AsciiExtractor(tokenizer=tokenizer)
        )
        assert frequencies.document_count == len(list(tiny_fs.list_files()))
        ref = next(iter(tiny_fs.list_files()))
        terms = tokenizer.tokenize(tiny_fs.read_file(ref.path))
        assert frequencies.document_length(ref.path) == len(terms)
        assert frequencies.tf(terms[0], ref.path) == terms.count(terms[0])


class TestSearchBm25:
    """``search_bm25``: the boolean match decides the set, BM25 the order."""

    def test_ties_broken_by_path(self):
        hits = BM25Ranker(FrequencyIndex()).rank(["b", "a"], ["nonexistent"])
        assert [h.path for h in hits] == ["a", "b"]

    def test_search_bm25_end_to_end(self):
        index = InvertedIndex()
        index.add_block(TermBlock("heavy", ("cat", "filler")))
        index.add_block(TermBlock("light", ("cat", "filler")))
        engine = QueryEngine(index)
        frequencies = FrequencyIndex()
        frequencies.add_document("heavy", ["cat"] * 9 + ["filler"])
        frequencies.add_document("light", ["cat", "filler"])
        hits = search_bm25(engine, BM25Ranker(frequencies), "cat")
        assert [h.path for h in hits] == ["heavy", "light"]

    def test_search_bm25_respects_boolean_filter(self):
        index = InvertedIndex()
        index.add_block(TermBlock("match", ("cat", "dog")))
        index.add_block(TermBlock("filtered", ("cat",)))
        engine = QueryEngine(index)
        frequencies = FrequencyIndex()
        frequencies.add_document("match", ["cat", "dog"])
        frequencies.add_document("filtered", ["cat"] * 100)
        hits = search_bm25(engine, BM25Ranker(frequencies), "cat AND dog")
        assert [h.path for h in hits] == ["match"]
