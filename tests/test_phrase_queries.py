"""Tests for the positional index and phrase queries."""

import pytest

from repro.extract import AsciiExtractor
from repro.index import InvertedIndex
from repro.index.positional import PositionalIndex
from repro.query import Phrase, QueryEngine, Term, parse_query
from repro.query.ast import And
from repro.text import TermBlock, Tokenizer


class TestPositionalIndex:
    @pytest.fixture
    def index(self):
        index = PositionalIndex()
        index.add_document("f1", ["the", "quick", "brown", "fox"])
        index.add_document("f2", ["quick", "brown", "dog", "quick", "fox"])
        index.add_document("f3", ["brown", "quick"])
        return index

    def test_positions(self, index):
        assert index.positions("quick", "f1") == [1]
        assert index.positions("quick", "f2") == [0, 3]
        assert index.positions("missing", "f1") == []

    def test_paths_containing(self, index):
        assert sorted(index.paths_containing("brown")) == ["f1", "f2", "f3"]
        assert index.paths_containing("ghost") == []

    def test_document_count(self, index):
        assert index.document_count == 3

    def test_phrase_two_words(self, index):
        assert index.phrase_paths(["quick", "brown"]) == ["f1", "f2"]

    def test_phrase_order_matters(self, index):
        assert index.phrase_paths(["brown", "quick"]) == ["f3"]

    def test_phrase_three_words(self, index):
        assert index.phrase_paths(["the", "quick", "brown"]) == ["f1"]

    def test_phrase_nonadjacent_rejected(self, index):
        # "quick fox" is adjacent in f2 (positions 3,4) but not in f1
        # (positions 1,3); "brown fox" is adjacent only in f1.
        assert index.phrase_paths(["quick", "fox"]) == ["f2"]
        assert index.phrase_paths(["brown", "fox"]) == ["f1"]

    def test_phrase_single_word(self, index):
        assert index.phrase_paths(["quick"]) == ["f1", "f2", "f3"]

    def test_phrase_empty(self, index):
        assert index.phrase_paths([]) == []

    def test_phrase_unknown_word(self, index):
        assert index.phrase_paths(["quick", "unicorn"]) == []

    def test_repeated_word_phrase(self):
        index = PositionalIndex()
        index.add_document("f", ["ho", "ho", "ho"])
        index.add_document("g", ["ho", "hum", "ho"])
        assert index.phrase_paths(["ho", "ho"]) == ["f"]
        assert index.phrase_paths(["ho", "ho", "ho"]) == ["f"]

    def test_from_fs(self, tiny_fs, tokenizer):
        index = PositionalIndex.from_fs(
            tiny_fs, extractor=AsciiExtractor(tokenizer=tokenizer)
        )
        assert index.document_count == len(list(tiny_fs.list_files()))
        ref = next(iter(tiny_fs.list_files()))
        terms = tokenizer.tokenize(tiny_fs.read_file(ref.path))
        assert index.positions(terms[0], ref.path)[0] == terms.index(terms[0])


class TestPhraseParsing:
    def test_quoted_phrase(self):
        assert parse_query('"quick brown fox"') == Phrase(
            ("quick", "brown", "fox")
        )

    def test_phrase_lowercased(self):
        assert parse_query('"Quick BROWN"') == Phrase(("quick", "brown"))

    def test_single_word_quote_is_term(self):
        assert parse_query('"solo"') == Term("solo")

    def test_phrase_in_boolean_expression(self):
        query = parse_query('cat AND "quick brown"')
        assert query == And((Term("cat"), Phrase(("quick", "brown"))))

    def test_phrase_str_round_trip(self):
        query = parse_query('"a b" OR c')
        assert parse_query(str(query)) == query

    def test_empty_phrase_rejected(self):
        from repro.query import ParseError

        with pytest.raises(ParseError):
            parse_query('""')

    def test_phrase_node_requires_two_words(self):
        with pytest.raises(ValueError):
            Phrase(("solo",))


class TestPhraseEvaluation:
    @pytest.fixture
    def engine(self):
        boolean = InvertedIndex()
        positions = PositionalIndex()
        docs = {
            "f1": ["parallel", "software", "design"],
            "f2": ["software", "design", "parallel"],
            "f3": ["parallel", "design"],
        }
        for path, terms in docs.items():
            boolean.add_block(TermBlock(path, tuple(dict.fromkeys(terms))))
            positions.add_document(path, terms)
        return QueryEngine(boolean, universe=list(docs),
                           positions=positions)

    def test_phrase_search(self, engine):
        assert engine.search('"parallel software"') == ["f1"]
        assert engine.search('"software design"') == ["f1", "f2"]

    def test_phrase_with_boolean(self, engine):
        assert engine.search('"software design" AND parallel') == ["f1", "f2"]
        assert engine.search('"software design" AND NOT "parallel software"') == [
            "f2"
        ]

    def test_phrase_without_positions_raises(self):
        boolean = InvertedIndex()
        boolean.add_block(TermBlock("f", ("a", "b")))
        engine = QueryEngine(boolean)
        with pytest.raises(ValueError, match="positional"):
            engine.search('"a b"')

    def test_phrase_deduplicated_in_optimizer(self, engine):
        assert engine.search('"software design" OR "software design"') == (
            engine.search('"software design"')
        )

    def test_end_to_end_on_corpus(self, tiny_fs, tokenizer):
        from repro.engine import SequentialIndexer

        boolean = SequentialIndexer(tiny_fs, naive=False).build().index
        positions = PositionalIndex.from_fs(
            tiny_fs, extractor=AsciiExtractor(tokenizer=tokenizer)
        )
        engine = QueryEngine(boolean, positions=positions)
        # Take a real adjacent word pair from some file.
        ref = next(iter(tiny_fs.list_files()))
        terms = tokenizer.tokenize(tiny_fs.read_file(ref.path))
        phrase = f'"{terms[0]} {terms[1]}"'
        hits = engine.search(phrase)
        assert ref.path in hits
        # Every hit genuinely contains the pair adjacently.
        for path in hits:
            document_terms = tokenizer.tokenize(tiny_fs.read_file(path))
            assert any(
                document_terms[i] == terms[0]
                and document_terms[i + 1] == terms[1]
                for i in range(len(document_terms) - 1)
            )


class TestNoPositionalFile:
    def test_save_and_load_are_gone(self):
        # Positions are built from the corpus when phrases are asked
        # for; no door ever wrote or read the old sidecar file.
        assert not hasattr(PositionalIndex, "save")
        assert not hasattr(PositionalIndex, "load")
