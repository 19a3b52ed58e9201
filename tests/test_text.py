"""Tests for scanning, tokenization, de-duplication and term blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    TermBlock,
    Tokenizer,
    dedup_terms,
    empty_scan,
    extract_term_block,
)


class TestEmptyScan:
    def test_checksum_of_known_bytes(self):
        assert empty_scan(b"\x01\x02\x03") == 6

    def test_empty_content(self):
        assert empty_scan(b"") == 0

    def test_wraps_at_32_bits(self):
        content = b"\xff" * (2**20)
        assert 0 <= empty_scan(content) < 2**32


class TestTokenizer:
    def test_basic_split(self):
        assert Tokenizer().tokenize(b"hello world") == ["hello", "world"]

    def test_lowercases(self):
        assert Tokenizer().tokenize(b"Hello WORLD") == ["hello", "world"]

    def test_digits_are_term_characters(self):
        assert Tokenizer().tokenize(b"abc123 42x") == ["abc123", "42x"]

    def test_punctuation_separates(self):
        assert Tokenizer().tokenize(b"a-b,c.d") == []  # all length 1
        assert Tokenizer(min_length=1).tokenize(b"a-b,c.d") == ["a", "b", "c", "d"]

    def test_min_length_filter(self):
        assert Tokenizer(min_length=3).tokenize(b"ab abc abcd") == ["abc", "abcd"]

    def test_max_length_truncates(self):
        tokens = Tokenizer(max_length=4).tokenize(b"abcdefgh")
        assert tokens == ["abcd"]

    def test_empty_content(self):
        assert Tokenizer().tokenize(b"") == []

    def test_trailing_term_emitted(self):
        assert Tokenizer().tokenize(b"no separator at end") == [
            "no", "separator", "at", "end",
        ]

    def test_newlines_and_tabs_separate(self):
        assert Tokenizer().tokenize(b"one\ntwo\tthree") == ["one", "two", "three"]

    def test_count_terms_matches_tokenize(self):
        content = b"some words repeated words some"
        tokenizer = Tokenizer()
        assert tokenizer.count_terms(content) == len(tokenizer.tokenize(content))

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=300))
    def test_count_terms_matches_tokenize_under_stopwords(self, content):
        tokenizer = Tokenizer(min_length=1, stopwords={"a", "the", "aa", "0"})
        assert tokenizer.count_terms(content) == len(tokenizer.tokenize(content))

    @pytest.mark.parametrize("stopwords", [None, {"the"}])
    def test_count_terms_scans_the_content_once(self, stopwords):
        class CountingBytes(bytes):
            scans = 0

            def translate(self, table):
                CountingBytes.scans += 1
                return bytes.translate(self, table)

        content = CountingBytes(b"the cat and the hat")
        assert Tokenizer(stopwords=stopwords).count_terms(content) == (
            3 if stopwords else 5
        )
        assert CountingBytes.scans == 1

    def test_duplicates_preserved(self):
        assert Tokenizer().tokenize(b"dup dup dup") == ["dup"] * 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)
        with pytest.raises(ValueError):
            Tokenizer(min_length=5, max_length=4)

    def test_iter_terms_lazy(self):
        iterator = Tokenizer().iter_terms(b"a few words here")
        assert next(iterator) == "few"


class TestDedup:
    def test_removes_duplicates_keeps_order(self):
        assert dedup_terms(["b", "a", "b", "c", "a"]) == ("b", "a", "c")

    def test_empty(self):
        assert dedup_terms([]) == ()

    def test_extract_term_block(self):
        block = extract_term_block("f.txt", b"cat dog cat", Tokenizer())
        assert block.path == "f.txt"
        assert set(block.terms) == {"cat", "dog"}
        assert len(block) == 2


class TestTermBlock:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TermBlock("f", ("a", "a"))

    def test_empty_block_is_truthy(self):
        # A file with no terms is still a unit of work.
        assert TermBlock("f", ())

    def test_len(self):
        assert len(TermBlock("f", ("a", "b"))) == 2

    def test_frozen(self):
        block = TermBlock("f", ("a",))
        with pytest.raises(AttributeError):
            block.path = "g"
