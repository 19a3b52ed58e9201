"""The extraction pipeline: fast tokenizer path, Extractor API,
registry, spec round-trips, and ``extractor=`` as the one keyword.

The two load-bearing suites:

* the hypothesis differential — the vectorized ``Tokenizer.tokenize``
  must be bit-for-bit the per-byte reference loop
  (``iter_terms_slow``), for arbitrary byte strings and length/stopword
  settings;
* merge equivalence per extractor — every backend (sequential,
  threaded, process) must produce byte-identical RIDX1 output for each
  registered extractor, so extractors slot into any engine without
  changing what gets indexed.
"""

from __future__ import annotations

import pickle
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    IndexGenerator,
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    ThreadConfig,
)
from repro.engine.base import ThreadedIndexerBase
from repro.extract import (
    AsciiExtractor,
    CodeExtractor,
    CodeTokenizer,
    Extractor,
    ExtractorSpec,
    TsvExtractor,
    available_extractors,
    get_extractor,
    resolve_extractor,
)
from repro.formats import default_registry
from repro.fsmodel import VirtualFileSystem
from repro.index.binfmt import dump_index_bytes
from repro.index.segments import SegmentedIndexer
from repro.query.ranking import FrequencyIndex
from repro.text.tokenizer import (
    SEPARATOR_BYTES,
    Tokenizer,
    make_translation_table,
)


# -- the fast tokenizer path -------------------------------------------


class TestTranslationTable:
    def test_separators_map_to_delimiter(self):
        table = make_translation_table()
        for byte in SEPARATOR_BYTES:
            assert table[byte] == ord(" ")

    def test_case_folds_in_the_same_pass(self):
        table = make_translation_table()
        assert bytes([table[ord("A")]]) == b"a"
        assert bytes([table[ord("z")]]) == b"z"
        assert bytes([table[ord("7")]]) == b"7"

    def test_fold_case_off_preserves_case(self):
        table = make_translation_table(fold_case=False)
        assert bytes([table[ord("A")]]) == b"A"


class TestFastPathEquivalence:
    @pytest.mark.parametrize(
        "content",
        [
            b"",
            b"cat dog CAT-dog",
            b"a" * 200,
            bytes(range(256)) * 3,
            b"tab\tsep\nlines\r\nand2digits99",
        ],
    )
    def test_tokenize_equals_slow_loop(self, content):
        tok = Tokenizer()
        assert tok.tokenize(content) == list(tok.iter_terms_slow(content))

    @settings(max_examples=200, deadline=None)
    @given(
        content=st.binary(max_size=400),
        min_length=st.integers(min_value=1, max_value=4),
        max_length=st.integers(min_value=4, max_value=24),
    )
    def test_differential_property(self, content, min_length, max_length):
        tok = Tokenizer(min_length=min_length, max_length=max_length)
        assert tok.tokenize(content) == list(tok.iter_terms_slow(content))

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=300))
    def test_differential_with_stopwords(self, content):
        tok = Tokenizer(stopwords={"the", "and", "aa"})
        assert tok.tokenize(content) == list(tok.iter_terms_slow(content))

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=300))
    def test_code_tokenizer_differential(self, content):
        tok = CodeTokenizer()
        assert tok.tokenize(content) == list(tok.iter_terms_slow(content))

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=300))
    def test_count_terms_matches_tokenize(self, content):
        tok = Tokenizer()
        assert tok.count_terms(content) == len(tok.tokenize(content))

    def test_iter_terms_still_streams(self):
        terms = Tokenizer().iter_terms(b"cat dog")
        assert next(terms) == "cat"
        assert list(terms) == ["dog"]


class TestMaxLengthAliasing:
    def test_truncation_aliases_shared_prefixes(self):
        # Documented (and deliberate): truncation is a projection, so
        # two distinct over-long runs with a common 64-byte prefix
        # collapse to the same term.  Pinned here so the fast path can
        # never silently change the behaviour.
        tok = Tokenizer()
        assert tok.tokenize(b"x" * 65) == ["x" * 64]
        assert tok.tokenize(b"x" * 64 + b"y") == ["x" * 64]
        assert tok.tokenize(b"x" * 65) == tok.tokenize(b"x" * 64 + b"y")

    def test_truncated_before_stopword_check(self):
        # The *truncated* term is what faces the stopword set, exactly
        # as the per-byte loop always did.
        tok = Tokenizer(max_length=3, stopwords={"cat"})
        assert tok.tokenize(b"cats") == []


# -- the code tokenizer ------------------------------------------------


class TestCodeTokenizer:
    def test_camel_case_splits(self):
        assert CodeTokenizer().tokenize(b"parseHTTPHeader") == [
            "parse", "http", "header", "parsehttpheader",
        ]

    def test_snake_case_keeps_identifier(self):
        assert CodeTokenizer().tokenize(b"snake_case") == [
            "snake", "case", "snakecase",
        ]

    def test_digits_are_parts(self):
        assert CodeTokenizer().tokenize(b"sha256sum") == [
            "sha", "256", "sum", "sha256sum",
        ]

    def test_single_part_not_doubled(self):
        assert CodeTokenizer().tokenize(b"word other") == ["word", "other"]

    def test_min_length_applies_to_parts_and_identifier(self):
        # "a" and "b" fall below min_length; the joined "a_b" -> "ab"
        # survives.
        assert CodeTokenizer().tokenize(b"a_b") == ["ab"]

    def test_plain_text_matches_ascii_terms(self):
        content = b"The quick brown fox, 42 times."
        assert CodeTokenizer().tokenize(content) == Tokenizer().tokenize(
            content
        )


# -- the TSV extractor -------------------------------------------------


class TestTsvExtractor:
    RECORDS = b"1\thello world\tspam\n2\tbye now\theggs\n"

    def test_column_selection(self):
        ex = TsvExtractor(columns=(1,))
        assert ex.terms("data.tsv", self.RECORDS) == [
            "hello", "world", "bye", "now",
        ]

    def test_all_columns_by_default(self):
        ex = TsvExtractor()
        assert "spam" in ex.terms("data.tsv", self.RECORDS)

    def test_missing_columns_ignored(self):
        ex = TsvExtractor(columns=(5,))
        assert ex.terms("data.tsv", self.RECORDS) == []

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TsvExtractor(columns=(-1,))

    def test_boundary_is_newline_only(self):
        assert TsvExtractor().boundary_bytes == frozenset((0x0A,))

    def test_always_splittable(self):
        assert TsvExtractor().splittable("anything.bin", b"\x00\x01")

    def test_registry_is_refused(self):
        # The tab structure IS the format; a format conversion would
        # destroy it.
        ex = TsvExtractor(registry=default_registry())
        assert ex.registry is None


# -- the Extractor API and registry ------------------------------------


class TestExtractorApi:
    def test_prepare_is_identity_without_registry(self):
        assert AsciiExtractor().prepare("a.html", b"<b>hi</b>") == b"<b>hi</b>"

    def test_prepare_converts_with_registry(self):
        ex = AsciiExtractor(registry=default_registry())
        assert b"<b>" not in ex.prepare("a.html", b"<html><b>hi</b></html>")

    def test_term_block_dedups(self):
        block = AsciiExtractor().term_block("a.txt", b"cat cat dog")
        assert block.path == "a.txt"
        assert sorted(block.terms) == ["cat", "dog"]

    def test_boundary_bytes_complement_word_bytes(self):
        ex = AsciiExtractor()
        assert ord(" ") in ex.boundary_bytes
        assert ord("a") not in ex.boundary_bytes

    def test_splittable_gated_on_plain_text(self):
        ex = AsciiExtractor(registry=default_registry())
        assert ex.splittable("notes.txt", b"hello")
        assert not ex.splittable("page.html", b"<html><body>")

    def test_registry_lists_builtin_names(self):
        assert set(available_extractors()) >= {"ascii", "code", "tsv"}

    def test_get_extractor_by_name(self):
        assert isinstance(get_extractor("code"), CodeExtractor)
        assert isinstance(get_extractor("code").tokenizer, CodeTokenizer)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="ascii"):
            get_extractor("nope")

    def test_resolve_defaults_to_ascii(self):
        ex = resolve_extractor(None)
        assert isinstance(ex, AsciiExtractor)

    def test_resolve_passes_instances_through(self):
        ex = CodeExtractor()
        assert resolve_extractor(ex) is ex

    def test_resolve_rejects_bad_type(self):
        with pytest.raises(TypeError):
            resolve_extractor(42)


EXTRACTORS = {
    "ascii": lambda: AsciiExtractor(
        tokenizer=Tokenizer(min_length=3, stopwords={"the"})
    ),
    "ascii+formats": lambda: AsciiExtractor(registry=default_registry()),
    "code": lambda: CodeExtractor(),
    "tsv": lambda: TsvExtractor(columns=(0, 1)),
}


class TestExtractorSpec:
    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    def test_pickle_round_trip(self, name):
        import dataclasses

        spec = EXTRACTORS[name]().spec()
        clone = pickle.loads(pickle.dumps(spec))
        # The registry pickles by value and has no __eq__; compare the
        # plain-data fields structurally and the registry behaviourally.
        assert dataclasses.replace(clone, registry=None) == (
            dataclasses.replace(spec, registry=None)
        )
        rebuilt = clone.build()
        content = b"The HTTPServer parse_header\t42 cats\n"
        assert rebuilt.terms("x.txt", content) == EXTRACTORS[name]().terms(
            "x.txt", content
        )

    def test_build_restores_class_and_options(self):
        ex = TsvExtractor(columns=(2,))
        rebuilt = ex.spec().build()
        assert isinstance(rebuilt, TsvExtractor)
        assert rebuilt.columns == (2,)

    def test_spec_validates_lengths(self):
        with pytest.raises(ValueError):
            ExtractorSpec(min_length=0)
        with pytest.raises(ValueError):
            ExtractorSpec(min_length=5, max_length=2)


# -- merge equivalence: extractor x backend ----------------------------


@pytest.fixture(scope="module")
def mixed_fs():
    fs = VirtualFileSystem()
    for directory in ("notes", "src", "data"):
        fs.mkdir(directory)
    fs.write_file("notes/a.txt", b"The cat sat on the mat. CamelCase!")
    fs.write_file("notes/b.txt", b"dog DOG d0g underscore_name " * 20)
    fs.write_file("src/main.py", b"def parseHTTPHeader(raw_bytes): pass\n" * 9)
    fs.write_file("data/rows.tsv", b"1\thello world\tspam\n2\tbye now\teggs\n")
    fs.write_file("data/big.txt", b"alpha beta gamma delta " * 300)
    return fs


def build_index_bytes(backend, fs, extractor):
    if backend == "sequential":
        report = SequentialIndexer(
            fs, naive=False, extractor=extractor
        ).build()
    elif backend == "thread":
        report = ReplicatedJoinedIndexer(fs, extractor=extractor).build(
            ThreadConfig(2, 0, 1)
        )
    else:
        report = ProcessReplicatedIndexer(
            fs, extractor=extractor, oversubscribe=True
        ).build(ThreadConfig(2, 0, 1, backend="process"))
    return dump_index_bytes(report.index)


class TestMergeEquivalencePerExtractor:
    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    @pytest.mark.parametrize("backend", ("thread", "process"))
    def test_backends_match_sequential_byte_for_byte(
        self, mixed_fs, name, backend
    ):
        make = EXTRACTORS[name]
        reference = build_index_bytes("sequential", mixed_fs, make())
        assert build_index_bytes(backend, mixed_fs, make()) == reference

    def test_named_extractor_equals_instance(self, mixed_fs):
        by_name = SequentialIndexer(
            mixed_fs, naive=False, extractor="code"
        ).build()
        by_instance = SequentialIndexer(
            mixed_fs, naive=False, extractor=CodeExtractor()
        ).build()
        assert dump_index_bytes(by_name.index) == dump_index_bytes(
            by_instance.index
        )


# -- extractor= is the one keyword --------------------------------------


class TestDeprecatedKwargs:
    """What 4.0 left of the ``tokenizer=``/``registry=`` era: the
    ``extractor=`` spelling stays silent, and a removed keyword or a
    positional second argument fails loudly instead of rebinding."""

    def test_extractor_kwarg_is_silent(self, tiny_fs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SequentialIndexer(tiny_fs, extractor=AsciiExtractor())
            IndexGenerator(tiny_fs, extractor="code")

    @pytest.mark.parametrize("make", [
        SequentialIndexer,
        IndexGenerator,
        ThreadedIndexerBase,
        ProcessReplicatedIndexer,
        SegmentedIndexer,
        FrequencyIndex.from_fs,
    ], ids=lambda make: make.__qualname__)
    def test_positional_second_argument_is_refused(self, tiny_fs, make):
        # At 3.x the second positional was ``tokenizer``; binding it to
        # whatever parameter came next would change the build silently.
        with pytest.raises(TypeError):
            make(tiny_fs, None)
        with pytest.raises(TypeError):
            make(tiny_fs, tokenizer=Tokenizer())


class TestSearchExtractorSurface:
    def test_search_accepts_extractor_without_warning(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"fooBar baz_qux")
        from repro import Search

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = Search.build(str(tmp_path), extractor="code")
        assert session.query("foobar").paths == ["a.txt"]
        assert session.query("baz").paths == ["a.txt"]

    def test_refresh_uses_session_extractor(self, tmp_path):
        (tmp_path / "a.py").write_bytes(b"def startHere(): pass")
        from repro import Search

        session = Search.build(str(tmp_path), extractor="code")
        (tmp_path / "b.py").write_bytes(b"def stopThere(): pass")
        change = session.refresh()
        assert change.added == ["b.py"]
        assert session.query("stopthere").paths == ["b.py"]


class TestCliExtractorFlags:
    def test_extractor_and_split_threshold(self, tmp_path, capsys):
        from repro.cli import main
        from repro.index import load_index

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "big.py").write_bytes(b"def parseHTTPHeader(): pass\n" * 40)
        (corpus / "small.txt").write_bytes(b"plain words here")
        save = str(tmp_path / "code.ridx")
        assert main(["index", str(corpus), "-i", "1", "-x", "2", "-y", "1",
                     "--extractor", "code", "--split-threshold", "256",
                     "--save", save]) == 0
        index = load_index(save)
        assert "parsehttpheader" in set(index.terms())

    def test_split_threshold_rejected_with_sequential(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_bytes(b"cat")
        assert main(["index", str(corpus), "--sequential",
                     "--split-threshold", "100"]) == 2
        assert "--split-threshold" in capsys.readouterr().err
