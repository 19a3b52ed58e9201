"""Tests for mixed-format corpus generation and format-aware indexing."""

import pytest

from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.engine import (
    Implementation,
    IndexGenerator,
    SequentialIndexer,
    ThreadConfig,
)
from repro.extract import AsciiExtractor
from repro.formats import default_registry
from repro.formats.mixed import DEFAULT_MIX, generate_mixed_corpus
from repro.text import Tokenizer

#: Boilerplate terms the encoders may add beyond the original text.
BOILERPLATE = {
    "generated", "document", "repro", "benchmark", "kind", "title",
}


@pytest.fixture(scope="module")
def mixed():
    return generate_mixed_corpus(TINY_PROFILE)


@pytest.fixture(scope="module")
def plain():
    return CorpusGenerator(TINY_PROFILE).generate()


class TestMixedGeneration:
    def test_file_count_preserved(self, mixed, plain):
        assert len(list(mixed.fs.list_files())) == len(
            list(plain.fs.list_files())
        )

    def test_all_formats_present(self, mixed):
        # 60 files and a 10 % minimum share: every format should appear.
        assert all(count > 0 for count in mixed.format_counts.values())
        assert sum(mixed.format_counts.values()) == TINY_PROFILE.file_count

    def test_extensions_match_formats(self, mixed):
        registry = default_registry()
        counts = {}
        for ref in mixed.fs.list_files():
            name = registry.detect(ref.path).name
            counts[name] = counts.get(name, 0) + 1
        assert counts == {k: v for k, v in mixed.format_counts.items() if v}

    def test_deterministic(self):
        a = generate_mixed_corpus(TINY_PROFILE)
        b = generate_mixed_corpus(TINY_PROFILE)
        assert a.format_counts == b.format_counts
        paths_a = [(r.path, r.size) for r in a.fs.list_files()]
        paths_b = [(r.path, r.size) for r in b.fs.list_files()]
        assert paths_a == paths_b

    def test_custom_mix(self):
        mixed = generate_mixed_corpus(TINY_PROFILE, mix={"html": 1.0})
        assert mixed.format_counts["html"] == TINY_PROFILE.file_count

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            generate_mixed_corpus(TINY_PROFILE, mix={"pdf": 1.0})

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            generate_mixed_corpus(TINY_PROFILE, mix={"html": 0.0})

    def test_default_mix_sums_to_one(self):
        assert sum(DEFAULT_MIX.values()) == pytest.approx(1.0)


class TestRoundTripTerms:
    """Encoding then extracting must preserve the searchable terms."""

    def test_terms_preserved_per_file(self, mixed, plain):
        registry = default_registry()
        tokenizer = Tokenizer()
        plain_by_stem = {
            _stem(ref.path): set(
                tokenizer.tokenize(plain.fs.read_file(ref.path))
            )
            for ref in plain.fs.list_files()
        }
        checked = 0
        for ref in mixed.fs.list_files():
            original = plain_by_stem[_stem(ref.path)]
            text = registry.extract_text(ref.path, mixed.fs.read_file(ref.path))
            extracted = set(tokenizer.tokenize(text))
            assert original <= extracted, f"{ref.path} lost terms"
            assert extracted - original <= BOILERPLATE, (
                f"{ref.path} gained unexpected terms: "
                f"{sorted(extracted - original - BOILERPLATE)[:5]}"
            )
            checked += 1
        assert checked == TINY_PROFILE.file_count


class TestFormatAwareEngine:
    def test_sequential_with_registry(self, mixed):
        report = SequentialIndexer(
            mixed.fs, extractor=AsciiExtractor(registry=default_registry())
        ).build()
        assert report.term_count > 0

    def test_parallel_matches_sequential_on_mixed_corpus(self, mixed):
        extractor = AsciiExtractor(registry=default_registry())
        sequential = SequentialIndexer(
            mixed.fs, naive=False, extractor=extractor
        ).build()
        parallel = IndexGenerator(mixed.fs, extractor=extractor).build(
            Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)
        )
        assert parallel.index == sequential.index

    def test_registry_changes_result_on_html(self, mixed):
        # Without the registry, HTML tags pollute the index.
        with_registry = SequentialIndexer(
            mixed.fs, extractor=AsciiExtractor(registry=default_registry())
        ).build()
        without = SequentialIndexer(mixed.fs).build()
        assert "doctype" not in with_registry.index
        assert "doctype" in without.index

    def test_docz_unindexable_without_registry(self, mixed):
        registry = default_registry()
        docz_files = [
            ref for ref in mixed.fs.list_files() if ref.path.endswith(".docz")
        ]
        assert docz_files
        tokenizer = Tokenizer()
        raw_terms = tokenizer.tokenize(mixed.fs.read_file(docz_files[0].path))
        extracted = tokenizer.tokenize(
            registry.extract_text(
                docz_files[0].path, mixed.fs.read_file(docz_files[0].path)
            )
        )
        # The binary container hides terms from a raw scan.
        assert len(set(extracted)) >= len(set(raw_terms)) * 0.9


def _stem(path: str) -> str:
    dot = path.rfind(".")
    return path[:dot] if dot > path.rfind("/") else path
