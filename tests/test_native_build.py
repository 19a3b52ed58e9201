"""The product build in native containers equals the reproduction's FNV one.

``Search.build`` without a config de-duplicates each file with a native
dict, collects postings in a dict of lists and keeps that dict as the
index (``InvertedIndex.from_postings``).  Implementation 1 ``(1, 0, 0)``
does the same work with ``FnvHashSet`` and key-by-key ``FnvHashMap``
updates.  Everything observable must agree — the RIDX1 and RIDX2 bytes,
each term's paths in postings order, the documents, and the files a
skip-policy build drops, stage for stage — except the order the terms
iterate in: FNV buckets in the reproduction, insertion order in the
product (:func:`assert_same_content`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt import FnvHashMap, FnvHashSet
from repro.api import Search
from repro.engine import (
    FaultPolicy,
    Implementation,
    IndexGenerator,
    ProcessReplicatedIndexer,
    SequentialIndexer,
    ThreadConfig,
    measure_stage_times,
)
from repro.extract import AsciiExtractor, CodeExtractor, TsvExtractor
from repro.fsmodel import FaultInjectingFileSystem, FaultSpec, VirtualFileSystem
from repro.index.binfmt import (
    dump_index_bytes,
    dump_index_ridx2,
    dump_index_wire,
    load_index_wire,
)
from repro.index.inverted import InvertedIndex
from repro.text.tokenizer import Tokenizer

EXTRACTORS = {
    "ascii": lambda: AsciiExtractor(
        tokenizer=Tokenizer(max_length=6, stopwords={"the", "and"})
    ),
    "code": lambda: CodeExtractor(),
    "tsv": lambda: TsvExtractor(columns=(0, 2)),
}

#: Stopwords, one-letter tokens (shorter than any minimum length),
#: words past ``max_length``, a camelCase identifier for the code
#: extractor, and separators the tsv extractor splits on.
WORDS = [
    "the", "and", "a", "x", "alpha", "beta", "gamma", "delta",
    "extraordinary", "parseHTTPHeader", "snake_case", "42", "\t", "\n",
]


@st.composite
def corpora(draw):
    """A few files of words from :data:`WORDS`; some have no terms."""
    count = draw(st.integers(min_value=0, max_value=8))
    files = {}
    for i in range(count):
        words = draw(st.lists(st.sampled_from(WORDS), max_size=30))
        files[f"d{i % 3}/f{i}.txt"] = " ".join(words).encode()
    return files


def filesystem(files):
    fs = VirtualFileSystem()
    directories = {path.rpartition("/")[0] for path in files} - {""}
    for directory in sorted(directories):
        fs.mkdir(directory)
    for path, content in files.items():
        fs.write_file(path, content)
    return fs


def assert_same_content(index, oracle):
    """``index`` holds ``oracle``'s postings: byte-equal RIDX1 and RIDX2,
    the same block count, and every term's paths in the same order.
    Only the order the terms iterate in may differ."""
    assert dump_index_bytes(index) == dump_index_bytes(oracle)
    assert dump_index_ridx2(index) == dump_index_ridx2(oracle)
    assert index.block_count == oracle.block_count
    assert {t: p.paths() for t, p in index.items()} == {
        t: p.paths() for t, p in oracle.items()
    }


def implementation_1(fs, **kwargs):
    return Search.build(
        fs,
        implementation=Implementation.SHARED_LOCKED,
        config=ThreadConfig(1, 0, 0),
        cache=0,
        **kwargs,
    )


class TestProductBuildEqualsImplementation1:
    @settings(max_examples=60, deadline=None)
    @given(corpora(), st.sampled_from(sorted(EXTRACTORS)))
    def test_same_rwire1_and_documents(self, files, name):
        fs = filesystem(files)
        product = Search.build(fs, extractor=EXTRACTORS[name](), cache=0)
        fnv = implementation_1(fs, extractor=EXTRACTORS[name]())
        assert_same_content(product.index, fnv.index)
        wire = dump_index_wire(product.index)
        assert dump_index_wire(load_index_wire(wire)) == wire
        documents = product._segmented.manifest.segments[0].doc_paths()
        assert documents == fnv._segmented.manifest.segments[0].doc_paths()
        assert sorted(product.report.documents) == documents

    def test_term_block_order_is_dedup_terms_order(self):
        from repro.text.dedup import dedup_terms

        extractor = AsciiExtractor()
        content = b"gamma alpha gamma beta alpha delta beta"
        block = extractor.term_block("x.txt", content)
        assert block.terms == dedup_terms(extractor.terms("x.txt", content))
        assert block.terms == ("gamma", "alpha", "beta", "delta")


class FaultyExtractor(AsciiExtractor):
    """Fails the extract stage for one path, the tokenize stage for
    content carrying a marker."""

    def prepare(self, path: str, content: bytes) -> bytes:
        if path == "bad-extract.txt":
            raise ValueError("injected extract fault")
        return content

    def tokenize(self, content: bytes):
        if b"BOOM" in content:
            raise RuntimeError("injected tokenize fault")
        return super().tokenize(content)


class TestSkipPolicyFailures:
    """One injected fault per stage: the product build drops the same
    files with the same stages as the FNV engines."""

    EXPECTED = [
        ("bad-extract.txt", "extract", "ValueError"),
        ("bad-read.txt", "read", "OSError"),
        ("bad-tokenize.txt", "tokenize", "RuntimeError"),
    ]

    @staticmethod
    def faulty_fs():
        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"alpha beta")
        fs.write_file("bad-extract.txt", b"alpha gamma")
        fs.write_file("bad-read.txt", b"alpha delta")
        fs.write_file("bad-tokenize.txt", b"alpha BOOM")
        fs.write_file("z.txt", b"gamma")
        return FaultInjectingFileSystem(fs, {"bad-read.txt": FaultSpec()})

    @staticmethod
    def failures(report):
        return sorted(
            (f.path, f.stage, f.error_type) for f in report.failures
        )

    def test_product_build_records_each_stage(self):
        fs = self.faulty_fs()
        skip = FaultPolicy(on_error="skip")
        product = Search.build(
            fs, extractor=FaultyExtractor(), fault=skip, cache=0
        )
        fnv = implementation_1(fs, extractor=FaultyExtractor(), fault=skip)
        assert self.failures(product.report) == self.EXPECTED
        assert self.failures(fnv.report) == self.EXPECTED
        assert_same_content(product.index, fnv.index)
        assert product.report.documents == ["a.txt", "z.txt"]
        assert sorted(product.report.fingerprints) == ["a.txt", "z.txt"]

    def test_naive_baseline_records_the_same(self):
        report = SequentialIndexer(
            self.faulty_fs(), extractor=FaultyExtractor(), on_error="skip"
        ).build()
        assert self.failures(report) == self.EXPECTED

    def test_strict_policy_still_raises(self):
        with pytest.raises(ValueError, match="injected extract fault"):
            Search.build(self.faulty_fs(), extractor=FaultyExtractor())


class TestReproductionKeepsFnvContainers:
    """The threaded engines, the naive baseline and the Table 1 stage
    times never take the native path."""

    @pytest.fixture
    def containers(self, monkeypatch):
        calls = {"add_all": 0}
        add_all = FnvHashSet.add_all

        def counting_add_all(self, elements):
            calls["add_all"] += 1
            return add_all(self, elements)

        def refuse(cls, *args, **kwargs):
            raise AssertionError("the reproduction assembled an index at once")

        monkeypatch.setattr(FnvHashSet, "add_all", counting_add_all)
        monkeypatch.setattr(InvertedIndex, "from_postings", classmethod(refuse))
        return calls

    @pytest.fixture
    def fs(self):
        return filesystem(
            {f"f{i}.txt": b"alpha beta gamma alpha" for i in range(4)}
        )

    @pytest.mark.parametrize(
        "implementation, config",
        [
            (Implementation.SHARED_LOCKED, ThreadConfig(2, 0, 0)),
            (Implementation.REPLICATED_JOINED, ThreadConfig(2, 0, 1)),
            (Implementation.REPLICATED_UNJOINED, ThreadConfig(2, 0, 0)),
        ],
    )
    def test_threaded_engines(self, containers, fs, implementation, config):
        index = IndexGenerator(fs).build(implementation, config).index
        assert containers["add_all"] == 4
        for replica in getattr(index, "replicas", [index]):
            assert isinstance(replica._map, FnvHashMap)

    def test_naive_sequential(self, containers, fs):
        report = SequentialIndexer(fs, naive=True).build()
        assert report.term_count == 3
        assert isinstance(report.index._map, FnvHashMap)

    def test_table1_stage_times(self, containers, fs):
        measure_stage_times(fs)
        assert containers["add_all"] == 4


class TestWhichStreamEachEngineSees:
    """The product's stage 2 hands over each file's distinct terms; the
    reproduction still sees every occurrence."""

    FILES = {
        "a.txt": b"alpha beta gamma alpha x",
        "d/b.txt": b"beta beta delta",
        "d/c.txt": b"",
    }

    @pytest.fixture
    def fs(self):
        return filesystem(self.FILES)

    @staticmethod
    def occurrences(fs):
        tokenizer = Tokenizer()
        return [
            term
            for ref in fs.list_files()
            for term in tokenizer.tokenize(fs.read_file(ref.path))
        ]

    def test_naive_baseline_inserts_every_occurrence(self, fs, monkeypatch):
        inserted = []
        add_term_naive = InvertedIndex.add_term_naive

        def counting(self, term, path):
            inserted.append(term)
            return add_term_naive(self, term, path)

        monkeypatch.setattr(InvertedIndex, "add_term_naive", counting)
        SequentialIndexer(fs, naive=True).build()
        assert len(inserted) == len(self.occurrences(fs)) == 7
        assert sorted(inserted) == sorted(self.occurrences(fs))

    @pytest.mark.parametrize(
        "implementation, config",
        [
            (Implementation.SHARED_LOCKED, ThreadConfig(2, 0, 0)),
            (Implementation.REPLICATED_JOINED, ThreadConfig(2, 0, 1)),
            (Implementation.REPLICATED_UNJOINED, ThreadConfig(2, 0, 0)),
        ],
    )
    def test_threaded_engines_dedup_every_occurrence(
        self, fs, monkeypatch, implementation, config
    ):
        streamed = []
        add_all = FnvHashSet.add_all

        def counting(self, elements):
            elements = list(elements)
            streamed.extend(elements)
            return add_all(self, elements)

        monkeypatch.setattr(FnvHashSet, "add_all", counting)
        IndexGenerator(fs).build(implementation, config)
        assert sorted(streamed) == sorted(self.occurrences(fs))

    @pytest.mark.parametrize("backend", ["product", "refresh", "process"])
    def test_product_paths_never_build_the_stream(
        self, fs, monkeypatch, backend
    ):
        reference = SequentialIndexer(fs, naive=True).build().index

        def refuse(self, content):
            raise AssertionError("the duplicate-bearing stream was built")

        # Forked process workers inherit the patch.
        monkeypatch.setattr(Tokenizer, "tokenize", refuse)
        if backend == "product":
            index = Search.build(fs, cache=0).index
        elif backend == "refresh":
            live = VirtualFileSystem()
            session = Search.build(live, cache=0)
            live.mkdir("d")
            for path, content in self.FILES.items():
                live.write_file(path, content)
            session.refresh()
            index = session.index
        else:
            index = ProcessReplicatedIndexer(fs, oversubscribe=True).build(
                ThreadConfig(2, 0, 1, backend="process")
            ).index
        assert {t: p.paths() for t, p in index.items()} == {
            t: p.paths() for t, p in reference.items()
        }
