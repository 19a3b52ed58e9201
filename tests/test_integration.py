"""Cross-module integration tests: corpus -> engine -> query -> disk,
and real engine vs. simulated engine consistency."""

import pytest

from repro.corpus import CorpusGenerator, TINY_PROFILE, materialize
from repro.engine import (
    Implementation,
    IndexGenerator,
    SequentialIndexer,
    ThreadConfig,
)
from repro.fsmodel import OsFileSystem
from repro.index import (
    MultiIndex,
    join_indices,
    load_index,
    load_multi_index,
    save_index,
    save_multi_index,
)
from repro.platforms import QUAD_CORE
from repro.query import QueryEngine
from repro.simengine import SimPipeline, Workload

ALL_RUNS = [
    (Implementation.SHARED_LOCKED, ThreadConfig(3, 0, 0)),
    (Implementation.SHARED_LOCKED, ThreadConfig(3, 2, 0)),
    (Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)),
    (Implementation.REPLICATED_JOINED, ThreadConfig(4, 0, 2)),
    (Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)),
    (Implementation.REPLICATED_UNJOINED, ThreadConfig(4, 0, 0)),
]


class TestAllImplementationsAgree:
    """The paper's core correctness requirement: every implementation and
    configuration builds the same logical index."""

    @pytest.fixture(scope="class")
    def reports(self, tiny_fs):
        generator = IndexGenerator(tiny_fs)
        sequential = SequentialIndexer(tiny_fs).build()
        parallel = [
            generator.build(implementation, config)
            for implementation, config in ALL_RUNS
        ]
        return sequential, parallel

    def test_term_counts_agree(self, reports):
        sequential, parallel = reports
        for report in parallel:
            assert report.term_count == sequential.term_count

    def test_posting_counts_agree(self, reports):
        sequential, parallel = reports
        for report in parallel:
            assert report.posting_count == sequential.posting_count

    def test_lookups_agree(self, reports, tiny_reference_index):
        sequential, parallel = reports
        sample_terms = list(tiny_reference_index)[:25]
        for report in parallel:
            for term in sample_terms:
                assert sorted(report.lookup(term)) == sorted(
                    sequential.lookup(term)
                ), f"{report.implementation} {report.config} disagrees on {term!r}"

    def test_joined_multi_equals_joined_single(self, reports):
        _, parallel = reports
        multi_reports = [
            r for r in parallel if isinstance(r.index, MultiIndex)
        ]
        joined_reports = [
            r
            for r in parallel
            if r.implementation is Implementation.REPLICATED_JOINED
        ]
        joined_multi = join_indices(multi_reports[0].index.replicas)
        assert joined_multi == joined_reports[0].index


class TestDiskRoundTrip:
    """Generate on disk, index from disk, persist, reload, search."""

    @pytest.fixture(scope="class")
    def disk_corpus(self, tmp_path_factory):
        corpus = CorpusGenerator(TINY_PROFILE).generate()
        destination = str(tmp_path_factory.mktemp("corpus") / "files")
        materialize(corpus.fs, destination)
        return destination

    def test_disk_index_matches_memory_index(self, disk_corpus, tiny_fs):
        memory = SequentialIndexer(tiny_fs).build()
        disk = SequentialIndexer(OsFileSystem(disk_corpus)).build()
        assert disk.index == memory.index

    def test_save_load_search(self, disk_corpus, tmp_path):
        report = IndexGenerator(OsFileSystem(disk_corpus)).build(
            Implementation.SHARED_LOCKED, ThreadConfig(2, 1, 0)
        )
        path = str(tmp_path / "out.idx")
        save_index(report.index, path)
        loaded = load_index(path)
        term = next(iter(loaded.terms()))
        engine = QueryEngine(loaded)
        assert engine.search(term) == sorted(report.lookup(term))

    def test_multi_save_load_search(self, disk_corpus, tmp_path):
        report = IndexGenerator(OsFileSystem(disk_corpus)).build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        directory = str(tmp_path / "replicas")
        save_multi_index(report.index, directory)
        loaded = load_multi_index(directory)
        term = next(iter(loaded.replicas[0].terms()))
        assert QueryEngine(loaded).search(term) == sorted(report.lookup(term))


class TestRealVsSimulatedEngine:
    """The simulated pipeline must mirror the real engine structurally."""

    def test_workload_statistics_match_engine_output(
        self, tiny_corpus, tiny_workload, tiny_fs
    ):
        report = SequentialIndexer(tiny_fs).build()
        # Total unique (term, file) pairs == the index's posting count.
        assert tiny_workload.total_unique_pairs == report.posting_count
        assert len(tiny_workload) == report.file_count

    def test_sim_accepts_exact_corpus_workload(self, tiny_workload):
        pipeline = SimPipeline(QUAD_CORE, tiny_workload, batches_per_extractor=10)
        result = pipeline.run(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        assert result.total_s > 0

    def test_sim_and_engine_accept_same_configs(self, tiny_workload, tiny_fs):
        pipeline = SimPipeline(QUAD_CORE, tiny_workload, batches_per_extractor=5)
        generator = IndexGenerator(tiny_fs)
        for implementation, config in ALL_RUNS:
            pipeline.run(implementation, config)
            generator.build(implementation, config)

    def test_sim_rejects_what_engine_rejects(self, tiny_workload, tiny_fs):
        bad = [
            (Implementation.SHARED_LOCKED, ThreadConfig(1, 0, 1)),
            (Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 0)),
            (Implementation.REPLICATED_UNJOINED, ThreadConfig(1, 1, 0)),
        ]
        pipeline = SimPipeline(QUAD_CORE, tiny_workload, batches_per_extractor=5)
        generator = IndexGenerator(tiny_fs)
        for implementation, config in bad:
            with pytest.raises(ValueError):
                pipeline.run(implementation, config)
            with pytest.raises(ValueError):
                generator.build(implementation, config)


class TestQueryOverEveryIndexKind:
    def test_same_results_single_joined_multi(self, tiny_fs):
        generator = IndexGenerator(tiny_fs)
        single = generator.build(
            Implementation.SHARED_LOCKED, ThreadConfig(3, 1, 0)
        )
        joined = generator.build(
            Implementation.REPLICATED_JOINED, ThreadConfig(3, 2, 1)
        )
        multi = generator.build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(3, 2, 0)
        )
        universe = [ref.path for ref in tiny_fs.list_files()]
        terms = list(single.index.terms())[:5]
        query = f"{terms[0]} OR ({terms[1]} AND NOT {terms[2]})"
        engines = [
            QueryEngine(report.index, universe=universe)
            for report in (single, joined, multi)
        ]
        expected = engines[0].search(query)
        for engine in engines[1:]:
            assert engine.search(query) == expected
