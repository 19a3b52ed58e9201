"""Tests for the multiprocessing "Join Forces" backend.

The tests run real worker processes over the in-memory tiny corpus
(:class:`FilesystemSpec` carries the VFS by value) and over a real
on-disk directory, and always pass ``oversubscribe=True`` so they stay
deterministic on single-CPU CI boxes.
"""

import pickle

import pytest

from repro.engine import (
    Implementation,
    IndexGenerator,
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    ThreadConfig,
    validate_worker_count,
)
from repro.engine.procworker import (
    FilesystemSpec,
    WorkerBatch,
    build_replica,
)
from repro.index.binfmt import WIRE_MAGIC, dump_index_bytes
from repro.extract import AsciiExtractor
from repro.text import Tokenizer

IMPL2 = Implementation.REPLICATED_JOINED


def _canonical(index) -> bytes:
    return dump_index_bytes(index)


class TestConfigValidation:
    def test_backend_round_trips(self):
        config = ThreadConfig(4, 0, 1, backend="process")
        assert config.backend == "process"
        assert str(config) == "(4, 0, 1)[process]"
        assert config.with_backend("thread").backend == "thread"
        assert config.with_backend("process") is config

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ThreadConfig(2, 0, 1, backend="greenlet")

    def test_process_backend_is_impl2_only(self):
        config = ThreadConfig(2, 0, 0, backend="process")
        with pytest.raises(ValueError, match="Implementation 2"):
            config.validate_for(Implementation.SHARED_LOCKED)
        with pytest.raises(ValueError, match="Implementation 2"):
            config.validate_for(Implementation.REPLICATED_UNJOINED)

    def test_process_backend_rejects_updaters(self):
        with pytest.raises(ValueError, match="y must be 0"):
            ThreadConfig(2, 2, 1, backend="process").validate_for(IMPL2)

    def test_bool_worker_counts_rejected(self):
        with pytest.raises(TypeError):
            ThreadConfig(True)

    def test_worker_count_validation(self):
        validate_worker_count(2, cpus=4)
        with pytest.raises(ValueError, match="at least 1"):
            validate_worker_count(0, cpus=4)
        with pytest.raises(TypeError):
            validate_worker_count(2.0, cpus=4)

    def test_pool_larger_than_cpus_rejected(self):
        with pytest.raises(ValueError, match="oversubscribe"):
            validate_worker_count(8, cpus=4)

    def test_oversubscribe_lifts_cpu_cap(self):
        validate_worker_count(8, oversubscribe=True, cpus=4)

    def test_indexer_enforces_cpu_cap(self, tiny_fs, monkeypatch):
        import repro.engine.procbackend as procbackend

        monkeypatch.setattr(procbackend, "available_cpus", lambda: 2)
        indexer = ProcessReplicatedIndexer(tiny_fs)
        with pytest.raises(ValueError, match="2 CPU"):
            indexer.build(ThreadConfig(3, 0, 1, backend="process"))

    def test_rejects_dynamic_acquisition(self, tiny_fs):
        with pytest.raises(ValueError, match="dynamic"):
            ProcessReplicatedIndexer(tiny_fs, dynamic="steal")

    def test_rejects_unknown_start_method(self, tiny_fs):
        with pytest.raises(ValueError, match="start method"):
            ProcessReplicatedIndexer(tiny_fs, start_method="teleport")


class TestWorkerBoundary:
    def test_tokenizer_spec_round_trip(self):
        # a tokenizer's settings cross the boundary inside the
        # extractor's spec
        tokenizer = Tokenizer(min_length=3, max_length=9, stopwords=("the",))
        spec = AsciiExtractor(tokenizer=tokenizer).spec()
        rebuilt = pickle.loads(pickle.dumps(spec)).build().tokenizer
        assert rebuilt.min_length == 3
        assert rebuilt.max_length == 9
        assert rebuilt.stopwords == frozenset({"the"})

    def test_filesystem_spec_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            FilesystemSpec()
        with pytest.raises(ValueError):
            FilesystemSpec(base="/corpus", snapshot=object())

    def test_filesystem_spec_rejects_non_filesystem(self):
        with pytest.raises(TypeError):
            FilesystemSpec.from_filesystem(object())

    def test_batch_pickles_and_builds(self, tiny_fs):
        paths = tuple(ref.path for ref in tiny_fs.list_files())[:5]
        batch = WorkerBatch(
            fs=FilesystemSpec.from_filesystem(tiny_fs),
            paths=paths,
            extractor=AsciiExtractor().spec(),
        )
        batch = pickle.loads(pickle.dumps(batch))
        result = build_replica(batch)
        assert result.file_count == 5
        assert result.replica.startswith(WIRE_MAGIC)
        assert result.elapsed >= 0.0


class TestProcessBuild:
    def test_build_over_virtual_fs(self, tiny_fs, tiny_reference_index):
        report = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(2, 0, 1, backend="process")
        )
        assert report.file_count == len(list(tiny_fs.list_files()))
        assert report.term_count == len(tiny_reference_index)
        for term, expected in list(tiny_reference_index.items())[:50]:
            assert set(report.index.lookup(term)) == expected

    def test_build_over_real_fs(self, tiny_fs, tmp_path):
        from repro.corpus import materialize
        from repro.fsmodel import OsFileSystem

        destination = str(tmp_path / "corpus")
        materialize(tiny_fs, destination)
        fs = OsFileSystem(destination)
        report = ProcessReplicatedIndexer(fs, oversubscribe=True).build(
            ThreadConfig(2, 0, 1, backend="process")
        )
        reference = ReplicatedJoinedIndexer(fs).build(ThreadConfig(2, 0, 1))
        assert _canonical(report.index) == _canonical(reference.index)

    def test_report_timings(self, tiny_fs):
        report = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(2, 0, 1, backend="process")
        )
        assert report.config.backend == "process"
        assert len(report.extractor_times) == 2
        # Extraction and update are fused inside each worker; the fused
        # phase is attributed to extraction only, never counted twice.
        assert report.timings.extraction > 0.0
        assert report.timings.update == 0.0
        assert report.timings.join >= 0.0

    def test_total_does_not_double_count_fused_phase(self, tiny_fs):
        # Regression: pool time was once reported as both extraction and
        # update, so timings.total exceeded the wall time by a full
        # parallel phase.  Every stage is measured inside the build, so
        # their sum must stay within wall-time-sane bounds.
        report = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(2, 0, 1, backend="process")
        )
        assert report.timings.total <= report.wall_time * 1.05 + 1e-6

    def test_joiner_tree_path(self, tiny_fs):
        flat = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(4, 0, 1, backend="process")
        )
        tree = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(4, 0, 2, backend="process")
        )
        assert _canonical(flat.index) == _canonical(tree.index)

    def test_runner_dispatches_on_backend(self, tiny_fs):
        generator = IndexGenerator(tiny_fs, oversubscribe=True)
        threaded = generator.build(IMPL2, ThreadConfig(2, 0, 1))
        process = generator.build(
            IMPL2, ThreadConfig(2, 0, 1, backend="process")
        )
        assert process.config.backend == "process"
        assert _canonical(process.index) == _canonical(threaded.index)

    def test_format_registry_crosses_boundary(self, tmp_path):
        from repro.formats import default_registry
        from repro.fsmodel import OsFileSystem

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "page.html").write_bytes(
            b"<html><body>hidden <b>gem</b></body></html>"
        )
        (corpus / "note.txt").write_bytes(b"plain gem")
        fs = OsFileSystem(str(corpus))
        report = ProcessReplicatedIndexer(
            fs, extractor=AsciiExtractor(registry=default_registry()),
            oversubscribe=True,
        ).build(ThreadConfig(2, 0, 1, backend="process"))
        assert sorted(report.index.lookup("gem")) == ["note.txt", "page.html"]
        assert not report.index.lookup("body")


class TestMergeEquivalence:
    """Sequential, threaded Implementation 2, and the process backend
    must all serialize to byte-identical canonical indices."""

    @pytest.fixture(scope="class")
    def sequential_bytes(self, tiny_fs):
        report = SequentialIndexer(tiny_fs, naive=False).build()
        return _canonical(report.index)

    def test_naive_sequential_matches(self, tiny_fs, sequential_bytes):
        report = SequentialIndexer(tiny_fs, naive=True).build()
        assert _canonical(report.index) == sequential_bytes

    # x=1 is rejected (single-replica degenerate case), so start at 2.
    @pytest.mark.parametrize("workers", [2, 3, 4, 5])
    def test_process_matches_sequential(
        self, tiny_fs, sequential_bytes, workers
    ):
        # Each worker count is a different batch permutation; the
        # canonical serialization must not depend on it.
        report = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True).build(
            ThreadConfig(workers, 0, 1, backend="process")
        )
        assert _canonical(report.index) == sequential_bytes

    @pytest.mark.parametrize("config", [
        ThreadConfig(2, 0, 1),
        ThreadConfig(3, 2, 1),
        ThreadConfig(4, 0, 2),
    ])
    def test_threaded_impl2_matches_sequential(
        self, tiny_fs, sequential_bytes, config
    ):
        report = ReplicatedJoinedIndexer(tiny_fs).build(config)
        assert _canonical(report.index) == sequential_bytes


class TestProcessBackendCli:
    @pytest.fixture(scope="class")
    def corpus_dir(self, tiny_fs, tmp_path_factory):
        from repro.corpus import materialize

        destination = str(tmp_path_factory.mktemp("proccli") / "corpus")
        materialize(tiny_fs, destination)
        return destination

    def test_index_with_process_backend(self, corpus_dir, tmp_path, capsys):
        from repro.cli import main
        from repro.index import load_index

        save = str(tmp_path / "out.ridx")
        assert main([
            "index", corpus_dir, "--backend", "process", "-x", "2",
            "--oversubscribe", "--save", save, "--binary",
        ]) == 0
        output = capsys.readouterr().out
        assert "Implementation 2" in output
        assert "[process]" in output
        assert len(load_index(save)) > 0

    def test_cli_defaults_resolve_per_backend(self, corpus_dir, capsys):
        from repro.cli import main

        assert main(["index", corpus_dir, "--backend", "process", "-x", "2",
                     "--oversubscribe"]) == 0
        assert "(2, 0, 1)[process]" in capsys.readouterr().out
        assert main(["index", corpus_dir]) == 0
        assert "Implementation 3 (3, 2, 0)" in capsys.readouterr().out

    def test_cli_rejects_updaters_with_process(self, corpus_dir, capsys):
        from repro.cli import main

        assert main(["index", corpus_dir, "--backend", "process", "-x", "2",
                     "-y", "2", "--oversubscribe"]) == 2
        assert "y must be 0" in capsys.readouterr().err

    def test_cli_rejects_zero_extractors_cleanly(self, corpus_dir, capsys):
        # A bad tuple must exit 2 with an error line, not a traceback.
        from repro.cli import main

        assert main(["index", corpus_dir, "-x", "0"]) == 2
        assert "at least one extractor" in capsys.readouterr().err

    def test_cli_enforces_cpu_cap(self, corpus_dir, capsys):
        from repro.cli import main

        assert main(["index", corpus_dir, "--backend", "process",
                     "-x", "4096"]) == 2
        assert "oversubscribe" in capsys.readouterr().err


class TestAutotuneSpace:
    def test_process_space_is_two_dimensional(self):
        from repro.autotune import ConfigurationSpace

        space = ConfigurationSpace(
            IMPL2, max_extractors=4, max_updaters=6, max_joiners=2,
            backend="process",
        )
        configs = space.configurations()
        assert configs
        assert all(c.backend == "process" for c in configs)
        assert all(c.updaters == 0 for c in configs)
        # x in 2..4 (x=1 degenerates to one replica), z in 1..2.
        assert len(configs) == 6

    def test_process_space_rejects_other_implementations(self):
        from repro.autotune import ConfigurationSpace

        with pytest.raises(ValueError, match="Implementation 2"):
            ConfigurationSpace(
                Implementation.SHARED_LOCKED, backend="process"
            )

    def test_contains_checks_backend(self):
        from repro.autotune import ConfigurationSpace

        thread_space = ConfigurationSpace(IMPL2)
        process_space = ConfigurationSpace(IMPL2, backend="process")
        assert thread_space.contains(ThreadConfig(3, 2, 1))
        assert not thread_space.contains(
            ThreadConfig(3, 0, 1, backend="process")
        )
        assert process_space.contains(ThreadConfig(3, 0, 1, backend="process"))
        assert not process_space.contains(ThreadConfig(3, 2, 1))

    def test_neighbours_preserve_backend(self):
        from repro.autotune import ConfigurationSpace

        space = ConfigurationSpace(IMPL2, backend="process")
        config = ThreadConfig(3, 0, 1, backend="process")
        neighbours = space.neighbours(config)
        assert neighbours
        assert all(n.backend == "process" for n in neighbours)
        assert all(n.updaters == 0 for n in neighbours)
