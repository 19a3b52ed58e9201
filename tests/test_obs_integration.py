"""Integration tests: engine builds produce coherent span trees,
derived timings, throughput metrics, and valid Chrome traces — for the
sequential, threaded, and process backends, plus the CLI flags.

The process-backend tests run with ``oversubscribe=True`` so they work
on single-CPU CI boxes.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine import (
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    ThreadConfig,
)
from repro.engine.results import StageTimings
from repro.obs import (
    Recorder,
    chrome_trace,
    validate_chrome_trace,
    validate_trace_file,
)
from repro.obs import recorder as obsrec


@pytest.fixture
def fresh_obs():
    """A fresh, disabled global recorder; the previous one is restored."""
    previous = obsrec.set_recorder(Recorder(enabled=False))
    try:
        yield obsrec.get_recorder()
    finally:
        obsrec.set_recorder(previous)


def names(spans):
    return [span.name for span in spans]


# -- per-build spans (always on, tracing or not) -----------------------


class TestBuildSpans:
    def test_sequential_report_carries_span_tree(self, tiny_fs):
        report = SequentialIndexer(tiny_fs).build()
        assert "build" in names(report.spans)
        assert "phase.stage1" in names(report.spans)
        # one extract + one update span per file
        file_count = report.file_count
        assert names(report.spans).count("phase.extract") == file_count
        assert names(report.spans).count("phase.update") == file_count

    def test_threaded_build_spans_cover_all_stages(self, tiny_fs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(3, 2, 1))
        present = set(names(report.spans))
        assert {"build", "phase.stage1", "phase.extract",
                "phase.update", "phase.join"} <= present
        workers = [s for s in report.spans if s.name == "extract.worker"]
        updaters = [s for s in report.spans if s.name == "update.worker"]
        assert sorted(s.attrs["worker"] for s in workers) == [0, 1, 2]
        assert sorted(s.attrs["worker"] for s in updaters) == [0, 1]

    def test_inline_update_marks_extract_phase(self, tiny_fs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(2, 0, 1))
        (extract,) = [s for s in report.spans if s.name == "phase.extract"]
        assert extract.attrs.get("inline_update") is True
        assert "phase.update" not in names(report.spans)
        # the historical convention: y=0 reports update == extraction
        assert report.timings.update == report.timings.extraction

    def test_timings_derive_from_spans(self, tiny_fs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(3, 2, 1))
        derived = StageTimings.from_spans(report.spans)
        assert derived == report.timings
        assert derived.filename_generation > 0
        assert derived.extraction > 0
        assert derived.join > 0

    def test_span_tree_nests_under_build_root(self, tiny_fs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(2, 2, 1))
        (root,) = [s for s in report.spans if s.name == "build"]
        assert root.parent_id is None
        by_id = {s.span_id: s for s in report.spans}
        for span in report.spans:
            # parent links resolve and chains terminate without cycles;
            # spans opened on worker threads start their own chains
            # (nesting is per-thread), so a None parent is fine.
            seen = set()
            cursor = span
            while cursor.parent_id is not None:
                assert cursor.span_id not in seen
                seen.add(cursor.span_id)
                cursor = by_id[cursor.parent_id]
        # the phase spans all sit somewhere under the build root
        # (phase.extract nests inside phase.update on the buffered path)
        for span in report.spans:
            if span.name.startswith("phase."):
                cursor = span
                while cursor.parent_id is not None:
                    cursor = by_id[cursor.parent_id]
                assert cursor is root

    def test_no_detail_spans_while_disabled(self, tiny_fs, fresh_obs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(2, 2, 1))
        assert "extract.file" not in names(report.spans)
        assert obsrec.get_recorder().spans == []
        # stage spans are unconditional — the report still has them
        assert "phase.extract" in names(report.spans)


class TestBuildMetrics:
    def test_report_metrics_throughput_keys(self, tiny_fs):
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(2, 2, 1))
        metrics = report.metrics
        assert metrics["build.files"] == report.file_count
        assert metrics["build.files_per_s"] > 0
        assert metrics["build.bytes_per_s"] > 0
        assert "query.cache.hit_rate" in metrics

    def test_summary_mentions_throughput(self, tiny_fs):
        report = SequentialIndexer(tiny_fs).build()
        assert "files/s" in report.summary()


# -- tracing enabled: detail spans and chrome export -------------------


class TestTracedBuilds:
    def test_threaded_trace_has_per_file_detail(self, tiny_fs, fresh_obs):
        obsrec.enable()
        report = ReplicatedJoinedIndexer(tiny_fs).build(ThreadConfig(3, 2, 1))
        spans = obsrec.get_recorder().spans
        detail = [s for s in spans if s.name == "extract.file"]
        assert len(detail) == report.file_count
        assert all("path" in s.attrs and "size" in s.attrs for s in detail)
        # the build's stage spans were absorbed into the global recorder
        assert "phase.join" in names(spans)
        assert validate_chrome_trace(chrome_trace(spans)) == []

    def test_process_trace_spans_per_worker_process(self, tiny_fs, fresh_obs):
        obsrec.enable()
        indexer = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True)
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        spans = obsrec.get_recorder().spans
        workers = [s for s in spans if s.name == "extract.worker"]
        assert sorted(s.attrs["worker"] for s in workers) == [0, 1]
        # worker spans keep the worker process identity (own trace rows)
        parent = os.getpid()
        assert all(s.pid != parent for s in workers)
        detail = [s for s in spans if s.name == "extract.file"]
        assert len(detail) == report.file_count
        # rebased onto the parent timeline: workers start after stage 1
        (stage1,) = [s for s in spans if s.name == "phase.stage1"]
        assert all(s.start >= stage1.start for s in workers)
        assert validate_chrome_trace(chrome_trace(spans)) == []

    def test_process_report_timings_and_stages(self, tiny_fs):
        indexer = ProcessReplicatedIndexer(tiny_fs, oversubscribe=True)
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        present = set(names(report.spans))
        assert {"build", "phase.stage1", "phase.extract",
                "phase.join"} <= present
        assert "phase.update" not in present
        assert report.timings == StageTimings.from_spans(report.spans)
        assert report.timings.update == 0.0
        assert report.metrics["build.files_per_s"] > 0


# -- CLI flags ---------------------------------------------------------


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    from repro.cli import main

    destination = str(tmp_path_factory.mktemp("obs-cli") / "corpus")
    assert main(["generate-corpus", destination, "--scale", "0.001"]) == 0
    return destination


class TestCliObservability:
    def test_trace_out_threaded(self, cli_corpus, tmp_path, capsys,
                                fresh_obs):
        from repro.cli import main

        trace = str(tmp_path / "thread.json")
        assert main(["index", cli_corpus, "-i", "2", "-x", "2", "-y", "2",
                     "-z", "1", "--trace-out", trace, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "trace written to" in captured.err
        assert "stages:" in captured.out
        assert validate_trace_file(trace) == []
        events = json.load(open(trace))["traceEvents"]
        begun = {e["name"] for e in events if e["ph"] == "B"}
        assert {"phase.stage1", "phase.extract", "phase.update",
                "phase.join", "extract.file"} <= begun

    def test_trace_out_process_backend(self, cli_corpus, tmp_path, capsys,
                                       fresh_obs):
        from repro.cli import main

        trace = str(tmp_path / "process.json")
        assert main(["index", cli_corpus, "-i", "2", "-x", "2", "-y", "0",
                     "-z", "1", "--backend", "process", "--oversubscribe",
                     "--trace-out", trace]) == 0
        assert validate_trace_file(trace) == []
        events = json.load(open(trace))["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "B"}
        assert len(pids) >= 2  # parent + at least one worker process

    def test_search_stats(self, cli_corpus, tmp_path, capsys, fresh_obs):
        from repro.cli import main

        save = str(tmp_path / "cli.idx")
        assert main(["index", cli_corpus, "-i", "1", "-x", "2", "-y", "1",
                     "--save", save]) == 0
        capsys.readouterr()
        trace = str(tmp_path / "search.json")
        assert main(["search", save, "the", "--trace-out", trace,
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "metrics:" in captured.out
        assert validate_trace_file(trace) == []
        events = json.load(open(trace))["traceEvents"]
        begun = {e["name"] for e in events if e["ph"] == "B"}
        # A saved RIDX2 file is answered by the DAAT evaluator.
        assert "query.daat" in begun

    def test_flags_off_means_no_trace_side_effects(self, cli_corpus,
                                                   capsys, fresh_obs):
        from repro.cli import main

        assert main(["index", cli_corpus, "--sequential"]) == 0
        assert not obsrec.enabled()
        assert obsrec.get_recorder().spans == []
