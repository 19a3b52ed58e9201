"""The ``serve`` subcommand and the uniform observability flags.

Drives the full serving path through the CLI: build (or open) an index
over a real directory, answer a query stream from a file, refresh under
``--watch``, and emit a valid Chrome trace.  Also pins the argparse
contract: ``--watch`` exists only on ``serve``, so every other
subcommand rejects it.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs import recorder as obsrec


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    destination = str(tmp_path_factory.mktemp("serve") / "corpus")
    assert main(["generate-corpus", destination, "--scale", "0.001"]) == 0
    return destination


@pytest.fixture(autouse=True)
def fresh_obs():
    """Isolate the global recorder the --trace-out/--stats flags enable."""
    from repro.obs.recorder import Recorder

    previous = obsrec.set_recorder(Recorder(enabled=False))
    try:
        yield
    finally:
        obsrec.set_recorder(previous)


def query_file(tmp_path, lines):
    path = tmp_path / "queries.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def a_term(corpus_dir):
    """Some term actually present in the corpus."""
    from repro.engine import SequentialIndexer
    from repro.fsmodel import OsFileSystem

    report = SequentialIndexer(OsFileSystem(corpus_dir)).build()
    return sorted(report.index.terms())[0]


class TestServe:
    def test_serves_queries_from_file(self, corpus_dir, tmp_path, capsys):
        term = a_term(corpus_dir)
        queries = query_file(tmp_path, ["# warmup comment", term, "", "zz9"])
        assert main(["serve", corpus_dir, "--queries", queries]) == 0
        captured = capsys.readouterr()
        assert f"[gen 0] {term} ->" in captured.out
        assert "[gen 0] zz9 -> 0 file(s)" in captured.out
        assert "served 2 query(ies)" in captured.err

    def test_unparsable_query_reported_not_fatal(
        self, corpus_dir, tmp_path, capsys
    ):
        queries = query_file(tmp_path, ["AND AND", "zz9"])
        assert main(["serve", corpus_dir, "--queries", queries]) == 1
        captured = capsys.readouterr()
        assert "error: AND AND" in captured.err
        assert "[gen 0] zz9" in captured.out  # the stream continued

    def test_serve_from_saved_index(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "prebuilt.ridx")
        assert main(["index", corpus_dir, "-i", "2", "-x", "2", "-y", "2",
                     "-z", "1", "--save", save]) == 0
        capsys.readouterr()
        queries = query_file(tmp_path, ["zz9"])
        assert main(["serve", corpus_dir, "--index", save,
                     "--queries", queries]) == 0
        assert "[gen 0] zz9" in capsys.readouterr().out

    def test_watch_picks_up_new_files(self, corpus_dir, tmp_path, capsys):
        import shutil

        live = str(tmp_path / "live")
        shutil.copytree(corpus_dir, live)
        # enough queries that the 10ms watch interval fires mid-stream
        queries = query_file(tmp_path, ["xyzzyserve"] * 200)
        with open(os.path.join(live, "added-later.txt"), "w") as fh:
            fh.write("xyzzyserve appears")
        assert main(["serve", live, "--watch", "0.01",
                     "--queries", queries]) == 0
        out = capsys.readouterr().out
        # before the first watch tick the term is unknown; afterwards
        # queries find it — both phases answered, neither torn
        assert "added-later.txt" not in out.splitlines()[0]
        assert "added-later.txt" in out

    def test_trace_out_is_valid_chrome_trace(
        self, corpus_dir, tmp_path, capsys
    ):
        trace = str(tmp_path / "serve-trace.json")
        queries = query_file(tmp_path, ["zz9", "zz9"])
        assert main(["serve", corpus_dir, "--queries", queries,
                     "--trace-out", trace]) == 0
        from repro.obs import validate_trace_file

        problems = validate_trace_file(trace)
        assert problems == []
        with open(trace, "r", encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        names = {event["name"] for event in events}
        assert any("service.query" in name for name in names)

    def test_argument_validation(self, corpus_dir, tmp_path, capsys):
        assert main(["serve", corpus_dir, "--watch", "0",
                     "--queries", query_file(tmp_path, ["x"])]) == 2
        assert main(["serve", corpus_dir, "--workers", "0",
                     "--queries", query_file(tmp_path, ["x"])]) == 2
        assert main(["serve", corpus_dir, "--batch-window", "-0.1",
                     "--queries", query_file(tmp_path, ["x"])]) == 2


class TestServeAsync:
    def test_async_answers_match_sync_and_coalesces(
        self, corpus_dir, tmp_path, capsys
    ):
        term = a_term(corpus_dir)
        queries = query_file(tmp_path, [term, term, term, "zz9"])
        assert main(["serve", corpus_dir, "--queries", queries]) == 0
        sync_out = capsys.readouterr().out
        assert main(["serve", corpus_dir, "--async", "--batch-window",
                     "0.01", "--queries", queries]) == 0
        captured = capsys.readouterr()
        # Result-transparent: the async stream prints the same answers
        # in the same order as the plain service.
        assert captured.out == sync_out
        assert "-- frontend:" in captured.err
        # 3 identical in-flight queries coalesce onto <= 2 evaluations.
        coalesced = int(
            captured.err.split("coalesced")[0].split()[-1]
        )
        assert coalesced >= 1

    def test_async_parse_error_reported_not_fatal(
        self, corpus_dir, tmp_path, capsys
    ):
        queries = query_file(tmp_path, ["AND AND", "zz9"])
        assert main(["serve", corpus_dir, "--async",
                     "--queries", queries]) == 1
        captured = capsys.readouterr()
        assert "error: AND AND" in captured.err
        assert "[gen 0] zz9" in captured.out  # the stream continued


class TestServeSharded:
    def test_sharded_answers_match_the_single_service(
        self, corpus_dir, tmp_path, capsys
    ):
        term = a_term(corpus_dir)
        queries = query_file(tmp_path, [term, "zz9"])
        assert main(["serve", corpus_dir, "--queries", queries]) == 0
        single_out = capsys.readouterr().out
        assert main(["serve", corpus_dir, "--shards", "3",
                     "--replicas", "2", "--queries", queries]) == 0
        captured = capsys.readouterr()
        # the differential gate, through the CLI: byte-identical output
        assert captured.out == single_out
        assert "across 3 shard(s) x 2 replica(s)" in captured.err
        assert "shards 3/3 alive" in captured.err

    def test_sharded_bm25_needs_no_ondisk(self, corpus_dir, tmp_path,
                                          capsys):
        term = a_term(corpus_dir)
        queries = query_file(tmp_path, [term])
        assert main(["serve", corpus_dir, "--shards", "2",
                     "--rank", "bm25", "--topk", "3",
                     "--queries", queries]) == 0
        out = capsys.readouterr().out
        assert f"[gen 0] {term} ->" in out

    def test_sharded_async_frontend_composes(self, corpus_dir, tmp_path,
                                             capsys):
        term = a_term(corpus_dir)
        queries = query_file(tmp_path, [term, term, term])
        assert main(["serve", corpus_dir, "--shards", "2", "--async",
                     "--batch-window", "0.01",
                     "--queries", queries]) == 0
        err = capsys.readouterr().err
        assert "-- frontend:" in err
        assert "shards 2/2 alive" in err

    def test_sharded_argument_validation(self, corpus_dir, tmp_path,
                                         capsys):
        queries = query_file(tmp_path, ["x"])
        # incompatible serving modes are rejected up front
        assert main(["serve", corpus_dir, "--shards", "1",
                     "--queries", queries]) == 2
        assert main(["serve", corpus_dir, "--shards", "2",
                     "--replicas", "0", "--queries", queries]) == 2
        assert main(["serve", corpus_dir, "--shards", "2", "--watch",
                     "0.5", "--queries", queries]) == 2
        assert main(["serve", corpus_dir, "--shards", "2",
                     "--compact-every", "1", "--queries", queries]) == 2


class TestWatchOnlyOnServe:
    @pytest.mark.parametrize("argv", [
        ["index", "somedir", "--watch", "1"],
        ["search", "some.idx", "q", "--watch", "1"],
        ["refresh", "somedir", "--index", "i", "--watch", "1"],
    ])
    def test_other_subcommands_reject_watch(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--watch" in capsys.readouterr().err


class TestUniformObservabilityFlags:
    def test_refresh_accepts_stats_and_trace(
        self, corpus_dir, tmp_path, capsys
    ):
        index = str(tmp_path / "r.idx")
        trace = str(tmp_path / "r-trace.json")
        assert main(["refresh", corpus_dir, "--index", index,
                     "--stats", "--trace-out", trace]) == 0
        assert os.path.exists(trace)

    def test_analyze_accepts_stats_and_trace(
        self, corpus_dir, tmp_path, capsys
    ):
        save = str(tmp_path / "an.idx")
        assert main(["index", corpus_dir, "-i", "1", "-x", "2", "-y", "1",
                     "--save", save]) == 0
        trace = str(tmp_path / "an-trace.json")
        assert main(["analyze", save, "--stats",
                     "--trace-out", trace]) == 0
        assert os.path.exists(trace)

    def test_search_stats_prints_metrics(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "s.idx")
        assert main(["index", corpus_dir, "-i", "1", "-x", "2", "-y", "1",
                     "--save", save]) == 0
        capsys.readouterr()
        assert main(["search", save, "zz9", "--stats"]) == 0
        assert "metrics" in capsys.readouterr().out
