"""Tests for the extended CLI subcommands (mixed corpora, binary
persistence, format-aware indexing, ranked search, refresh)."""

import json
import os

import pytest

from repro.cli import main
from tests.test_fingerprint import saved_crc


@pytest.fixture(scope="module")
def mixed_dir(tmp_path_factory):
    destination = str(tmp_path_factory.mktemp("clix") / "mixed")
    assert main(["generate-corpus", destination, "--scale", "0.001",
                 "--mixed"]) == 0
    return destination


class TestMixedGeneration:
    def test_reports_format_breakdown(self, mixed_dir, capsys):
        # The fixture already ran; regenerate output via a fresh dir.
        pass

    def test_mixed_extensions_on_disk(self, mixed_dir):
        extensions = set()
        for _, _, files in os.walk(mixed_dir):
            extensions.update(os.path.splitext(name)[1] for name in files)
        assert ".txt" in extensions
        assert len(extensions) >= 3


class TestBinaryAndFormats:
    def test_binary_save_and_search(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "index.ridx")
        assert main(["index", mixed_dir, "-i", "1", "-x", "2", "-y", "1",
                     "--formats", "--binary", "--save", save]) == 0
        out = capsys.readouterr().out
        assert "index saved to" in out and "bytes" in out
        from repro.index import load_index

        term = next(iter(load_index(save).terms()))
        assert main(["search", save, term]) == 0

    def test_binary_rejected_for_multi_index(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "multi")
        assert main(["index", mixed_dir, "-i", "3", "-x", "2", "-y", "2",
                     "--binary", "--save", save]) == 2
        assert "binary" in capsys.readouterr().err

    def test_dynamic_mode(self, mixed_dir, capsys):
        assert main(["index", mixed_dir, "-i", "1", "-x", "3",
                     "--dynamic", "steal"]) == 0
        assert "Implementation 1" in capsys.readouterr().out


class TestRankedSearch:
    """BM25 ranks off the frequencies a ``.ridx2`` save bakes in."""

    def test_ranked_output_has_scores(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "r.ridx2")
        main(["index", mixed_dir, "-i", "1", "-x", "2", "-y", "1",
              "--formats", "--save", save])
        capsys.readouterr()
        from repro.index import load_index

        term = next(iter(load_index(save).terms()))
        assert main(["search", save, term, "--rank", "bm25"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()[0].split()
        float(first[0])  # leading column is a score

    def test_ranked_is_bm25_top_k(self, mixed_dir, tmp_path, capsys):
        from repro.fsmodel import OsFileSystem
        from repro.index import load_index
        from repro.query import (
            BM25Ranker, FrequencyIndex, QueryEngine, search_bm25,
        )

        save = str(tmp_path / "r.ridx2")
        main(["index", mixed_dir, "--sequential", "--save", save])
        term = next(iter(load_index(save).terms()))
        capsys.readouterr()
        assert main(["search", save, term, "--rank", "bm25",
                     "--topk", "2"]) == 0
        out = capsys.readouterr().out
        assert 1 <= len(out.splitlines()) <= 2
        # The in-memory ranker's top 2 over the corpus, score for score.
        hits = search_bm25(
            QueryEngine(load_index(save)),
            BM25Ranker(FrequencyIndex.from_fs(OsFileSystem(mixed_dir))),
            term, topk=2,
        )
        assert out == "".join(f"{h.score:8.3f}  {h.path}\n" for h in hits)

    def test_wildcard_search(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "w.idx")
        main(["index", mixed_dir, "-i", "1", "-x", "2", "-y", "1",
              "--save", save])
        capsys.readouterr()
        from repro.index import load_index

        term = next(iter(load_index(save).terms()))
        assert main(["search", save, term[:3] + "*"]) == 0
        assert capsys.readouterr().out.strip()


@pytest.fixture
def cli_reads(monkeypatch):
    """Every path the CLI reads through its filesystem, in order."""
    from repro.fsmodel import OsFileSystem

    reads = []

    class Recording(OsFileSystem):
        def read_file(self, path):
            reads.append(path)
            return super().read_file(path)

    monkeypatch.setattr("repro.cli.OsFileSystem", Recording)
    return reads


class TestRefresh:
    """``refresh DIR --index F`` is ``Search.open(F, source=DIR)`` ->
    ``refresh()`` -> ``save(F)`` (a first run builds ``F``); the
    fingerprints live at ``F + ".state"``."""

    def test_refresh_lifecycle(self, tmp_path, capsys, cli_reads):
        corpus = str(tmp_path / "corpus")
        main(["generate-corpus", corpus, "--scale", "0.001"])
        index_file = str(tmp_path / "state.idx")
        state_file = index_file + ".state"

        assert main(["refresh", corpus, "--index", index_file]) == 0
        out = capsys.readouterr().out
        assert "+51 added" in out
        assert len(cli_reads) == 51
        with open(index_file, "rb") as fh:
            assert fh.read(5) == b"RIDX2"

        # No changes: second refresh is a no-op that opens no file.
        del cli_reads[:]
        assert main(["refresh", corpus, "--index", index_file]) == 0
        assert "+0 added, -0 removed, ~0 modified" in capsys.readouterr().out
        assert cli_reads == []

        # Add a file, then find it through the refreshed index.
        with open(os.path.join(corpus, "novel.txt"), "w") as fh:
            fh.write("uniquemarkerterm appears here")
        assert main(["refresh", corpus, "--index", index_file]) == 0
        assert "+1 added" in capsys.readouterr().out
        assert cli_reads == ["novel.txt"]
        assert main(["search", index_file, "uniquemarkerterm"]) == 0
        assert "novel.txt" in capsys.readouterr().out

        # The state file is JSON: the hash's name, the index's header
        # CRC, then the fingerprints.
        with open(state_file) as fh:
            state = json.load(fh)
        assert state["hash"] == "blake2b-64"
        assert state["index"] == saved_crc(index_file)
        size, stamp, digest = state["files"]["novel.txt"]
        assert size == len("uniquemarkerterm appears here") and stamp > 0

    def test_a_crashed_refresh_keeps_the_previous_index(
        self, tmp_path, capsys, monkeypatch
    ):
        """``refresh`` used to remove the index and then write it: a
        crash in between left no index.  Now the old bytes stay at the
        path until the new file is renamed over them."""
        corpus = str(tmp_path / "corpus")
        main(["generate-corpus", corpus, "--scale", "0.001"])
        index_file = str(tmp_path / "i.ridx")
        arguments = ["refresh", corpus, "--index", index_file]
        assert main(arguments) == 0
        with open(index_file, "rb") as fh:
            before = fh.read()
        assert before[:5] == b"RIDX2"
        with open(os.path.join(corpus, "novel.txt"), "w") as fh:
            fh.write("uniquemarkerterm appears here")

        def crash(_src, _dst):
            raise OSError("crashed between write and rename")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="crashed"):
                main(arguments)
        with open(index_file, "rb") as fh:
            assert fh.read() == before
        assert sorted(os.listdir(tmp_path)) == [
            "corpus", "i.ridx", "i.ridx.state"
        ]
        capsys.readouterr()
        assert main(arguments) == 0  # the replay converges
        assert "+1 added" in capsys.readouterr().out

    def check_foreign_state_reconciles(
        self, tmp_path, capsys, cli_reads, foreign
    ):
        corpus = str(tmp_path / "corpus")
        main(["generate-corpus", corpus, "--scale", "0.001"])
        index_file = str(tmp_path / "i.ridx")
        state_file = index_file + ".state"
        main(["refresh", corpus, "--index", index_file])
        with open(state_file) as fh:
            state = json.load(fh)
        with open(state_file, "w") as fh:
            json.dump(foreign(state["files"]), fh)
        capsys.readouterr()
        del cli_reads[:]
        # Read as absent, the state costs one reconciling refresh: every
        # file is read once, the true (empty) delta is reported, and
        # the state is rewritten as it was.
        assert main(["refresh", corpus, "--index", index_file]) == 0
        assert "+0 added, -0 removed, ~0 modified" in capsys.readouterr().out
        assert len(cli_reads) == 51
        with open(state_file) as fh:
            assert json.load(fh) == state

    def test_foreign_state_file_is_rewritten(self, tmp_path, capsys, cli_reads):
        """A state file of any other shape — here the pre-3.0
        ``[size, hash]`` entries — reads as absent: everything is
        re-read and the file rewritten as fingerprints."""
        self.check_foreign_state_reconciles(
            tmp_path,
            capsys,
            cli_reads,
            lambda files: {p: [e[0], e[2]] for p, e in files.items()},
        )

    @pytest.mark.parametrize(
        "foreign",
        [
            lambda files: files,
            lambda files: {"hash": "fnv1a-64", "files": files},
        ],
        ids=["3.0.0-headerless", "other-hash"],
    )
    def test_state_under_another_hash_is_rewritten(
        self, tmp_path, capsys, cli_reads, foreign
    ):
        """So does a well-formed state whose hashes are not this
        version's: the headerless 3.0.0 map (FNV), or a header naming
        any hash but blake2b-64 — never "every file changed"."""
        self.check_foreign_state_reconciles(
            tmp_path, capsys, cli_reads, foreign
        )

    def test_refresh_detects_removal(self, tmp_path, capsys):
        corpus = str(tmp_path / "corpus2")
        main(["generate-corpus", corpus, "--scale", "0.001"])
        index_file = str(tmp_path / "i.idx")
        main(["refresh", corpus, "--index", index_file])
        capsys.readouterr()
        victim = None
        for root, _, files in os.walk(corpus):
            if files:
                victim = os.path.join(root, files[0])
                break
        os.remove(victim)
        assert main(["refresh", corpus, "--index", index_file]) == 0
        assert "-1 removed" in capsys.readouterr().out

    def test_state_is_no_longer_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["refresh", str(tmp_path), "--index", "i.ridx",
                  "--state", "s.json"])
        assert excinfo.value.code == 2
        assert "--state" in capsys.readouterr().err


class TestIndexFlagConflicts:
    """Flag combinations that silently do nothing are rejected early."""

    def test_oversubscribe_requires_process_backend(self, mixed_dir, capsys):
        assert main(["index", mixed_dir, "--oversubscribe"]) == 2
        assert "--oversubscribe only applies" in capsys.readouterr().err

    def test_max_retries_requires_process_backend(self, mixed_dir, capsys):
        assert main(["index", mixed_dir, "--max-retries", "3"]) == 2
        assert "--max-retries only applies" in capsys.readouterr().err

    def test_batch_timeout_requires_process_backend(self, mixed_dir, capsys):
        assert main(["index", mixed_dir, "--batch-timeout", "5"]) == 2
        assert "--batch-timeout only applies" in capsys.readouterr().err

    def test_dynamic_rejected_with_process_backend(self, mixed_dir, capsys):
        assert main(["index", mixed_dir, "--backend", "process",
                     "--dynamic", "steal", "--oversubscribe"]) == 2
        assert "--dynamic is incompatible" in capsys.readouterr().err

    def test_on_error_validates_choices(self, mixed_dir, capsys):
        with pytest.raises(SystemExit):
            main(["index", mixed_dir, "--on-error", "ignore"])
        assert "invalid choice" in capsys.readouterr().err


@pytest.fixture
def faulty_cli_fs(monkeypatch):
    """Route the CLI's filesystem through a deterministic fault injector
    poisoning the first file of the corpus."""
    from repro.fsmodel import FaultInjectingFileSystem, FaultSpec, OsFileSystem

    poisoned = {}

    def open_faulty(directory):
        fs = OsFileSystem(directory)
        victim = next(iter(fs.list_files())).path
        poisoned["victim"] = victim
        return FaultInjectingFileSystem(
            fs, {victim: FaultSpec(exc_type=PermissionError,
                                   message="injected fault")}
        )

    monkeypatch.setattr("repro.cli.OsFileSystem", open_faulty)
    return poisoned


class TestIndexErrorPolicy:
    def test_strict_build_fails_with_exit_1(self, mixed_dir, faulty_cli_fs,
                                            capsys):
        assert main(["index", mixed_dir, "-i", "2", "-x", "2", "-y", "0",
                     "-z", "1"]) == 1
        assert "build failed: injected fault" in capsys.readouterr().err

    def test_skip_build_succeeds_and_reports(self, mixed_dir, faulty_cli_fs,
                                             capsys):
        assert main(["index", mixed_dir, "-i", "2", "-x", "2", "-y", "0",
                     "-z", "1", "--on-error", "skip"]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 file(s)" in captured.err
        assert faulty_cli_fs["victim"] in captured.err
        assert "1 skipped" in captured.out

    def test_skip_on_process_backend(self, mixed_dir, faulty_cli_fs, capsys):
        assert main(["index", mixed_dir, "--backend", "process", "-x", "2",
                     "--oversubscribe", "--on-error", "skip",
                     "--max-retries", "1"]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 file(s)" in captured.err
        assert "1 skipped" in captured.out

    def test_sequential_honours_policy(self, mixed_dir, faulty_cli_fs, capsys):
        assert main(["index", mixed_dir, "--sequential"]) == 1
        assert "build failed" in capsys.readouterr().err
        assert main(["index", mixed_dir, "--sequential",
                     "--on-error", "skip"]) == 0
        assert "skipped 1 file(s)" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_analyze_output(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "an.idx")
        main(["index", mixed_dir, "-i", "1", "-x", "2", "-y", "1",
              "--save", save])
        capsys.readouterr()
        assert main(["analyze", save, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "terms:" in out
        assert "postings:" in out
        assert "histogram" in out

    def test_analyze_binary_index(self, mixed_dir, tmp_path, capsys):
        save = str(tmp_path / "an.ridx")
        main(["index", mixed_dir, "-i", "1", "-x", "2", "-y", "1",
              "--binary", "--save", save])
        capsys.readouterr()
        assert main(["analyze", save]) == 0
        assert "est. memory:" in capsys.readouterr().out
