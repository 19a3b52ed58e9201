"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    destination = str(tmp_path_factory.mktemp("cli") / "corpus")
    assert main(["generate-corpus", destination, "--scale", "0.001"]) == 0
    return destination


class TestGenerateCorpus:
    def test_writes_files(self, corpus_dir, capsys):
        import os

        count = sum(len(files) for _, _, files in os.walk(corpus_dir))
        assert count == 51  # 0.001 x 51,000

    def test_refuses_existing(self, corpus_dir, capsys):
        with pytest.raises(FileExistsError):
            main(["generate-corpus", corpus_dir, "--scale", "0.001"])


class TestIndexCommand:
    def test_impl3_and_save(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "replicas")
        assert main(["index", corpus_dir, "-i", "3", "-x", "3", "-y", "2",
                     "--save", save]) == 0
        output = capsys.readouterr().out
        assert "Implementation 3" in output
        assert "saved" in output

    def test_impl1_single_file_save(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "out.idx")
        assert main(["index", corpus_dir, "-i", "1", "-x", "2", "-y", "1",
                     "--save", save]) == 0
        import os

        assert os.path.isfile(save)

    def test_sequential(self, corpus_dir, capsys):
        assert main(["index", corpus_dir, "--sequential"]) == 0
        assert "files" in capsys.readouterr().out

    def test_invalid_config_rejected(self, corpus_dir, capsys):
        assert main(["index", corpus_dir, "-i", "1", "-x", "2", "-z", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestSearchCommand:
    def test_search_saved_index(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "search.idx")
        main(["index", corpus_dir, "-i", "1", "-x", "2", "-y", "1",
              "--save", save])
        capsys.readouterr()
        from repro.index import load_index

        term = next(iter(load_index(save).terms()))
        assert main(["search", save, term]) == 0
        out, err = capsys.readouterr()
        assert "file(s)" in err
        assert out.strip()

    def test_search_opens_a_file_the_way_the_library_does(
        self, corpus_dir, tmp_path, capsys, monkeypatch
    ):
        """A saved ``.ridx`` is RIDX2 and ``search`` maps it: no eager
        load, the same hits as the loaded index, and NOT has the
        file's universe to complement against."""
        from repro.index import load_index

        save = str(tmp_path / "search.ridx")
        assert main(["index", corpus_dir, "--sequential",
                     "--save", save]) == 0
        assert "RIDX2" in capsys.readouterr().out
        index = load_index(save)
        term = max(index.terms(), key=lambda t: len(index.lookup(t)))

        def eager(_path):
            raise AssertionError("search loaded an RIDX2 file eagerly")

        monkeypatch.setattr("repro.cli.load_index", eager)
        monkeypatch.setattr("repro.api.load_index", eager)
        assert main(["search", save, term]) == 0
        out, _err = capsys.readouterr()
        assert out.split() == sorted(index.lookup(term))
        assert main(["search", save, f"NOT {term}"]) == 0
        out, _err = capsys.readouterr()
        everything = {p for t in index.terms() for p in index.lookup(t)}
        assert out.split() == sorted(everything - set(index.lookup(term)))

    def test_search_multi_parallel(self, corpus_dir, tmp_path, capsys):
        """Implementation 3's replica directory is probed one replica
        after another and answers as its joined index; ``--parallel``
        is no option any more, so argparse refuses it with exit 2."""
        save = str(tmp_path / "replicas")
        main(["index", corpus_dir, "-i", "3", "-x", "2", "-y", "2",
              "--save", save])
        capsys.readouterr()
        from repro.index import join_indices, load_multi_index

        joined = join_indices(load_multi_index(save).replicas)
        term = max(joined.terms(), key=lambda t: len(joined.lookup(t)))
        assert main(["search", save, term]) == 0
        assert capsys.readouterr().out.split() == sorted(joined.lookup(term))
        with pytest.raises(SystemExit) as refused:
            main(["search", save, term, "--parallel"])
        assert refused.value.code == 2

    def test_a_cut_replica_is_named_once(self, corpus_dir, tmp_path, capsys):
        """One cut ``replica-000.idx``: ``search DIR`` and
        ``Search.open(DIR)`` name that file, once; so does
        ``Search.open`` of a cut single file."""
        from repro.api import Search
        from repro.index import IndexFormatError

        save = str(tmp_path / "replicas")
        main(["index", corpus_dir, "-i", "3", "-x", "2", "-y", "2",
              "--save", save])
        victim = os.path.join(save, "replica-000.idx")
        with open(victim, "rb") as fh:
            data = fh.read()
        with open(victim, "wb") as fh:
            fh.write(data[: len(data) // 2])
        capsys.readouterr()
        assert main(["search", save, "anything"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {victim}: ")
        with pytest.raises(IndexFormatError) as opened:
            Search.open(save)
        assert str(opened.value).startswith(f"{victim}: ")
        assert str(opened.value).count(victim) == 1
        # A lone cut file is mapped, not loaded, and named once too.
        single = str(tmp_path / "cut.ridx2")
        with open(single, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(IndexFormatError) as opened:
            Search.open(single)
        assert str(opened.value).startswith(f"{single}: ")
        assert str(opened.value).count(single) == 1

    def test_a_cut_ridx1_file_is_named_once_at_every_door(
        self, corpus_dir, tmp_path, capsys
    ):
        """A cut RIDX1 file (``--binary``) is an ``IndexFormatError``
        naming it once from ``load_index`` and ``Search.open``, and one
        ``error:`` line naming it once from ``search`` and ``analyze``:
        cut after its doc count, past its middle, and one byte short."""
        from repro.api import Search
        from repro.index import IndexFormatError, load_index

        whole = str(tmp_path / "whole.ridx")
        assert main(["index", corpus_dir, "--sequential", "--save", whole,
                     "--binary"]) == 0
        with open(whole, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"RIDX1")
        cut = str(tmp_path / "cut.ridx")
        for size in (9, len(data) // 2 + 1, len(data) - 1):
            with open(cut, "wb") as fh:
                fh.write(data[:size])
            for door in (load_index, Search.open):
                with pytest.raises(IndexFormatError) as refused:
                    door(cut)
                assert str(refused.value).startswith(f"{cut}: ")
                assert str(refused.value).count(cut) == 1
            for command in (["search", cut, "anything"], ["analyze", cut]):
                capsys.readouterr()
                assert main(command) == 2
                out, err = capsys.readouterr()
                assert out == "" and err.count("\n") == 1
                assert err.startswith(f"error: {cut}: ")
                assert err.count(cut) == 1


class TestAnalyzeCommand:
    def test_garbage_and_missing_paths_are_one_error_line(
        self, tmp_path, capsys
    ):
        garbage = tmp_path / "garbage.idx"
        garbage.write_bytes(b"\x00not an index at all\xff")
        for path in (str(garbage), str(tmp_path / "missing.idx")):
            assert main(["analyze", path]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and path in err


class TestSimulateCommand:
    def test_small_scale_simulation(self, capsys):
        assert main(["simulate", "--platform", "quad-core", "-i", "3",
                     "-x", "3", "-y", "2", "--scale", "0.01"]) == 0
        output = capsys.readouterr().out
        assert "Implementation 3" in output
        assert "utilization" in output

    def test_sequential_simulation(self, capsys):
        assert main(["simulate", "--platform", "octo-core", "--sequential",
                     "--scale", "0.01"]) == 0
        assert "Sequential" in capsys.readouterr().out

    def test_impl1_reports_lock_stats(self, capsys):
        assert main(["simulate", "--platform", "manycore-32", "-i", "1",
                     "-x", "4", "-y", "2", "--scale", "0.01"]) == 0
        assert "index lock" in capsys.readouterr().out

    def test_invalid_config(self, capsys):
        assert main(["simulate", "-i", "2", "-x", "3", "-y", "1", "-z", "0",
                     "--scale", "0.01"]) == 2


class TestHelp:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "commands" in capsys.readouterr().out
