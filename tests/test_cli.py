"""Tests for the command-line interface."""

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
        save = str(tmp_path / "replicas")
        main(["index", corpus_dir, "-i", "3", "-x", "2", "-y", "2",
              "--save", save])
        capsys.readouterr()
        from repro.index import load_multi_index

        term = next(iter(load_multi_index(save).replicas[0].terms()))
        assert main(["search", save, term, "--parallel"]) == 0


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
