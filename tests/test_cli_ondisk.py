"""CLI coverage for the on-disk serving path.

``index`` saving ``.ridx2`` (with frequencies baked in, one file from
any engine), ``search --ondisk`` (boolean and BM25, plus the block-skip
report), a malformed query's exit 2 on every search path, ``serve
--ondisk`` over a query file, and the flag-conflict rejections.
"""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    destination = str(tmp_path_factory.mktemp("ondisk-cli") / "corpus")
    assert main(["generate-corpus", destination, "--scale", "0.001"]) == 0
    return destination


@pytest.fixture(scope="module")
def ridx2_path(corpus_dir, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ondisk-cli") / "index.ridx2")
    assert main(["index", corpus_dir, "--sequential", "--save", path]) == 0
    return path


class TestIndexSavesRidx2:
    def test_file_has_ridx2_magic(self, ridx2_path):
        with open(ridx2_path, "rb") as fh:
            assert fh.read(5) == b"RIDX2"

    def test_frequencies_are_baked_in(self, ridx2_path):
        from repro.index import MmapPostingsReader

        with MmapPostingsReader(ridx2_path) as reader:
            assert reader.has_freqs
            assert reader.doc_count == 51

    def test_default_engine_writes_the_sequential_file(
        self, corpus_dir, ridx2_path, tmp_path, capsys
    ):
        """Implementation 3, the default engine, builds replicas; a
        ``.ridx2`` path joins them into one file, byte for byte the one
        the sequential build saves."""
        path = str(tmp_path / "impl3.ridx2")
        assert main(["index", corpus_dir, "--save", path]) == 0
        assert "RIDX2 with frequencies" in capsys.readouterr().out
        with open(path, "rb") as joined, open(ridx2_path, "rb") as flat:
            assert joined.read() == flat.read()


class TestSearchOndisk:
    def term(self, ridx2_path):
        from repro.index import MmapPostingsReader

        with MmapPostingsReader(ridx2_path) as reader:
            return next(reader.terms())

    def test_boolean_matches_in_memory(self, ridx2_path, capsys):
        term = self.term(ridx2_path)
        assert main(["search", ridx2_path, term]) == 0
        in_memory = capsys.readouterr().out
        assert main(["search", ridx2_path, term, "--ondisk"]) == 0
        out, err = capsys.readouterr()
        assert out == in_memory
        assert "blocks" in err

    def test_bm25_prints_scores(self, ridx2_path, capsys):
        term = self.term(ridx2_path)
        assert main(["search", ridx2_path, term, "--ondisk",
                     "--rank", "bm25", "--topk", "3"]) == 0
        out, _ = capsys.readouterr()
        lines = [line for line in out.splitlines() if line.strip()]
        assert 0 < len(lines) <= 3
        for line in lines:
            float(line.split()[0])  # leading score column

    def test_ondisk_rejects_non_ridx2(self, corpus_dir, tmp_path, capsys):
        save = str(tmp_path / "plain.ridx")
        # --binary: RIDX1, the non-RIDX2 case (.ridx alone means RIDX2).
        assert main(["index", corpus_dir, "--sequential",
                     "--save", save, "--binary"]) == 0
        assert "RIDX1" in capsys.readouterr().out
        assert main(["search", save, "anything", "--ondisk"]) == 2
        assert "RIDX2" in capsys.readouterr().err

    def test_in_memory_bm25_needs_frequency_source(
        self, ridx2_path, capsys
    ):
        assert main(["search", ridx2_path, "anything",
                     "--rank", "bm25"]) == 2
        assert "frequencies" in capsys.readouterr().err

    def test_in_memory_bm25_with_corpus(self, corpus_dir, ridx2_path,
                                        capsys):
        term = self.term(ridx2_path)
        assert main(["search", ridx2_path, term, "--rank", "bm25",
                     "--ranked", corpus_dir, "--topk", "3"]) == 0
        ondisk = capsys.readouterr()
        assert main(["search", ridx2_path, term, "--ondisk",
                     "--rank", "bm25", "--topk", "3"]) == 0
        # Same hits, same scores, either path.
        assert capsys.readouterr().out == ondisk.out

    def test_topk_must_be_positive(self, ridx2_path, capsys):
        assert main(["search", ridx2_path, "x", "--topk", "0"]) == 2
        assert "topk" in capsys.readouterr().err


class TestSearchRefusesABadQuery:
    """A malformed query, a phrase among them, is one error line and
    exit 2 on every search path, not a traceback."""

    @pytest.mark.parametrize("query, message", [
        ("cat AND (", "unexpected end of query"),
        ('"zipf data"',
         "phrase queries are not supported: no index stores term positions"),
    ])
    @pytest.mark.parametrize("ondisk", [False, True], ids=["memory", "ondisk"])
    @pytest.mark.parametrize("rank", ["bool", "bm25"])
    def test_exits_2_with_the_parse_error(
        self, corpus_dir, ridx2_path, capsys, monkeypatch, query, message,
        ondisk, rank
    ):
        argv = ["search", ridx2_path, query, "--rank", rank]
        if ondisk:
            argv.append("--ondisk")
        elif rank == "bm25":
            argv += ["--ranked", corpus_dir]
            # The query is parsed before the corpus is read at all.
            from repro.query import FrequencyIndex

            def no_corpus_read(*args, **kwargs):
                raise AssertionError("the corpus was read before the parse")

            monkeypatch.setattr(FrequencyIndex, "from_fs", no_corpus_read)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestServeOndisk:
    def test_serves_query_file(self, corpus_dir, ridx2_path, tmp_path,
                               capsys):
        from repro.index import MmapPostingsReader

        with MmapPostingsReader(ridx2_path) as reader:
            term = next(reader.terms())
        queries = tmp_path / "queries.txt"
        queries.write_text(f"# comment\n{term}\nNOT {term}\n")
        assert main(["serve", corpus_dir, "--index", ridx2_path,
                     "--ondisk", "--queries", str(queries)]) == 0
        out, err = capsys.readouterr()
        assert "[gen 0]" in out
        assert "served 2 query(ies)" in err
        assert "blocks" in err

    def test_serves_bm25(self, corpus_dir, ridx2_path, tmp_path, capsys):
        from repro.index import MmapPostingsReader

        with MmapPostingsReader(ridx2_path) as reader:
            term = next(reader.terms())
        queries = tmp_path / "queries.txt"
        queries.write_text(term + "\n")
        assert main(["serve", corpus_dir, "--index", ridx2_path,
                     "--ondisk", "--rank", "bm25", "--topk", "2",
                     "--queries", str(queries)]) == 0
        out, _ = capsys.readouterr()
        scored = [l for l in out.splitlines() if l.startswith("  ")]
        assert 0 < len(scored) <= 2

    def test_ondisk_needs_index(self, corpus_dir, capsys):
        assert main(["serve", corpus_dir, "--ondisk"]) == 2
        assert "--index" in capsys.readouterr().err

    def test_ondisk_rejects_watch(self, corpus_dir, ridx2_path, capsys):
        assert main(["serve", corpus_dir, "--index", ridx2_path,
                     "--ondisk", "--watch", "1"]) == 2
        assert "immutable" in capsys.readouterr().err

    def test_bm25_needs_ondisk(self, corpus_dir, capsys):
        assert main(["serve", corpus_dir, "--rank", "bm25"]) == 2
        assert "--ondisk" in capsys.readouterr().err


class TestBm25WithoutFrequencies:
    """A file ``refresh`` wrote carries no term frequencies: BM25 over
    it is refused with an ``error:`` line and exit status 2."""

    @pytest.fixture
    def plain_path(self, corpus_dir, tmp_path):
        path = str(tmp_path / "refreshed.ridx")
        assert main(["refresh", corpus_dir, "--index", path]) == 0
        return path

    def test_search_ondisk_bm25(self, plain_path, capsys):
        capsys.readouterr()
        assert main(["search", plain_path, "the", "--ondisk",
                     "--rank", "bm25"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "cannot rank" in err

    def test_serve_ondisk_bm25(self, corpus_dir, plain_path, tmp_path,
                               capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("the\n")
        capsys.readouterr()
        assert main(["serve", corpus_dir, "--index", plain_path,
                     "--ondisk", "--rank", "bm25",
                     "--queries", str(queries)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot rank" in err

    def test_boolean_search_still_served(self, plain_path, capsys):
        capsys.readouterr()
        assert main(["search", plain_path, "the", "--ondisk"]) == 0


class TestCutFile:
    """A file cut short — what a crash mid-save leaves — is refused at
    open with an ``error:`` line and exit status 2, not a traceback."""

    @pytest.fixture
    def cut_path(self, ridx2_path, tmp_path):
        with open(ridx2_path, "rb") as fh:
            data = fh.read()
        path = str(tmp_path / "cut.ridx2")
        with open(path, "wb") as fh:
            fh.write(data[: len(data) * 2 // 3])
        return path

    def test_search_ondisk(self, cut_path, capsys):
        assert main(["search", cut_path, "the", "--ondisk"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err

    def test_serve_ondisk(self, corpus_dir, cut_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("the\n")
        assert main(["serve", corpus_dir, "--index", cut_path,
                     "--ondisk", "--queries", str(queries)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated" in err
