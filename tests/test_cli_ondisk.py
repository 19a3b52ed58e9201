"""CLI coverage for the on-disk serving path.

``index`` saving ``.ridx2`` (with frequencies baked in, one file from
any engine), ``search`` over a saved RIDX2 file (boolean and BM25 off
its frequencies through ``Search.open``, plus the block-skip report),
a malformed query's exit 2 on every search path, ``serve --index``
over a query file, the flag-conflict rejections, and the old
``--ondisk`` / ``--ranked`` flags being gone.
"""

from __future__ import annotations

import json
import os
import shutil

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
        """The flagless build is the product's (``Search.build``), and
        Implementation 3 builds replicas that a ``.ridx2`` path joins
        into one file: each file is byte for byte the one the
        sequential build saves."""
        for flags, label in (([], "Search.build"),
                             (["-i", "3"], "Implementation 3")):
            path = str(tmp_path / "default.ridx2")
            assert main(["index", corpus_dir, *flags, "--save", path]) == 0
            out = capsys.readouterr().out
            assert out.startswith(label) and "RIDX2 with frequencies" in out
            with open(path, "rb") as built, open(ridx2_path, "rb") as flat:
                assert built.read() == flat.read()


class TestSearchOndisk:
    def term(self, ridx2_path):
        from repro.index import MmapPostingsReader

        with MmapPostingsReader(ridx2_path) as reader:
            return next(reader.terms())

    def test_boolean_matches_in_memory(self, corpus_dir, ridx2_path,
                                       tmp_path, capsys):
        """The mapped RIDX2 file answers as the same index loaded in
        memory (an RIDX1 file) does, and reports its blocks."""
        ridx1 = str(tmp_path / "memory.ridx")
        assert main(["index", corpus_dir, "--sequential", "--binary",
                     "--save", ridx1]) == 0
        term = self.term(ridx2_path)
        for query in (term, f"NOT {term}", f"{term[:2]}*"):
            capsys.readouterr()
            assert main(["search", ridx1, query]) == 0
            in_memory = capsys.readouterr()
            assert main(["search", ridx2_path, query]) == 0
            out, err = capsys.readouterr()
            assert out == in_memory.out
            assert "blocks" in err and "blocks" not in in_memory.err

    def test_bm25_prints_scores(self, ridx2_path, capsys):
        term = self.term(ridx2_path)
        assert main(["search", ridx2_path, term,
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
        # An RIDX1 file stores no frequencies: it answers, but cannot rank.
        assert main(["search", save, "anything", "--rank", "bm25"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "RIDX2" in err

    def test_in_memory_bm25_needs_frequency_source(
        self, corpus_dir, tmp_path, capsys
    ):
        """An index loaded in memory — an RIDX1 file, a replica
        directory — stores no term frequencies, so BM25 is refused."""
        for name, flags in (("memory.ridx", ["--sequential", "--binary"]),
                            ("replicas", ["-i", "3"])):
            save = str(tmp_path / name)
            assert main(["index", corpus_dir, *flags, "--save", save]) == 0
            capsys.readouterr()
            assert main(["search", save, "anything", "--rank", "bm25"]) == 2
            assert "frequencies" in capsys.readouterr().err

    def test_in_memory_bm25_with_corpus(self, corpus_dir, ridx2_path,
                                        capsys):
        """BM25 off the file's frequencies ranks as the in-memory ranker
        over the corpus does: same hits, same printed scores."""
        from repro.fsmodel import OsFileSystem
        from repro.index import load_index
        from repro.query import (
            BM25Ranker, FrequencyIndex, QueryEngine, search_bm25,
        )

        term = self.term(ridx2_path)
        hits = search_bm25(
            QueryEngine(load_index(ridx2_path)),
            BM25Ranker(FrequencyIndex.from_fs(OsFileSystem(corpus_dir))),
            term, topk=3,
        )
        assert main(["search", ridx2_path, term, "--rank", "bm25",
                     "--topk", "3"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{hit.score:8.3f}  {hit.path}\n" for hit in hits
        )

    def test_topk_must_be_positive(self, ridx2_path, capsys):
        assert main(["search", ridx2_path, "x", "--topk", "0"]) == 2
        assert "topk" in capsys.readouterr().err


class TestSearchRefusesABadQuery:
    """A malformed query, a phrase among them, is one error line and
    exit 2 on every search path, not a traceback, and before any index
    is read: an index loaded in memory (RIDX1, which cannot rank) and
    a mapped RIDX2 file alike."""

    @pytest.mark.parametrize("query, message", [
        ("cat AND (", "unexpected end of query"),
        ('"zipf data"',
         "phrase queries are not supported: no index stores term positions"),
    ])
    @pytest.mark.parametrize("ondisk", [False, True], ids=["memory", "ondisk"])
    @pytest.mark.parametrize("rank", ["bool", "bm25"])
    def test_exits_2_with_the_parse_error(
        self, corpus_dir, ridx2_path, tmp_path, capsys, monkeypatch, query,
        message, ondisk, rank
    ):
        path = ridx2_path
        if not ondisk:
            path = str(tmp_path / "memory.ridx")
            assert main(["index", corpus_dir, "--sequential", "--binary",
                         "--save", path]) == 0
            capsys.readouterr()
        from repro.api import Search

        def no_index_read(*args, **kwargs):
            raise AssertionError("the index was read before the parse")

        monkeypatch.setattr(Search, "open", no_index_read)
        assert main(["search", path, query, "--rank", rank]) == 2
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
                     "--queries", str(queries)]) == 0
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
                     "--rank", "bm25", "--topk", "2",
                     "--queries", str(queries)]) == 0
        out, _ = capsys.readouterr()
        scored = [l for l in out.splitlines() if l.startswith("  ")]
        assert 0 < len(scored) <= 2

    def test_ondisk_is_no_longer_a_flag(self, capsys):
        """Every saved index goes through ``Search.open``: the private
        doors ``--ondisk`` and ``--ranked`` are gone."""
        for argv in (["search", "x.ridx2", "q", "--ondisk"],
                     ["search", "x.ridx2", "q", "--ranked", "corpus"],
                     ["serve", "corpus", "--index", "x.ridx2", "--ondisk"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_ondisk_rejects_watch(self, corpus_dir, ridx2_path, capsys):
        """BM25 ranks the saved file as it is: a watch or a compactor
        would change the index under it."""
        for flag in ("--watch", "--compact-every"):
            assert main(["serve", corpus_dir, "--index", ridx2_path,
                         "--rank", "bm25", flag, "1"]) == 2
            assert "immutable" in capsys.readouterr().err

    def test_bm25_needs_ondisk(self, corpus_dir, capsys):
        """A session built in memory cannot rank: BM25 needs the saved
        RIDX2 file (``--index``) or the shards."""
        assert main(["serve", corpus_dir, "--rank", "bm25"]) == 2
        assert "--index" in capsys.readouterr().err


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
        assert main(["search", plain_path, "the", "--rank", "bm25"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and "cannot rank" in err

    def test_serve_ondisk_bm25(self, corpus_dir, plain_path, tmp_path,
                               capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("the\n")
        capsys.readouterr()
        assert main(["serve", corpus_dir, "--index", plain_path,
                     "--rank", "bm25", "--queries", str(queries)]) == 2
        out, err = capsys.readouterr()
        # Refused up front: no query was answered.
        assert out == "" and err.startswith("error:") and "cannot rank" in err

    def test_boolean_search_still_served(self, plain_path, capsys):
        capsys.readouterr()
        assert main(["search", plain_path, "the"]) == 0


class TestCutFile:
    """A file cut short — what a crash mid-save leaves — is refused at
    open with one ``error:`` line and exit status 2, not a traceback."""

    @pytest.fixture
    def cut_path(self, ridx2_path, tmp_path):
        with open(ridx2_path, "rb") as fh:
            data = fh.read()
        path = str(tmp_path / "cut.ridx2")
        with open(path, "wb") as fh:
            fh.write(data[: len(data) * 2 // 3])
        return path

    def test_search_ondisk(self, cut_path, capsys):
        assert main(["search", cut_path, "the"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "truncated" in err

    def test_serve_ondisk(self, corpus_dir, cut_path, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("the\n")
        assert main(["serve", corpus_dir, "--index", cut_path,
                     "--queries", str(queries)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error:") and "truncated" in err


class TestUnchangedRefreshKeepsTheFile:
    """A refresh that changes nothing saves the opened file as it is:
    the same bytes, term frequencies included, so BM25 still ranks."""

    def test_bytes_state_and_bm25_hits_survive(
        self, corpus_dir, ridx2_path, tmp_path, capsys
    ):
        from repro.index import MmapPostingsReader
        from repro.index.binfmt import parse_ridx2_header

        path = str(tmp_path / "t.ridx2")
        with open(ridx2_path, "rb") as fh:
            saved = fh.read()
        with open(path, "wb") as fh:
            fh.write(saved)
        with MmapPostingsReader(path) as reader:
            term = next(reader.terms())
        ranked = ["search", path, term, "--rank", "bm25"]
        capsys.readouterr()
        assert main(ranked) == 0
        hits = capsys.readouterr().out
        assert hits
        for _ in range(2):  # a reconciling refresh, then one from state
            assert main(["refresh", corpus_dir, "--index", path]) == 0
            assert "+0 added, -0 removed, ~0 modified" in (
                capsys.readouterr().out
            )
            with open(path, "rb") as fh:
                assert fh.read() == saved
            with open(path + ".state", encoding="utf-8") as fh:
                state = json.load(fh)
            assert state["index"] == parse_ridx2_header(saved).crc32
        assert main(ranked) == 0
        assert capsys.readouterr().out == hits


def files_read(out: str) -> int:
    """The ``segments.files_read`` counter a ``--stats`` digest prints."""
    (line,) = [
        line for line in out.splitlines()
        if line.strip().startswith("segments.files_read =")
    ]
    return int(line.split("=")[1])


class TestIndexSavesItsState:
    """``index --save F.ridx2`` leaves the build's fingerprints beside
    the file, as ``Search.save`` does, so the first ``refresh`` reads
    only what changed; without them it reads every file once."""

    def test_the_first_refresh_reads_only_the_delta(
        self, corpus_dir, tmp_path, capsys, fresh_metrics
    ):
        corpus = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, corpus)
        path = str(tmp_path / "t.ridx2")
        assert main(["index", corpus, "--sequential", "--save", path]) == 0
        assert os.path.exists(path + ".state")
        with open(path, "rb") as fh:
            saved = fh.read()
        refresh = ["refresh", corpus, "--index", path, "--stats"]
        capsys.readouterr()
        assert main(refresh) == 0
        out = capsys.readouterr().out
        assert "+0 added, -0 removed, ~0 modified" in out
        assert files_read(out) == 0
        with open(path, "rb") as fh:
            assert fh.read() == saved
        victim = sorted(
            os.path.join(root, name)
            for root, _, names in os.walk(corpus) for name in names
        )[0]
        with open(victim, "a", encoding="utf-8") as fh:
            fh.write(" zyzzyva\n")
        assert main(refresh) == 0
        out = capsys.readouterr().out
        assert "~1 modified" in out and files_read(out) == 1

    def test_without_a_state_every_file_is_read_once(
        self, corpus_dir, ridx2_path, tmp_path, capsys, fresh_metrics
    ):
        path = str(tmp_path / "t.ridx2")
        shutil.copyfile(ridx2_path, path)  # the index, not its state
        count = sum(len(names) for _, _, names in os.walk(corpus_dir))
        capsys.readouterr()
        assert main(["refresh", corpus_dir, "--index", path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "+0 added, -0 removed, ~0 modified" in out
        assert files_read(out) == count


#: stdout of the saved-index doors over one fixed corpus, recorded while
#: they were ``search F Q --ondisk``, ``search F Q --ondisk --rank bm25
#: --topk 5`` and ``serve DIR --index F --ondisk [--rank bm25]``.
with open(os.path.join(os.path.dirname(__file__),
                       "golden_cli_saved_index.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    """The recorded corpus, its sequential ``.ridx2`` save and the query
    file: ``(corpus, index, queries)``."""
    root = tmp_path_factory.mktemp("golden")
    corpus, index = str(root / "corpus"), str(root / "index.ridx2")
    assert main(["generate-corpus", corpus, "--scale", "0.001",
                 "--seed", "7"]) == 0
    assert main(["index", corpus, "--sequential", "--save", index]) == 0
    queries = root / "queries.txt"
    queries.write_text("\n".join(GOLDEN["queries"]) + "\n")
    return corpus, index, str(queries)


class TestGoldenStdout:
    """The flagless doors, through ``Search.open``, print what the
    ``--ondisk`` doors printed, byte for byte; a damaged file is one
    ``error:`` line and exit 2 through ``search``, ``serve`` and
    ``refresh``, which leaves it as it is."""

    def test_search(self, golden_files, capsys):
        _, index, _ = golden_files
        capsys.readouterr()
        for query in GOLDEN["queries"]:
            assert main(["search", index, query]) == 0
            assert capsys.readouterr().out == GOLDEN["search"][query]
            assert main(["search", index, query, "--rank", "bm25",
                         "--topk", "5"]) == 0
            assert capsys.readouterr().out == GOLDEN["search_bm25"][query]

    @pytest.mark.parametrize("rank", ["bool", "bm25"])
    def test_serve(self, golden_files, capsys, rank):
        corpus, index, queries = golden_files
        capsys.readouterr()
        assert main(["serve", corpus, "--index", index, "--rank", rank,
                     "--queries", queries]) == 0
        key = "serve" if rank == "bool" else "serve_bm25"
        assert capsys.readouterr().out == GOLDEN[key]

    @pytest.mark.parametrize("damage", ["cut", "flipped", "revision-2"])
    def test_a_damaged_file_is_one_error_line(
        self, golden_files, tmp_path, capsys, damage
    ):
        corpus, index, queries = golden_files
        with open(index, "rb") as fh:
            data = bytearray(fh.read())
        if damage == "cut":
            data = data[: len(data) // 2]
        elif damage == "flipped":
            data[len(data) // 2] ^= 0x10
        else:
            data[5] = 2  # the revision byte
        path = str(tmp_path / "damaged.ridx2")
        with open(path, "wb") as fh:
            fh.write(data)
        capsys.readouterr()
        for argv in (["search", path, GOLDEN["queries"][0]],
                     ["serve", corpus, "--index", path,
                      "--queries", queries],
                     ["refresh", corpus, "--index", path]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"error: {path}: ")
        with open(path, "rb") as fh:
            assert fh.read() == data
        assert not os.path.exists(path + ".state")
