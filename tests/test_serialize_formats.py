"""The collapsed save/load pair: one ``format`` keyword, auto-sniffing.

``save_index``/``load_index`` subsume what used to be four entry
points.  Covered here: explicit ``"ridx2"``/``"binary"`` selection on
save (RIDX2 whatever the extension), magic-driven auto on load
(including raw RWIRE1 wire bytes and renamed files), the refusal of
the JSON-lines files older versions wrote (neither written nor read
any more), loud mismatch failures, and the removal of the ``*_binary``
aliases 3.0.0 had deprecated.
"""

from __future__ import annotations

import pytest

from repro.index import (
    INDEX_FORMATS,
    IndexFormatError,
    InvertedIndex,
    index_to_bytes,
    load_index,
    save_index,
)
from repro.text.termblock import TermBlock


@pytest.fixture
def index():
    built = InvertedIndex()
    built.add_block(TermBlock("a.txt", ("alpha", "shared")))
    built.add_block(TermBlock("b.txt", ("beta", "shared")))
    return built


#: ``index`` as the JSON-lines file older versions wrote, by hand.
LEGACY_JSON_LINES = (
    '{"format": "repro-index-v1", "terms": 3, "postings": 4, "blocks": 2}\n'
    '["alpha", ["a.txt"]]\n'
    '["shared", ["a.txt", "b.txt"]]\n'
    '["beta", ["b.txt"]]\n'
)


def write_legacy(path) -> int:
    """Write :data:`LEGACY_JSON_LINES` to ``path``; returns its size."""
    with open(path, "w", encoding="utf-8") as fh:
        return fh.write(LEGACY_JSON_LINES)


def refuses_legacy(path) -> None:
    """``load_index`` refuses a JSON-lines file, naming what it reads."""
    with pytest.raises(IndexFormatError) as excinfo:
        load_index(path)
    message = str(excinfo.value)
    assert "RIDX1, RIDX2, RWIRE1" in message and "JSON" not in message


class TestExplicitFormats:
    @pytest.mark.parametrize("format", ("json", "binary", "ridx2"))
    def test_round_trip(self, index, tmp_path, format):
        path = str(tmp_path / "out.dat")
        if format == "json":  # neither written nor read any more
            write_legacy(path)
            refuses_legacy(path)
            return
        written = save_index(index, path, format=format)
        assert written > 0
        assert load_index(path, format=format) == index

    def test_binary_is_smaller_than_json(self, index, tmp_path):
        json_written = len(LEGACY_JSON_LINES)
        binary_path = str(tmp_path / "b.dat")
        binary_written = save_index(index, binary_path, format="binary")
        assert binary_written < json_written

    def test_unknown_format_rejected(self, index, tmp_path):
        path = str(tmp_path / "out.dat")
        for refused in ("pickle", "json", "auto"):
            with pytest.raises(ValueError, match="format"):
                save_index(index, path, format=refused)
        save_index(index, path)
        for refused in ("pickle", "json"):
            with pytest.raises(ValueError, match="format"):
                load_index(path, format=refused)

    def test_formats_constant_is_the_contract(self):
        assert INDEX_FORMATS == ("binary", "ridx2", "auto")


class TestAutoSave:
    @pytest.mark.parametrize("name", ("out.ridx", "out.bin", "OUT.RIDX"))
    def test_binary_extensions_choose_binary(self, index, tmp_path, name):
        path = str(tmp_path / name)
        # Ids kept from when these extensions meant RIDX1: since 3.2.0
        # they mean the binary format a session opens in place, RIDX2;
        # RIDX1 is written on format="binary" only.
        save_index(index, path)
        with open(path, "rb") as fh:
            assert fh.read(5) == b"RIDX2"
        save_index(index, path, format="binary")
        with open(path, "rb") as fh:
            assert fh.read(5) == b"RIDX1"

    @pytest.mark.parametrize("name", ("out.ridx2", "OUT.RIDX2"))
    def test_ridx2_extension_chooses_ridx2(self, index, tmp_path, name):
        path = str(tmp_path / name)
        save_index(index, path)
        with open(path, "rb") as fh:
            assert fh.read(5) == b"RIDX2"
        assert load_index(path) == index

    @pytest.mark.parametrize("name", ("out.idx", "out.json", "out"))
    def test_other_extensions_choose_ridx2(self, index, tmp_path, name):
        # No extension picks a format: a save is RIDX2 unless told RIDX1.
        path = str(tmp_path / name)
        save_index(index, path)
        with open(path, "rb") as fh:
            assert fh.read(5) == b"RIDX2"


class TestAutoLoad:
    def test_sniffs_binary_despite_json_extension(self, index, tmp_path):
        # renamed files load fine: the magic decides, not the name
        path = str(tmp_path / "lying-name.idx")
        save_index(index, path, format="binary")
        assert load_index(path) == index

    def test_sniffs_json_despite_binary_extension(self, index, tmp_path):
        path = str(tmp_path / "lying-name.ridx")
        write_legacy(path)
        refuses_legacy(path)

    def test_loads_wire_bytes(self, index, tmp_path):
        path = str(tmp_path / "replica.ridx")
        with open(path, "wb") as fh:
            fh.write(index_to_bytes(index, format="wire"))
        assert load_index(path) == index


class TestMismatchesFailLoudly:
    def test_json_file_as_binary(self, index, tmp_path):
        path = str(tmp_path / "out.idx")
        write_legacy(path)
        with pytest.raises(ValueError):
            load_index(path, format="binary")

    def test_binary_file_as_json(self, index, tmp_path):
        path = str(tmp_path / "out.ridx")
        save_index(index, path, format="binary")
        with pytest.raises(ValueError, match="format"):
            load_index(path, format="json")


class TestRemovedAliases:
    """3.1.0 removed the per-format entry points 3.0.0 had deprecated."""

    def test_save_index_binary_is_gone(self):
        import repro.index
        import repro.index.binfmt

        assert not hasattr(repro.index, "save_index_binary")
        assert not hasattr(repro.index.binfmt, "save_index_binary")
        assert "save_index_binary" not in repro.index.__all__

    def test_load_index_binary_is_gone(self):
        import repro.index
        import repro.index.binfmt

        assert not hasattr(repro.index, "load_index_binary")
        assert not hasattr(repro.index.binfmt, "load_index_binary")
        assert "load_index_binary" not in repro.index.__all__
