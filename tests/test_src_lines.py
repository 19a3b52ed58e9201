"""``tools/src_lines.py``: the count ROADMAP quotes, and the ceiling."""

from __future__ import annotations

import importlib.util
import os

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "src_lines.py",
)
_spec = importlib.util.spec_from_file_location("tools_src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_counts_newlines_of_python_files_only(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text("one\ntwo\n")
    (tmp_path / "pkg" / "b.py").write_text("three\nno newline at the end")
    (tmp_path / "pkg" / "notes.md").write_text("not\ncounted\n")
    assert src_lines.count_lines(str(tmp_path)) == 3
    assert src_lines.main(["--root", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"


def test_exits_1_only_above_the_recorded_number(tmp_path, capsys):
    (tmp_path / "a.py").write_text("one\ntwo\n")
    ceiling = tmp_path / "lines.max"
    ceiling.write_text("2  after some change\n")
    arguments = ["--root", str(tmp_path), "--max-from", str(ceiling)]
    assert src_lines.main(arguments) == 0
    ceiling.write_text("1\n")
    assert src_lines.main(arguments) == 1
    assert "raise the number" in capsys.readouterr().err
