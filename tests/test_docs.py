"""Documentation hygiene: the docs must not drift from the code.

These tests parse README.md / DESIGN.md / EXPERIMENTS.md and verify
that every module they reference exists, every example they advertise
is on disk (and vice versa), and the paper numbers they quote agree
with the single source of truth in ``repro.experiments.paper``.
"""

import importlib
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(REPO, name), encoding="utf-8") as fh:
        return fh.read()


class TestModuleReferences:
    @pytest.mark.parametrize("document", ["README.md", "DESIGN.md",
                                          "EXPERIMENTS.md"])
    def test_referenced_modules_importable(self, document):
        text = read(document)
        modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text))
        if document == "DESIGN.md":
            assert modules, "DESIGN.md must reference its modules"
        for module in sorted(modules):
            importlib.import_module(module)

    def test_design_benchmark_files_exist(self):
        text = read("DESIGN.md")
        for path in set(re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", text)):
            assert os.path.isfile(os.path.join(REPO, path)), path


class TestExamplesAdvertised:
    def test_every_example_in_readme(self):
        readme = read("README.md")
        examples = sorted(
            name for name in os.listdir(os.path.join(REPO, "examples"))
            if name.endswith(".py")
        )
        assert examples
        for name in examples:
            assert f"examples/{name}" in readme, (
                f"examples/{name} missing from README"
            )

    def test_no_phantom_examples_in_readme(self):
        readme = read("README.md")
        for mentioned in set(re.findall(r"examples/([a-z_]+\.py)", readme)):
            assert os.path.isfile(
                os.path.join(REPO, "examples", mentioned)
            ), f"README mentions nonexistent examples/{mentioned}"


class TestPaperNumbersConsistent:
    def test_experiments_quotes_paper_speedups(self):
        from repro.engine.config import Implementation
        from repro.experiments import PAPER_BEST

        text = read("EXPERIMENTS.md")
        for platform, entries in PAPER_BEST.items():
            for entry in entries.values():
                assert f"{entry.exec_time_s:.1f}" in text, (
                    f"paper time {entry.exec_time_s} for {platform} "
                    "not quoted in EXPERIMENTS.md"
                )

    def test_design_quotes_sequential_totals(self):
        from repro.experiments import PAPER_SEQUENTIAL

        text = read("DESIGN.md")
        for total in PAPER_SEQUENTIAL.values():
            assert f"{total:.0f}" in text or f"{total:.1f}" in text

    def test_paper_stage_times_quoted_in_experiments(self):
        from repro.experiments import PAPER_STAGE_TIMES

        text = read("EXPERIMENTS.md")
        for stages in PAPER_STAGE_TIMES.values():
            for value in stages:
                assert f"{value:.1f}" in text or f"{value:.0f}" in text


class TestRepoLayout:
    def test_deliverable_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "pyproject.toml", "docs/simulator.md",
                     "tools/reproduce.sh"):
            assert os.path.exists(os.path.join(REPO, name)), name

    def test_version_is_single_sourced(self):
        """pyproject.toml carries no version of its own: the one the
        package is built with is ``repro.__version__``."""
        tomllib = pytest.importorskip("tomllib")
        import repro

        with open(os.path.join(REPO, "pyproject.toml"), "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        source = pyproject["tool"]["setuptools"]["dynamic"]["version"]
        assert source == {"attr": "repro.__version__"}
        assert repro.__version__.split(".")[0] == "3"

    def test_every_package_has_docstring(self):
        import repro

        root = os.path.dirname(repro.__file__)
        for entry in sorted(os.listdir(root)):
            package_init = os.path.join(root, entry, "__init__.py")
            if os.path.isfile(package_init):
                module = importlib.import_module(f"repro.{entry}")
                assert module.__doc__, f"repro.{entry} lacks a docstring"

    def test_every_public_module_has_docstring(self):
        import repro

        root = os.path.dirname(repro.__file__)
        for dirpath, _, files in os.walk(root):
            for name in files:
                if not name.endswith(".py") or name.startswith("_"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                module_name = "repro." + rel[:-3].replace(os.sep, ".")
                module = importlib.import_module(module_name)
                assert module.__doc__, f"{module_name} lacks a docstring"
