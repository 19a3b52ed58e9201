"""Tests for the filesystem substrate (nodes, VFS, traversal, stats)."""

import pytest

from repro.fsmodel import (
    CorpusStats,
    FileRef,
    VirtualDirectory,
    VirtualFile,
    VirtualFileSystem,
    collect_stats,
    walk_breadth_first,
    walk_depth_first,
)
from repro.fsmodel.stats import largest_files
from repro.fsmodel.traversal import count_nodes


class TestFileRef:
    def test_carries_path_and_size(self):
        ref = FileRef("a/b.txt", 42)
        assert ref.path == "a/b.txt" and ref.size == 42

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FileRef("x", -1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            FileRef("x", 1).size = 2

    def test_equality(self):
        assert FileRef("x", 1) == FileRef("x", 1)


class TestNodes:
    def test_file_size(self):
        assert VirtualFile(b"hello").size == 5

    def test_file_rejects_str(self):
        with pytest.raises(TypeError):
            VirtualFile("text")

    def test_directory_add_and_list(self):
        d = VirtualDirectory()
        d.add_file("a.txt", b"x")
        d.add_directory("sub")
        assert list(d.files()) == ["a.txt"]
        assert list(d.directories()) == ["sub"]

    def test_duplicate_name_rejected(self):
        d = VirtualDirectory()
        d.add_file("a", b"")
        with pytest.raises(FileExistsError):
            d.add_directory("a")

    def test_invalid_names_rejected(self):
        d = VirtualDirectory()
        with pytest.raises(ValueError):
            d.add_file("", b"")
        with pytest.raises(ValueError):
            d.add_file("a/b", b"")


class TestVirtualFileSystem:
    @pytest.fixture
    def fs(self):
        fs = VirtualFileSystem()
        fs.mkdir("docs")
        fs.mkdir("docs/work")
        fs.write_file("docs/a.txt", b"alpha")
        fs.write_file("docs/work/b.txt", b"beta content")
        fs.write_file("top.txt", b"t")
        return fs

    def test_read_file(self, fs):
        assert fs.read_file("docs/a.txt") == b"alpha"

    def test_file_size(self, fs):
        assert fs.file_size("docs/work/b.txt") == 12

    def test_exists(self, fs):
        assert fs.exists("docs")
        assert fs.exists("docs/a.txt")
        assert not fs.exists("nope")

    def test_is_dir(self, fs):
        assert fs.is_dir("docs")
        assert not fs.is_dir("docs/a.txt")
        assert not fs.is_dir("missing")

    def test_listdir(self, fs):
        assert set(fs.listdir("docs")) == {"work", "a.txt"}
        assert "top.txt" in fs.listdir()

    def test_list_files_returns_all(self, fs):
        paths = {ref.path for ref in fs.list_files()}
        assert paths == {"docs/a.txt", "docs/work/b.txt", "top.txt"}

    def test_list_files_sizes(self, fs):
        sizes = {ref.path: ref.size for ref in fs.list_files()}
        assert sizes["docs/a.txt"] == 5

    def test_list_files_subtree(self, fs):
        paths = {ref.path for ref in fs.list_files("docs")}
        assert paths == {"docs/a.txt", "docs/work/b.txt"}

    def test_mkdir_requires_parent(self):
        fs = VirtualFileSystem()
        with pytest.raises(FileNotFoundError):
            fs.mkdir("a/b")

    def test_mkdir_parents(self):
        fs = VirtualFileSystem()
        fs.mkdir("a/b/c", parents=True)
        assert fs.is_dir("a/b/c")

    def test_write_duplicate_rejected(self, fs):
        with pytest.raises(FileExistsError):
            fs.write_file("top.txt", b"again")

    def test_read_directory_rejected(self, fs):
        with pytest.raises(IsADirectoryError):
            fs.read_file("docs")

    def test_read_missing_rejected(self, fs):
        with pytest.raises(FileNotFoundError):
            fs.read_file("ghost.txt")

    def test_dotdot_rejected(self, fs):
        with pytest.raises(ValueError):
            fs.read_file("docs/../top.txt")

    def test_deterministic_order(self, fs):
        first = [ref.path for ref in fs.list_files()]
        second = [ref.path for ref in fs.list_files()]
        assert first == second


class TestTraversal:
    @pytest.fixture
    def tree(self):
        root = VirtualDirectory()
        root.add_file("r.txt", b"1")
        a = root.add_directory("a")
        a.add_file("a1.txt", b"22")
        b = a.add_directory("b")
        b.add_file("b1.txt", b"333")
        return root

    def test_dfs_visits_all(self, tree):
        paths = [p for p, _ in walk_depth_first(tree)]
        assert set(paths) == {"r.txt", "a/a1.txt", "a/b/b1.txt"}

    def test_bfs_visits_all(self, tree):
        paths = [p for p, _ in walk_breadth_first(tree)]
        assert set(paths) == {"r.txt", "a/a1.txt", "a/b/b1.txt"}

    def test_bfs_level_order(self, tree):
        paths = [p for p, _ in walk_breadth_first(tree)]
        assert paths.index("r.txt") < paths.index("a/a1.txt")
        assert paths.index("a/a1.txt") < paths.index("a/b/b1.txt")

    def test_prefix(self, tree):
        paths = [p for p, _ in walk_depth_first(tree, prefix="root")]
        assert all(p.startswith("root/") for p in paths)

    def test_count_nodes(self, tree):
        directories, files = count_nodes(tree)
        assert directories == 3  # root, a, b
        assert files == 3


class TestStats:
    def test_collect(self):
        refs = [FileRef("a", 10), FileRef("b", 30), FileRef("c", 20)]
        stats = collect_stats(refs)
        assert stats.file_count == 3
        assert stats.total_bytes == 60
        assert stats.min_size == 10
        assert stats.max_size == 30
        assert stats.mean_size == 20.0

    def test_empty(self):
        stats = collect_stats([])
        assert stats.file_count == 0
        assert stats.mean_size == 0.0

    def test_megabytes(self):
        stats = CorpusStats(1, 869_000_000, 1, 1)
        assert stats.total_megabytes == 869.0

    def test_largest_files(self):
        refs = [FileRef("a", 10), FileRef("b", 30), FileRef("c", 20)]
        top2 = largest_files(refs, 2)
        assert [r.path for r in top2] == ["b", "c"]

    def test_largest_ties_broken_by_path(self):
        refs = [FileRef("z", 10), FileRef("a", 10)]
        assert [r.path for r in largest_files(refs, 2)] == ["a", "z"]


class TestOsFileSystem:
    def test_round_trip(self, tmp_path):
        from repro.fsmodel import OsFileSystem

        fs = OsFileSystem(str(tmp_path))
        fs.mkdir("sub")
        fs.write_file("sub/f.txt", b"content")
        assert fs.read_file("sub/f.txt") == b"content"
        assert fs.file_size("sub/f.txt") == 7
        assert fs.exists("sub/f.txt")
        assert fs.is_dir("sub")
        refs = list(fs.list_files())
        assert [r.path for r in refs] == ["sub/f.txt"]
        assert refs[0].size == 7

    def test_scandir_listing_matches_the_per_entry_stat_listing(
        self, tmp_path
    ):
        """``list_files`` walks with ``os.scandir``; this is the listing
        it replaced (``listdir`` + ``isdir``/``isfile``/``getsize`` per
        entry), kept as the reference: same refs, same depth-first
        sorted order, symlinks followed, broken ones skipped."""
        import os

        from repro.fsmodel import FileRef, OsFileSystem

        def reference_listing(base, start):
            stack = [start]
            while stack:
                current = stack.pop()
                subdirs = []
                for name in sorted(os.listdir(current)):
                    full = os.path.join(current, name)
                    if os.path.isdir(full):
                        subdirs.append(full)
                    elif os.path.isfile(full):
                        rel = os.path.relpath(full, base)
                        yield FileRef(
                            rel.replace(os.sep, "/"), os.path.getsize(full)
                        )
                stack.extend(reversed(subdirs))

        root = tmp_path / "root"
        for directory in ("b/deep/deeper", "a", "empty", "b/void", "Z"):
            (root / directory).mkdir(parents=True)
        for name, content in {
            "top.txt": b"top",
            "a/one.txt": b"1",
            "a/two.txt": b"22",
            "b/deep/x.txt": b"x" * 10,
            "b/deep/deeper/y.txt": b"",
            "b/b.txt": b"bb",
            "Z/upper.txt": b"sorts before lower-case",
            "a.txt": b"a file next to directory a",
        }.items():
            (root / name).write_bytes(content)
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / "far.txt").write_bytes(b"via a linked dir")
        os.symlink(root / "top.txt", root / "link-to-file")
        os.symlink(tmp_path / "outside", root / "a" / "link-to-dir")
        os.symlink(root / "nowhere", root / "broken-link")

        fs = OsFileSystem(str(root))
        listed = list(fs.list_files())
        assert listed == list(reference_listing(fs.base, fs.base))
        assert FileRef("link-to-file", 3) in listed
        assert FileRef("a/link-to-dir/far.txt", 16) in listed
        assert not any("broken" in ref.path for ref in listed)
        assert not any("empty" in ref.path for ref in listed)
        # A sub-tree listing keeps root-relative paths.
        assert list(fs.list_files("b")) == list(
            reference_listing(fs.base, os.path.join(fs.base, "b"))
        )
        assert [r.path for r in fs.list_files("b")] == [
            "b/b.txt",
            "b/deep/x.txt",
            "b/deep/deeper/y.txt",
        ]

    def test_escape_rejected(self, tmp_path):
        from repro.fsmodel import OsFileSystem

        fs = OsFileSystem(str(tmp_path))
        with pytest.raises(ValueError):
            fs.read_file("../outside.txt")

    def test_missing_root_rejected(self, tmp_path):
        from repro.fsmodel import OsFileSystem

        with pytest.raises(NotADirectoryError):
            OsFileSystem(str(tmp_path / "ghost"))

    def test_duplicate_write_rejected(self, tmp_path):
        from repro.fsmodel import OsFileSystem

        fs = OsFileSystem(str(tmp_path))
        fs.write_file("f", b"1")
        with pytest.raises(FileExistsError):
            fs.write_file("f", b"2")

    def test_sorted_deterministic_order(self, tmp_path):
        from repro.fsmodel import OsFileSystem

        fs = OsFileSystem(str(tmp_path))
        for name in ("c.txt", "a.txt", "b.txt"):
            fs.write_file(name, b"x")
        assert [r.path for r in fs.list_files()] == ["a.txt", "b.txt", "c.txt"]
