"""Adapter exposing the real OS filesystem behind the VFS protocol.

The threaded engine (:mod:`repro.engine`) is backend-agnostic; pointing
it at an ``OsFileSystem`` indexes actual on-disk directories, which is
how the real-corpus benchmarks run.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Tuple

from repro.fsmodel.nodes import FileRef


class OsFileSystem:
    """Real-filesystem backend rooted at ``base`` (all paths relative)."""

    def __init__(self, base: str) -> None:
        self.base = os.path.abspath(base)
        if not os.path.isdir(self.base):
            raise NotADirectoryError(self.base)

    def _full(self, path: str) -> str:
        full = os.path.normpath(os.path.join(self.base, path))
        if not full.startswith(self.base):
            raise ValueError(f"path escapes the filesystem root: {path!r}")
        return full

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory under the root."""
        if parents:
            os.makedirs(self._full(path), exist_ok=False)
        else:
            os.mkdir(self._full(path))

    def write_file(self, path: str, content: bytes) -> None:
        """Create a file under the root; parents must exist."""
        full = self._full(path)
        if os.path.exists(full):
            raise FileExistsError(path)
        with open(full, "wb") as fh:
            fh.write(content)

    def replace_file(self, path: str, content: bytes) -> None:
        """Overwrite an existing file's content."""
        full = self._full(path)
        if not os.path.isfile(full):
            raise FileNotFoundError(path)
        with open(full, "wb") as fh:
            fh.write(content)

    def remove_file(self, path: str) -> None:
        """Delete a file."""
        full = self._full(path)
        if not os.path.isfile(full):
            raise FileNotFoundError(path)
        os.remove(full)

    def exists(self, path: str) -> bool:
        """True when a file or directory exists at ``path``."""
        return os.path.exists(self._full(path))

    def is_dir(self, path: str) -> bool:
        """True when ``path`` names a directory."""
        return os.path.isdir(self._full(path))

    def read_file(self, path: str) -> bytes:
        """Content of the file at ``path``."""
        with open(self._full(path), "rb") as fh:
            return fh.read()

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """``length`` bytes of ``path`` starting at ``offset``.

        The ranged read huge-file chunk extraction relies on: a worker
        pulls only its chunk instead of the whole giant file.
        """
        with open(self._full(path), "rb") as fh:
            fh.seek(offset)
            return fh.read(length)

    def file_size(self, path: str) -> int:
        """Size in bytes of the file at ``path``."""
        return os.path.getsize(self._full(path))

    def stat(self, path: str) -> Tuple[int, int]:
        """(size, mtime_ns) of the file at ``path`` without reading it."""
        st = os.stat(self._full(path))
        return (st.st_size, st.st_mtime_ns)

    def listdir(self, path: str = "") -> List[str]:
        """Entry names of the directory at ``path``."""
        return sorted(os.listdir(self._full(path)))

    def list_files(self, path: str = "") -> Iterator[FileRef]:
        """Stage 1: every file under ``path``, depth-first, as FileRefs
        stamped with ``st_mtime_ns``.

        Entries are visited in sorted order so repeated runs produce the
        same round-robin assignment.
        """
        start = self._full(path) if path else self.base
        prefix = len(os.path.join(self.base, ""))
        stack = [start]
        while stack:
            subdirs = []
            # One scandir per directory: the entry type comes with the
            # listing, so a regular file costs one stat (its size and
            # stamp) and a directory none.  Symlinks are followed,
            # broken ones skipped.
            with os.scandir(stack.pop()) as entries:
                for entry in sorted(entries, key=lambda e: e.name):
                    if entry.is_dir():
                        subdirs.append(entry.path)
                    elif entry.is_file():
                        st = entry.stat()
                        yield FileRef(
                            entry.path[prefix:].replace(os.sep, "/"),
                            st.st_size,
                            st.st_mtime_ns,
                        )
            stack.extend(reversed(subdirs))
