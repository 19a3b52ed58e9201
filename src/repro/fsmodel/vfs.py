"""In-memory filesystem with a path-based API.

``VirtualFileSystem`` wraps a :class:`~repro.fsmodel.nodes.VirtualDirectory`
tree behind the same protocol :class:`~repro.fsmodel.realfs.OsFileSystem`
offers: ``write_file``, ``mkdir``, ``read_file``, ``file_size``,
``list_files`` — everything the index generator's stages 1 and 2 need.

Paths are POSIX-style, relative to the filesystem root (``"docs/a.txt"``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

from repro.fsmodel.nodes import FileRef, VirtualDirectory, VirtualFile


def _split(path: str) -> List[str]:
    parts = [p for p in path.strip("/").split("/") if p]
    if any(p in (".", "..") for p in parts):
        raise ValueError(f"path may not contain '.' or '..': {path!r}")
    return parts


class VirtualFileSystem:
    """A complete in-memory filesystem rooted at a virtual directory."""

    def __init__(self) -> None:
        self.root = VirtualDirectory()
        # Logical modification clock: bumped on every mutation so
        # (size, mtime) fingerprints behave like a real filesystem's
        # stat-based change detection.
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    # -- construction -------------------------------------------------

    def mkdir(self, path: str, parents: bool = False) -> None:
        """Create a directory; with ``parents`` create missing ancestors."""
        parts = _split(path)
        if not parts:
            raise ValueError("cannot create the root directory")
        node = self.root
        for part in parts[:-1]:
            child = node.entries.get(part)
            if child is None:
                if not parents:
                    raise FileNotFoundError(f"missing parent directory: {part!r}")
                child = node.add_directory(part)
            if not isinstance(child, VirtualDirectory):
                raise NotADirectoryError(part)
            node = child
        node.add_directory(parts[-1])

    def write_file(self, path: str, content: bytes) -> None:
        """Create a file (parents must exist); raises if it exists."""
        parts = _split(path)
        if not parts:
            raise ValueError("empty file path")
        directory = self._resolve_directory(parts[:-1])
        node = directory.add_file(parts[-1], content)
        node.mtime = self._tick()

    def replace_file(self, path: str, content: bytes) -> None:
        """Overwrite an existing file's content."""
        parts = _split(path)
        directory = self._resolve_directory(parts[:-1])
        name = parts[-1]
        if not isinstance(directory.entries.get(name), VirtualFile):
            raise FileNotFoundError(path)
        directory.entries[name] = VirtualFile(content, mtime=self._tick())

    def remove_file(self, path: str) -> None:
        """Delete a file."""
        parts = _split(path)
        directory = self._resolve_directory(parts[:-1])
        name = parts[-1]
        if not isinstance(directory.entries.get(name), VirtualFile):
            raise FileNotFoundError(path)
        del directory.entries[name]

    # -- queries -------------------------------------------------------

    def exists(self, path: str) -> bool:
        """True when a file or directory exists at ``path``."""
        try:
            self._resolve(_split(path))
            return True
        except (FileNotFoundError, NotADirectoryError):
            return False

    def is_dir(self, path: str) -> bool:
        """True when ``path`` names a directory."""
        try:
            return isinstance(self._resolve(_split(path)), VirtualDirectory)
        except (FileNotFoundError, NotADirectoryError):
            return False

    def read_file(self, path: str) -> bytes:
        """Content of the file at ``path``."""
        node = self._resolve(_split(path))
        if not isinstance(node, VirtualFile):
            raise IsADirectoryError(path)
        return node.content

    def read_range(self, path: str, offset: int, length: int) -> bytes:
        """``length`` bytes of ``path`` starting at ``offset``."""
        return self.read_file(path)[offset : offset + length]

    def file_size(self, path: str) -> int:
        """Size in bytes of the file at ``path``."""
        return len(self.read_file(path))

    def stat(self, path: str) -> Tuple[int, int]:
        """(size, mtime stamp) of the file at ``path`` without reading it.

        The stamp is this filesystem's logical clock value at the file's
        last write — comparable only within one filesystem instance,
        exactly like ``st_mtime_ns`` is comparable only within one host.
        """
        node = self._resolve(_split(path))
        if not isinstance(node, VirtualFile):
            raise IsADirectoryError(path)
        return (node.size, node.mtime)

    def listdir(self, path: str = "") -> List[str]:
        """Entry names of the directory at ``path`` (root by default)."""
        node = self._resolve(_split(path)) if path else self.root
        if not isinstance(node, VirtualDirectory):
            raise NotADirectoryError(path)
        return list(node.entries)

    def list_files(self, path: str = "") -> Iterator[FileRef]:
        """Stage 1: every file under ``path``, depth-first, as FileRefs
        stamped with the value :meth:`stat` returns."""
        start = self._resolve(_split(path)) if path else self.root
        if not isinstance(start, VirtualDirectory):
            raise NotADirectoryError(path)
        prefix = "/".join(_split(path))
        stack: List[Tuple[str, VirtualDirectory]] = [(prefix, start)]
        while stack:
            base, directory = stack.pop()
            subdirs = []
            for name, node in directory.entries.items():
                child_path = f"{base}/{name}" if base else name
                if isinstance(node, VirtualFile):
                    yield FileRef(child_path, node.size, node.mtime)
                else:
                    subdirs.append((child_path, node))
            # Reversed so the left-most subtree is visited first.
            stack.extend(reversed(subdirs))

    # -- internals -----------------------------------------------------

    def _resolve(self, parts: List[str]) -> Union[VirtualDirectory, VirtualFile]:
        node: Union[VirtualDirectory, VirtualFile] = self.root
        for part in parts:
            if not isinstance(node, VirtualDirectory):
                raise NotADirectoryError(part)
            if part not in node.entries:
                raise FileNotFoundError("/".join(parts))
            node = node.entries[part]
        return node

    def _resolve_directory(self, parts: List[str]) -> VirtualDirectory:
        node = self._resolve(parts)
        if not isinstance(node, VirtualDirectory):
            raise NotADirectoryError("/".join(parts))
        return node
