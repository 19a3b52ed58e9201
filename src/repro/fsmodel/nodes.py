"""Node types of the in-memory directory tree.

A :class:`VirtualDirectory` holds named children (files and directories);
a :class:`VirtualFile` holds its content as bytes.  :class:`FileRef` is
the lightweight (path, size, stamp) record that stage 1 produces and
that the work-distribution strategies operate on — both filesystem
backends emit the same type so the rest of the pipeline is
backend-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Union


@dataclass(frozen=True)
class FileRef:
    """A filename as produced by stage 1: path, size in bytes, stamp.

    Size and stamp come from the walk's one stat of the file.  The size
    rides along because the size-balanced distribution strategy and the
    simulator's cost model both need it without re-statting; the stamp
    (``st_mtime_ns`` on disk, the VFS's logical clock in memory, 0 when
    the backend cannot stat) is the one every fingerprint records, so no
    later pass stats the file again.  Equality and hashing are on
    ``(path, size)`` alone.
    """

    path: str
    size: int
    stamp: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file size must be non-negative, got {self.size}")


class VirtualFile:
    """A file node: immutable content bytes plus a modification stamp.

    ``mtime`` is a logical counter, not wall-clock time: the owning
    filesystem bumps a monotonic tick on every write/replace so change
    detection can use (size, mtime) the way a real FS uses ``st_mtime``.
    """

    __slots__ = ("content", "mtime")

    def __init__(self, content: bytes = b"", mtime: int = 0) -> None:
        if not isinstance(content, (bytes, bytearray)):
            raise TypeError("VirtualFile content must be bytes")
        self.content = bytes(content)
        self.mtime = mtime

    @property
    def size(self) -> int:
        """Content length in bytes."""
        return len(self.content)

    def __repr__(self) -> str:
        return f"VirtualFile(size={self.size})"


@dataclass
class VirtualDirectory:
    """A directory node: a name->child mapping.

    Children are kept in insertion order; traversal order over a given
    tree is therefore deterministic, which the round-robin distribution
    tests rely on.
    """

    entries: Dict[str, Union["VirtualDirectory", VirtualFile]] = field(
        default_factory=dict
    )

    def add_file(self, name: str, content: bytes) -> VirtualFile:
        """Create a file child; raises if the name is taken."""
        self._check_name(name)
        node = VirtualFile(content)
        self.entries[name] = node
        return node

    def add_directory(self, name: str) -> "VirtualDirectory":
        """Create a subdirectory child; raises if the name is taken."""
        self._check_name(name)
        node = VirtualDirectory()
        self.entries[name] = node
        return node

    def files(self) -> Iterator[str]:
        """Names of direct file children."""
        for name, node in self.entries.items():
            if isinstance(node, VirtualFile):
                yield name

    def directories(self) -> Iterator[str]:
        """Names of direct subdirectory children."""
        for name, node in self.entries.items():
            if isinstance(node, VirtualDirectory):
                yield name

    def _check_name(self, name: str) -> None:
        if not name or "/" in name:
            raise ValueError(f"invalid entry name: {name!r}")
        if name in self.entries:
            raise FileExistsError(f"entry already exists: {name!r}")
