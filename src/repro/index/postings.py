"""Postings lists.

A postings list is the sequence of file paths a term occurs in.  The
en-bloc update discipline guarantees each file is appended at most once
per index, so the list needs no internal de-duplication — but
:meth:`PostingsList.contains` still offers the linear duplicate search
the paper's analysis talks about, for the naive update path.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional


class PostingsList:
    """An append-only list of file paths for one term."""

    __slots__ = ("_paths",)

    def __init__(self, paths: Optional[Iterable[str]] = None) -> None:
        self._paths: List[str] = list(paths) if paths is not None else []

    @classmethod
    def adopt(cls, paths: List[str]) -> "PostingsList":
        """A postings list that *is* ``paths``: the list is handed over,
        not copied, so its owner must stop using it."""
        postings = cls.__new__(cls)
        postings._paths = paths
        return postings

    def append(self, path: str) -> None:
        """Append a file path without any duplicate check (en-bloc path)."""
        self._paths.append(path)

    def contains(self, path: str) -> bool:
        """Linear duplicate search — the cost the en-bloc design avoids."""
        return path in self._paths

    def extend(self, other: "PostingsList") -> None:
        """Append all of ``other``'s paths (used by index joins)."""
        self._paths.extend(other._paths)

    def remove(self, path: str) -> bool:
        """Remove one occurrence of ``path``; True if it was present.

        Linear, like :meth:`contains` — removal only happens on the
        incremental-maintenance path, never during bulk builds.
        """
        try:
            self._paths.remove(path)
            return True
        except ValueError:
            return False

    def paths(self) -> List[str]:
        """A copy of the stored paths, in insertion order."""
        return list(self._paths)

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingsList):
            return NotImplemented
        return sorted(self._paths) == sorted(other._paths)

    def __repr__(self) -> str:
        return f"PostingsList({self._paths!r})"
