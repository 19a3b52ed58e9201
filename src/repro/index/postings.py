"""Postings lists.

A postings list is the sequence of file paths a term occurs in.  The
en-bloc update discipline guarantees each file is appended at most once
per index, so the list needs no internal de-duplication — but
:meth:`PostingsList.contains` still offers the linear duplicate search
the paper's analysis talks about, for the naive update path.  It *is*
a ``list`` (one object per term): append, extend, iteration and length
run in C.
"""

from __future__ import annotations

from typing import List


class PostingsList(list):
    """An append-only list of file paths for one term: equal to another
    with the same paths in any order, never to a plain ``list``."""

    __slots__ = ()

    def contains(self, path: str) -> bool:
        """Linear duplicate search — the cost the en-bloc design avoids."""
        return path in self

    def remove(self, path: str) -> bool:
        """Remove one occurrence of ``path``; True if it was present.

        Linear, like :meth:`contains` — removal only happens on the
        incremental-maintenance path, never during bulk builds.
        """
        try:
            super().remove(path)
            return True
        except ValueError:
            return False

    def paths(self) -> List[str]:
        """A copy of the stored paths, in insertion order."""
        return list(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingsList):
            return False
        return sorted(self) == sorted(other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __repr__(self) -> str:
        return f"PostingsList({list(self)!r})"
