"""The inverted index.

Maps term -> :class:`~repro.index.postings.PostingsList` inside an
:class:`~repro.adt.FnvHashMap` when grown key by key (the reproduction),
or inside the read-only ``dict`` the product assembled it in
(:meth:`InvertedIndex.from_postings`).  The index itself is *not*
thread-safe; concurrency policy (a shared lock, replication, buffering)
is exactly what the three implementations in :mod:`repro.engine` differ
in, so it is layered on top rather than baked in.
"""

from __future__ import annotations

from typing import Iterator, List, MutableMapping, Tuple

from repro.adt import FnvHashMap
from repro.index.postings import PostingsList
from repro.text.termblock import TermBlock


class InvertedIndex:
    """Term -> postings mapping with en-bloc and naive update paths."""

    def __init__(self) -> None:
        self._map: MutableMapping[str, PostingsList] = FnvHashMap()
        self._block_count = 0

    @classmethod
    def from_postings(
        cls, postings: MutableMapping[str, List[str]], block_count: int = 0
    ) -> "InvertedIndex":
        """The index holding ``postings``, assembled at once.

        The product's stage 3 (builds, refresh deltas, joins, merges,
        loaders).  The lists are adopted and the dict becomes the map:
        nothing is copied or hashed with FNV, so the caller stops using
        ``postings``.  Read-only: the update paths below belong to an
        index grown key by key from ``InvertedIndex()``.
        """
        adopt = PostingsList.adopt
        for term, paths in postings.items():
            postings[term] = adopt(paths)
        index = cls.__new__(cls)
        index._map = postings
        index._block_count = block_count
        return index

    # -- update paths ---------------------------------------------------

    def add_block(self, block: TermBlock) -> None:
        """En-bloc update: append ``block.path`` to each term's postings.

        Because the block is de-duplicated and every file is scanned
        exactly once, no (term, file) duplicate check is performed —
        this is the paper's chosen design.  Each term costs exactly one
        FNV hash and one bucket walk (``get_or_insert``); a fresh
        postings list is only allocated for terms not seen before.
        """
        path = block.path
        get_or_insert = self._map.get_or_insert
        for term in block.terms:
            get_or_insert(term, PostingsList).append(path)
        self._block_count += 1

    def add_term_naive(self, term: str, path: str) -> bool:
        """Naive per-occurrence update with a linear duplicate search.

        Returns True when the (term, path) pair was new.  This is the
        rejected design the paper analyses (and the code path its slow
        sequential baseline pays for): every occurrence re-searches the
        postings list for the file.
        """
        postings = self._map.get_or_insert(term, PostingsList)
        if postings.contains(path):
            return False
        postings.append(path)
        return True

    # -- queries ---------------------------------------------------------

    def lookup(self, term: str) -> List[str]:
        """Paths of the files containing ``term`` (empty list if none)."""
        postings = self._map.get(term)
        return postings.paths() if postings is not None else []

    def __contains__(self, term: str) -> bool:
        return term in self._map

    def __len__(self) -> int:
        """Number of distinct terms."""
        return len(self._map)

    def terms(self) -> Iterator[str]:
        """All distinct terms, in map order (FNV buckets or insertion)."""
        return self._map.keys()

    def items(self) -> Iterator[Tuple[str, PostingsList]]:
        """All (term, postings) pairs, in map order."""
        return self._map.items()

    @property
    def block_count(self) -> int:
        """Number of term blocks added via the en-bloc path."""
        return self._block_count

    @property
    def posting_count(self) -> int:
        """Total number of (term, file) pairs stored."""
        return sum(len(p) for p in self._map.values())

    def subset(self, keep) -> "InvertedIndex":
        """A new index holding only postings whose path is in ``keep``.

        The document-partitioning primitive: a shard's index is the
        full index restricted to the shard's documents.  Posting order
        within a term is preserved, terms whose postings all fall
        outside ``keep`` are dropped entirely, and the source index is
        untouched.  ``keep`` can be any container supporting ``in``
        (pass a set/frozenset; a list would make this quadratic).
        """
        sub = InvertedIndex()
        for term, postings in self.items():
            kept = [path for path in postings.paths() if path in keep]
            if kept:
                sub._map[term] = PostingsList(kept)
        return sub

    def copy(self) -> "InvertedIndex":
        """A deep, read-only copy: fresh postings lists, shared strings."""
        postings = {term: paths.paths() for term, paths in self.items()}
        return InvertedIndex.from_postings(postings, self._block_count)

    def __eq__(self, other: object) -> bool:
        """Content equality: same terms with the same posting sets."""
        if not isinstance(other, InvertedIndex):
            return NotImplemented
        if len(self) != len(other):
            return False
        for term, postings in self.items():
            theirs = other._map.get(term)
            if theirs is None or postings != theirs:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(terms={len(self)}, postings={self.posting_count}, "
            f"blocks={self._block_count})"
        )
