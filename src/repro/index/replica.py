"""Wire-ready index replicas for worker processes.

A multiprocessing worker cannot hand live :class:`InvertedIndex`
objects back to its parent — everything that crosses the process
boundary is bytes.  :class:`ReplicaBuilder` therefore keeps a replica
in exactly the shape the RWIRE1 wire format wants:

* paths are interned to dense doc ids the moment a file is added, so
  each path string is stored once per replica;
* postings are ``array('I')`` doc-id arrays, appended in scan order;
* :meth:`to_bytes` is then just a handful of bulk joins
  (:func:`repro.index.binfmt.pack_wire_sections`) — no per-posting
  work at serialization time.

Appending a doc id costs the same as appending a path reference, so
interning is free at build time; the payoff is that serialization and
the parent's merge both run at C speed.  The builder also fuses
duplicate elimination into the update (:meth:`add_scan`): a worker
pipes the tokenizer straight in and never materializes a term block.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List

from repro.index.binfmt import load_index_wire, pack_wire_sections
from repro.index.inverted import InvertedIndex
from repro.text.termblock import TermBlock


class ReplicaBuilder:
    """One worker's private index replica, built wire-ready."""

    __slots__ = ("_docs", "_postings", "_block_count")

    def __init__(self) -> None:
        self._docs: List[str] = []
        self._postings: Dict[str, "array[int]"] = {}
        self._block_count = 0

    # -- update paths ---------------------------------------------------

    def add_scan(self, path: str, terms: Iterable[str]) -> int:
        """Index one file from a raw (duplicate-bearing) term stream.

        Fuses the per-file duplicate elimination with the replica
        update: each distinct term gets the file's doc id appended to
        its postings array, first-seen order preserved.  Returns the
        number of distinct terms.
        """
        doc_id = len(self._docs)
        self._docs.append(path)
        self._block_count += 1
        postings = self._postings
        get = postings.get
        distinct = dict.fromkeys(terms)
        for term in distinct:
            ids = get(term)
            if ids is None:
                ids = postings[term] = array("I")
            ids.append(doc_id)
        return len(distinct)

    def add_block(self, block: TermBlock) -> None:
        """Index one pre-deduplicated term block (same contract as
        :meth:`InvertedIndex.add_block`)."""
        self.add_scan(block.path, block.terms)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct terms."""
        return len(self._postings)

    @property
    def doc_count(self) -> int:
        """Number of interned documents."""
        return len(self._docs)

    @property
    def block_count(self) -> int:
        """Number of files added."""
        return self._block_count

    @property
    def posting_count(self) -> int:
        """Total (term, file) pairs stored."""
        return sum(len(ids) for ids in self._postings.values())

    # -- conversions ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize into the RWIRE1 wire format."""
        postings = self._postings
        terms = list(postings)
        return pack_wire_sections(
            self._block_count,
            self._docs,
            terms,
            (len(postings[t]) for t in terms),
            (postings[t].tobytes() for t in terms),
        )

    def to_index(self) -> InvertedIndex:
        """Materialize a plain :class:`InvertedIndex` (test convenience)."""
        return load_index_wire(self.to_bytes())

    def __repr__(self) -> str:
        return (
            f"ReplicaBuilder(docs={self.doc_count}, terms={len(self)}, "
            f"postings={self.posting_count})"
        )
