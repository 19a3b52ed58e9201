"""Positional index for phrase queries.

The boolean inverted index answers "which files contain these terms";
a phrase query (``"parallel software design"``) also needs *where* —
consecutive positions.  :class:`PositionalIndex` stores per (term,
file) the ordered list of token positions, built in one scan, and
resolves phrases by intersecting position lists with offsets.

Kept separate from :class:`~repro.index.inverted.InvertedIndex`: the
paper's system is boolean, and positions roughly triple index size, so
they are an opt-in sidecar (like the ranking frequencies).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.adt import FnvHashMap


class PositionalIndex:
    """term -> {path: sorted token positions}."""

    def __init__(self) -> None:
        self._positions: FnvHashMap[Dict[str, List[int]]] = FnvHashMap()
        self._document_count = 0

    @property
    def document_count(self) -> int:
        """Number of indexed documents."""
        return self._document_count

    def add_document(self, path: str, terms_in_order: Sequence[str]) -> None:
        """Index a document from its term sequence (duplicates and order
        preserved — positions are indices into this sequence)."""
        for position, term in enumerate(terms_in_order):
            per_doc = self._positions.setdefault(term, {})
            per_doc.setdefault(path, []).append(position)
        self._document_count += 1

    def positions(self, term: str, path: str) -> List[int]:
        """Sorted positions of ``term`` in ``path`` (empty if absent)."""
        per_doc = self._positions.get(term)
        return list(per_doc.get(path, ())) if per_doc else []

    def paths_containing(self, term: str) -> List[str]:
        """Documents containing ``term``."""
        per_doc = self._positions.get(term)
        return list(per_doc.keys()) if per_doc else []

    def phrase_paths(self, words: Sequence[str]) -> List[str]:
        """Documents containing the words *consecutively*, sorted.

        Candidate documents are the intersection of the words' document
        sets (rarest word first); each candidate is then verified by
        offset-intersecting the position lists.
        """
        if not words:
            return []
        if len(words) == 1:
            return sorted(self.paths_containing(words[0]))

        doc_sets = []
        for word in words:
            per_doc = self._positions.get(word)
            if not per_doc:
                return []
            doc_sets.append(set(per_doc.keys()))
        candidates = set.intersection(*doc_sets)

        matches = []
        for path in candidates:
            starts = set(self.positions(words[0], path))
            for offset, word in enumerate(words[1:], start=1):
                starts &= {
                    p - offset for p in self.positions(word, path)
                }
                if not starts:
                    break
            if starts:
                matches.append(path)
        return sorted(matches)

    @classmethod
    def from_fs(
        cls,
        fs,
        *,
        root: str = "",
        extractor=None,
    ) -> "PositionalIndex":
        """Build a positional index by scanning a filesystem."""
        from repro.extract.registry import resolve_extractor

        extractor = resolve_extractor(extractor)
        index = cls()
        for ref in fs.list_files(root):
            content = fs.read_file(ref.path)
            index.add_document(ref.path, extractor.terms(ref.path, content))
        return index
