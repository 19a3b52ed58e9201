"""Per-file duplicate elimination, the reproduction's way.

Terms typically appear many times in a document; the paper's extractor
collapses them with an FNV hash set before the index update, and so do
the threaded Implementations 1-3 and ``measure_stage_times``.  The
product's builds and refreshes keep the same first-seen order with a
native dict (:meth:`repro.extract.Extractor.term_block`).
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.adt import FnvHashSet
from repro.text.termblock import TermBlock
from repro.text.tokenizer import Tokenizer


def dedup_terms(terms: Iterable[str]) -> Tuple[str, ...]:
    """Distinct terms in first-seen order, de-duplicated via FnvHashSet."""
    return tuple(FnvHashSet().add_all(terms))


def extract_term_block(path: str, content: bytes, tokenizer: Tokenizer) -> TermBlock:
    """Scan ``content`` and build the file's condensed term block."""
    return TermBlock(path=path, terms=dedup_terms(tokenizer.iter_terms(content)))
