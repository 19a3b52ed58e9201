"""Per-file duplicate elimination.

Terms typically appear many times in a document; the extractor collapses
them with an FNV hash set (the paper's choice) before the index update.
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
