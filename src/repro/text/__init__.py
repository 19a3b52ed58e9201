"""Stage 2 text processing: scanning, term extraction, de-duplication.

Three levels of processing, matching the paper's measurements:

* :func:`empty_scan` — "a loop that simply reads each file byte by
  byte, but without any term extraction"; the paper uses it to measure
  pure read cost ("read files" in Table 1);
* :class:`Tokenizer` — extracts ASCII terms from file content
  ("read files and extract terms");
* :func:`extract_term_block` — tokenization plus FNV-hash-set
  de-duplication, producing the per-file :class:`TermBlock` that is
  inserted into the index *en bloc*; the product's stage 2 builds the
  same list de-duplicating first (:meth:`Tokenizer.distinct_terms`).
"""

from repro.text.scanner import empty_scan
from repro.text.stopwords import derive_stopwords
from repro.text.termblock import TermBlock
from repro.text.tokenizer import Tokenizer
from repro.text.dedup import dedup_terms, extract_term_block

__all__ = [
    "TermBlock",
    "Tokenizer",
    "dedup_terms",
    "derive_stopwords",
    "empty_scan",
    "extract_term_block",
]
