"""ASCII term extraction.

A term is a maximal run of letters and digits; everything else is a
separator.  Terms are lower-cased so searches are case-insensitive, and
terms shorter than ``min_length`` are dropped (single characters are
noise in desktop search).  The tokenizer works on bytes because stage 2
reads raw file content.

Fast path
---------

Extraction dominates build time (paper Table 1), so the hot path is
*vectorized*: a precompiled 256-byte :func:`bytes.translate` table maps
every separator byte to a single delimiter (space) **and** folds
``A-Z`` to ``a-z`` in the same pass; the result is pure ASCII, so it
is decoded once and :meth:`str.split` yields the lower-cased word runs
— every loop runs in C instead of per-byte Python.  Length filtering, ``max_length`` truncation and the
stopword check then touch only whole words.

The original per-byte loop survives as
:meth:`Tokenizer.iter_terms_slow`: it is the executable specification
the fast path is differential-tested against (see the hypothesis
property in ``tests/test_extract.py``), and the baseline the
``BENCH_extraction.json`` throughput bar is measured from.

``max_length`` aliasing
-----------------------

Truncation is a *projection*, not a bijection: two distinct runs longer
than ``max_length`` that share a prefix collapse to the same term
(``"x"*65`` and ``"x"*64 + "y"`` both become ``"x"*64`` under the
default limit).  This is deliberate — the limit exists so one base64
blob cannot blow up the index, and a truncated term is still findable
by its prefix — but it means the index cannot distinguish such runs.
The behaviour is pinned by a regression test so the fast path can never
silently diverge from it.
"""

from __future__ import annotations

from typing import Iterator, List

_WORD_BYTES = frozenset(
    b"abcdefghijklmnopqrstuvwxyz" b"ABCDEFGHIJKLMNOPQRSTUVWXYZ" b"0123456789"
)

#: Separator bytes: everything that is not a letter or digit.  Exposed
#: for the huge-file splitter, which may cut a file at any separator
#: without changing the extracted term stream.
SEPARATOR_BYTES = frozenset(range(256)) - _WORD_BYTES


def make_translation_table(
    word_bytes=_WORD_BYTES, delimiter: bytes = b" ", fold_case: bool = True
) -> bytes:
    """A 256-entry ``bytes.translate`` table: separators to
    ``delimiter``, ``A-Z`` to ``a-z`` (unless ``fold_case`` is off —
    the code tokenizer needs case intact to split camelCase), word
    bytes otherwise unchanged."""
    table = bytearray(delimiter * 256)
    for byte in word_bytes:
        if fold_case and 0x41 <= byte <= 0x5A:
            table[byte] = byte + 0x20  # A-Z folds to a-z in the same pass
        else:
            table[byte] = byte
    return bytes(table)


#: The default table for the default word-byte set, built once.
_ASCII_TABLE = make_translation_table()


class Tokenizer:
    """Extracts terms from byte content.

    ``min_length`` filters out very short tokens; ``max_length``
    truncates pathological runs (e.g. base64 blobs in text files) so a
    single garbage line cannot blow up the index — note the aliasing
    consequence documented in the module docstring; ``stopwords`` drops
    the given (lower-case) terms entirely — the classic index-size
    optimization, since the most frequent terms match nearly every
    file and carry no selectivity (see
    :func:`repro.text.stopwords.derive_stopwords`).
    """

    #: The translation table the fast path uses; subclasses with a
    #: different word-byte alphabet override this.
    _table: bytes = _ASCII_TABLE
    #: The word-byte alphabet, kept in sync with ``_table`` (the slow
    #: reference loop and the splitter's boundary set derive from it).
    word_bytes: frozenset = _WORD_BYTES

    def __init__(
        self,
        min_length: int = 2,
        max_length: int = 64,
        stopwords=None,
    ) -> None:
        if min_length < 1:
            raise ValueError("min_length must be at least 1")
        if max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        self.min_length = min_length
        self.max_length = max_length
        self.stopwords = frozenset(stopwords) if stopwords else frozenset()

    def tokenize(self, content: bytes) -> List[str]:
        """All terms of ``content`` in order of appearance (with duplicates).

        This is the vectorized fast path: one ``translate`` pass (fold
        case, map separators to space), one ``split``, then whole-word
        filtering.  Semantics are bit-for-bit those of
        :meth:`iter_terms_slow`.
        """
        min_length = self.min_length
        max_length = self.max_length
        # The translated buffer holds word bytes and spaces only, so it is
        # pure ASCII and one decode serves every word.
        words = content.translate(self._table).decode("ascii").split()
        if self.stopwords:
            stopwords = self.stopwords
            return [
                term
                for word in words
                if len(word) >= min_length
                and (term := word[:max_length]) not in stopwords
            ]
        return [word[:max_length] for word in words if len(word) >= min_length]

    def iter_terms(self, content: bytes) -> Iterator[str]:
        """Terms of ``content`` in order of appearance.

        Delegates to the vectorized :meth:`tokenize`; the iterator face
        is kept for the call sites that stream terms.
        """
        return iter(self.tokenize(content))

    def iter_terms_slow(self, content: bytes) -> Iterator[str]:
        """The original per-byte reference loop (executable spec).

        Kept verbatim so the fast path has an oracle: the hypothesis
        differential property asserts ``tokenize(c) ==
        list(iter_terms_slow(c))`` for arbitrary byte strings, and the
        extraction benchmark measures its speed-up against this.
        """
        word_bytes = self.word_bytes
        word = bytearray()
        for byte in content:
            if byte in word_bytes:
                word.append(byte)
            elif word:
                yield from self._emit(word)
                word = bytearray()
        if word:
            yield from self._emit(word)

    def _emit(self, word: bytearray) -> Iterator[str]:
        if len(word) >= self.min_length:
            term = bytes(word[: self.max_length]).decode("ascii").lower()
            if term not in self.stopwords:
                yield term

    def count_terms(self, content: bytes) -> int:
        """Number of terms without materializing them (for workload stats)."""
        if self.stopwords:
            return len(self.tokenize(content))
        min_length = self.min_length
        words = content.translate(self._table).split()
        return sum(1 for word in words if len(word) >= min_length)
