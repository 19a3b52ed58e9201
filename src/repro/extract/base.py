"""The Extractor protocol and its picklable spec.

"How does file content become index terms" is one seam: an
:class:`Extractor` composes the whole pipeline — format conversion
(*prepare*, an optional :class:`~repro.formats.base.FormatRegistry`)
followed by tokenization (a :class:`~repro.text.tokenizer.Tokenizer`) —
into one pluggable unit, and :class:`ExtractorSpec` is its picklable
description at the process-worker boundary.

The two-stage structure is load-bearing for error attribution: engines
call :meth:`Extractor.prepare` and :meth:`Extractor.tokenize`
separately so a failure can still be pinned to the *extract* stage vs
the *tokenize* stage (the skip-policy ``FileFailure`` contract from the
fault-tolerance work).  :meth:`Extractor.term_block` is the one-shot
face for callers that don't need staging.

Extractors also describe their own huge-file splittability (see
:mod:`repro.extract.split`): :attr:`Extractor.boundary_bytes` is the
set of bytes a file may be cut at without changing the term stream, and
:meth:`Extractor.splittable` gates splitting to files whose *prepare*
stage commutes with chunking (identity for plain text, line-local for
TSV — an HTML file cannot be cut mid-tag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.formats.base import FormatRegistry
from repro.text.dedup import dedup_terms
from repro.text.termblock import TermBlock
from repro.text.tokenizer import Tokenizer


@dataclass(frozen=True)
class ExtractorSpec:
    """A picklable description of an :class:`Extractor`.

    This is what crosses the process-worker boundary: plain data plus
    the format registry carried *by value*, so a worker reconstructs
    the exact extraction pipeline with ``spec.build()``.  ``kind``
    names a registered extractor class (see
    :mod:`repro.extract.registry`); ``options`` holds extractor-specific
    settings as sorted ``(key, value)`` pairs so specs stay hashable and
    comparable.
    """

    kind: str = "ascii"
    min_length: int = 2
    max_length: int = 64
    stopwords: Tuple[str, ...] = ()
    registry: Optional[FormatRegistry] = None
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.min_length < 1:
            raise ValueError("min_length must be at least 1")
        if self.max_length < self.min_length:
            raise ValueError("max_length must be >= min_length")

    def build(self) -> "Extractor":
        """Reconstruct the extractor this spec describes."""
        from repro.extract.registry import extractor_class

        return extractor_class(self.kind).from_spec(self)

    def option(self, key: str, default=None):
        for name, value in self.options:
            if name == key:
                return value
        return default


class Extractor:
    """One pluggable extraction pipeline: *prepare* then *tokenize*.

    Subclasses set :attr:`name` (the registry key) and override the
    stages they change; the base class implements the common ASCII
    pipeline so :class:`~repro.extract.ascii.AsciiExtractor` is pure
    declaration.  Instances are cheap, stateless between calls, and
    safe to share across threads; for processes, ship :meth:`spec`.
    """

    #: Registry key; subclasses must override.
    name: str = "abstract"

    def __init__(
        self,
        tokenizer: Optional[Tokenizer] = None,
        registry: Optional[FormatRegistry] = None,
    ) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.registry = registry

    # -- the two stages -------------------------------------------------

    def prepare(self, path: str, content: bytes) -> bytes:
        """Format conversion: raw file bytes to tokenizable text.

        With a registry this is format detection + text extraction
        (HTML tags stripped, etc.); without one it is the identity.
        Engines call this as the *extract* stage so failures here keep
        their stage attribution.
        """
        if self.registry is not None:
            return self.registry.extract_text(path, content)
        return content

    def tokenize(self, content: bytes) -> List[str]:
        """Terms of prepared ``content``, in order, with duplicates."""
        return self.tokenizer.tokenize(content)

    # -- composed faces -------------------------------------------------

    def terms(self, path: str, content: bytes) -> List[str]:
        """prepare + tokenize in one call."""
        return self.tokenize(self.prepare(path, content))

    def term_block(self, path: str, content: bytes) -> TermBlock:
        """The file's de-duplicated term block, ready for ``add_block``."""
        return TermBlock(path=path, terms=dedup_terms(self.terms(path, content)))

    # -- huge-file splitting --------------------------------------------

    @property
    def boundary_bytes(self) -> frozenset:
        """Bytes a file may be cut at without changing the term stream.

        For run-of-word-bytes tokenizers that is every separator byte:
        cutting at a separator can never land inside a term.
        """
        return frozenset(range(256)) - self.tokenizer.word_bytes

    def splittable(self, path: str, head: bytes = b"") -> bool:
        """Whether this file may be chunk-split for parallel extraction.

        Only true when :meth:`prepare` commutes with chunking.  With a
        format registry that means the detected format must be the
        identity transform (plain text); ``head`` is the leading bytes
        of the file for magic sniffing.  Formats that transform content
        globally (HTML, DocZ) make chunk boundaries meaningless, so
        those files always extract whole.
        """
        if self.registry is None:
            return True
        from repro.formats.plain import PlainTextFormat

        return isinstance(self.registry.detect(path, head), PlainTextFormat)

    def chunk_terms(self, data: bytes) -> List[str]:
        """Terms of one boundary-aligned chunk (see ``extract.split``).

        Splitting is gated on :meth:`prepare` being the identity, so
        the base implementation tokenizes directly — deliberately NOT
        re-running format detection on a mid-file chunk, whose leading
        bytes could sniff as the wrong format.
        """
        return self.tokenize(data)

    # -- worker boundary ------------------------------------------------

    def spec(self) -> ExtractorSpec:
        """The picklable description; ``spec().build()`` round-trips."""
        return ExtractorSpec(
            kind=self.name,
            min_length=self.tokenizer.min_length,
            max_length=self.tokenizer.max_length,
            stopwords=tuple(sorted(self.tokenizer.stopwords)),
            registry=self.registry,
            options=self._options(),
        )

    def _options(self) -> Tuple[Tuple[str, object], ...]:
        """Extractor-specific spec options; subclasses override."""
        return ()

    @classmethod
    def from_spec(cls, spec: ExtractorSpec) -> "Extractor":
        """Construct from a spec (inverse of :meth:`spec`)."""
        return cls(
            tokenizer=cls._tokenizer_class()(
                min_length=spec.min_length,
                max_length=spec.max_length,
                stopwords=spec.stopwords,
            ),
            registry=spec.registry,
        )

    @classmethod
    def _tokenizer_class(cls):
        return Tokenizer

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tokenizer={self.tokenizer!r})"


# Re-exported for TermBlock/dedup symmetry at the package face.
__all__ = ["Extractor", "ExtractorSpec"]
