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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.formats.base import FormatRegistry
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

    def distinct_terms(self, content: bytes) -> List[str]:
        """Distinct terms of prepared ``content``, first-seen order:
        exactly ``list(dict.fromkeys(self.tokenize(content)))``.

        The product's stage 2 form
        (:meth:`~repro.text.tokenizer.Tokenizer.distinct_terms`); a
        subclass that overrides :meth:`tokenize` is de-duplicated after
        it, so its own tokenize still runs.
        """
        if type(self).tokenize is not Extractor.tokenize:
            return list(dict.fromkeys(self.tokenize(content)))
        return self.tokenizer.distinct_terms(content)

    # -- composed faces -------------------------------------------------

    def terms(self, path: str, content: bytes) -> List[str]:
        """prepare + tokenize in one call."""
        return self.tokenize(self.prepare(path, content))

    def term_block(self, path: str, content: bytes) -> TermBlock:
        """The file's de-duplicated term block, ready for ``add_block``.

        In :func:`~repro.text.dedup.dedup_terms`' first-seen order,
        through :meth:`distinct_terms`: this is the product's stage 2.
        """
        content = self.prepare(path, content)
        return TermBlock(path=path, terms=tuple(self.distinct_terms(content)))

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
