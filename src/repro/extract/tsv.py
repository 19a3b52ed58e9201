"""TSV / structured-field extraction.

Structured corpora (the MS MARCO style: one record per line, fields
separated by tabs) carry columns that should not be indexed — numeric
ids, URLs, labels.  The TSV extractor's *prepare* stage selects the
wanted columns from each line before tokenization; ``columns=None``
indexes every field.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.extract.base import Extractor, ExtractorSpec


class TsvExtractor(Extractor):
    """Tab-separated records; ``columns`` picks the indexed fields."""

    name = "tsv"

    def __init__(
        self,
        tokenizer=None,
        registry=None,
        columns: Optional[Tuple[int, ...]] = None,
    ) -> None:
        # A format registry makes no sense here: the tab structure IS
        # the format, and registry conversion would destroy it.
        super().__init__(tokenizer=tokenizer, registry=None)
        if columns is not None:
            columns = tuple(columns)
            if any(c < 0 for c in columns):
                raise ValueError("column indices must be non-negative")
        self.columns = columns

    def prepare(self, path: str, content: bytes) -> bytes:
        if self.columns is None:
            return content
        columns = self.columns
        out = []
        for line in content.split(b"\n"):
            fields = line.split(b"\t")
            out.append(b" ".join(fields[c] for c in columns if c < len(fields)))
        return b"\n".join(out)

    def _options(self) -> Tuple[Tuple[str, object], ...]:
        if self.columns is None:
            return ()
        return (("columns", self.columns),)

    @classmethod
    def from_spec(cls, spec: ExtractorSpec) -> "TsvExtractor":
        return cls(
            tokenizer=cls._tokenizer_class()(
                min_length=spec.min_length,
                max_length=spec.max_length,
                stopwords=spec.stopwords,
            ),
            columns=spec.option("columns"),
        )

    def __repr__(self) -> str:
        return f"TsvExtractor(columns={self.columns!r})"
