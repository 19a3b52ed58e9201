"""Pluggable extraction pipelines.

An :class:`Extractor` composes format conversion and tokenization into
one unit — the seam every engine now shares (``Search(extractor=...)``,
``repro-cli --extractor {ascii,code,tsv}``).  :class:`ExtractorSpec` is
its picklable description for the process-worker boundary.  See
``docs/extraction.md``.
"""

from repro.extract.ascii import AsciiExtractor
from repro.extract.base import Extractor, ExtractorSpec
from repro.extract.code import CodeExtractor, CodeTokenizer
from repro.extract.registry import (
    available_extractors,
    extractor_class,
    get_extractor,
    register_extractor,
    resolve_extractor,
)
from repro.extract.tsv import TsvExtractor

__all__ = [
    "AsciiExtractor",
    "CodeExtractor",
    "CodeTokenizer",
    "Extractor",
    "ExtractorSpec",
    "TsvExtractor",
    "available_extractors",
    "extractor_class",
    "get_extractor",
    "register_extractor",
    "resolve_extractor",
]
