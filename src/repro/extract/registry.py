"""Extractor registry and the one resolution seam for engines.

``register_extractor`` / ``get_extractor`` map short names (the CLI's
``--extractor {ascii,code,tsv}``) to extractor classes;
:func:`resolve_extractor` is the single helper every engine constructor
funnels through, so ``extractor=`` resolves identically everywhere.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from repro.extract.ascii import AsciiExtractor
from repro.extract.base import Extractor
from repro.extract.code import CodeExtractor
from repro.extract.tsv import TsvExtractor

_FACTORIES: Dict[str, Type[Extractor]] = {}


def register_extractor(name: str, factory: Type[Extractor]) -> None:
    """Register an extractor class under ``name`` (last wins)."""
    if not name:
        raise ValueError("extractor name must be non-empty")
    _FACTORIES[name] = factory


def extractor_class(name: str) -> Type[Extractor]:
    """The registered class for ``name``; KeyError with choices if unknown."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown extractor {name!r}; available: "
            f"{', '.join(available_extractors())}"
        ) from None


def get_extractor(name: str, *, registry=None) -> Extractor:
    """Build a registered extractor by name, with its default tokenizer."""
    cls = extractor_class(name)
    if registry is None:
        return cls()
    return cls(registry=registry)


def available_extractors() -> Tuple[str, ...]:
    """Registered extractor names, sorted (for CLI choices / errors)."""
    return tuple(sorted(_FACTORIES))


def resolve_extractor(extractor=None) -> Extractor:
    """The engine seam: one extractor from the ``extractor=`` kwarg.

    ``extractor`` may be an :class:`Extractor` instance (returned as
    is), a registered name (built with its defaults), or ``None`` (the
    default :class:`AsciiExtractor`).
    """
    if extractor is None:
        return AsciiExtractor()
    if isinstance(extractor, Extractor):
        return extractor
    if isinstance(extractor, str):
        return get_extractor(extractor)
    raise TypeError(
        f"extractor must be an Extractor, a registered name, or None, "
        f"not {type(extractor).__name__}"
    )


register_extractor("ascii", AsciiExtractor)
register_extractor("code", CodeExtractor)
register_extractor("tsv", TsvExtractor)
