"""The tunable configuration space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.engine.config import (
    BACKENDS,
    Implementation,
    ThreadConfig,
    enumerate_configs,
)


@dataclass(frozen=True)
class ConfigurationSpace:
    """Bounds of the (x, y, z) space for one implementation.

    ``max_extractors`` defaults follow the paper's sweeps: thread counts
    well beyond the measured optima but bounded (running 51,000-file
    builds at absurd thread counts teaches nothing).

    A space is scoped to one ``backend``.  With ``backend="process"``
    (Implementation 2 only) the y and z dimensions collapse — workers
    fuse extraction and update, so every point has y = 0, and the
    parent joins in one pass, so z = 1 — leaving a sweep over x.
    """

    implementation: Implementation
    max_extractors: int = 12
    max_updaters: int = 6
    max_joiners: int = 2
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.max_extractors < 1:
            raise ValueError("max_extractors must be at least 1")
        if self.max_updaters < 0 or self.max_joiners < 0:
            raise ValueError("bounds cannot be negative")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if (
            self.backend == "process"
            and self.implementation is not Implementation.REPLICATED_JOINED
        ):
            raise ValueError(
                "the process backend exists for Implementation 2 only, got "
                f"{self.implementation.paper_name}"
            )

    def __iter__(self) -> Iterator[ThreadConfig]:
        return enumerate_configs(
            self.implementation,
            self.max_extractors,
            self.max_updaters,
            self.max_joiners,
            backend=self.backend,
        )

    def configurations(self) -> List[ThreadConfig]:
        """All valid configurations, materialized."""
        return list(self)

    def contains(self, config: ThreadConfig) -> bool:
        """Whether ``config`` is valid and within bounds."""
        if config.backend != self.backend:
            return False
        try:
            config.validate_for(self.implementation)
        except ValueError:
            return False
        return (
            1 <= config.extractors <= self.max_extractors
            and 0 <= config.updaters <= self.max_updaters
            and config.joiners <= self.max_joiners
        )

    def neighbours(self, config: ThreadConfig) -> List[ThreadConfig]:
        """Valid configurations one +-1 step away in x, y or z."""
        result = []
        for dx, dy, dz in (
            (1, 0, 0), (-1, 0, 0),
            (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1),
        ):
            candidate = ThreadConfig(
                max(1, config.extractors + dx),
                max(0, config.updaters + dy),
                max(0, config.joiners + dz),
                backend=config.backend,
            )
            if candidate != config and self.contains(candidate):
                result.append(candidate)
        return result
