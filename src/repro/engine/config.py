"""Implementation selection and thread-configuration tuples.

The paper describes every run by a tuple ``(x, y, z)``: the number of
threads used in term extraction, index update, and index join.  A
``y`` of 0 means the extractors update the index inline rather than
passing term blocks through a buffer to dedicated updater threads.

A configuration additionally names its **backend**: ``"thread"`` runs
the tuple on Python threads (the paper's design, GIL-bound), while
``"process"`` runs Implementation 2 across OS worker processes
(:class:`repro.engine.procbackend.ProcessReplicatedIndexer`) — ``x``
worker processes, no separate updater stage (extract and update are
fused inside each worker), one parent-side joiner (``z = 1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterator, Tuple

BACKENDS = ("thread", "process")


class Implementation(enum.Enum):
    """The three index-sharing designs compared in the paper."""

    SHARED_LOCKED = 1
    REPLICATED_JOINED = 2
    REPLICATED_UNJOINED = 3

    @property
    def paper_name(self) -> str:
        """The label used in the paper's tables."""
        return f"Implementation {self.value}"

    @property
    def joins(self) -> bool:
        """Whether this design has a join phase."""
        return self is Implementation.REPLICATED_JOINED


@dataclass(frozen=True)
class ThreadConfig:
    """The (x, y, z) worker-count tuple of a run, plus its backend."""

    extractors: int
    updaters: int = 0
    joiners: int = 0
    backend: str = "thread"

    def __post_init__(self) -> None:
        for name in ("extractors", "updaters", "joiners"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}"
                )
        if self.extractors < 1:
            raise ValueError(
                "at least one extractor worker is required, "
                f"got x={self.extractors}"
            )
        if self.updaters < 0 or self.joiners < 0:
            raise ValueError(
                f"worker counts cannot be negative, got y={self.updaters}, "
                f"z={self.joiners}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )

    def validate_for(self, implementation: Implementation) -> None:
        """Reject tuples that make no sense for the given implementation.

        Implementations 1 and 3 never join (z must be 0); Implementation
        2 must join (z >= 1).  This matches the tuples the paper reports:
        e.g. (3, 5, 1) for Implementation 2, (3, 2, 0) for 3.

        The process backend only exists for Implementation 2 — it *is*
        the "Join Forces" design, the one whose stages 2-3 need no
        shared mutable state — and it fuses extraction and update
        inside each worker, so ``y`` must be 0.  It joins in the parent
        in one bulk pass, so ``z`` must be 1: the paper's reduction
        tree is the threaded Implementation 2's.
        """
        if self.backend == "process":
            if implementation is not Implementation.REPLICATED_JOINED:
                raise ValueError(
                    "the process backend implements Implementation 2 "
                    "(replicated + joined) semantics only, got "
                    f"{implementation.paper_name}"
                )
            if self.updaters != 0:
                raise ValueError(
                    "the process backend fuses extraction and index update "
                    "inside each worker process; there is no cross-process "
                    f"updater stage, so y must be 0 (got y={self.updaters})"
                )
            if self.joiners > 1:
                raise ValueError(
                    "the process backend joins the worker replicas in one "
                    f"pass, so z must be 1 (got z={self.joiners}); run the "
                    "threaded Implementation 2 for the paper's pairwise "
                    "reduction tree"
                )
        if implementation.joins:
            if self.joiners < 1:
                raise ValueError(
                    f"{implementation.paper_name} joins replicas and needs "
                    f"at least one joiner thread, got z={self.joiners}"
                )
        elif self.joiners != 0:
            raise ValueError(
                f"{implementation.paper_name} never joins; z must be 0, "
                f"got z={self.joiners}"
            )
        if (
            implementation is not Implementation.SHARED_LOCKED
            and self.replica_count < 2
        ):
            raise ValueError(
                f"{implementation.paper_name} replicates the index and needs "
                f"at least two replicas; config {self} yields "
                f"{self.replica_count} (a single-replica run degenerates to "
                "an unshared single-index build)"
            )

    @property
    def replica_count(self) -> int:
        """Number of index replicas a replicated design builds.

        One per updater thread, or one per extractor when extractors
        update inline (y = 0).
        """
        return self.updaters if self.updaters > 0 else self.extractors

    @property
    def uses_buffer(self) -> bool:
        """Whether term blocks flow through a buffer to updater threads."""
        return self.updaters > 0

    @property
    def total_threads(self) -> int:
        """Worker threads/processes across all stages (joiners included)."""
        return self.extractors + self.updaters + self.joiners

    def as_tuple(self) -> Tuple[int, int, int]:
        """The (x, y, z) tuple as the paper prints it."""
        return (self.extractors, self.updaters, self.joiners)

    def with_backend(self, backend: str) -> "ThreadConfig":
        """This tuple on another backend (validated by construction)."""
        if backend == self.backend:
            return self
        return replace(self, backend=backend)

    def __str__(self) -> str:
        tuple_text = f"({self.extractors}, {self.updaters}, {self.joiners})"
        if self.backend == "thread":
            return tuple_text
        return f"{tuple_text}[{self.backend}]"


def enumerate_configs(
    implementation: Implementation,
    max_extractors: int,
    max_updaters: int,
    max_joiners: int = 2,
    backend: str = "thread",
) -> Iterator[ThreadConfig]:
    """All valid (x, y, z) tuples within the given bounds.

    This is the configuration space the paper swept ("Any combination of
    thread counts ... was run 5 times on each system") and the domain of
    the auto-tuner.  With ``backend="process"`` the y > 0 tuples drop
    out automatically (the process backend has no updater stage).
    """
    if max_extractors < 1:
        raise ValueError("max_extractors must be at least 1")
    joiner_range = range(1, max_joiners + 1) if implementation.joins else (0,)
    for x in range(1, max_extractors + 1):
        for y in range(0, max_updaters + 1):
            for z in joiner_range:
                config = ThreadConfig(x, y, z, backend=backend)
                try:
                    config.validate_for(implementation)
                except ValueError:
                    continue
                yield config
