"""Fault-tolerance policy and failure records for index builds.

A real desktop corpus is hostile: files vanish between stage 1 and
stage 2, permissions deny reads, format converters choke on garbage,
and — for the process backend — whole worker processes can die or hang.
This module is the shared vocabulary every engine uses to talk about
those events:

* :data:`ERROR_POLICIES` — the per-file error policies: ``"strict"``
  (any file error aborts the build, the original behaviour) and
  ``"skip"`` (drop the file, record a :class:`FileFailure`, keep
  building), checked by :func:`check_on_error`;
* :class:`FileFailure` — one file the build could not index, as plain
  picklable data (it must cross the worker-process boundary);
* :class:`FaultPolicy` — the knobs of the process backend's recovery
  ladder: per-file policy, bounded retries with batch splitting, and an
  optional per-dispatch timeout for hang detection;
* :class:`PoolUnavailableError` — raised when a worker pool cannot be
  created at all, the signal to degrade to the threaded engine.

Everything here is dependency-free plain data so worker processes can
import it without dragging in engine machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

ERROR_POLICIES: Tuple[str, ...] = ("strict", "skip")

# Stages a per-file failure can be attributed to.  "worker" marks files
# lost to a crashed or hung worker process that also failed in-parent.
FAILURE_STAGES: Tuple[str, ...] = ("read", "extract", "tokenize", "worker")


def check_on_error(on_error: str) -> str:
    """``on_error``, once it names one of :data:`ERROR_POLICIES`."""
    if on_error not in ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}"
        )
    return on_error


class PoolUnavailableError(RuntimeError):
    """A worker pool could not be created (fork failure, start method
    unavailable, resource exhaustion).  Callers degrade to threads."""


@dataclass(frozen=True)
class FileFailure:
    """One file the build skipped, as picklable plain data."""

    path: str
    stage: str
    error: str
    error_type: str = ""

    @classmethod
    def from_exception(
        cls, path: str, stage: str, exc: BaseException
    ) -> "FileFailure":
        return cls(
            path=path,
            stage=stage,
            error=str(exc) or repr(exc),
            error_type=type(exc).__name__,
        )

    def __str__(self) -> str:
        return f"{self.path} [{self.stage}] {self.error_type}: {self.error}"


def reconcile_failures(
    failures: Iterable[FileFailure], succeeded_paths: Set[str]
) -> List[FileFailure]:
    """Failure records consistent with what actually landed in the index.

    The process backend's recovery ladder can touch one file more than
    once (a batch that errors, then succeeds when retried after a
    split).  A file that *ultimately* succeeded must not stay in the
    failure list — ``BuildReport.indexed_file_count`` subtracts failed
    paths from the listing, so a stale record would under-count the
    index.  This drops any failure whose path is in
    ``succeeded_paths`` and de-duplicates the rest by path (first
    record wins: the earliest failure is the root cause).
    """
    reconciled: List[FileFailure] = []
    seen: Set[str] = set()
    for failure in failures:
        if failure.path in succeeded_paths or failure.path in seen:
            continue
        seen.add(failure.path)
        reconciled.append(failure)
    return reconciled


@dataclass(frozen=True)
class FaultPolicy:
    """How a build reacts to per-file errors and worker failures.

    * ``on_error`` — ``"strict"`` propagates the first file error and
      aborts (the historical behaviour); ``"skip"`` records the file as
      a :class:`FileFailure` and keeps building.
    * ``max_retries`` — how many times a batch whose worker crashed or
      timed out is re-dispatched (split in half each time to isolate
      poisoned files) before the remaining sub-batch falls back to
      being indexed in the parent process.
    * ``batch_timeout`` — seconds a dispatch round may run before its
      unfinished batches are declared hung and retried; ``None``
      disables hang detection (a hung worker then hangs the build,
      exactly like the pre-fault-tolerance engine).
    * ``retry_backoff`` — base sleep in seconds between retry rounds,
      scaled by the attempt number.
    """

    on_error: str = "strict"
    max_retries: int = 2
    batch_timeout: Optional[float] = None
    retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        check_on_error(self.on_error)
        if not isinstance(self.max_retries, int) or isinstance(
            self.max_retries, bool
        ):
            raise TypeError(
                f"max_retries must be an int, got "
                f"{type(self.max_retries).__name__}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries cannot be negative, got {self.max_retries}"
            )
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ValueError(
                f"batch_timeout must be positive (or None to disable), "
                f"got {self.batch_timeout}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff cannot be negative, got {self.retry_backoff}"
            )

    @property
    def skips(self) -> bool:
        """True when per-file errors are recorded rather than raised."""
        return self.on_error == "skip"
