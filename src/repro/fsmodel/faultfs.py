"""Deterministic fault injection at the filesystem boundary.

The fault-tolerance tests need unreadable files, worker crashes and
worker hangs that fire at exactly the same paths on every run, in any
backend, and survive a pickle round-trip to worker processes.
:class:`FaultInjectingFileSystem` wraps any filesystem backend and
triggers a :class:`FaultSpec` the moment a poisoned path is read:

* ``"error"`` — raise the configured exception (permission denied,
  vanished file, corrupt content), in every process;
* ``"crash"`` — hard-kill the current process via ``os._exit`` — but
  only in worker processes: in the parent the spec's ``parent_action``
  applies instead, so the engine's in-parent fallback rung terminates
  deterministically rather than killing the build;
* ``"hang"`` — sleep ``delay`` seconds, again only in workers, to
  drive batch-timeout recovery without ever hanging the parent.

The wrapper deliberately does **not** expose a ``base`` attribute, so
:class:`~repro.engine.procworker.FilesystemSpec` carries it by value
into workers (faults included) instead of silently reopening the
underlying directory.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Iterator, List, Mapping

from repro.fsmodel.nodes import FileRef


def in_worker_process() -> bool:
    """True when running inside a multiprocessing child process."""
    return multiprocessing.parent_process() is not None


@dataclass(frozen=True)
class FaultSpec:
    """What happens when a poisoned path is read (picklable plain data).

    ``parent_action`` controls the crash/hang behaviour outside worker
    processes: ``"error"`` raises ``exc_type`` (the file is poison
    everywhere — the in-parent fallback records it as a failure) and
    ``"pass"`` reads the file normally (the fault was transient — the
    fallback recovers the file).
    """

    action: str = "error"
    exc_type: type = OSError
    message: str = "injected fault"
    exit_code: int = 13
    delay: float = 30.0
    parent_action: str = "error"

    def __post_init__(self) -> None:
        if self.action not in ("error", "crash", "hang"):
            raise ValueError(
                f"action must be 'error', 'crash' or 'hang', "
                f"got {self.action!r}"
            )
        if self.parent_action not in ("error", "pass"):
            raise ValueError(
                f"parent_action must be 'error' or 'pass', "
                f"got {self.parent_action!r}"
            )

    def trigger(self, path: str) -> None:
        """Fire the fault for ``path``; returning means 'proceed'."""
        if self.action == "error":
            raise self.exc_type(f"{self.message}: {path}")
        if in_worker_process():
            if self.action == "crash":
                os._exit(self.exit_code)
            time.sleep(self.delay)  # "hang": stall the worker, then proceed
            return
        if self.parent_action == "error":
            raise self.exc_type(f"{self.message}: {path}")


class FaultInjectingFileSystem:
    """Delegates to ``inner`` but fires :class:`FaultSpec`s on reads."""

    def __init__(self, inner, faults: Mapping[str, FaultSpec]) -> None:
        self._inner = inner
        self._faults = dict(faults)

    @property
    def fault_paths(self) -> List[str]:
        """The poisoned paths, in insertion order."""
        return list(self._faults)

    # -- the poisoned operation ---------------------------------------

    def read_file(self, path: str) -> bytes:
        spec = self._faults.get(path)
        if spec is not None:
            spec.trigger(path)
        return self._inner.read_file(path)

    # -- transparent delegation ---------------------------------------

    def list_files(self, path: str = "") -> Iterator[FileRef]:
        return self._inner.list_files(path)

    def file_size(self, path: str) -> int:
        return self._inner.file_size(path)

    def stat(self, path: str):
        return self._inner.stat(path)

    def exists(self, path: str) -> bool:
        return self._inner.exists(path)

    def is_dir(self, path: str) -> bool:
        return self._inner.is_dir(path)

    def listdir(self, path: str = ""):
        return self._inner.listdir(path)

    def __repr__(self) -> str:
        return (
            f"FaultInjectingFileSystem({self._inner!r}, "
            f"faults={len(self._faults)})"
        )
