"""A hash-sharded lock.

An extension beyond the paper: instead of one lock over the whole shared
index (Implementation 1) or full replication (2/3), stripe the index
lock over FNV shards of the term space.  The ablation benchmarks use it
to show where on the contention spectrum sharding lands.  The stripes
come from a :class:`~repro.concurrency.provider.SyncProvider`, so the
schedule checker can observe every stripe acquire/release.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from repro.hashing import fnv1a_interned


class ShardedLock:
    """``shards`` independent locks selected by key hash."""

    def __init__(
        self, shards: int = 16, sync=None, name: str = "sharded-lock"
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self.name = name
        self._locks: List = [
            sync.lock(f"{name}.stripe[{i}]") for i in range(shards)
        ]

    @property
    def shard_count(self) -> int:
        """Number of independent locks."""
        return len(self._locks)

    def shard_for(self, key: str) -> int:
        """The shard index ``key`` hashes to."""
        return fnv1a_interned(key) % len(self._locks)

    @contextmanager
    def locked(self, key: str) -> Iterator[None]:
        """Context manager holding the shard lock for ``key``."""
        lock = self._locks[self.shard_for(key)]
        lock.acquire()
        try:
            yield
        finally:
            lock.release()

    @contextmanager
    def locked_all(self) -> Iterator[None]:
        """Hold every shard (ordered, so concurrent callers cannot
        deadlock); used for global operations like snapshotting."""
        for lock in self._locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._locks):
                lock.release()
