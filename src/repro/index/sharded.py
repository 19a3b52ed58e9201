"""A lock-striped shared index — an extension beyond the paper.

The paper compares one extreme (a single lock over one shared index,
Implementation 1) against the other (full replication, Implementations
2/3).  The classic middle ground is *striping*: partition the term
space into K shards, each an independent index with its own lock, so
writers only collide when they touch the same shard.

:class:`ShardedInvertedIndex` offers the same read API as
:class:`~repro.index.inverted.InvertedIndex` and an en-bloc
:meth:`add_block` that groups a block's terms by shard and locks each
touched shard exactly once (in shard order, so concurrent writers
cannot deadlock).  The sharded-lock ablation benchmark places this
design on the paper's contention spectrum.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.concurrency.provider import THREADING_SYNC
from repro.hashing import fnv1a_interned
from repro.index.inverted import InvertedIndex
from repro.index.postings import PostingsList
from repro.text.termblock import TermBlock


class ShardedInvertedIndex:
    """K independently locked index shards, routed by term hash."""

    def __init__(self, shards: int = 16, sync=None) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        self._sync = sync or THREADING_SYNC
        self._shards: List[InvertedIndex] = [
            InvertedIndex() for _ in range(shards)
        ]
        self._locks: List = [
            self._sync.lock(f"index-shard[{i}].lock") for i in range(shards)
        ]
        self._block_count = 0
        self._block_lock = self._sync.lock("index-shard.block-count")

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shards)

    def shard_for(self, term: str) -> int:
        """The shard a term routes to."""
        return fnv1a_interned(term) % len(self._shards)

    def add_block(self, block: TermBlock) -> None:
        """Thread-safe en-bloc update: lock only the shards touched.

        Shards are locked in ascending order, so two writers whose
        blocks overlap on several shards always acquire in the same
        order and cannot deadlock.
        """
        by_shard: Dict[int, List[str]] = {}
        for term in block.terms:
            by_shard.setdefault(self.shard_for(term), []).append(term)
        for shard_id in sorted(by_shard):
            shard = self._shards[shard_id]
            with self._locks[shard_id]:
                self._sync.access(f"index-shard[{shard_id}]")
                for term in by_shard[shard_id]:
                    shard._map.setdefault(term, PostingsList()).append(
                        block.path
                    )
        with self._block_lock:
            self._sync.access("index-shard.block-count")
            self._block_count += 1

    # -- read API (no locking needed after the build barrier) ------------

    def lookup(self, term: str) -> List[str]:
        """Paths containing ``term``."""
        return self._shards[self.shard_for(term)].lookup(term)

    def __contains__(self, term: str) -> bool:
        return term in self._shards[self.shard_for(term)]

    def __len__(self) -> int:
        """Number of distinct terms across shards."""
        return sum(len(shard) for shard in self._shards)

    def terms(self) -> Iterator[str]:
        """All distinct terms (shard by shard)."""
        for shard in self._shards:
            yield from shard.terms()

    def items(self) -> Iterator[Tuple[str, PostingsList]]:
        """All (term, postings) pairs."""
        for shard in self._shards:
            yield from shard.items()

    @property
    def block_count(self) -> int:
        """Number of term blocks added."""
        return self._block_count

    @property
    def posting_count(self) -> int:
        """Total (term, file) pairs."""
        return sum(shard.posting_count for shard in self._shards)

    def to_inverted_index(self) -> InvertedIndex:
        """Flatten the shards into one plain index (for comparisons)."""
        from repro.index.merge import merge_into

        result = InvertedIndex()
        for shard in self._shards:
            merge_into(result, shard, copy=True)
        result._block_count = self._block_count
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShardedInvertedIndex):
            return self.to_inverted_index() == other.to_inverted_index()
        if isinstance(other, InvertedIndex):
            return self.to_inverted_index() == other
        return NotImplemented
