"""Implementation 1s: a shared index with striped locks (extension).

Between the paper's Implementation 1 (one lock) and its replicated
designs: one logical shared index, but the term space is striped over K
independently locked shards, so concurrent writers rarely collide.
Configuration semantics follow Implementation 1 (``z`` must be 0).
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import ThreadedIndexerBase
from repro.engine.config import Implementation, ThreadConfig
from repro.fsmodel.nodes import FileRef
from repro.index.sharded import ShardedInvertedIndex
from repro.text.termblock import TermBlock


class ShardedLockedIndexer(ThreadedIndexerBase):
    """One shared index striped over ``shards`` locks."""

    implementation = Implementation.SHARED_LOCKED

    def __init__(self, fs, *, shards: int = 16, **kwargs) -> None:
        super().__init__(fs, **kwargs)
        self.shards = shards

    def _build(
        self, config: ThreadConfig, files: Sequence[FileRef]
    ) -> ShardedInvertedIndex:
        index = ShardedInvertedIndex(self.shards, sync=self.sync)

        def striped_update(_worker: int, block: TermBlock) -> None:
            # add_block locks only the shards the block touches.
            index.add_block(block)

        if config.uses_buffer:
            self._run_buffered(config, files, striped_update)
        else:
            self._run_extractors(
                config, files, striped_update, inline_update=True
            )
        return index
