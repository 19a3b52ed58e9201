"""Facade over the threaded engine plus stage-time measurement.

:class:`IndexGenerator` dispatches a build to the right implementation
class; :func:`measure_stage_times` reproduces the paper's Table 1
methodology on the real engine — time stage 1 alone, then the empty
scanner, then scan+extract, then index update, each in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.config import Implementation, ThreadConfig
from repro.engine.impl1 import SharedLockedIndexer
from repro.engine.impl2 import ReplicatedJoinedIndexer
from repro.engine.impl3 import ReplicatedUnjoinedIndexer
from repro.engine.procbackend import ProcessReplicatedIndexer
from repro.engine.results import BuildReport
from repro.distribute.base import DistributionStrategy
from repro.obs import recorder as obsrec
from repro.index.inverted import InvertedIndex
from repro.text.dedup import extract_term_block
from repro.text.scanner import empty_scan
from repro.text.tokenizer import Tokenizer

_INDEXERS = {
    Implementation.SHARED_LOCKED: SharedLockedIndexer,
    Implementation.REPLICATED_JOINED: ReplicatedJoinedIndexer,
    Implementation.REPLICATED_UNJOINED: ReplicatedUnjoinedIndexer,
}


class IndexGenerator:
    """One entry point for all three implementations and both backends."""

    def __init__(
        self,
        fs,
        *,
        strategy: Optional[DistributionStrategy] = None,
        buffer_capacity: int = 256,
        dynamic=None,
        oversubscribe: bool = False,
        on_error: str = "strict",
        max_retries: int = 2,
        batch_timeout=None,
        sync=None,
        extractor=None,
        split_threshold=None,
    ) -> None:
        from repro.extract.registry import resolve_extractor

        self.fs = fs
        # Resolve the extraction seam once here; the dispatched engines
        # receive the Extractor instance.
        self.extractor = resolve_extractor(extractor)
        self.split_threshold = split_threshold
        self.strategy = strategy
        self.buffer_capacity = buffer_capacity
        self.dynamic = dynamic
        self.oversubscribe = oversubscribe
        # Fault tolerance (see repro.engine.faults): per-file error
        # policy applies to every backend; the retry/timeout ladder is
        # specific to the process backend's worker pool.
        self.on_error = on_error
        self.max_retries = max_retries
        self.batch_timeout = batch_timeout
        # SyncProvider for the threaded engines (None = raw threading).
        # The process backend synchronizes via the OS, not this seam.
        self.sync = sync

    def build(
        self,
        implementation: Implementation,
        config: ThreadConfig,
        root: str = "",
    ) -> BuildReport:
        """Build the index under the named implementation and config.

        ``config.backend`` picks the engine: ``"thread"`` dispatches to
        the paper's three threaded designs, ``"process"`` to the
        multiprocessing Implementation 2 engine.
        """
        if config.backend == "process":
            config.validate_for(implementation)
            indexer = ProcessReplicatedIndexer(
                self.fs,
                extractor=self.extractor,
                strategy=self.strategy,
                buffer_capacity=self.buffer_capacity,
                dynamic=self.dynamic,
                oversubscribe=self.oversubscribe,
                on_error=self.on_error,
                max_retries=self.max_retries,
                batch_timeout=self.batch_timeout,
                split_threshold=self.split_threshold,
            )
            return indexer.build(config, root)
        indexer_cls = _INDEXERS[implementation]
        indexer = indexer_cls(
            self.fs,
            extractor=self.extractor,
            strategy=self.strategy,
            buffer_capacity=self.buffer_capacity,
            dynamic=self.dynamic,
            on_error=self.on_error,
            sync=self.sync,
            split_threshold=self.split_threshold,
        )
        return indexer.build(config, root)


@dataclass(frozen=True)
class MeasuredStageTimes:
    """The four columns of Table 1, measured on the real engine."""

    filename_generation: float
    read_files: float
    read_and_extract: float
    index_update: float


def measure_stage_times(
    fs, root: str = "", tokenizer: Optional[Tokenizer] = None
) -> MeasuredStageTimes:
    """Time each stage in isolation, the way Table 1 was produced.

    1. filename generation: traverse and collect every FileRef;
    2. read files: the "empty scanner" — read every byte, extract nothing;
    3. read and extract: full stage 2 (read, scan, de-duplicate);
    4. index update: en-bloc insertion of the pre-extracted blocks.

    Each measurement is a span on a local recorder (published to the
    global recorder when tracing is on, so ``--trace-out`` can cover a
    Table 1 run too).
    """
    tokenizer = tokenizer or Tokenizer()
    rec = obsrec.Recorder()

    with rec.span("measure.stage1") as stage1_span:
        files = list(fs.list_files(root))

    with rec.span("measure.read") as read_span:
        for ref in files:
            empty_scan(fs.read_file(ref.path))

    with rec.span("measure.extract") as extract_span:
        blocks = [
            extract_term_block(ref.path, fs.read_file(ref.path), tokenizer)
            for ref in files
        ]

    index = InvertedIndex()
    with rec.span("measure.update") as update_span:
        for block in blocks:
            index.add_block(block)

    if obsrec.enabled():
        obsrec.get_recorder().absorb(rec.spans)
    return MeasuredStageTimes(
        filename_generation=stage1_span.duration,
        read_files=read_span.duration,
        read_and_extract=extract_span.duration,
        index_update=update_span.duration,
    )
