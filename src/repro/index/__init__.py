"""The inverted index (stage 3) and its merge operations.

An :class:`InvertedIndex` maps each term to the postings list of files
containing it, stored in an FNV-hashed hash map as in the paper's C++
implementation.  Two update paths exist:

* :meth:`InvertedIndex.add_block` — the en-bloc path the paper adopts:
  a file's de-duplicated term block is appended in one call, no
  duplicate check needed;
* :meth:`InvertedIndex.add_term_naive` — the rejected design the paper
  analyses: per-occurrence insertion with a linear (term, file)
  duplicate search.  Kept because the sequential baseline (and one of
  our ablations) exercises it.

Join ("Join Forces" pattern, Implementation 2) lives in
:mod:`repro.index.merge`; the multi-index search view that legitimizes
Implementation 3 lives in :mod:`repro.index.multi`.
"""

from repro.index.binfmt import (
    IndexFormatError,
    dump_index_ridx2,
    dump_index_wire,
    load_index_ridx2,
    load_index_wire,
    merge_wire_replica,
)
from repro.index.inverted import InvertedIndex
from repro.index.merge import join_indices, join_pairwise_tree, merge_into
from repro.index.multi import MultiIndex
from repro.index.ondisk import MmapPostingsReader
from repro.index.positional import PositionalIndex
from repro.index.postings import PostingsList
from repro.index.replica import ReplicaBuilder
from repro.index.segments import (
    BackgroundCompactor,
    ChangeReport,
    CompactionPolicy,
    DiskSegment,
    MemorySegment,
    SegmentManifest,
    SegmentedIndexer,
    compact_manifest,
    merge_segment_payload,
)
from repro.index.serialize import (
    INDEX_FORMATS,
    index_from_bytes,
    index_to_bytes,
    load_index,
    load_multi_index,
    save_index,
    save_multi_index,
    sniff_file,
    sniff_format,
)
from repro.index.sharded import ShardedInvertedIndex

__all__ = [
    "BackgroundCompactor",
    "ChangeReport",
    "CompactionPolicy",
    "DiskSegment",
    "MemorySegment",
    "SegmentManifest",
    "SegmentedIndexer",
    "INDEX_FORMATS",
    "IndexFormatError",
    "InvertedIndex",
    "MmapPostingsReader",
    "MultiIndex",
    "PositionalIndex",
    "PostingsList",
    "ReplicaBuilder",
    "ShardedInvertedIndex",
    "compact_manifest",
    "dump_index_ridx2",
    "dump_index_wire",
    "index_from_bytes",
    "index_to_bytes",
    "join_indices",
    "join_pairwise_tree",
    "load_index",
    "load_index_ridx2",
    "load_index_wire",
    "load_multi_index",
    "merge_into",
    "merge_segment_payload",
    "merge_wire_replica",
    "save_index",
    "save_multi_index",
    "sniff_file",
    "sniff_format",
]
