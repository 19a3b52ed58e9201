"""The one merge against the merge it replaced.

Until 3.0 segments were flattened document by document: regroup every
document's terms, resolve newest-wins by dict overwrite, re-insert each
surviving term block.  :func:`~repro.index.segments.merge_postings`
does the same job postings-wise.  The old routine lives on here,
verbatim, as the reference oracle: over random segment stacks with
overlapping paths, emptied documents and tombstones the two must agree,
and compaction must produce the oracle's canonical bytes on every path
— in-process, through the executor's RWIRE1 payloads, at any fan-in.
"""

import string
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.procbackend import CompactionExecutor
from repro.index.binfmt import dump_index_ridx2, dump_index_wire
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    CompactionPolicy,
    MemorySegment,
    SegmentManifest,
    _resolve_owners,
    compact_manifest,
    merge_postings,
    merge_segment_payload,
)
from repro.text.termblock import TermBlock


def docwise_merge(segments, tombstones):
    """The pre-3.0 ``_group_payload`` + ``merge_segment_payload``."""
    groups = [
        [(path, segment.doc_terms(path)) for path in segment.doc_paths()]
        for segment in segments
    ]
    dead = set(tombstones)
    docs = {}
    for group in groups:
        for path, terms in group:
            docs[path] = tuple(terms)
    index = InvertedIndex()
    for path in sorted(docs):
        if path in dead:
            continue
        index.add_block(TermBlock(path, docs[path]))
    return index


paths = st.integers(min_value=0, max_value=7).map(lambda i: f"doc{i}.txt")
terms = st.lists(
    st.text(alphabet=string.ascii_lowercase[:6], min_size=1, max_size=2),
    max_size=5,
    unique=True,
)
stacks = st.lists(
    st.dictionaries(paths, terms, min_size=1, max_size=6),
    min_size=1,
    max_size=6,
)


def sealed(stack):
    segments = []
    for segment_id, docs in enumerate(stack):
        index = InvertedIndex()
        for path, doc_terms in docs.items():
            index.add_block(TermBlock(path, tuple(doc_terms)))
        segments.append(MemorySegment(segment_id, index, docs))
    return segments


@given(stack=stacks, tombstones=st.sets(paths, max_size=3))
@settings(max_examples=150, deadline=None)
def test_materialize_equals_the_docwise_merge(stack, tombstones):
    segments = sealed(stack)
    manifest = SegmentManifest(segments, tombstones)
    merged = manifest.materialize()
    oracle = docwise_merge(segments, tombstones)
    assert merged == oracle
    assert dump_index_ridx2(merged) == dump_index_ridx2(oracle)
    for term, postings in merged.items():
        assert postings.paths() == sorted(postings.paths()), term


def check_compaction(stack, tombstones, fanin):
    segments = sealed(stack)
    manifest = SegmentManifest(segments, tombstones)
    oracle = dump_index_ridx2(docwise_merge(segments, tombstones))
    policy = CompactionPolicy(fanin=fanin)
    executor = CompactionExecutor(max_workers=2, oversubscribe=True)
    in_process = compact_manifest(manifest, policy)
    pooled = compact_manifest(manifest, policy, executor=executor)
    assert in_process.to_ridx2() == oracle
    assert pooled.to_ridx2() == oracle
    # The pool's products come back through load_index_wire: bucket for
    # bucket the in-process merge.
    assert [dump_index_wire(s.index) for s in pooled.segments] == [
        dump_index_wire(s.index) for s in in_process.segments
    ]
    for compacted in (in_process, pooled):
        assert compacted.segment_count <= 1
        assert not compacted.tombstones
        assert compacted.live_paths() == manifest.live_paths()
    return executor


compactions = dict(
    stack=stacks,
    tombstones=st.sets(paths, max_size=3),
    fanin=st.integers(min_value=2, max_value=4),
)


@given(**compactions)
@settings(max_examples=100, deadline=None)
def test_compaction_equals_the_docwise_merge_when_the_pool_cannot_start(
    stack, tombstones, fanin
):
    """The executor's in-parent fallback runs the very payloads a pool
    worker would get, so this sweeps the RWIRE1 path widely."""
    import repro.engine.procbackend as pb

    with mock.patch.object(
        pb.multiprocessing, "get_context", side_effect=OSError("no pool")
    ):
        executor = check_compaction(stack, tombstones, fanin)
    multi_group_rounds = len(stack) > fanin
    assert (executor.fallbacks > 0) == multi_group_rounds


@given(**compactions)
@settings(max_examples=5, deadline=None)
def test_compaction_equals_the_docwise_merge_on_the_pool(
    stack, tombstones, fanin
):
    check_compaction(stack, tombstones, fanin)


class TestDeadSets:
    """:func:`merge_postings` filters each source by its dead set: a
    source with none contributes its lists whole, one whose every path
    is dead contributes nothing.  The pool's payload carries the same
    dead sets, so its product is the in-process one to the byte."""

    def merged(self, segments, tombstones=()):
        owner, dead = _resolve_owners(segments, tombstones)
        merged = merge_postings(
            [s.postings() for s in segments], dead, len(owner)
        )
        wires = [dump_index_wire(s.index) for s in segments]
        pooled = merge_segment_payload((wires, dead, len(owner)))
        assert pooled == dump_index_wire(merged)
        oracle = docwise_merge(segments, tombstones)
        assert merged == oracle
        assert dump_index_ridx2(merged) == dump_index_ridx2(oracle)
        assert merged.block_count == len(owner)
        return merged, dead

    def test_source_with_no_dead_path_contributes_whole(self):
        segments = sealed([{"doc0.txt": ["a", "b"], "doc1.txt": ["b"]}])
        merged, dead = self.merged(segments)
        assert dead == [set()]
        assert merged.lookup("b") == ["doc0.txt", "doc1.txt"]

    def test_source_whose_every_path_is_dead(self):
        segments = sealed(
            [
                {"doc0.txt": ["a", "b"], "doc1.txt": ["b"]},
                {"doc1.txt": ["c"], "doc2.txt": ["a"]},
            ]
        )
        merged, dead = self.merged(segments, tombstones={"doc0.txt"})
        assert dead == [{"doc0.txt", "doc1.txt"}, set()]
        assert "b" not in merged
        assert merged.lookup("a") == ["doc2.txt"]
        assert merged.lookup("c") == ["doc1.txt"]

    def test_tombstone_only_manifest(self):
        segments = sealed([{"doc0.txt": ["a"], "doc1.txt": ["a", "b"]}])
        manifest = SegmentManifest(segments, {"doc1.txt"})
        merged, dead = self.merged(segments, manifest.tombstones)
        assert dead == [{"doc1.txt"}]
        assert list(merged.items()) == list(manifest.materialize().items())
        assert merged.lookup("a") == ["doc0.txt"] and "b" not in merged
        compacted = compact_manifest(manifest)
        assert compacted.segment_count == 1 and not compacted.tombstones
        assert compacted.to_ridx2() == dump_index_ridx2(merged)
