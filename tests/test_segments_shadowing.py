"""Shadowing fixed at publish, against the per-path owner rule it replaced.

A :class:`~repro.index.segments.SegmentManifest` derives each segment's
*dead* paths — sealed in it, but owned by a newer segment or
tombstoned — once, when it is built, and ``lookup`` / ``terms`` /
``expand`` filter by those sets.  Until then every query probed an
owner map per posting: a posting was live when ``owner[path]`` named
its own segment.  That rule lives on here, verbatim, as the oracle.
Over random stacks of 1-5 segments with overlapping paths, emptied
documents (sealed with no postings) and tombstones — some for paths no
segment holds — the two must agree exactly, list order included.

The dead sets are exact only because a segment's postings never name a
path outside its own path set; the last tests pin that for every way
the system makes a segment: adopt, the refresh seal, compaction (in
memory and on disk) and a saved file opened as a ``DiskSegment``.
"""

import os
import tempfile
from collections import Counter
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Search
from repro.engine.sequential import SequentialIndexer
from repro.fsmodel.vfs import VirtualFileSystem
from repro.index.binfmt import dump_index_ridx2
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    CompactionPolicy,
    DiskSegment,
    MemorySegment,
    SegmentManifest,
    SegmentedIndexer,
)
from repro.text.termblock import TermBlock

# -- the oracle: the owner rule every query used to run -----------------------


def oracle_owner(segments, tombstones):
    owner = {}
    for position, segment in enumerate(segments):
        for path in segment.doc_paths():
            owner[path] = position
    for path in tombstones:
        owner.pop(path, None)
    return owner


def oracle_lookup(segments, owner, term):
    hits = []
    for position, segment in enumerate(segments):
        for path in segment.lookup(term):
            if owner.get(path) == position:
                hits.append(path)
    return hits


def oracle_terms(segments, owner):
    owned = Counter(owner.values())
    live = set()
    for position, segment in enumerate(segments):
        if owned[position] == len(segment):
            live.update(segment.dictionary())
            continue
        for term, paths in segment.postings():
            if term not in live and any(
                owner.get(path) == position for path in paths
            ):
                live.add(term)
    return sorted(live)


def oracle_expand(segments, owner, prefix, limit):
    candidates = sorted(
        {
            term
            for segment in segments
            for term in segment.dictionary()
            if term.startswith(prefix)
        }
    )
    if len(candidates) <= limit:
        return candidates
    return list(
        islice(
            (t for t in candidates if oracle_lookup(segments, owner, t)),
            limit,
        )
    )


# -- random stacks ------------------------------------------------------------

PATHS = [f"d{i}.txt" for i in range(7)]
#: One more path than any segment can hold: its tombstone shadows nothing.
ABSENT = "never-sealed.txt"
WORDS = st.text(alphabet="abc", min_size=1, max_size=3)
batches = st.dictionaries(
    st.sampled_from(PATHS),
    st.lists(WORDS, max_size=4, unique=True),  # [] is an emptied document
    min_size=1,
    max_size=5,
)
stacks = st.tuples(
    st.lists(batches, min_size=1, max_size=5),
    st.sets(st.sampled_from(PATHS + [ABSENT]), max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)


def build(stack, directory):
    """Segments oldest->newest; at most one served off an RIDX2 file."""
    batches_, tombstones, disk_position = stack
    segments = []
    for position, batch in enumerate(batches_):
        index = InvertedIndex()
        for path in sorted(batch):
            index.add_block(TermBlock(path, tuple(batch[path])))
        if position == disk_position:
            file = os.path.join(directory, f"segment-{position}.ridx2")
            with open(file, "wb") as fh:
                fh.write(dump_index_ridx2(index))
            segments.append(DiskSegment(position, file))
        else:
            segments.append(MemorySegment(position, index, batch))
    return segments, tombstones


def every_term(segments):
    return sorted({t for s in segments for t in s.terms()} | {"zz"})


class TestAgainstTheOwnerRule:
    @settings(max_examples=200, deadline=None)
    @given(stack=stacks)
    def test_lookup_and_terms(self, stack):
        with tempfile.TemporaryDirectory() as directory:
            segments, tombstones = build(stack, directory)
            try:
                manifest = SegmentManifest(segments, tombstones)
                owner = oracle_owner(segments, tombstones)
                for term in every_term(segments):
                    assert manifest.lookup(term) == oracle_lookup(
                        segments, owner, term
                    ), term
                assert manifest.terms() == oracle_terms(segments, owner)
                assert sorted(manifest.document_paths()) == sorted(owner)
            finally:
                for segment in segments:
                    if isinstance(segment, DiskSegment):
                        segment.close()

    @settings(max_examples=200, deadline=None)
    @given(stack=stacks, prefix=st.text(alphabet="abc", min_size=1, max_size=2))
    def test_expand_under_and_past_the_limit(self, stack, prefix):
        with tempfile.TemporaryDirectory() as directory:
            segments, tombstones = build(stack, directory)
            try:
                manifest = SegmentManifest(segments, tombstones)
                owner = oracle_owner(segments, tombstones)
                for limit in (1, 2, 3, 1000):
                    assert manifest.expand(prefix, limit) == oracle_expand(
                        segments, owner, prefix, limit
                    ), limit
            finally:
                for segment in segments:
                    if isinstance(segment, DiskSegment):
                        segment.close()


def test_a_lone_clean_segment_answers_with_its_own_list():
    index = InvertedIndex()
    index.add_block(TermBlock("a.txt", ("cat",)))
    index.add_block(TermBlock("b.txt", ("cat",)))
    manifest = SegmentManifest([MemorySegment(0, index)], {"b.txt"})
    assert manifest.lookup("cat") == ["a.txt"]
    clean = SegmentManifest([MemorySegment(0, index)], {"absent.txt"})
    assert clean.lookup("cat") == ["a.txt", "b.txt"]
    # The answer is the caller's: mutating it changes no later answer.
    clean.lookup("cat").append("x.txt")
    assert clean.lookup("cat") == ["a.txt", "b.txt"]


# -- the construction invariant ----------------------------------------------


def assert_postings_covered(manifest):
    for segment in manifest.segments:
        sealed = set(segment.doc_paths())
        for term, paths in segment.postings():
            assert set(paths) <= sealed, (segment, term)


def churned_fs():
    fs = VirtualFileSystem()
    for i in range(10):
        fs.write_file(f"f{i}.txt", f"alpha w{i} w{i % 3}".encode())
    return fs


def churn(fs, round_):
    """Edit one file, empty one, add one and remove one."""
    first = 3 * round_
    fs.replace_file(f"f{first}.txt", f"beta w{first + 1}".encode())
    fs.replace_file(f"f{first + 1}.txt", b"")
    fs.write_file(f"new{round_}.txt", b"gamma alpha")
    fs.remove_file(f"f{first + 2}.txt")


def test_adopt_refresh_and_compaction_seal_every_posting_path():
    fs = churned_fs()
    indexer = SegmentedIndexer(fs)
    indexer.adopt(
        SequentialIndexer(fs, naive=False).build().index,
        indexer.fingerprint_corpus(),
    )
    assert_postings_covered(indexer.manifest)
    for round_ in range(3):
        churn(fs, round_)
        indexer.refresh()
        assert_postings_covered(indexer.manifest)
    assert indexer.manifest.segment_count == 4
    indexer.compact(policy=CompactionPolicy(fanin=2))
    assert_postings_covered(indexer.manifest)


def test_a_compacted_disk_segment_and_an_opened_file_seal_every_posting_path(
    tmp_path,
):
    fs = churned_fs()
    indexer = SegmentedIndexer(fs, segment_dir=str(tmp_path / "segments"))
    indexer.adopt(
        SequentialIndexer(fs, naive=False).build().index,
        indexer.fingerprint_corpus(),
    )
    churn(fs, 0)
    indexer.refresh()
    indexer.compact()
    (segment,) = indexer.manifest.segments
    assert isinstance(segment, DiskSegment)
    assert_postings_covered(indexer.manifest)
    segment.close()

    saved = str(tmp_path / "saved.ridx")
    Search.build(fs).save(saved)
    manifest = Search.open(saved).manifest
    (segment,) = manifest.segments
    try:
        assert isinstance(segment, DiskSegment)
        assert_postings_covered(manifest)
    finally:
        segment.close()
