"""The segmented LSM-style index: manifests, tombstones, compaction.

The two load-bearing invariants:

* after any mutation sequence — including a replay after an injected
  mid-refresh crash — the manifest's live view equals a from-scratch
  rebuild of the current filesystem state;
* a compacted manifest's canonical RIDX2 bytes are *identical* to the
  rebuild's.
"""

import os

import pytest

from repro.api import Search
from repro.engine.config import ThreadConfig
from repro.engine.sequential import SequentialIndexer
from repro.fsmodel.faultfs import FaultInjectingFileSystem, FaultSpec
from repro.fsmodel.vfs import VirtualFileSystem
from repro.index.binfmt import dump_index_ridx2
from repro.index.fingerprint import state_path
from repro.index.inverted import InvertedIndex
from repro.index.segments import (
    BackgroundCompactor,
    CompactionPolicy,
    DiskSegment,
    MemorySegment,
    SegmentManifest,
    SegmentedIndexer,
    compact_manifest,
)
from repro.obs import recorder as obsrec
from repro.text.termblock import TermBlock


def make_fs():
    fs = VirtualFileSystem()
    fs.write_file("a.txt", b"cat dog")
    fs.write_file("b.txt", b"dog ferret")
    fs.write_file("c.txt", b"cat mouse bird")
    return fs


def rebuild_bytes(fs):
    return dump_index_ridx2(SequentialIndexer(fs, naive=False).build().index)


def bootstrapped(fs):
    indexer = SegmentedIndexer(fs)
    fingerprints = indexer.fingerprint_corpus()
    indexer.adopt(SequentialIndexer(fs, naive=False).build().index, fingerprints)
    return indexer


def seg(segment_id, docs):
    index = InvertedIndex()
    for path, terms in docs.items():
        index.add_block(TermBlock(path, tuple(terms)))
    return MemorySegment(segment_id, index, docs)


class TestSegmentManifest:
    def test_newest_segment_owns_the_path(self):
        manifest = SegmentManifest(
            [
                seg(0, {"a.txt": ["cat", "dog"]}),
                seg(1, {"a.txt": ["ferret"]}),
            ]
        )
        assert manifest.lookup("ferret") == ["a.txt"]
        assert manifest.lookup("cat") == []
        assert len(manifest) == 1

    def test_tombstone_hides_every_revision(self):
        manifest = SegmentManifest(
            [seg(0, {"a.txt": ["cat"], "b.txt": ["dog"]})],
            tombstones={"a.txt"},
        )
        assert manifest.lookup("cat") == []
        assert manifest.document_paths() == ["b.txt"]
        assert "a.txt" not in manifest

    def test_terms_lists_only_live_terms(self):
        manifest = SegmentManifest(
            [
                seg(0, {"a.txt": ["cat", "dog"]}),
                seg(1, {"a.txt": ["dog"]}),
            ]
        )
        # "cat" exists only in the shadowed revision.
        assert manifest.terms() == ["dog"]

    def test_materialize_equals_plain_index(self):
        manifest = SegmentManifest(
            [
                seg(0, {"a.txt": ["cat"], "b.txt": ["dog"]}),
                seg(1, {"a.txt": ["bird"]}),
            ],
            tombstones={"b.txt"},
        )
        expected = InvertedIndex()
        expected.add_block(TermBlock("a.txt", ("bird",)))
        assert manifest.materialize() == expected

    def test_tombstone_ratio(self):
        manifest = SegmentManifest(
            [seg(0, {"a.txt": ["x"], "b.txt": ["y"]})], tombstones={"a.txt"}
        )
        assert manifest.tombstone_ratio == 0.5
        assert SegmentManifest().tombstone_ratio == 0.0


class TestSegmentedRefresh:
    def test_refresh_appends_segment_and_tombstones(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        fs.write_file("d.txt", b"newt")
        fs.remove_file("b.txt")
        change = indexer.refresh()
        assert change.added == ["d.txt"]
        assert change.removed == ["b.txt"]
        manifest = indexer.manifest
        assert manifest.segment_count == 2
        assert manifest.tombstones == {"b.txt"}
        assert manifest.lookup("newt") == ["d.txt"]
        assert manifest.lookup("ferret") == []

    def test_unchanged_files_are_not_read(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        fs.replace_file("c.txt", b"changed words")
        indexer.refresh()
        assert indexer.last_scan_stats == {"files_seen": 3, "files_read": 1}

    def test_noop_refresh_keeps_manifest(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        before = indexer.manifest
        change = indexer.refresh()
        assert change.total == 0
        assert indexer.manifest is before

    def test_remove_and_readd_identical_is_not_misclassified(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        content = fs.read_file("b.txt")
        fs.remove_file("b.txt")
        fs.write_file("b.txt", content)
        change = indexer.refresh()
        # Same bytes at the same path: neither removed nor modified.
        assert change.total == 0
        assert "b.txt" not in indexer.manifest.tombstones
        assert indexer.manifest.lookup("ferret") == ["b.txt"]
        # And the refreshed stamp means the next scan skips it again.
        indexer.refresh()
        assert indexer.last_scan_stats["files_read"] == 0

    def test_removed_then_changed_readd_is_modified_not_tombstoned(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        fs.remove_file("b.txt")
        fs.write_file("b.txt", b"entirely new words")
        change = indexer.refresh()
        assert change.modified == ["b.txt"]
        assert change.removed == []
        assert "b.txt" not in indexer.manifest.tombstones
        assert indexer.manifest.lookup("entirely") == ["b.txt"]

    def test_crashed_refresh_leaves_state_intact_and_replays(self):
        fs = make_fs()
        faulty = FaultInjectingFileSystem(
            fs, {"c.txt": FaultSpec(action="error", exc_type=OSError)}
        )
        # Bootstrap against the clean fs, then point a fresh indexer at
        # the faulty one carrying the same state (same as a restart).
        clean = bootstrapped(fs)
        indexer = SegmentedIndexer(
            faulty,
            manifest=clean.manifest,
            fingerprints=clean.fingerprints,
        )
        fs.replace_file("a.txt", b"updated words")
        fs.replace_file("c.txt", b"poisoned words")
        before_manifest = indexer.manifest
        before_fingerprints = indexer.fingerprints
        with pytest.raises(OSError):
            indexer.refresh()
        # The crash mutated nothing observable.
        assert indexer.manifest is before_manifest
        assert indexer.fingerprints == before_fingerprints
        # Replay after a restart with the fault gone converges.
        replay = SegmentedIndexer(
            fs, manifest=indexer.manifest, fingerprints=indexer.fingerprints
        )
        change = replay.refresh()
        assert sorted(change.modified) == ["a.txt", "c.txt"]
        replay.compact()
        assert replay.manifest.to_ridx2() == rebuild_bytes(fs)

    def test_reconcile_after_open(self):
        fs = make_fs()
        index = SequentialIndexer(fs, naive=False).build().index
        fs.replace_file("a.txt", b"different now")
        fs.remove_file("b.txt")
        fs.write_file("d.txt", b"brand new")
        indexer = SegmentedIndexer(fs)
        indexer.adopt(index, {})
        change = indexer.refresh()
        assert change.added == ["d.txt"]
        assert change.removed == ["b.txt"]
        assert change.modified == ["a.txt"]
        indexer.compact()
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)


class TestTermlessFiles:
    """A document is a file with at least one term — after a build, a
    refresh with or without recorded fingerprints and a save alike, so ``len()``, a ``NOT``
    answer and BM25's N never depend on the path a session took."""

    @staticmethod
    def termless_fs():
        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"alpha beta")
        fs.write_file("b.txt", b"alpha gamma gamma")
        fs.write_file("empty.txt", b"")
        return fs

    def test_refresh_adds_no_termless_file(self, tmp_path):
        self.check_refresh_adds_no_termless_file(tmp_path)

    def test_refresh_adds_no_termless_file_after_a_process_build(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.procbackend as procbackend

        monkeypatch.setattr(procbackend, "available_cpus", lambda: 2)
        session = self.check_refresh_adds_no_termless_file(
            tmp_path, config=ThreadConfig(2, 0, 1, backend="process")
        )
        assert sorted(session.report.documents) == ["a.txt", "b.txt"]

    def check_refresh_adds_no_termless_file(self, tmp_path, config=None):
        fs = self.termless_fs()
        session = Search.build(fs, config=config, cache=0)
        assert len(session) == 2
        assert session.query("NOT alpha").paths == []
        fs.write_file("empty2.txt", b"")
        fs.write_file("short.txt", b"a b 1")
        fs.write_file("c.txt", b"gamma")
        change = session.refresh()
        assert (change.added, change.removed) == (["c.txt"], [])
        rebuilt = Search.build(fs, cache=0)
        assert session.query("NOT alpha").paths == ["c.txt"]
        assert rebuilt.query("NOT alpha").paths == ["c.txt"]
        assert len(session) == len(rebuilt) == 3
        path = str(tmp_path / "index.ridx")
        session.save(path)
        reopened = Search.open(path, source=fs, cache=0)
        assert len(reopened) == 3
        assert reopened.query("NOT alpha").paths == ["c.txt"]
        # The term-less files keep their fingerprints: not read again.
        assert reopened.refresh().total == 0
        assert reopened._segmented.last_scan_stats["files_read"] == 0
        return session

    def test_bm25_counts_the_same_documents_in_memory_and_off_mmap(
        self, tmp_path
    ):
        from repro.index.ondisk import MmapPostingsReader
        from repro.query.daat import DaatQueryEngine
        from repro.query.evaluator import QueryEngine
        from repro.query.ranking import (
            BM25Ranker,
            FrequencyIndex,
            search_bm25,
        )

        fs = self.termless_fs()
        fs.write_file("c.txt", b"gamma")
        frequencies = FrequencyIndex.from_fs(fs)
        index = SequentialIndexer(fs, naive=False).build().index
        assert frequencies.document_count == 3
        path = tmp_path / "index.ridx2"
        path.write_bytes(dump_index_ridx2(index, frequencies))
        reader = MmapPostingsReader(str(path))
        try:
            assert reader.doc_count == 3
            memory = search_bm25(
                QueryEngine(index, universe={"a.txt", "b.txt", "c.txt"}),
                BM25Ranker(frequencies), "alpha OR gamma",
            )
            ondisk = DaatQueryEngine(reader).search_bm25("alpha OR gamma")
            assert memory == ondisk
        finally:
            reader.close()

    def test_a_file_that_loses_its_terms_is_tombstoned(self):
        fs = self.termless_fs()
        indexer = bootstrapped(fs)
        fs.replace_file("a.txt", b"")
        change = indexer.refresh()
        assert (change.modified, change.removed) == ([], ["a.txt"])
        assert "a.txt" not in indexer.manifest
        assert indexer.manifest.tombstones == {"a.txt"}
        indexer.refresh()
        assert indexer.last_scan_stats["files_read"] == 0
        fs.replace_file("a.txt", b"delta")
        assert indexer.refresh().added == ["a.txt"]
        indexer.compact()
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)

    def test_reconcile_keeps_termless_files_out(self):
        fs = self.termless_fs()
        index = SequentialIndexer(fs, naive=False).build().index
        fs.replace_file("a.txt", b"")
        fs.write_file("empty2.txt", b"")
        indexer = SegmentedIndexer(fs)
        indexer.adopt(index, {})
        change = indexer.refresh()
        assert (change.added, change.modified) == ([], [])
        assert change.removed == ["a.txt"]
        assert sorted(indexer.manifest.live_paths()) == ["b.txt"]
        assert "empty2.txt" in indexer.fingerprints
        indexer.compact()
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)


class TestCompaction:
    def churn(self, fs, indexer, rounds=5):
        for i in range(rounds):
            fs.write_file(f"extra{i}.txt", f"word{i} shared".encode())
            if i % 2 and fs.exists(f"extra{i - 1}.txt"):
                fs.remove_file(f"extra{i - 1}.txt")
            indexer.refresh()

    def test_layered_merge_is_byte_identical_to_rebuild(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        self.churn(fs, indexer)
        assert indexer.manifest.segment_count > 2
        indexer.compact(policy=CompactionPolicy(fanin=2))
        manifest = indexer.manifest
        assert manifest.segment_count == 1
        assert manifest.tombstones == frozenset()
        assert manifest.to_ridx2() == rebuild_bytes(fs)

    def test_tombstone_only_compaction(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        fs.remove_file("b.txt")
        indexer.refresh()
        assert indexer.manifest.tombstones == {"b.txt"}
        assert indexer.compact() is True
        assert indexer.manifest.tombstones == frozenset()
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)

    def test_policy_gates_unforced_compaction(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        policy = CompactionPolicy(max_segments=6)
        assert indexer.compact(policy=policy, force=False) is False
        self.churn(fs, indexer, rounds=7)
        assert indexer.compact(policy=policy, force=False) is True
        assert indexer.manifest.segment_count == 1

    def test_disk_segment_serving_after_compaction(self, tmp_path):
        """A saved file adopted as a disk segment serves, takes a
        refresh segment beside it, and compacts with it into memory."""
        fs = make_fs()
        path = str(tmp_path / "s.ridx2")
        with open(path, "wb") as fh:
            fh.write(rebuild_bytes(fs))
        indexer = SegmentedIndexer(fs)
        indexer.adopt(DiskSegment(0, path), indexer.fingerprint_corpus())
        assert sorted(indexer.manifest.lookup("cat")) == ["a.txt", "c.txt"]
        fs.write_file("d.txt", b"newt cat")
        indexer.refresh()
        indexer.compact()
        [segment] = indexer.manifest.segments
        assert isinstance(segment, MemorySegment)
        assert sorted(indexer.manifest.lookup("cat")) == [
            "a.txt",
            "c.txt",
            "d.txt",
        ]
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)
        # A later refresh merges the disk segment like any other.
        fs.replace_file("d.txt", b"owl")
        indexer.refresh()
        indexer.compact()
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)

    def test_disk_segment_membership_reads_the_doc_table_once(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "s.ridx2")
        with open(path, "wb") as fh:
            fh.write(seg(0, {"a.txt": ["cat"], "b.txt": ["dog"]}).to_ridx2())
        segment = DiskSegment(0, path)
        try:
            monkeypatch.setattr(
                type(segment.reader),
                "doc_paths",
                lambda self: pytest.fail("doc_paths() called again"),
            )
            assert "a.txt" in segment
            assert "ghost.txt" not in segment
            assert len(segment) == 2
        finally:
            segment.close()

    def test_disk_segment_postings_is_one_walk(self, tmp_path, monkeypatch):
        """The merge input of a disk segment is one lexicon walk: no
        per-term binary search (it used to cost ``term_count`` of them)."""
        docs = {"a.txt": ["cat", "dog"], "b.txt": ["dog"], "c.txt": ["emu"]}
        path = str(tmp_path / "s.ridx2")
        with open(path, "wb") as fh:
            fh.write(seg(0, docs).to_ridx2())
        segment = DiskSegment(0, path)
        try:
            reader = type(segment.reader)
            real, calls = reader.term_info, []

            def counting(self, term):
                calls.append(term)
                return real(self, term)

            monkeypatch.setattr(reader, "term_info", counting)
            walked = [(term, list(paths)) for term, paths in segment.postings()]
            assert calls == []
            assert walked == [
                ("cat", ["a.txt"]),
                ("dog", ["a.txt", "b.txt"]),
                ("emu", ["c.txt"]),
            ]
        finally:
            segment.close()

    def test_emptied_file_stays_shadowed_across_merge_rounds(self):
        """x.txt's emptied revision lands in a later merge group than
        its old one; the old postings must not come back."""
        fs = VirtualFileSystem()
        indexer = SegmentedIndexer(fs)
        fs.write_file("x.txt", b"cat dog")
        indexer.refresh()
        fs.write_file("y.txt", b"bird")
        indexer.refresh()
        fs.replace_file("x.txt", b"")
        indexer.refresh()
        indexer.compact(policy=CompactionPolicy(fanin=2))
        assert indexer.manifest.segment_count == 1
        assert indexer.manifest.lookup("cat") == []
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)

    def test_compact_manifest_pure_function(self):
        manifest = SegmentManifest(
            [
                seg(0, {"a.txt": ["cat"], "b.txt": ["dog"]}),
                seg(1, {"a.txt": ["bird"]}),
            ],
            tombstones={"b.txt"},
            generation=7,
        )
        compacted = compact_manifest(manifest, CompactionPolicy(fanin=2))
        assert compacted.generation == 8
        assert compacted.segment_count == 1
        assert compacted.lookup("bird") == ["a.txt"]
        assert compacted.lookup("cat") == []
        # The input manifest is untouched.
        assert manifest.segment_count == 2

    def test_obs_metrics_are_wired(self):
        from repro.obs.recorder import Recorder

        recorder = Recorder(enabled=True)
        previous = obsrec.set_recorder(recorder)
        try:
            fs = make_fs()
            indexer = bootstrapped(fs)
            fs.write_file("d.txt", b"newt")
            indexer.refresh()
            indexer.compact()
            metrics = recorder.metrics
            assert metrics.gauge("segments.count").value == 1
            assert metrics.gauge("segments.tombstones").value == 0
            # d.txt's one posting joins the seven of the base segment.
            assert metrics.counter("compaction.merged_postings").value == 8
            assert metrics.counter("segments.files_read").value >= 1
            names = [s.name for s in recorder.spans]
            assert "segments.refresh" in names
            assert "compaction.run" in names
        finally:
            obsrec.set_recorder(previous)


class TestSegmentsAreTheIndex:
    """A sealed segment is the index it serves: adopted and merged
    indexes are held by reference and never mutated, and nothing builds
    a forward (path -> terms) view unless a refresh without recorded
    fingerprints (a reconcile) asks."""

    def churn(self, fs, step):
        fs.write_file(f"new{step}.txt", f"word{step} cat".encode())
        fs.replace_file("a.txt", f"rewritten{step} dog".encode())
        if fs.exists("b.txt"):
            fs.remove_file("b.txt")

    def test_captured_indexes_stay_frozen(self):
        fs = make_fs()
        session = Search.build(fs)
        captured = [session.index, session.report.index]
        assert captured[0] is captured[1]  # adopted, not copied
        copies = [index.copy() for index in captured]
        for step in range(3):
            self.churn(fs, step)
            session.refresh()
            # A merged view and a compaction product are captured too.
            captured.append(session.index)
            copies.append(session.index.copy())
            assert captured == copies
            session.compact()
            captured.append(session.index)
            copies.append(session.index.copy())
            assert captured == copies
        assert session.index == SequentialIndexer(fs, naive=False).build().index

    def test_forward_view_is_built_only_by_reconcile(
        self, tmp_path, monkeypatch
    ):
        import repro.index.segments as segments

        built = []
        real = segments.forward_view

        def counting(postings):
            built.append(1)
            return real(postings)

        monkeypatch.setattr(segments, "forward_view", counting)
        fs = make_fs()
        session = Search.build(fs)
        assert session.query("cat AND NOT dog").paths == ["c.txt"]
        for step in range(2):
            self.churn(fs, step)
            assert session.refresh().total > 0
            assert session.query(f"word{step}").paths == [f"new{step}.txt"]
        session.compact()
        saved = str(tmp_path / "saved.ridx")
        session.save(saved)
        assert built == []

        # Without the saved fingerprints the reopened session has only
        # the index to diff against: its first refresh reconciles.
        os.remove(state_path(saved))
        self.churn(fs, 2)
        reopened = Search.open(saved, source=fs)
        assert reopened.query("word1").paths == ["new1.txt"]
        assert built == []
        change = reopened.refresh()
        assert change.added == ["new2.txt"] and change.modified == ["a.txt"]
        assert built == [1]
        # From here on the session has fingerprints: stat-first again.
        self.churn(fs, 3)
        reopened.refresh()
        assert built == [1]


class TestBackgroundCompactor:
    def test_compacts_when_due_and_stops(self):
        fs = make_fs()
        indexer = bootstrapped(fs)
        for i in range(4):
            fs.write_file(f"n{i}.txt", f"term{i}".encode())
            indexer.refresh()
        assert indexer.manifest.segment_count == 5
        policy = CompactionPolicy(fanin=2, max_segments=2)
        compactor = BackgroundCompactor(
            lambda: indexer.compact(policy=policy, force=False),
            interval_s=0.01,
        ).start()
        try:
            deadline = 100
            while indexer.manifest.segment_count > 1 and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
        finally:
            compactor.stop()
        assert indexer.manifest.segment_count == 1
        assert compactor.compactions >= 1
        assert indexer.manifest.to_ridx2() == rebuild_bytes(fs)


class TestAcrossBackends:
    """The compacted manifest's bytes do not depend on which engine
    built the base segment: every backend converges to the same
    canonical RIDX2 after the same churn."""

    def churn_and_compact(self, build):
        fs = make_fs()
        indexer = SegmentedIndexer(fs)
        fingerprints = indexer.fingerprint_corpus()
        indexer.adopt(build(fs), fingerprints)
        fs.write_file("d.txt", b"newt words")
        fs.replace_file("a.txt", b"rewritten cat")
        fs.remove_file("b.txt")
        indexer.refresh()
        indexer.compact(policy=CompactionPolicy(fanin=2))
        data = indexer.manifest.to_ridx2()
        assert data == rebuild_bytes(fs)
        return data

    def test_compacted_bytes_identical_across_backends(self):
        from repro.engine import (
            ProcessReplicatedIndexer,
            ReplicatedJoinedIndexer,
            SequentialIndexer as Sequential,
            ThreadConfig,
        )
        from repro.index.multi import MultiIndex

        def flat(index):
            from repro.index.merge import join_indices

            return (
                join_indices(index.replicas)
                if isinstance(index, MultiIndex)
                else index
            )

        builds = [
            lambda fs: Sequential(fs, naive=False).build().index,
            lambda fs: flat(
                ReplicatedJoinedIndexer(fs).build(ThreadConfig(2, 0, 1)).index
            ),
            lambda fs: flat(
                ProcessReplicatedIndexer(fs, oversubscribe=True)
                .build(ThreadConfig(2, 0, 1, backend="process"))
                .index
            ),
        ]
        first, *rest = [self.churn_and_compact(build) for build in builds]
        for data in rest:
            assert data == first
