"""Incremental maintenance, document by document and scan by scan.

These are the invariants the pre-3.0 ``repro.index.incremental`` module
was tested for, re-expressed on the path that replaced it: per-document
add / remove / update is :meth:`SegmentedIndexer.apply_delta`, change
detection is the fingerprint scan inside :meth:`SegmentedIndexer.refresh`.
The defining invariant is unchanged: after any sequence of filesystem
changes and refreshes, the index equals a from-scratch rebuild.
(``tests/test_segments*.py`` pin the segment mechanics themselves:
ownership, tombstones, compaction bytes, crash atomicity.)
"""

import pytest

from repro.corpus import CorpusGenerator, TINY_PROFILE
from repro.engine import SequentialIndexer
from repro.fsmodel import VirtualFileSystem
from repro.index import InvertedIndex
from repro.index.segments import ChangeReport, SegmentedIndexer
from repro.text import TermBlock


def block(path, *terms):
    return TermBlock(path, tuple(terms))


class DocumentStore:
    """add / remove / update of single documents as one-document deltas."""

    def __init__(self):
        self.indexer = SegmentedIndexer(None)

    def upsert(self, *blocks):
        self.indexer.apply_delta({b.path: b for b in blocks}, [], {})

    def remove(self, path):
        self.indexer.apply_delta({}, [path], {})

    def lookup(self, term):
        return self.indexer.manifest.lookup(term)

    @property
    def manifest(self):
        return self.indexer.manifest


class TestIncrementalIndex:
    def test_add_and_lookup(self):
        store = DocumentStore()
        store.upsert(block("f1", "cat", "dog"))
        assert store.lookup("cat") == ["f1"]
        assert "f1" in store.manifest
        assert len(store.manifest) == 1

    def test_remove(self):
        store = DocumentStore()
        store.upsert(block("f1", "cat", "dog"), block("f2", "cat"))
        store.remove("f1")
        assert store.lookup("cat") == ["f2"]
        assert store.lookup("dog") == []
        # No dead term survives, in the live view or the flattened one.
        assert "dog" not in store.manifest.terms()
        assert "dog" not in store.manifest.materialize()

    def test_remove_missing(self):
        store = DocumentStore()
        store.upsert(block("f", "x"))
        store.remove("ghost")
        assert store.manifest.document_paths() == ["f"]
        store.indexer.compact()
        assert not store.manifest.tombstones
        assert store.lookup("x") == ["f"]

    def test_remove_then_readd(self):
        store = DocumentStore()
        store.upsert(block("f", "x"))
        store.remove("f")
        assert "f" not in store.manifest
        store.upsert(block("f", "y"))
        assert store.lookup("y") == ["f"]
        assert store.lookup("x") == []

    def test_update_delta(self):
        store = DocumentStore()
        store.upsert(block("f", "keep", "drop"))
        store.upsert(block("f", "keep", "gain"))
        assert store.lookup("keep") == ["f"]
        assert store.lookup("gain") == ["f"]
        assert store.lookup("drop") == []

    def test_update_unknown_adds(self):
        store = DocumentStore()
        store.upsert(block("f", "x"))
        assert store.lookup("x") == ["f"]

    def test_update_does_not_duplicate_kept_terms(self):
        store = DocumentStore()
        store.upsert(block("f", "stable"))
        store.upsert(block("f", "stable", "new"))
        assert store.lookup("stable") == ["f"]
        assert store.manifest.materialize().posting_count == 2

    def test_document_paths(self):
        store = DocumentStore()
        store.upsert(block("a", "x"))
        store.upsert(block("b", "y"))
        assert sorted(store.manifest.document_paths()) == ["a", "b"]

    def test_matches_bulk_rebuild_after_churn(self):
        operations = [
            ("upsert", block("f1", "a", "b")),
            ("upsert", block("f2", "b", "c")),
            ("upsert", block("f3", "a")),
            ("remove", "f2"),
            ("upsert", block("f1", "a", "z")),
            ("upsert", block("f4", "c", "z")),
            ("remove", "f3"),
            ("upsert", block("f4", "c")),
        ]
        store = DocumentStore()
        live = {}
        for op, arg in operations:
            if op == "upsert":
                store.upsert(arg)
                live[arg.path] = arg
            else:
                store.remove(arg)
                live.pop(arg, None)
        rebuilt = InvertedIndex()
        for b in live.values():
            rebuilt.add_block(b)
        assert store.manifest.materialize() == rebuilt
        store.indexer.compact()
        assert store.manifest.materialize() == rebuilt


def two_files():
    fs = VirtualFileSystem()
    fs.write_file("a.txt", b"alpha words")
    fs.write_file("b.txt", b"beta words")
    return fs


def scanned(fs):
    indexer = SegmentedIndexer(fs)
    indexer.refresh()
    return indexer


def rebuilt(fs):
    return SequentialIndexer(fs, naive=False).build().index


class TestSnapshots:
    def test_snapshot_covers_all_files(self):
        fs = two_files()
        fingerprints = SegmentedIndexer(fs).fingerprint_corpus()
        assert set(fingerprints) == {"a.txt", "b.txt"}
        assert fingerprints == scanned(fs).fingerprints

    def test_no_change(self):
        indexer = scanned(two_files())
        before = indexer.fingerprints
        assert indexer.refresh() == ChangeReport()
        assert indexer.fingerprints == before

    def test_added_detected(self):
        fs = two_files()
        indexer = scanned(fs)
        fs.write_file("c.txt", b"gamma")
        assert indexer.refresh() == ChangeReport(added=["c.txt"])

    def test_removed_detected(self):
        fs = two_files()
        indexer = scanned(fs)
        fs.remove_file("a.txt")
        assert indexer.refresh() == ChangeReport(removed=["a.txt"])

    def test_modified_detected(self):
        fs = two_files()
        indexer = scanned(fs)
        fs.replace_file("b.txt", b"beta changed")
        assert indexer.refresh() == ChangeReport(modified=["b.txt"])

    def test_same_size_different_content_detected(self):
        fs = two_files()
        indexer = scanned(fs)
        fs.replace_file("a.txt", b"alphA words")  # same length
        assert indexer.refresh() == ChangeReport(modified=["a.txt"])
        assert indexer.manifest.lookup("alpha") == ["a.txt"]  # case-folded


class TestIncrementalIndexer:
    @pytest.fixture
    def fs(self):
        return CorpusGenerator(TINY_PROFILE).generate().fs

    def test_first_refresh_indexes_everything(self, fs):
        report = SegmentedIndexer(fs).refresh()
        assert len(report.added) == TINY_PROFILE.file_count
        assert report.total == len(report.added)

    def test_refresh_idempotent(self, fs):
        assert scanned(fs).refresh().total == 0

    def test_matches_bulk_build(self, fs):
        assert scanned(fs).manifest.materialize() == rebuilt(fs)

    def test_tracks_changes_and_matches_rebuild(self, fs):
        indexer = scanned(fs)

        some_file = next(iter(fs.list_files())).path
        fs.replace_file(some_file, b"totally new words here")
        fs.write_file("brand_new.txt", b"fresh content words")
        victim = [r.path for r in fs.list_files()][3]
        fs.remove_file(victim)

        report = indexer.refresh()
        assert report.added == ["brand_new.txt"]
        assert report.removed == [victim]
        assert report.modified == [some_file]
        assert indexer.manifest.materialize() == rebuilt(fs)

    def test_queries_follow_changes(self, fs):
        indexer = scanned(fs)
        fs.write_file("needle.txt", b"xyzzyneedle appears here")
        indexer.refresh()
        assert indexer.manifest.lookup("xyzzyneedle") == ["needle.txt"]
        fs.remove_file("needle.txt")
        indexer.refresh()
        assert indexer.manifest.lookup("xyzzyneedle") == []

    def test_change_report_totals(self):
        report = ChangeReport(added=["a"], removed=["b", "c"], modified=[])
        assert report.total == 3


class TestRefreshCorrectness:
    """Replay idempotency and read-once scanning, pinned."""

    def test_replay_after_partial_refresh_converges(self):
        """A refresh whose index was persisted but whose fingerprints
        were not (``repro-cli refresh`` writes two files) restarts with
        an index *ahead* of its fingerprints; the replay must converge,
        sweeping what the lost refresh indexed and has since vanished."""
        fs = two_files()
        first = scanned(fs)
        stale_fingerprints = first.fingerprints
        fs.write_file("c.txt", b"gamma words")
        fs.write_file("d.txt", b"delta")
        first.refresh()  # indexed c.txt and d.txt ...
        fs.remove_file("d.txt")
        replay = SegmentedIndexer(fs)  # ... but only the index survived
        replay.adopt(first.manifest.materialize(), stale_fingerprints)
        report = replay.refresh()
        assert report.added == ["c.txt"]
        assert report.removed == ["d.txt"]
        assert replay.manifest.materialize() == rebuilt(fs)
        assert replay.manifest.lookup("delta") == []

    def test_replay_after_crashed_refresh_with_faultfs(self):
        """End to end: a fault aborts refresh mid-scan; the retry
        (fault cleared) converges to the from-scratch rebuild."""
        from repro.fsmodel.faultfs import FaultInjectingFileSystem, FaultSpec

        fs = two_files()
        clean = scanned(fs)
        fs.replace_file("a.txt", b"alpha rewritten")
        fs.write_file("c.txt", b"gamma words")
        faulty = FaultInjectingFileSystem(
            fs, {"c.txt": FaultSpec(action="error", exc_type=OSError)}
        )
        crashed = SegmentedIndexer(
            faulty, manifest=clean.manifest, fingerprints=clean.fingerprints
        )
        with pytest.raises(OSError):
            crashed.refresh()
        # Retry against the healthy filesystem, same persisted state.
        retry = SegmentedIndexer(
            fs, manifest=crashed.manifest, fingerprints=crashed.fingerprints
        )
        report = retry.refresh()
        assert report.added == ["c.txt"]
        assert report.modified == ["a.txt"]
        assert retry.manifest.materialize() == rebuilt(fs)

    def test_each_file_read_once_per_refresh(self):
        """The fingerprint and the indexed content come from one read,
        and a file whose stat is unchanged is not read at all."""
        from collections import Counter

        fs = two_files()

        class CountingFs:
            def __init__(self, inner):
                self.inner = inner
                self.reads = Counter()

            def read_file(self, path):
                self.reads[path] += 1
                return self.inner.read_file(path)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        counting = CountingFs(fs)
        indexer = SegmentedIndexer(counting)
        indexer.refresh()
        assert counting.reads == {"a.txt": 1, "b.txt": 1}
        counting.reads.clear()
        fs.replace_file("a.txt", b"alpha rewritten")
        indexer.refresh()
        assert counting.reads == {"a.txt": 1}

    def test_removals_apply_before_adds(self):
        """Content that moves to a new path in one interval is never
        doubly live: the old path is tombstoned, the new one sealed."""
        fs = two_files()
        indexer = scanned(fs)
        content = fs.read_file("a.txt")
        fs.remove_file("a.txt")
        fs.write_file("a2.txt", content)
        report = indexer.refresh()
        assert report.removed == ["a.txt"]
        assert report.added == ["a2.txt"]
        assert indexer.manifest.lookup("alpha") == ["a2.txt"]
        assert indexer.manifest.materialize() == rebuilt(fs)

    def test_remove_and_readd_identical_content_is_noop(self):
        fs = two_files()
        indexer = scanned(fs)
        before = indexer.manifest
        content = fs.read_file("b.txt")
        fs.remove_file("b.txt")
        fs.write_file("b.txt", content)
        assert indexer.refresh().total == 0
        assert indexer.manifest is before
        assert indexer.manifest.lookup("beta") == ["b.txt"]
