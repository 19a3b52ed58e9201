"""Fingerprints ride the one extraction read, on every backend.

What this file pins:

* a build reads each file exactly once and its ``report.fingerprints``
  equal a standalone ``fingerprint_corpus()`` of the same tree, so the
  refresh right after any build reads nothing;
* the fault policy covers the fingerprint too: a skipped file has none
  and comes back as *added*;
* the recorded stamp is the one taken before the read that was indexed,
  so a writer racing the build is re-examined, never lost;
* that stamp is the walk's: a build or refresh stats each file once (in
  ``list_files``) and a refresh reads only what changed;
* a state file's hash of -1 (what builds that split huge files into
  chunks recorded) loads, and is never read as "unchanged";
* the one persisted form, and ``Search.save``/``Search.open`` resuming
  from it.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

import pytest

from repro.api import Search
from repro.engine import (
    FaultPolicy,
    Implementation,
    PoolUnavailableError,
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    SharedLockedIndexer,
    ThreadConfig,
    available_cpus,
)
from repro.engine.impl1_sharded import ShardedLockedIndexer
from repro.engine.procworker import FilesystemSpec, WorkerBatch, build_replica
from repro.extract import AsciiExtractor
from repro.formats.base import DocumentFormat, FormatRegistry
from repro.formats.plain import PlainTextFormat
from repro.fsmodel import (
    FaultInjectingFileSystem,
    FaultSpec,
    OsFileSystem,
    VirtualFileSystem,
)
from repro.index import save_index
from repro.index.binfmt import dump_index_ridx2, parse_ridx2_header
from repro.index.fingerprint import (
    HASH_NAME,
    content_hash,
    load_fingerprints,
    read_fingerprinted,
    save_fingerprints,
    state_path,
)
from repro.index.segments import SegmentedIndexer

PROCESS = ThreadConfig(min(2, available_cpus()), 0, 1, backend="process")

#: ``Search.build`` keywords per backend.
SEARCH_BUILDS = {
    "sequential": {},
    "impl1": dict(
        implementation=Implementation.SHARED_LOCKED,
        config=ThreadConfig(2, 1, 0),
    ),
    "impl1-inline": dict(
        implementation=Implementation.SHARED_LOCKED,
        config=ThreadConfig(2, 0, 0),
    ),
    "impl2": dict(
        implementation=Implementation.REPLICATED_JOINED,
        config=ThreadConfig(2, 0, 1),
    ),
    "impl3": dict(
        implementation=Implementation.REPLICATED_UNJOINED,
        config=ThreadConfig(2, 2, 0),
    ),
    "process": dict(config=PROCESS),
}
THREADED = [name for name in SEARCH_BUILDS if name.startswith("impl")]


class ExplodingFormat(DocumentFormat):
    """A format whose conversion always fails (module-level: it crosses
    into pool workers inside the extractor spec)."""

    name = "exploding"
    extensions = (".boom",)

    def extract_text(self, content):
        raise ValueError("corrupt document")


class CountingFs:
    """Delegating filesystem that records every read.  Crosses into
    pool workers by value, so in the parent it counts the parent's
    reads only."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.reads = []

    def read_file(self, path):
        self.reads.append(path)
        return self._inner.read_file(path)

    def list_files(self, path=""):
        return self._inner.list_files(path)

    def stat(self, path):
        return self._inner.stat(path)

    def file_size(self, path):
        return self._inner.file_size(path)


class CountingExtractor(AsciiExtractor):
    """Records every ``prepare`` and ``tokenize`` call by path or size."""

    name = "test-counting"

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def prepare(self, path, content):
        self.calls.append(("prepare", path))
        return super().prepare(path, content)

    def tokenize(self, content):
        self.calls.append(("tokenize", len(content)))
        return super().tokenize(content)


def make_fs(files=12):
    fs = VirtualFileSystem()
    fs.mkdir("docs")
    for i in range(files):
        where = "docs/" if i % 3 else ""
        fs.write_file(
            f"{where}f{i:02d}.txt", f"shared word{i} word{i + 1}".encode()
        )
    fs.write_file("empty.txt", b"")
    return fs


def corpus_fingerprints(fs):
    return SegmentedIndexer(fs).fingerprint_corpus()


def rebuild_bytes(fs):
    return dump_index_ridx2(SequentialIndexer(fs, naive=False).build().index)


# -- reads == files, fingerprints == the standalone walk ----------------


class TestOneRead:
    @pytest.mark.parametrize("backend", ["sequential"] + THREADED)
    def test_build_reads_each_file_once(self, backend):
        fs = CountingFs(make_fs())
        session = Search.build(fs, **SEARCH_BUILDS[backend])
        assert sorted(fs.reads) == sorted(r.path for r in fs.list_files())
        assert len(fs.reads) == session.report.file_count

    def test_process_build_reads_nothing_in_the_parent(self):
        fs = CountingFs(make_fs())
        session = Search.build(fs, **SEARCH_BUILDS["process"])
        assert fs.reads == []
        assert session.report.fingerprints == corpus_fingerprints(fs)

    @pytest.mark.parametrize("backend", list(SEARCH_BUILDS))
    def test_fingerprints_match_the_walk_and_refresh_reads_nothing(
        self, backend
    ):
        fs = CountingFs(make_fs())
        session = Search.build(fs, **SEARCH_BUILDS[backend])
        assert session.report.fingerprints == corpus_fingerprints(fs)
        del fs.reads[:]
        assert session.refresh().total == 0
        assert fs.reads == []
        assert session.generation == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda fs: SequentialIndexer(fs, naive=True).build(),
            lambda fs: ShardedLockedIndexer(fs, shards=4).build(
                ThreadConfig(2, 0, 0)
            ),
            lambda fs: ShardedLockedIndexer(fs, shards=4).build(
                ThreadConfig(2, 1, 0)
            ),
            lambda fs: SharedLockedIndexer(fs, dynamic="steal").build(
                ThreadConfig(3, 0, 0)
            ),
            lambda fs: ReplicatedJoinedIndexer(fs, dynamic="queue").build(
                ThreadConfig(3, 0, 2)
            ),
            lambda fs: ProcessReplicatedIndexer(fs, oversubscribe=True).build(
                ThreadConfig(3, 0, 1, backend="process")
            ),
        ],
        ids=[
            "sequential-naive",
            "impl1-sharded-inline",
            "impl1-sharded-buffered",
            "impl1-steal",
            "impl2-queue",
            "process-3-workers-one-join",
        ],
    )
    def test_every_engine_config_reports_the_same_map(self, build):
        fs = make_fs()
        assert build(fs).fingerprints == corpus_fingerprints(fs)

    def test_degraded_fallback_reports_fingerprints(self, monkeypatch):
        fs = make_fs()
        indexer = ProcessReplicatedIndexer(fs, oversubscribe=True)

        def refuse(max_workers):
            raise PoolUnavailableError("fork refused (test)")

        monkeypatch.setattr(indexer, "_create_executor", refuse)
        with pytest.warns(RuntimeWarning, match="degrading"):
            report = indexer.build(PROCESS)
        assert report.degraded
        assert report.fingerprints == corpus_fingerprints(fs)

    def test_retry_ladder_absorbs_each_file_once(self):
        """A crashed worker's batch is split and re-run; only merged
        results contribute, so the map is the walk's — no file missing,
        none from a result that was thrown away."""
        clean = make_fs()
        fs = FaultInjectingFileSystem(
            clean,
            {"docs/f04.txt": FaultSpec(action="crash", parent_action="pass")},
        )
        report = ProcessReplicatedIndexer(
            fs, max_retries=1, retry_backoff=0.0, oversubscribe=True
        ).build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.retries > 0 and not report.failures
        assert report.fingerprints == corpus_fingerprints(clean)
        assert dump_index_ridx2(report.index) == rebuild_bytes(clean)

    def test_hash_is_blake2b_64(self):
        fs = make_fs()
        walked = fs.stat("f00.txt")[1]
        content, (size, stamp, digest) = read_fingerprinted(
            fs, "f00.txt", walked
        )
        assert (size, stamp) == fs.stat("f00.txt")
        assert digest == content_hash(content) == int.from_bytes(
            hashlib.blake2b(content, digest_size=8).digest(), "big"
        )
        assert 0 <= digest < 1 << 64


# -- the fault policy covers the fingerprint ----------------------------


class TestSkippedFileHasNoFingerprint:
    VICTIM = "docs/f07.txt"

    @pytest.mark.parametrize("backend", ["sequential", "impl2", "process"])
    @pytest.mark.parametrize("how", ["build", "rebuild"])
    def test_skip_build_completes_and_refresh_adds_the_file(
        self, backend, how
    ):
        """Failed at the parent commit with ``OSError``: the fingerprint
        walk read outside the policy the engines honour."""
        clean = make_fs()
        faulty = FaultInjectingFileSystem(clean, {self.VICTIM: FaultSpec()})
        kwargs = dict(fault=FaultPolicy(on_error="skip"), **SEARCH_BUILDS[backend])
        if how == "build":
            session = Search.build(faulty, **kwargs)
        else:
            session = Search.build(clean, **kwargs)
            session._fs = faulty  # the disk went bad after the build
            session.rebuild()
        report = session.report
        assert [f.path for f in report.failures] == [self.VICTIM]
        assert self.VICTIM not in report.fingerprints
        assert self.VICTIM not in session.universe
        expected = corpus_fingerprints(clean)
        del expected[self.VICTIM]
        assert report.fingerprints == expected

        session._fs = session._segmented.fs = clean  # fault cleared
        change = session.refresh()
        assert change.added == [self.VICTIM]
        assert not change.modified and not change.removed
        assert dump_index_ridx2(session.index) == rebuild_bytes(clean)

    @pytest.mark.parametrize("backend", ["sequential", "impl2", "process"])
    def test_a_file_that_fails_after_its_read_has_none_either(self, backend):
        """Fingerprints are recorded with the index update, not with the
        read: a file whose bytes were read and hashed but failed
        extraction must come back as added, not pass as unchanged."""
        fs = make_fs()
        fs.write_file("bad.boom", b"read fine, cannot be converted")
        plain = PlainTextFormat()
        registry = FormatRegistry([ExplodingFormat(), plain], default=plain)
        session = Search.build(
            fs,
            fault=FaultPolicy(on_error="skip"),
            extractor=AsciiExtractor(registry=registry),
            **SEARCH_BUILDS[backend],
        )
        assert [(f.path, f.stage) for f in session.report.failures] == [
            ("bad.boom", "extract")
        ]
        expected = corpus_fingerprints(fs)
        del expected["bad.boom"]
        assert session.report.fingerprints == expected


class TestRefreshHonoursTheSkipPolicy:
    """A refresh reads under the policy its session was built with.

    Failed at the parent commit: under ``on_error="skip"`` the build
    skipped the unreadable file, and every refresh after it raised the
    file's ``PermissionError``.
    """

    VICTIM = "docs/f07.txt"
    SKIP = FaultPolicy(on_error="skip")
    FAILURE = (VICTIM, "read", "PermissionError")

    def poisoned(self, clean):
        return FaultInjectingFileSystem(
            clean, {self.VICTIM: FaultSpec(exc_type=PermissionError)}
        )

    def skip_rebuild_bytes(self, fs):
        return dump_index_ridx2(Search.build(fs, fault=self.SKIP).index)

    def refresh_on(self, session, fs):
        session._fs = session._segmented.fs = fs
        change = session.refresh()
        session.compact()
        assert dump_index_ridx2(session.index) == self.skip_rebuild_bytes(fs)
        return change

    @staticmethod
    def failures(change):
        return [(f.path, f.stage, f.error_type) for f in change.failures]

    @pytest.mark.parametrize("backend", ["sequential", "impl2", "process"])
    def test_a_skipped_file_is_retried_until_it_heals(self, backend):
        clean = make_fs()
        faulty = self.poisoned(clean)
        session = Search.build(faulty, fault=self.SKIP, **SEARCH_BUILDS[backend])
        assert [f.path for f in session.report.failures] == [self.VICTIM]
        for _ in range(2):
            change = self.refresh_on(session, faulty)
            assert self.failures(change) == [self.FAILURE]
            assert change.total == 0
            assert self.VICTIM not in session._segmented.fingerprints
        change = self.refresh_on(session, clean)
        assert change.added == [self.VICTIM]
        assert not change.modified and not change.removed
        assert change.failures == []
        assert self.VICTIM in session._segmented.fingerprints

    def test_a_live_file_that_turns_unreadable_is_removed(self):
        clean = make_fs()
        session = Search.build(clean, fault=self.SKIP)
        clean.replace_file(self.VICTIM, b"edited, then unreadable")
        change = self.refresh_on(session, self.poisoned(clean))
        assert self.failures(change) == [self.FAILURE]
        assert (change.added, change.modified, change.removed) == (
            [],
            [],
            [self.VICTIM],
        )
        assert self.VICTIM not in session.universe
        change = self.refresh_on(session, clean)
        assert change.added == [self.VICTIM]

    def test_a_reconcile_skips_the_same_file(self):
        clean = make_fs()
        session = Search.build(clean, fault=self.SKIP)
        session._segmented._fingerprints = {}  # as after an open
        change = self.refresh_on(session, self.poisoned(clean))
        assert self.failures(change) == [self.FAILURE]
        assert change.removed == [self.VICTIM]
        assert self.VICTIM not in session._segmented.fingerprints

    def test_an_opened_session_stays_strict(self, tmp_path):
        clean = make_fs()
        saved = str(tmp_path / "index.ridx")
        Search.build(clean).save(saved)
        os.remove(state_path(saved))
        with pytest.raises(PermissionError):
            Search.open(saved, source=self.poisoned(clean)).refresh()


# -- a writer racing the build ------------------------------------------


class RewritingFs:
    """Delegates to a real directory, and rewrites ``victim`` — once,
    while it still holds its original bytes — right after the given
    operation on it returns: ``"walk"`` (``list_files`` has statted the
    victim, before its ref is handed on), ``"stat"`` or ``"read"``.
    Each rewrite appends the operation's name to the ``fired`` file.
    Carries no process-local state, so it behaves the same in a pool
    worker."""

    def __init__(self, inner, victim, original, rewritten, after, fired):
        self._inner = inner
        self._victim = victim
        self._original = original
        self._rewritten = rewritten
        self._after = after
        self._fired = fired

    def _race(self, operation, path):
        if operation == self._after and path == self._victim:
            if self._inner.read_file(path) == self._original:
                self._inner.replace_file(path, self._rewritten)
                with open(self._fired, "a") as fh:
                    fh.write(operation)

    def read_file(self, path):
        content = self._inner.read_file(path)
        self._race("read", path)
        return content

    def stat(self, path):
        result = self._inner.stat(path)
        self._race("stat", path)
        return result

    def list_files(self, path=""):
        for ref in self._inner.list_files(path):
            self._race("walk", ref.path)
            yield ref


class TestWriterRacingTheBuild:
    ORIGINAL = b"alpha beta"
    REWRITTEN = b"alpha gamma delta"  # another size: seen by stat alone

    def racing_fs(self, tmp_path, after):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        disk = OsFileSystem(str(corpus))
        for i in range(6):
            disk.write_file(f"f{i}.txt", f"common term{i}".encode())
        disk.write_file("victim.txt", self.ORIGINAL)
        self.fired = tmp_path / "fired"
        racing = RewritingFs(
            disk,
            "victim.txt",
            self.ORIGINAL,
            self.REWRITTEN,
            after,
            str(self.fired),
        )
        return disk, racing

    def assert_fired(self, after):
        assert self.fired.read_text() == after

    @pytest.mark.parametrize("backend", list(SEARCH_BUILDS))
    def test_rewrite_right_after_the_build_read_it(self, tmp_path, backend):
        disk, racing = self.racing_fs(tmp_path, after="read")
        session = Search.build(racing, **SEARCH_BUILDS[backend])
        self.assert_fired("read")
        # Index and fingerprint both describe the bytes that were read.
        assert session.query("beta").paths == ["victim.txt"]
        assert session.report.fingerprints["victim.txt"][2] == content_hash(
            self.ORIGINAL
        )
        change = session.refresh()
        assert change.modified == ["victim.txt"]
        assert dump_index_ridx2(session.index) == rebuild_bytes(disk)

    @pytest.mark.parametrize("backend", list(SEARCH_BUILDS))
    def test_rewrite_between_the_stat_and_the_read(self, tmp_path, backend):
        """The stamp is the walk's stat on every backend; the rewrite
        lands right after it."""
        after = "walk"
        disk, racing = self.racing_fs(tmp_path, after=after)
        session = Search.build(racing, **SEARCH_BUILDS[backend])
        self.assert_fired(after)
        # The read saw the new bytes: they are what is indexed *and*
        # what is hashed, under the older stamp.
        assert session.query("gamma").paths == ["victim.txt"]
        fingerprint = session.report.fingerprints["victim.txt"]
        assert fingerprint[0] == len(self.REWRITTEN)
        assert fingerprint[2] == content_hash(self.REWRITTEN)
        assert fingerprint[1] <= disk.stat("victim.txt")[1]
        assert session.refresh().total == 0
        assert dump_index_ridx2(session.index) == rebuild_bytes(disk)


# -- old state files: hash -1 --------------------------------------------


class TestChunkSplitSentinel:
    """Builds that extracted huge files in chunks never held a whole
    file's bytes, so their state files record such a file's hash as
    -1.  Such a state still loads; the -1 equals no content hash, so
    the file is skipped while its stat holds and re-indexed, reported
    modified, once it changes."""

    BIG = b" ".join(b"tok%04d" % i for i in range(400))

    def split_state(self, tmp_path, backend):
        """A saved index whose state file says what a chunk-split build
        of ``backend`` said about ``big.txt``."""
        fs = CountingFs(make_fs(files=5))
        fs._inner.write_file("big.txt", self.BIG)
        path = str(tmp_path / "index.ridx2")
        Search.build(fs, **SEARCH_BUILDS[backend]).save(path)
        with open(state_path(path)) as fh:
            state = json.load(fh)
        size, stamp = fs._inner.stat("big.txt")
        assert state["files"]["big.txt"] == [size, stamp, content_hash(self.BIG)]
        state["files"]["big.txt"] = [size, stamp, -1]
        with open(state_path(path), "w") as fh:
            json.dump(state, fh)
        return fs, path

    @pytest.mark.parametrize("backend", THREADED + ["process"])
    def test_sentinel_is_reverified_on_the_next_stat_change(
        self, tmp_path, backend
    ):
        fs, path = self.split_state(tmp_path, backend)
        inner = fs._inner
        session = Search.open(path, source=fs)
        assert session._segmented.fingerprints["big.txt"][2] == -1
        pristine = rebuild_bytes(inner)

        # Unchanged stat: not read.
        del fs.reads[:]
        assert session.refresh().total == 0
        assert fs.reads == []

        # Bumped stamp, identical bytes: the unknown hash can vouch for
        # nothing, so the file is read and re-indexed once ...
        inner.replace_file("big.txt", self.BIG)
        change = session.refresh()
        assert fs.reads == ["big.txt"]
        assert change.modified == ["big.txt"] and change.total == 1
        assert dump_index_ridx2(session.index) == pristine
        assert session._segmented.fingerprints["big.txt"][2] == content_hash(
            self.BIG
        )

        # ... then stable: the hash is known, a bare bump is no change.
        del fs.reads[:]
        assert session.refresh().total == 0
        assert fs.reads == []
        inner.replace_file("big.txt", self.BIG)
        assert session.refresh().total == 0
        assert fs.reads == ["big.txt"]


# -- the persisted form ---------------------------------------------------


#: The RIDX2 header CRC the state files below name.
CRC = 0x1234ABCD


def saved_crc(path: str) -> int:
    """The CRC-32 in the header of the RIDX2 file at ``path``."""
    with open(path, "rb") as fh:
        return parse_ridx2_header(fh.read()).crc32


class TestStateFile:
    def test_round_trip_with_header(self, tmp_path):
        path = str(tmp_path / "s.json")
        fingerprints = {"a.txt": (3, 17, content_hash(b"abc")), "big": (9, 4, -1)}
        save_fingerprints(fingerprints, path, CRC)
        with open(path) as fh:
            state = json.load(fh)
        assert state["hash"] == HASH_NAME == "blake2b-64"
        assert state["index"] == CRC
        assert load_fingerprints(path, CRC) == fingerprints
        # The same fingerprints describe no other index file.
        assert load_fingerprints(path, CRC + 1) is None

    def test_insertion_order_does_not_reach_the_bytes(self, tmp_path):
        # A threaded build inserts in extractor completion order.
        entries = [(f"d{n % 3}/f{n}.txt", (n, 7 * n, n * n)) for n in range(9)]
        forward = str(tmp_path / "forward.json")
        backward = str(tmp_path / "backward.json")
        save_fingerprints(dict(entries), forward, CRC)
        save_fingerprints(dict(reversed(entries)), backward, CRC)
        with open(forward, "rb") as a, open(backward, "rb") as b:
            assert a.read() == b.read()
        assert list(load_fingerprints(forward, CRC)) == sorted(dict(entries))

    @pytest.mark.parametrize(
        "state",
        [
            {"a.txt": [3, 17, 12345]},  # 3.0.0: no header, FNV hashes
            {"hash": "fnv1a-64", "files": {"a.txt": [3, 17, 12345]}},
            {"hash": "blake2b-64"},
            {"hash": "blake2b-64", "files": {"a.txt": [3, 17]}},
            {"hash": "blake2b-64", "files": {"a.txt": [3, 17, "x"]}},
            {"hash": "blake2b-64", "files": {"a.txt": [3, 17, True]}},
            ["not", "a", "map"],
            # Written before states named their index: no "index" key.
            {"hash": "blake2b-64", "files": {"a.txt": [3, 17, 12345]}},
            {"hash": "blake2b-64", "index": str(CRC), "files": {}},
        ],
    )
    def test_anything_else_reads_as_absent(self, tmp_path, state):
        path = str(tmp_path / "s.json")
        with open(path, "w") as fh:
            json.dump(state, fh)
        assert load_fingerprints(path, CRC) is None

    def test_missing_or_unparsable_reads_as_absent(self, tmp_path):
        assert load_fingerprints(str(tmp_path / "nope.json"), CRC) is None
        garbage = tmp_path / "garbage.json"
        garbage.write_bytes(b"\x00RIDX not json")
        assert load_fingerprints(str(garbage), CRC) is None


class TestSaveAndResume:
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        disk = OsFileSystem(str(root))
        for i in range(8):
            disk.write_file(f"f{i}.txt", f"common term{i}".encode())
        return disk

    def test_open_with_source_resumes_in_o_delta(self, tmp_path):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        session = Search.build(disk)
        session.save(saved)
        assert load_fingerprints(state_path(saved), saved_crc(saved)) == (
            session.report.fingerprints
        )

        fs = CountingFs(disk)
        resumed = Search.open(saved, source=fs)
        assert resumed.refresh().total == 0
        assert fs.reads == []

        disk.replace_file("f3.txt", b"common changed words")
        disk.write_file("new.txt", b"fresh")
        disk.remove_file("f5.txt")
        resumed = Search.open(saved, source=fs)
        change = resumed.refresh()
        assert (change.added, change.modified, change.removed) == (
            ["new.txt"],
            ["f3.txt"],
            ["f5.txt"],
        )
        assert sorted(fs.reads) == ["f3.txt", "new.txt"]
        assert dump_index_ridx2(resumed.index) == rebuild_bytes(disk)

    def test_without_a_state_the_first_refresh_reconciles(self, tmp_path):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        Search.build(disk).save(saved)
        os.remove(state_path(saved))
        fs = CountingFs(disk)
        resumed = Search.open(saved, source=fs)
        assert resumed.refresh().total == 0
        assert len(fs.reads) == 8

    @pytest.mark.parametrize("stale", ["unnamed", "ridx1"])
    def test_a_state_that_names_no_file_here_reads_as_absent_once(
        self, tmp_path, stale
    ):
        """A state written before states named their index, or one
        beside a file that is not RIDX2, vouches for nothing: the first
        refresh reconciles, and the save after it names the file."""
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        session = Search.build(disk)
        session.save(saved)
        if stale == "unnamed":
            with open(state_path(saved)) as fh:
                state = json.load(fh)
            del state["index"]
            with open(state_path(saved), "w") as fh:
                json.dump(state, fh)
        else:
            save_index(session.index, saved, format="binary")
        fs = CountingFs(disk)
        resumed = Search.open(saved, source=fs)
        assert resumed.refresh().total == 0
        assert len(fs.reads) == 8
        resumed.save(saved)
        fs = CountingFs(disk)
        assert Search.open(saved, source=fs).refresh().total == 0
        assert fs.reads == []

    def test_open_without_source_does_not_touch_the_state(
        self, tmp_path, monkeypatch
    ):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        Search.build(disk).save(saved)

        def forbidden(path, index_crc):
            raise AssertionError(f"state file read: {path}")

        monkeypatch.setattr("repro.api.load_fingerprints", forbidden)
        assert len(Search.open(saved)) == 8

    def test_a_bare_mtime_bump_is_read_but_never_tokenized(self, tmp_path):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        extractor = CountingExtractor()
        session = Search.build(disk, extractor=extractor)
        session.save(saved)
        with open(saved, "rb") as fh:
            before = fh.read()
        target = os.path.join(disk.base, "f3.txt")
        stamp = os.stat(target).st_mtime_ns + 5_000_000_000
        os.utime(target, ns=(stamp, stamp))
        fs = CountingFs(disk)
        resumed = Search.open(saved, source=fs, extractor=extractor)
        extractor.calls.clear()
        change = resumed.refresh()
        assert (change.added, change.removed, change.modified) == ([], [], [])
        assert change.failures == []
        assert fs.reads == ["f3.txt"]
        assert extractor.calls == []
        resumed.save(saved)
        with open(saved, "rb") as fh:
            assert fh.read() == before
        state = load_fingerprints(state_path(saved), saved_crc(saved))
        assert state["f3.txt"][1] == stamp
        assert state["f3.txt"][2] == session.report.fingerprints["f3.txt"][2]

    def test_save_after_refresh_writes_the_refreshed_state(self, tmp_path):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        session = Search.build(disk)
        disk.write_file("late.txt", b"gecko")
        session.refresh()
        session.save(saved)
        fs = CountingFs(disk)
        resumed = Search.open(saved, source=fs)
        assert resumed.query("gecko").paths == ["late.txt"]
        assert resumed.refresh().total == 0
        assert fs.reads == []


# -- one stat per file: the walk's ----------------------------------------


class StatCountingFs:
    """Delegates to a real directory and counts ``stat`` and
    ``read_file`` calls per path (the parent's calls only: it crosses
    into pool workers by value)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.stats = Counter()
        self.reads = Counter()

    def stat(self, path):
        self.stats[path] += 1
        return self._inner.stat(path)

    def read_file(self, path):
        self.reads[path] += 1
        return self._inner.read_file(path)

    def list_files(self, path=""):
        return self._inner.list_files(path)

    def reset(self) -> None:
        self.stats.clear()
        self.reads.clear()


def stat_then_read_map(disk):
    """The fingerprint map as a second stat per file would take it:
    ``disk.stat``, then read and hash, in walk order."""
    fingerprints = {}
    for ref in disk.list_files():
        _, stamp = disk.stat(ref.path)
        content = disk.read_file(ref.path)
        fingerprints[ref.path] = (len(content), stamp, content_hash(content))
    return fingerprints


class TouchedAfterTheWalk:
    """Delegates to a real directory whose every file is touched, bytes
    unchanged, right after the walk statted it: any later ``stat`` sees
    the stamp one tick on."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def list_files(self, path=""):
        return self._inner.list_files(path)

    def stat(self, path):
        size, stamp = self._inner.stat(path)
        return size, stamp + 1

    def read_file(self, path):
        return self._inner.read_file(path)


class TestOneStatPerFile:
    def corpus(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        disk = OsFileSystem(str(root))
        disk.mkdir("docs")
        for i in range(10):
            where = "docs/" if i % 3 else ""
            disk.write_file(f"{where}f{i}.txt", f"common term{i}".encode())
        disk.write_file("empty.txt", b"")
        return disk

    @pytest.mark.parametrize("backend", ["sequential"] + THREADED)
    def test_build_stats_nothing_past_the_walk(self, tmp_path, backend):
        disk = self.corpus(tmp_path)
        fs = StatCountingFs(disk)
        session = Search.build(fs, **SEARCH_BUILDS[backend])
        assert fs.stats == {}
        assert fs.reads == Counter(ref.path for ref in disk.list_files())
        assert session.report.fingerprints == stat_then_read_map(disk)

    @pytest.mark.parametrize("backend", list(SEARCH_BUILDS))
    def test_refresh_of_an_unchanged_tree_stats_and_reads_nothing(
        self, tmp_path, backend
    ):
        disk = self.corpus(tmp_path)
        fs = StatCountingFs(disk)
        session = Search.build(fs, **SEARCH_BUILDS[backend])
        fs.reset()
        assert session.refresh().total == 0
        assert (fs.stats, fs.reads) == ({}, {})

    def test_reopened_refresh_of_an_unchanged_tree_stats_and_reads_nothing(
        self, tmp_path
    ):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        Search.build(disk).save(saved)
        fs = StatCountingFs(disk)
        assert Search.open(saved, source=fs).refresh().total == 0
        assert (fs.stats, fs.reads) == ({}, {})

    def test_a_process_worker_stats_nothing(self, tmp_path):
        """Failed at the parent commit: the worker received bare paths
        and statted each file before reading it."""
        disk = self.corpus(tmp_path)
        fs = StatCountingFs(disk)
        refs = tuple(disk.list_files())
        batch = WorkerBatch(
            fs=FilesystemSpec(snapshot=fs),
            refs=refs,
            extractor=AsciiExtractor().spec(),
        )
        result = build_replica(batch)
        assert fs.stats == {}
        assert fs.reads == Counter(ref.path for ref in refs)
        assert dict(result.fingerprints) == stat_then_read_map(disk)

    def test_a_process_build_records_the_walks_stamps(self, tmp_path):
        """Failed at the parent commit: each worker recorded its own
        stat, one tick after the walk's."""
        disk = self.corpus(tmp_path)
        report = ProcessReplicatedIndexer(
            TouchedAfterTheWalk(disk), oversubscribe=True
        ).build(ThreadConfig(2, 0, 1, backend="process"))
        walked = {ref.path: ref.stamp for ref in disk.list_files()}
        assert {
            path: fingerprint[1]
            for path, fingerprint in report.fingerprints.items()
        } == walked

    def test_refresh_reads_exactly_the_delta(self, tmp_path):
        disk = self.corpus(tmp_path)
        fs = StatCountingFs(disk)
        session = Search.build(fs)
        disk.replace_file("docs/f4.txt", b"common term4 grown longer")
        disk.write_file("docs/new.txt", b"fresh words")
        disk.remove_file("f3.txt")
        fs.reset()
        change = session.refresh()
        assert (change.added, change.modified, change.removed) == (
            ["docs/new.txt"],
            ["docs/f4.txt"],
            ["f3.txt"],
        )
        assert fs.reads == Counter(["docs/new.txt", "docs/f4.txt"])
        assert fs.stats == {}
        assert dump_index_ridx2(session.index) == rebuild_bytes(disk)

    def test_saved_state_is_the_stat_then_read_map(self, tmp_path):
        disk = self.corpus(tmp_path)
        saved = str(tmp_path / "index.ridx")
        Search.build(StatCountingFs(disk)).save(saved)
        expected = str(tmp_path / "expected.state")
        save_fingerprints(stat_then_read_map(disk), expected, saved_crc(saved))
        with open(state_path(saved), "rb") as got:
            with open(expected, "rb") as want:
                assert got.read() == want.read()
