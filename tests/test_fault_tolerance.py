"""Fault tolerance: poisoned files, worker crashes, hangs, degradation.

Every test drives a deterministic fault through
:class:`repro.fsmodel.FaultInjectingFileSystem` and checks two things:

1. the build terminates with the policy's promised outcome (strict
   aborts, skip records :class:`FileFailure`s and keeps going);
2. the surviving index is *byte-identical* (RIDX1 canonical bytes) to a
   clean build over the corpus minus the failed files — fault recovery
   must never change what gets indexed, only which files are dropped.

The process-backend tests run with ``oversubscribe=True`` and small
worker counts so they behave on single-CPU CI boxes.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    ERROR_POLICIES,
    FaultPolicy,
    FileFailure,
    PoolUnavailableError,
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    SequentialIndexer,
    ThreadConfig,
)
from repro.engine.procworker import FilesystemSpec, WorkerBatch
from repro.extract import ExtractorSpec
from repro.fsmodel import (
    FaultInjectingFileSystem,
    FaultSpec,
    OsFileSystem,
    VirtualFileSystem,
    in_worker_process,
)
from repro.index.binfmt import dump_index_bytes


class HiddenFileSystem:
    """Delegating wrapper that hides named paths from stage 1: the
    reference 'clean corpus minus the failed files'."""

    def __init__(self, inner, hidden) -> None:
        self._inner = inner
        self._hidden = set(hidden)

    def list_files(self, path: str = ""):
        for ref in self._inner.list_files(path):
            if ref.path not in self._hidden:
                yield ref

    def read_file(self, path: str) -> bytes:
        return self._inner.read_file(path)

    def file_size(self, path: str) -> int:
        return self._inner.file_size(path)

    def exists(self, path: str) -> bool:
        return self._inner.exists(path)

    def is_dir(self, path: str) -> bool:
        return self._inner.is_dir(path)


def poison_paths(fs, count=2):
    """Deterministic victim selection: every third file, up to count."""
    paths = [ref.path for ref in fs.list_files()]
    assert len(paths) >= 3 * count
    return paths[:: max(1, len(paths) // count)][:count]


def index_bytes(report):
    return dump_index_bytes(report.index)


def clean_minus(fs, hidden):
    """Canonical bytes of a clean sequential build minus ``hidden``."""
    report = SequentialIndexer(HiddenFileSystem(fs, hidden), naive=False).build()
    return index_bytes(report)


PROC_KW = dict(oversubscribe=True)


# -- fault injection plumbing ------------------------------------------


class TestFaultSpec:
    def test_error_action_raises_everywhere(self):
        spec = FaultSpec(action="error", exc_type=PermissionError, message="no")
        with pytest.raises(PermissionError, match="no: a.txt"):
            spec.trigger("a.txt")

    def test_crash_and_hang_honour_parent_action_in_parent(self):
        assert not in_worker_process()
        with pytest.raises(OSError):
            FaultSpec(action="crash").trigger("a.txt")
        with pytest.raises(OSError):
            FaultSpec(action="hang").trigger("a.txt")
        # parent_action="pass": the fault is worker-only, the parent
        # fallback reads the file normally (trigger returns).
        FaultSpec(action="crash", parent_action="pass").trigger("a.txt")
        FaultSpec(action="hang", parent_action="pass", delay=0.0).trigger("a.txt")

    @pytest.mark.parametrize("bad", ["explode", "", "ERROR"])
    def test_invalid_action_rejected(self, bad):
        with pytest.raises(ValueError, match="action must be"):
            FaultSpec(action=bad)

    def test_invalid_parent_action_rejected(self):
        with pytest.raises(ValueError, match="parent_action"):
            FaultSpec(parent_action="retry")


class TestFaultInjectingFileSystem:
    def test_poisoned_read_raises_others_delegate(self, tiny_fs):
        victim = next(iter(tiny_fs.list_files())).path
        fs = FaultInjectingFileSystem(tiny_fs, {victim: FaultSpec()})
        with pytest.raises(OSError, match="injected fault"):
            fs.read_file(victim)
        assert fs.fault_paths == [victim]
        assert fs.exists(victim)
        assert fs.file_size(victim) == tiny_fs.file_size(victim)
        assert len(list(fs.list_files())) == len(list(tiny_fs.list_files()))
        clean = [r.path for r in tiny_fs.list_files() if r.path != victim]
        assert fs.read_file(clean[0]) == tiny_fs.read_file(clean[0])

    def test_has_no_base_attribute(self, tiny_fs):
        # A ``base`` attr would make FilesystemSpec reopen the wrapper
        # as an on-disk directory and silently drop the faults.
        fs = FaultInjectingFileSystem(tiny_fs, {})
        assert not hasattr(fs, "base")
        spec = FilesystemSpec.from_filesystem(fs)
        assert spec.snapshot is fs and spec.base is None


# -- policy / failure plain data ---------------------------------------


class TestFaultPolicy:
    def test_defaults_are_strict(self):
        policy = FaultPolicy()
        assert policy.on_error == "strict"
        assert not policy.skips
        assert FaultPolicy(on_error="skip").skips

    def test_validation(self):
        with pytest.raises(ValueError, match="on_error"):
            FaultPolicy(on_error="ignore")
        with pytest.raises(ValueError, match="negative"):
            FaultPolicy(max_retries=-1)
        with pytest.raises(TypeError, match="int"):
            FaultPolicy(max_retries=True)
        with pytest.raises(ValueError, match="batch_timeout"):
            FaultPolicy(batch_timeout=0)
        with pytest.raises(ValueError, match="retry_backoff"):
            FaultPolicy(retry_backoff=-0.1)

    def test_error_policies_cover_both_modes(self):
        assert ERROR_POLICIES == ("strict", "skip")


class TestFileFailure:
    def test_from_exception_and_str(self):
        failure = FileFailure.from_exception(
            "docs/a.txt", "read", PermissionError("denied")
        )
        assert failure.path == "docs/a.txt"
        assert failure.stage == "read"
        assert failure.error_type == "PermissionError"
        assert str(failure) == "docs/a.txt [read] PermissionError: denied"

    def test_worker_batch_rejects_unknown_policy(self, tiny_fs):
        with pytest.raises(ValueError, match="on_error"):
            WorkerBatch(
                fs=FilesystemSpec(snapshot=tiny_fs),
                paths=("a",),
                extractor=ExtractorSpec(),
                on_error="ignore",
            )


# -- FilesystemSpec boundary (satellite: no duck-typed ``base``) --------


class TestFilesystemSpec:
    def test_os_filesystem_crosses_by_root_path(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"alpha beta")
        spec = FilesystemSpec.from_filesystem(OsFileSystem(str(tmp_path)))
        assert spec.base == str(tmp_path)
        assert spec.snapshot is None
        assert spec.open().read_file("a.txt") == b"alpha beta"

    def test_vfs_with_base_attribute_is_still_snapshotted(self):
        # Regression: from_filesystem used to duck-type on any string
        # ``base`` attribute, reopening in-memory filesystems as the
        # wrong on-disk directory.
        vfs = VirtualFileSystem()
        vfs.write_file("a.txt", b"alpha beta")
        vfs.base = "/definitely/not/a/real/corpus"
        spec = FilesystemSpec.from_filesystem(vfs)
        assert spec.base is None
        assert spec.snapshot is vfs
        assert spec.open().read_file("a.txt") == b"alpha beta"

    def test_non_filesystem_rejected(self):
        with pytest.raises(TypeError, match="read_file"):
            FilesystemSpec.from_filesystem(object())

    def test_exactly_one_source_required(self, tiny_fs):
        with pytest.raises(ValueError, match="exactly one"):
            FilesystemSpec(base="/tmp", snapshot=tiny_fs)
        with pytest.raises(ValueError, match="exactly one"):
            FilesystemSpec()


# -- per-file error policy, every backend ------------------------------


def build_with(backend, fs, on_error="strict", **proc_kw):
    if backend == "sequential":
        return SequentialIndexer(fs, naive=False, on_error=on_error).build()
    if backend == "thread":
        return ReplicatedJoinedIndexer(fs, on_error=on_error).build(
            ThreadConfig(2, 0, 1)
        )
    indexer = ProcessReplicatedIndexer(
        fs, on_error=on_error, **PROC_KW, **proc_kw
    )
    return indexer.build(ThreadConfig(2, 0, 1, backend="process"))


BACKENDS = ("sequential", "thread", "process")


class TestSkipPolicy:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unreadable_files_skipped_and_recorded(self, tiny_fs, backend):
        victims = poison_paths(tiny_fs)
        fs = FaultInjectingFileSystem(
            tiny_fs,
            {p: FaultSpec(exc_type=PermissionError) for p in victims},
        )
        report = build_with(backend, fs, on_error="skip")
        assert sorted(f.path for f in report.failures) == sorted(victims)
        assert {f.stage for f in report.failures} == {"read"}
        assert {f.error_type for f in report.failures} == {"PermissionError"}
        assert report.indexed_file_count == report.file_count - len(victims)
        assert index_bytes(report) == clean_minus(tiny_fs, victims)
        assert f"{len(victims)} skipped" in report.summary()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_aborts_on_first_error(self, tiny_fs, backend):
        victims = poison_paths(tiny_fs, count=1)
        fs = FaultInjectingFileSystem(
            tiny_fs, {victims[0]: FaultSpec(exc_type=PermissionError)}
        )
        with pytest.raises(PermissionError, match="injected fault"):
            build_with(backend, fs, on_error="strict")

    def test_unknown_policy_rejected_everywhere(self, tiny_fs):
        for cls in (SequentialIndexer, ReplicatedJoinedIndexer):
            with pytest.raises(ValueError, match="on_error"):
                cls(tiny_fs, on_error="ignore")
        with pytest.raises(ValueError, match="on_error"):
            ProcessReplicatedIndexer(tiny_fs, on_error="ignore")


# -- worker crash and hang recovery (process backend) ------------------


class TestCrashRecovery:
    def test_crash_isolated_and_build_completes(self, tiny_fs):
        victims = poison_paths(tiny_fs, count=1)
        fs = FaultInjectingFileSystem(
            tiny_fs,
            # Workers running the poisoned batch die via os._exit; the
            # in-parent fallback re-raises (parent_action="error") so
            # the file is recorded as a skip instead of killing the
            # build.
            {victims[0]: FaultSpec(action="crash")},
        )
        indexer = ProcessReplicatedIndexer(
            fs, on_error="skip", max_retries=2, retry_backoff=0.0, **PROC_KW
        )
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.retries > 0
        assert [f.path for f in report.failures] == victims
        assert index_bytes(report) == clean_minus(tiny_fs, victims)
        assert f"{report.retries} retried" in report.summary()

    def test_crash_under_strict_still_terminates(self, tiny_fs):
        # Even under "strict" a crashed worker walks the retry ladder;
        # the in-parent rung then raises the real per-file error
        # instead of an opaque BrokenProcessPool.
        victims = poison_paths(tiny_fs, count=1)
        fs = FaultInjectingFileSystem(
            tiny_fs,
            {victims[0]: FaultSpec(action="crash", exc_type=PermissionError)},
        )
        indexer = ProcessReplicatedIndexer(
            fs, on_error="strict", max_retries=1, retry_backoff=0.0, **PROC_KW
        )
        with pytest.raises(PermissionError, match="injected fault"):
            indexer.build(ThreadConfig(2, 0, 1, backend="process"))


class TestHangRecovery:
    def test_hung_worker_timed_out_and_file_skipped(self, tiny_fs):
        victims = poison_paths(tiny_fs, count=1)
        fs = FaultInjectingFileSystem(
            tiny_fs, {victims[0]: FaultSpec(action="hang", delay=30.0)}
        )
        indexer = ProcessReplicatedIndexer(
            fs,
            on_error="skip",
            max_retries=1,
            batch_timeout=1.0,
            retry_backoff=0.0,
            **PROC_KW,
        )
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.retries > 0
        assert [f.path for f in report.failures] == victims
        assert index_bytes(report) == clean_minus(tiny_fs, victims)

    def test_transient_hang_recovers_every_file(self, tiny_fs):
        # parent_action="pass": the file only hangs inside workers, so
        # the in-parent fallback indexes it — no failures, full index.
        victims = poison_paths(tiny_fs, count=1)
        fs = FaultInjectingFileSystem(
            tiny_fs,
            {
                victims[0]: FaultSpec(
                    action="hang", delay=30.0, parent_action="pass"
                )
            },
        )
        indexer = ProcessReplicatedIndexer(
            fs,
            on_error="skip",
            max_retries=1,
            batch_timeout=1.0,
            retry_backoff=0.0,
            **PROC_KW,
        )
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.failures == []
        assert index_bytes(report) == index_bytes(
            SequentialIndexer(tiny_fs, naive=False).build()
        )


# -- merge equivalence under failure, policy x fault x backend ---------


FAULTS = {
    "unreadable": FaultSpec(exc_type=PermissionError),
    "crash": FaultSpec(action="crash"),
    "hang": FaultSpec(action="hang", delay=30.0),
}


class TestMergeEquivalenceUnderFailure:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_surviving_index_matches_clean_build(self, tiny_fs, backend, fault):
        # In the threaded backends crash/hang specs fire in the parent
        # process and behave as plain errors (parent_action="error"),
        # so the whole matrix reduces to one invariant: the surviving
        # files' index is byte-identical to a clean build minus the
        # poisoned files — regardless of backend, fault kind, or how
        # many retry rungs the recovery walked.
        victims = poison_paths(tiny_fs)
        fs = FaultInjectingFileSystem(
            tiny_fs, {p: FAULTS[fault] for p in victims}
        )
        proc_kw = {}
        if backend == "process":
            proc_kw = dict(
                max_retries=2,
                batch_timeout=1.0 if fault == "hang" else None,
                retry_backoff=0.0,
            )
        report = build_with(backend, fs, on_error="skip", **proc_kw)
        assert sorted(f.path for f in report.failures) == sorted(victims)
        assert index_bytes(report) == clean_minus(tiny_fs, victims)


# -- graceful degradation to threads -----------------------------------


class TestDegradation:
    def test_pool_failure_degrades_to_threads(self, tiny_fs, monkeypatch):
        indexer = ProcessReplicatedIndexer(tiny_fs, **PROC_KW)

        def refuse(max_workers):
            raise PoolUnavailableError("fork refused (test)")

        monkeypatch.setattr(indexer, "_create_executor", refuse)
        with pytest.warns(RuntimeWarning, match="degrading to the threaded"):
            report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.degraded
        assert "(degraded to threads)" in report.summary()
        assert index_bytes(report) == index_bytes(
            SequentialIndexer(tiny_fs, naive=False).build()
        )
        assert len(report.extractor_times) == 2

    def test_degraded_build_keeps_error_policy(self, tiny_fs, monkeypatch):
        victims = poison_paths(tiny_fs)
        fs = FaultInjectingFileSystem(
            tiny_fs, {p: FaultSpec() for p in victims}
        )
        indexer = ProcessReplicatedIndexer(fs, on_error="skip", **PROC_KW)
        monkeypatch.setattr(
            indexer,
            "_create_executor",
            lambda max_workers: (_ for _ in ()).throw(
                PoolUnavailableError("no pool")
            ),
        )
        with pytest.warns(RuntimeWarning):
            report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert report.degraded
        assert sorted(f.path for f in report.failures) == sorted(victims)
        assert index_bytes(report) == clean_minus(tiny_fs, victims)


# -- observability attributes (satellite: AttributeError regression) ---


class TestObservability:
    def test_attributes_exist_before_first_build(self, tiny_fs):
        indexer = ProcessReplicatedIndexer(tiny_fs, **PROC_KW)
        # Regression: last_extractor_times was only assigned inside
        # build(), so reading it on a fresh indexer raised
        # AttributeError.
        assert indexer.last_extractor_times == []
        assert indexer.last_failures == []
        assert indexer.last_retries == 0

    def test_attributes_reset_by_failed_build(self, tiny_fs):
        victim = poison_paths(tiny_fs, count=1)[0]
        fs = FaultInjectingFileSystem(tiny_fs, {victim: FaultSpec()})
        indexer = ProcessReplicatedIndexer(fs, on_error="skip", **PROC_KW)
        report = indexer.build(ThreadConfig(2, 0, 1, backend="process"))
        assert len(indexer.last_failures) == 1
        # A subsequent strict indexer starts clean even when its build
        # aborts part-way.
        strict = ProcessReplicatedIndexer(fs, on_error="strict", **PROC_KW)
        with pytest.raises(OSError):
            strict.build(ThreadConfig(2, 0, 1, backend="process"))
        assert strict.last_failures == []
        assert strict.last_extractor_times == [0.0, 0.0]
        assert report.retries == 0


# -- pool capped at non-empty batches (satellite) ----------------------


class TestSmallCorpusPool:
    def make_fs(self, n):
        vfs = VirtualFileSystem()
        for i in range(n):
            vfs.write_file(f"f{i}.txt", f"alpha beta gamma{i}".encode())
        return vfs

    def test_more_workers_than_files(self):
        vfs = self.make_fs(3)
        indexer = ProcessReplicatedIndexer(vfs, oversubscribe=True)
        report = indexer.build(ThreadConfig(5, 0, 1, backend="process"))
        # Accounting keeps length x; the two empty slots never forked a
        # process and stay at exactly 0.0.
        assert len(report.extractor_times) == 5
        assert sorted(report.extractor_times)[:2] == [0.0, 0.0]
        assert sum(t > 0.0 for t in report.extractor_times) == 3
        assert report.file_count == 3
        assert index_bytes(report) == index_bytes(
            SequentialIndexer(vfs, naive=False).build()
        )

    def test_empty_corpus(self):
        vfs = VirtualFileSystem()
        indexer = ProcessReplicatedIndexer(vfs, oversubscribe=True)
        report = indexer.build(ThreadConfig(3, 0, 1, backend="process"))
        assert report.file_count == 0
        assert report.term_count == 0
        assert report.extractor_times == [0.0, 0.0, 0.0]
