"""Huge-file divide-and-conquer: chunk planning, boundary alignment,
join semantics, engine equivalence, and mid-chunk fault recovery.

The central invariant everything here pins:

    a split build's index is byte-identical (RIDX1 canonical bytes) to
    the same build with splitting disabled,

for every backend, extractor and threshold — chunking may only change
*who* extracts the bytes, never what lands in the index.  The fault
tests then drive the PR-2 recovery ladder (retry -> in-parent
fallback) through mid-chunk crashes/hangs/errors and require either
full recovery or a whole-file skip: a half-indexed document must never
exist.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ProcessReplicatedIndexer,
    ReplicatedJoinedIndexer,
    ReplicatedUnjoinedIndexer,
    SequentialIndexer,
    SharedLockedIndexer,
    ThreadConfig,
)
from repro.extract import (
    AsciiExtractor,
    CodeExtractor,
    SplitJoiner,
    TsvExtractor,
    expand_file_refs,
    plan_chunks,
    read_chunk,
)
from repro.extract.split import read_range
from repro.formats import default_registry
from repro.fsmodel import (
    FaultInjectingFileSystem,
    FaultSpec,
    VirtualFileSystem,
)
from repro.fsmodel.nodes import ChunkRef, FileRef
from repro.index.binfmt import dump_index_bytes
from repro.index.merge import join_indices
from repro.index.multi import MultiIndex
from repro.obs import Recorder
from repro.obs import recorder as obsrec


@pytest.fixture
def fresh_obs():
    previous = obsrec.set_recorder(Recorder(enabled=False))
    try:
        yield obsrec.get_recorder()
    finally:
        obsrec.set_recorder(previous)


def flat_bytes(index):
    if isinstance(index, MultiIndex):
        index = join_indices(index.replicas)
    return dump_index_bytes(index)


# -- chunk planning ----------------------------------------------------


class TestPlanChunks:
    def test_small_file_is_one_chunk(self):
        assert plan_chunks(100, 100) == [(0, 100)]

    def test_chunks_cover_exactly_once(self):
        chunks = plan_chunks(1000, 64)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 1000
        for (_, a_end), (b_start, _) in zip(chunks, chunks[1:]):
            assert a_end == b_start

    def test_chunk_count_is_ceiling(self):
        assert len(plan_chunks(1001, 100)) == 11

    def test_sizes_near_equal(self):
        sizes = [end - start for start, end in plan_chunks(1000, 64)]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            plan_chunks(10, 0)


class TestChunkRef:
    def test_carries_chunk_geometry(self):
        ref = ChunkRef(
            path="big.txt", size=50, start=100, end=150, index=2,
            count=4, file_size=400,
        )
        assert isinstance(ref, FileRef)
        assert ref.size == 50  # chunk length, so sizebalanced spreads chunks

    def test_validates_range_and_index(self):
        with pytest.raises(ValueError):
            ChunkRef(path="x", size=1, start=5, end=3, index=0, count=1,
                     file_size=10)
        with pytest.raises(ValueError):
            ChunkRef(path="x", size=1, start=0, end=1, index=3, count=2,
                     file_size=1)


# -- boundary alignment ------------------------------------------------


def chunked_terms(fs, path, extractor, threshold):
    """Concatenated per-chunk terms, in chunk order."""
    size = fs.file_size(path)
    out = []
    for start, end in plan_chunks(size, threshold):
        data = read_chunk(
            fs, path, size, start, end, extractor.boundary_bytes
        )
        out.extend(extractor.chunk_terms(data))
    return out


class TestReadChunkAlignment:
    def make_fs(self, content):
        fs = VirtualFileSystem()
        fs.write_file("f.txt", content)
        return fs

    @pytest.mark.parametrize("threshold", (1, 3, 7, 16, 1000))
    def test_chunked_equals_whole(self, threshold):
        content = b"alpha beta12 GAMMA,delta epsilon zeta " * 4
        fs = self.make_fs(content)
        ex = AsciiExtractor()
        assert chunked_terms(fs, "f.txt", ex, threshold) == ex.tokenize(
            content
        )

    def test_one_giant_run_owned_by_first_chunk(self):
        content = b"x" * 64
        fs = self.make_fs(content)
        ex = AsciiExtractor()
        assert chunked_terms(fs, "f.txt", ex, 16) == ex.tokenize(content)

    def test_mid_run_chunk_contributes_nothing(self):
        fs = self.make_fs(b"x" * 64)
        data = read_chunk(fs, "f.txt", 64, 16, 32,
                          AsciiExtractor().boundary_bytes)
        assert data == b""

    @pytest.mark.parametrize("threshold", (2, 5, 11, 64))
    def test_tsv_chunks_hold_whole_records(self, threshold):
        content = b"1\thello world\tspam\n2\tbye now\teggs\n3\tlast\tone\n"
        fs = self.make_fs(content)
        ex = TsvExtractor(columns=(1,))
        assert chunked_terms(fs, "f.txt", ex, threshold) == ex.terms(
            "f.txt", content
        )

    @settings(max_examples=60, deadline=None)
    @given(
        content=st.binary(max_size=300),
        threshold=st.integers(min_value=1, max_value=50),
    )
    def test_property_chunked_equals_whole(self, content, threshold):
        fs = self.make_fs(content)
        ex = AsciiExtractor()
        assert chunked_terms(fs, "f.txt", ex, threshold) == ex.tokenize(
            content
        )

    def test_read_range_falls_back_to_slicing(self):
        class Minimal:
            def read_file(self, path):
                return b"0123456789"

        assert read_range(Minimal(), "f", 3, 4) == b"3456"


# -- work-list expansion -----------------------------------------------


class TestExpandFileRefs:
    def make_fs(self):
        fs = VirtualFileSystem()
        fs.write_file("small.txt", b"tiny")
        fs.write_file("big.txt", b"word " * 100)
        fs.write_file("page.html", b"<html>" + b"tag " * 200 + b"</html>")
        return fs

    def test_threshold_none_disables_splitting(self):
        fs = self.make_fs()
        files = list(fs.list_files())
        refs, split = expand_file_refs(fs, files, AsciiExtractor(), None)
        assert refs == files
        assert split == {}

    def test_oversized_files_become_chunk_runs(self):
        fs = self.make_fs()
        refs, split = expand_file_refs(
            fs, list(fs.list_files()), AsciiExtractor(), 100
        )
        assert list(split) == ["big.txt", "page.html"]
        chunks = [r for r in refs if isinstance(r, ChunkRef)]
        assert {c.path for c in chunks} == {"big.txt", "page.html"}
        small = [r for r in refs if r.path == "small.txt"]
        assert not isinstance(small[0], ChunkRef)

    def test_non_plaintext_formats_stay_whole(self):
        fs = self.make_fs()
        ex = AsciiExtractor(registry=default_registry())
        refs, split = expand_file_refs(fs, list(fs.list_files()), ex, 100)
        assert list(split) == ["big.txt"]  # the HTML file cannot be chunked
        assert not any(
            isinstance(r, ChunkRef) and r.path == "page.html" for r in refs
        )

    def test_unreadable_head_leaves_file_whole(self):
        fs = self.make_fs()
        poisoned = FaultInjectingFileSystem(
            fs, {"big.txt": FaultSpec(exc_type=PermissionError)}
        )
        refs, split = expand_file_refs(
            poisoned, list(fs.list_files()), AsciiExtractor(), 100
        )
        assert "big.txt" not in split
        assert not any(
            isinstance(r, ChunkRef) and r.path == "big.txt" for r in refs
        )


# -- the joiner --------------------------------------------------------


class TestSplitJoiner:
    def test_releases_in_chunk_order_on_last_part(self):
        joiner = SplitJoiner()
        assert joiner.add("f", 2, 3, ["c"]) is None
        assert joiner.add("f", 0, 3, ["a"]) is None
        assert joiner.add("f", 1, 3, ["b"]) == ["a", "b", "c"]

    def test_releases_exactly_once(self):
        joiner = SplitJoiner()
        joiner.add("f", 0, 2, ["a"])
        assert joiner.add("f", 1, 2, ["b"]) == ["a", "b"]
        # A fresh file under the same path starts clean.
        assert joiner.add("f", 0, 1, ["x"]) == ["x"]

    def test_failure_poisons_the_whole_file(self):
        joiner = SplitJoiner()
        joiner.add("f", 0, 3, ["a"])
        assert joiner.fail("f", 3) is True
        assert joiner.add("f", 2, 3, ["c"]) is None  # nothing released

    def test_only_first_failure_reports(self):
        joiner = SplitJoiner()
        assert joiner.fail("f", 3) is True
        assert joiner.fail("f", 3) is False
        assert joiner.add("f", 1, 3, ["b"]) is None

    def test_files_are_independent(self):
        joiner = SplitJoiner()
        joiner.fail("bad", 2)
        assert joiner.add("good", 0, 1, ["t"]) == ["t"]


# -- engine equivalence: split == unsplit -------------------------------


@pytest.fixture(scope="module")
def split_fs():
    fs = VirtualFileSystem()
    fs.write_file("small-1.txt", b"needle in the haystack")
    fs.write_file("small-2.txt", b"cat dog ferret")
    fs.write_file("huge-1.txt", b"alpha beta gamma delta epsilon " * 120)
    fs.write_file("huge-2.log", b"GET /idx?q=term200 HTTP 1.1 ok\n" * 150)
    fs.write_file("huge-3.tsv", b"7\tsplit me evenly\tacross workers\n" * 90)
    return fs


def build_report(backend, fs, extractor=None, split_threshold=None, **kw):
    if backend == "impl1":
        return SharedLockedIndexer(
            fs, extractor=extractor, split_threshold=split_threshold
        ).build(ThreadConfig(3, 2, 0))
    if backend == "impl2":
        return ReplicatedJoinedIndexer(
            fs, extractor=extractor, split_threshold=split_threshold
        ).build(ThreadConfig(2, 0, 1))
    if backend == "impl3":
        return ReplicatedUnjoinedIndexer(
            fs, extractor=extractor, split_threshold=split_threshold
        ).build(ThreadConfig(3, 2, 0))
    return ProcessReplicatedIndexer(
        fs,
        extractor=extractor,
        split_threshold=split_threshold,
        oversubscribe=True,
        **kw,
    ).build(ThreadConfig(2, 0, 1, backend="process"))


THREADED = ("impl1", "impl2", "impl3")


class TestSplitBuildEquivalence:
    @pytest.mark.parametrize("backend", THREADED + ("process",))
    def test_split_build_matches_unsplit(self, split_fs, backend):
        unsplit = build_report(backend, split_fs)
        split = build_report(backend, split_fs, split_threshold=512)
        assert flat_bytes(split.index) == flat_bytes(unsplit.index)
        assert split.file_count == unsplit.file_count

    @pytest.mark.parametrize("threshold", (64, 300, 1 << 20))
    def test_thresholds_never_change_the_index(self, split_fs, threshold):
        reference = SequentialIndexer(split_fs, naive=False).build()
        split = build_report("impl2", split_fs, split_threshold=threshold)
        assert flat_bytes(split.index) == flat_bytes(reference.index)

    @pytest.mark.parametrize(
        "extractor", (CodeExtractor, lambda: TsvExtractor(columns=(1, 2)))
    )
    @pytest.mark.parametrize("backend", ("impl2", "process"))
    def test_split_equivalence_per_extractor(
        self, split_fs, backend, extractor
    ):
        unsplit = build_report(backend, split_fs, extractor=extractor())
        split = build_report(
            backend, split_fs, extractor=extractor(), split_threshold=400
        )
        assert flat_bytes(split.index) == flat_bytes(unsplit.index)

    def test_invalid_threshold_rejected(self, split_fs):
        with pytest.raises(ValueError, match="split_threshold"):
            ReplicatedJoinedIndexer(split_fs, split_threshold=0)
        with pytest.raises(ValueError, match="split_threshold"):
            ProcessReplicatedIndexer(split_fs, split_threshold=-5)

    def test_files_split_counter(self, split_fs, fresh_obs):
        build_report("impl2", split_fs, split_threshold=512)
        assert obsrec.metrics().snapshot()["extract.files_split"] == 3.0

    def test_no_split_no_counter(self, split_fs, fresh_obs):
        build_report("impl2", split_fs, split_threshold=1 << 20)
        assert "extract.files_split" not in obsrec.metrics().snapshot()


class TestChunkSpans:
    def test_threaded_trace_has_chunk_spans(self, split_fs):
        rec = obsrec.set_recorder(Recorder(enabled=True))
        try:
            ReplicatedJoinedIndexer(split_fs, split_threshold=512).build(
                ThreadConfig(2, 0, 1)
            )
            spans = obsrec.get_recorder().spans
        finally:
            obsrec.set_recorder(rec)
        chunk_spans = [s for s in spans if s.name == "extract.chunk"]
        assert chunk_spans
        assert {s.attrs["path"] for s in chunk_spans} == {
            "huge-1.txt", "huge-2.log", "huge-3.tsv",
        }

    def test_process_trace_has_chunk_spans(self, split_fs):
        rec = obsrec.set_recorder(Recorder(enabled=True))
        try:
            build_report("process", split_fs, split_threshold=512)
            spans = obsrec.get_recorder().spans
        finally:
            obsrec.set_recorder(rec)
        chunk_spans = [s for s in spans if s.name == "extract.chunk"]
        assert chunk_spans
        assert all("worker" in s.attrs for s in chunk_spans)


# -- mid-chunk faults ---------------------------------------------------


class MidChunkFaultFS:
    """Delegating wrapper whose fault fires only on ranged reads past
    offset 0 — the head probe and chunk 0 succeed, so the file *does*
    split and the fault lands mid-chunk, in whichever process reads it.
    """

    def __init__(self, inner, path, spec) -> None:
        self._inner = inner
        self._path = path
        self._spec = spec

    def read_range(self, path, offset, length):
        if path == self._path and offset > 0:
            self._spec.trigger(path)
        return read_range(self._inner, path, offset, length)

    def read_file(self, path):
        return self._inner.read_file(path)

    def list_files(self, path=""):
        return self._inner.list_files(path)

    def file_size(self, path):
        return self._inner.file_size(path)

    def exists(self, path):
        return self._inner.exists(path)

    def is_dir(self, path):
        return self._inner.is_dir(path)


class TestMidChunkFaults:
    VICTIM = "huge-1.txt"

    @pytest.mark.parametrize("backend", ("impl2", "process"))
    def test_failed_chunk_skips_the_whole_file(self, split_fs, backend):
        # No half-indexed documents: one failed chunk drops the file
        # entirely (exactly one FileFailure), and the survivors match a
        # clean build without the victim byte-for-byte.
        fs = MidChunkFaultFS(
            split_fs, self.VICTIM, FaultSpec(exc_type=PermissionError)
        )
        if backend == "process":
            report = build_report(
                backend, fs, split_threshold=512, on_error="skip",
                max_retries=1, retry_backoff=0.0,
            )
        else:
            report = ReplicatedJoinedIndexer(
                fs, split_threshold=512, on_error="skip"
            ).build(ThreadConfig(2, 0, 1))
        assert [f.path for f in report.failures] == [self.VICTIM]
        assert report.failures[0].stage == "read"

        clean = VirtualFileSystem()
        for ref in split_fs.list_files():
            if ref.path != self.VICTIM:
                clean.write_file(ref.path, split_fs.read_file(ref.path))
        reference = SequentialIndexer(clean, naive=False).build()
        assert flat_bytes(report.index) == flat_bytes(reference.index)

    @pytest.mark.parametrize("backend", ("impl2", "process"))
    def test_strict_aborts_on_mid_chunk_error(self, split_fs, backend):
        fs = MidChunkFaultFS(
            split_fs, self.VICTIM, FaultSpec(exc_type=PermissionError)
        )
        with pytest.raises(PermissionError, match="injected fault"):
            if backend == "process":
                build_report(backend, fs, split_threshold=512)
            else:
                ReplicatedJoinedIndexer(fs, split_threshold=512).build(
                    ThreadConfig(2, 0, 1)
                )

    def test_chunk_crash_recovers_via_in_parent_fallback(self, split_fs):
        # parent_action="pass": the crash fires only inside worker
        # processes.  The ladder retries the chunk, keeps crashing, and
        # the in-parent fallback extracts it — the build must recover
        # every file and match the clean sequential index exactly.
        fs = MidChunkFaultFS(
            split_fs,
            self.VICTIM,
            FaultSpec(action="crash", parent_action="pass"),
        )
        report = build_report(
            "process", fs, split_threshold=512, on_error="skip",
            max_retries=1, retry_backoff=0.0,
        )
        assert report.failures == []
        assert report.retries >= 1
        reference = SequentialIndexer(split_fs, naive=False).build()
        assert flat_bytes(report.index) == flat_bytes(reference.index)

    def test_chunk_hang_times_out_and_recovers(self, split_fs):
        fs = MidChunkFaultFS(
            split_fs,
            self.VICTIM,
            FaultSpec(action="hang", delay=30.0, parent_action="pass"),
        )
        report = build_report(
            "process", fs, split_threshold=512, on_error="skip",
            max_retries=1, retry_backoff=0.0, batch_timeout=1.0,
        )
        assert report.failures == []
        reference = SequentialIndexer(split_fs, naive=False).build()
        assert flat_bytes(report.index) == flat_bytes(reference.index)

    def test_poisoned_path_never_splits_but_still_fails_cleanly(
        self, split_fs
    ):
        # A path whose *every* read fails can't even head-probe; it is
        # left whole and walks the normal per-file skip path.
        fs = FaultInjectingFileSystem(
            split_fs, {self.VICTIM: FaultSpec(exc_type=PermissionError)}
        )
        report = build_report(
            "process", fs, split_threshold=512, on_error="skip",
            max_retries=1, retry_backoff=0.0,
        )
        assert [f.path for f in report.failures] == [self.VICTIM]
