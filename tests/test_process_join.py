"""The process build's join: one bulk pass, in batch order.

With one joiner the parent joins the workers' RWIRE1 replicas and the
split files' term blocks in a single pass
(:func:`repro.index.binfmt.join_wire_replicas`) and takes the build's
documents and posting count from it.  These tests pin the product
level: a 2-worker process build is byte for byte the sequential one,
reports the same documents and posting count, and its RWIRE1 does not
depend on which worker finished first.
"""

from __future__ import annotations

import pytest

import repro.engine.procbackend as procbackend
from repro.api import Search
from repro.distribute.roundrobin import RoundRobinStrategy
from repro.engine import FaultPolicy, ProcessReplicatedIndexer, ThreadConfig
from repro.engine.procworker import FilesystemSpec, WorkerBatch, build_replica
from repro.extract import AsciiExtractor
from repro.extract.registry import register_extractor
from repro.fsmodel import (
    FaultInjectingFileSystem,
    FaultSpec,
    VirtualFileSystem,
)
from repro.index.binfmt import (
    dump_index_ridx2,
    dump_index_wire,
    merge_wire_replica,
)
from repro.index.inverted import InvertedIndex
from tests.test_native_build import assert_same_content

PROCESS = ThreadConfig(2, 0, 1, backend="process")


class FaultyExtractor(AsciiExtractor):
    """Fails the tokenize stage for content carrying a marker; registered
    by name so the spec rebuilds it inside the (forked) workers."""

    name = "test-faulty-tokenize"

    def tokenize(self, content: bytes):
        if b"BOOM" in content:
            raise RuntimeError("injected tokenize fault")
        return super().tokenize(content)


register_extractor(FaultyExtractor.name, FaultyExtractor)


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """A 2-worker pool is a deliberate oversubscription on 1-CPU boxes."""
    monkeypatch.setattr(procbackend, "available_cpus", lambda: 2)


def corpus(files=12):
    """Files sharing vocabulary, and two without a term."""
    fs = VirtualFileSystem()
    fs.mkdir("docs")
    for i in range(files):
        where = "docs/" if i % 3 else ""
        fs.write_file(
            f"{where}f{i:02d}.txt",
            f"shared word{i} word{i + 1} w{i % 4}".encode(),
        )
    fs.write_file("empty.txt", b"")
    fs.write_file("docs/short.txt", b"a b 1")
    return fs


def assert_same_build(fs, tmp_path, **kw):
    """The process build equals the sequential one: RIDX2 bytes, the
    documents and the posting count."""
    sequential = Search.build(fs, cache=0, **kw)
    process = Search.build(fs, config=PROCESS, cache=0, **kw)
    sequential.save(str(tmp_path / "sequential.ridx"))
    process.save(str(tmp_path / "process.ridx"))
    assert (tmp_path / "process.ridx").read_bytes() == (
        tmp_path / "sequential.ridx"
    ).read_bytes()
    expected, report = sequential.report, process.report
    assert report.documents is not None
    assert len(report.documents) == len(set(report.documents))
    assert set(report.documents) == set(expected.documents)
    assert report.posting_count == expected.posting_count
    assert report.posting_count == process.index.posting_count
    return process


class TestProductBuild:
    def test_termless_files_are_no_documents(self, tmp_path):
        report = assert_same_build(corpus(), tmp_path).report
        assert {"empty.txt", "docs/short.txt"} <= set(report.fingerprints)
        assert not {"empty.txt", "docs/short.txt"} & set(report.documents)

    def test_skip_policy_with_read_and_tokenize_failures(self, tmp_path):
        inner = corpus()
        inner.write_file("bad-read.txt", b"alpha delta")
        inner.write_file("docs/bad-tokenize.txt", b"alpha BOOM")
        fs = FaultInjectingFileSystem(inner, {"bad-read.txt": FaultSpec()})
        session = assert_same_build(
            fs,
            tmp_path,
            fault=FaultPolicy(on_error="skip"),
            extractor=FaultyExtractor(),
        )
        failed = sorted((f.path, f.stage) for f in session.report.failures)
        assert failed == [
            ("bad-read.txt", "read"),
            ("docs/bad-tokenize.txt", "tokenize"),
        ]

    def test_split_files_join_as_blocks(self, tmp_path):
        fs = corpus()
        words = " ".join(f"big{i % 40}" for i in range(200))
        fs.write_file("docs/huge.txt", f"shared {words}".encode())
        fs.write_file("huge2.txt", f"{words} tail".encode())
        session = assert_same_build(fs, tmp_path, split_threshold=256)
        assert {"docs/huge.txt", "huge2.txt"} <= set(session.report.documents)


def batch_order_fold(fs):
    """The two round-robin replicas folded key by key in batch order."""
    files = list(fs.list_files())
    spec = FilesystemSpec.from_filesystem(fs)
    extractor = AsciiExtractor().spec()
    index = InvertedIndex()
    for assignment in RoundRobinStrategy().distribute(files, 2).assignments:
        batch = WorkerBatch(fs=spec, refs=tuple(assignment), extractor=extractor)
        merge_wire_replica(index, build_replica(batch).replica)
    return index


class TestBatchOrder:
    def test_reversed_completion_joins_in_batch_order(self):
        fs = corpus()
        first = RoundRobinStrategy().distribute(list(fs.list_files()), 2)
        slow_path = first.assignments[0][0].path
        # Batch 0's first read sleeps in the worker (never in the
        # parent), so batch 1 completes first.
        delayed = FaultInjectingFileSystem(
            fs,
            {
                slow_path: FaultSpec(
                    action="hang", delay=1.0, parent_action="pass"
                )
            },
        )
        undelayed = ProcessReplicatedIndexer(fs).build(PROCESS)
        report = ProcessReplicatedIndexer(delayed).build(PROCESS)
        assert report.failures == [] and report.retries == 0
        assert_same_content(undelayed.index, batch_order_fold(fs))
        assert dump_index_wire(report.index) == dump_index_wire(
            undelayed.index
        )
        assert dump_index_ridx2(report.index) == dump_index_ridx2(
            undelayed.index
        )
