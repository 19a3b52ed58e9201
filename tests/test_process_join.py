"""The process build's join: one fold, in batch order.

Workers ship their postings as native dicts and the parent folds them
in batch order (``procbackend._fold``), taking the build's documents
and posting count from the same pass.  These tests pin the product
level: a 2-worker process build is byte for byte the sequential one,
reports the same documents and posting count, and its RWIRE1 does not
depend on which worker finished first.  The RWIRE1 join
(:func:`repro.index.binfmt.join_wire_replicas` over
:class:`~repro.index.replica.ReplicaBuilder` replicas of the batches
the build folded) is the fold's oracle: same map order, same per-term
path order, documents, posting count and block count.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.engine.procbackend as procbackend
from repro.api import Search
from repro.distribute.roundrobin import RoundRobinStrategy
from repro.engine import FaultPolicy, ProcessReplicatedIndexer, ThreadConfig
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
    join_wire_replicas,
    merge_wire_replica,
)
from repro.index.inverted import InvertedIndex
from repro.index.replica import ReplicaBuilder
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


def wire_replica(fs, paths):
    """One batch's RWIRE1 replica, built by :class:`ReplicaBuilder`
    from each file's distinct terms: the old worker pipe's bytes."""
    extractor = AsciiExtractor()
    builder = ReplicaBuilder()
    for path in paths:
        content = extractor.prepare(path, fs.read_file(path))
        builder.add_terms(path, extractor.distinct_terms(content))
    return builder.to_bytes()


def round_robin(fs, workers):
    """The paths of each non-empty round-robin batch, in stage-1 order."""
    files = list(fs.list_files())
    assignments = RoundRobinStrategy().distribute(files, workers).assignments
    return [[ref.path for ref in batch] for batch in assignments if batch]


def batch_order_fold(fs):
    """The two round-robin replicas folded key by key in batch order."""
    index = InvertedIndex()
    for paths in round_robin(fs, 2):
        merge_wire_replica(index, wire_replica(fs, paths))
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
        assert pairs(report.index) == pairs(undelayed.index)
        assert dump_index_wire(report.index) == dump_index_wire(
            undelayed.index
        )
        assert dump_index_ridx2(report.index) == dump_index_ridx2(
            undelayed.index
        )

    def test_crash_recovered_build_equals_clean_build(self):
        """A crash on batch 0's second file splits batch 0; its halves
        fold where the whole batch would, before batch 1, so the
        recovered build is the clean one in every order it keeps."""
        fs = corpus()
        victim = round_robin(fs, 2)[0][1]
        crashing = FaultInjectingFileSystem(
            fs, {victim: FaultSpec(action="crash", parent_action="pass")}
        )
        clean = ProcessReplicatedIndexer(fs).build(PROCESS)
        report = ProcessReplicatedIndexer(
            crashing, max_retries=1, retry_backoff=0.0
        ).build(PROCESS)
        assert report.retries > 0 and report.failures == []
        assert pairs(report.index) == pairs(clean.index)
        assert report.documents == clean.documents
        assert dump_index_wire(report.index) == dump_index_wire(clean.index)


# -- the fold against the RWIRE1 join ----------------------------------


def build_with_oracle(fs, config, source=None, **kw):
    """A process build, the batches it folded (each batch's indexed
    paths, in fold order), and the RWIRE1 join of those batches read
    from ``source`` (default ``fs``)."""
    folded = []
    fold = procbackend._fold

    def spy(results):
        folded.extend([path for path, _ in r.fingerprints] for r in results)
        return fold(results)

    with mock.patch.object(procbackend, "_fold", spy):
        report = ProcessReplicatedIndexer(fs, oversubscribe=True, **kw).build(
            config
        )
    source = fs if source is None else source
    oracle = join_wire_replicas(wire_replica(source, paths) for paths in folded)
    return report, folded, oracle


def pairs(index):
    return [(term, list(paths)) for term, paths in index.items()]


def assert_equals_oracle(report, oracle):
    """Map order, per-term path order, documents, posting count and
    block count all equal the RWIRE1 join's."""
    index, documents, posting_count = oracle
    assert pairs(report.index) == pairs(index)
    assert report.documents == documents
    assert report.posting_count == posting_count
    assert report.index.block_count == index.block_count


WORDS = ("alpha", "beta", "gamma", "delta", "omega", "zeta", "a", "b", "1")
texts = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
corpora = st.lists(texts, min_size=1, max_size=10)


def drawn_fs(contents):
    """Files in two directories; a file of only "a", "b" and "1" (or
    none at all) has no term."""
    fs = VirtualFileSystem()
    fs.mkdir("docs")
    for i, text in enumerate(contents):
        where = "docs/" if i % 2 else ""
        fs.write_file(f"{where}f{i:02d}.txt", text.encode())
    return fs


WIDE = [PROCESS, ThreadConfig(3, 0, 1, backend="process")]


class TestFoldEqualsWireJoin:
    @pytest.mark.parametrize("config", WIDE, ids=str)
    @seed(7)
    @settings(max_examples=8, deadline=None)
    @given(contents=corpora)
    def test_round_robin_batches(self, config, contents):
        fs = drawn_fs(contents)
        report, folded, oracle = build_with_oracle(fs, config)
        assert folded == round_robin(fs, config.extractors)
        assert_equals_oracle(report, oracle)

    @seed(7)
    @settings(max_examples=8, deadline=None)
    @given(contents=corpora, victim=st.integers(min_value=0))
    def test_skip_drops_a_poisoned_file(self, contents, victim):
        inner = drawn_fs(contents)
        paths = [ref.path for ref in inner.list_files()]
        poisoned = paths[victim % len(paths)]
        fs = FaultInjectingFileSystem(inner, {poisoned: FaultSpec()})
        report, folded, oracle = build_with_oracle(
            fs, PROCESS, source=inner, on_error="skip"
        )
        assert [f.path for f in report.failures] == [poisoned]
        assert folded == [
            [path for path in batch if path != poisoned]
            for batch in round_robin(inner, 2)
        ]
        assert_equals_oracle(report, oracle)

    def test_termless_files(self):
        fs = corpus()
        report, folded, oracle = build_with_oracle(fs, PROCESS)
        assert folded == round_robin(fs, 2)
        assert_equals_oracle(report, oracle)
        assert report.index.block_count == len(report.fingerprints)
        assert not {"empty.txt", "docs/short.txt"} & set(report.documents)

    @pytest.mark.parametrize("parent_action", ["error", "pass"])
    def test_crash_split_retry_and_in_parent_batches(self, parent_action):
        """A worker crash splits its batch; the half holding the victim
        crashes again and ends in the parent, which skips the file
        ("error") or indexes it ("pass").  However the pool collapsed,
        the folded batches are slices of the round-robin batches, in
        the clean build's order: a batch's parts fold together, before
        the next batch."""
        inner = corpus()
        victim = round_robin(inner, 2)[0][1]
        fs = FaultInjectingFileSystem(
            inner,
            {victim: FaultSpec(action="crash", parent_action=parent_action)},
        )
        report, folded, oracle = build_with_oracle(
            fs,
            PROCESS,
            source=inner,
            on_error="skip",
            max_retries=1,
            retry_backoff=0.0,
        )
        assert report.retries > 0
        stage1 = [ref.path for ref in inner.list_files()]
        survivors = [
            p for p in stage1 if parent_action == "pass" or p != victim
        ]
        assert sorted(p for batch in folded for p in batch) == sorted(survivors)
        clean = [
            p for batch in round_robin(inner, 2) for p in batch
            if p in survivors
        ]
        assert [p for batch in folded for p in batch] == clean
        assert_equals_oracle(report, oracle)


class TestSpawnedWorkers:
    def test_spawn_build_equals_fork_build(self):
        """Results carry Python objects across the pipe: a spawned
        worker's postings must fold to the forked worker's index."""
        fs = corpus()
        forked = ProcessReplicatedIndexer(fs).build(PROCESS)
        indexer = ProcessReplicatedIndexer(fs)
        indexer.start_method = "spawn"
        spawned = indexer.build(PROCESS)
        assert pairs(spawned.index) == pairs(forked.index)
        assert spawned.documents == forked.documents
        assert spawned.posting_count == forked.posting_count
        assert spawned.index.block_count == forked.index.block_count
        assert dump_index_ridx2(spawned.index) == dump_index_ridx2(
            forked.index
        )
