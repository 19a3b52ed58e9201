"""Stateful property testing of the segmented index.

Hypothesis drives random filesystem churn (create, edit, delete),
refreshes, crash-injected refreshes, and periodic compactions against a
live :class:`~repro.index.segments.SegmentedIndexer`, with a wildcard
query over whatever segment stack results.  Two invariants hold at every
step:

* the manifest's live view always equals a from-scratch rebuild of the
  current filesystem state (checked as index equality after every
  refresh);
* after any compaction, the manifest's canonical RIDX2 bytes are
  *identical* to the rebuild's — merge-equivalence, byte for byte,
  regardless of the segment/tombstone history that led there.
"""

import os
import shutil
import string
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import Search
from repro.engine import (
    Implementation,
    SequentialIndexer,
    ThreadConfig,
    available_cpus,
)
from repro.fsmodel import VirtualFileSystem
from repro.fsmodel.faultfs import FaultInjectingFileSystem, FaultSpec
from repro.index.binfmt import dump_index_ridx2
from repro.index.segments import CompactionPolicy, SegmentedIndexer
from repro.service.snapshot import universe_of

words = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=6),
    min_size=0,
    max_size=6,
)
names = st.integers(min_value=0, max_value=9).map(lambda i: f"file{i}.txt")
#: ``Search.build`` keywords: the sequential engine, the three threaded
#: implementations, the process backend.
builds = st.sampled_from(
    [
        {},
        dict(
            implementation=Implementation.SHARED_LOCKED,
            config=ThreadConfig(2, 1, 0),
        ),
        dict(
            implementation=Implementation.REPLICATED_JOINED,
            config=ThreadConfig(2, 0, 1),
        ),
        dict(
            implementation=Implementation.REPLICATED_UNJOINED,
            config=ThreadConfig(2, 2, 0),
        ),
        dict(
            config=ThreadConfig(
                min(2, available_cpus()), 0, 1, backend="process"
            )
        ),
    ]
)


class SegmentedMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.fs = VirtualFileSystem()
        self.indexer = SegmentedIndexer(self.fs)
        self.refreshed = True  # empty manifest == empty fs
        self.work = tempfile.mkdtemp(prefix="segmented-machine-")

    def teardown(self):
        shutil.rmtree(getattr(self, "work", ""), ignore_errors=True)

    # -- filesystem churn ----------------------------------------------

    @rule(name=names, content=words)
    def create_or_edit(self, name, content):
        data = " ".join(content).encode()
        if self.fs.exists(name):
            self.fs.replace_file(name, data)
        else:
            self.fs.write_file(name, data)
        self.refreshed = False

    @rule(name=names)
    def delete(self, name):
        if self.fs.exists(name):
            self.fs.remove_file(name)
            self.refreshed = False

    # -- maintenance ---------------------------------------------------

    @rule()
    def refresh(self):
        self.indexer.refresh()
        self.refreshed = True

    @rule(build=builds)
    def rebuild_on_some_backend(self, build):
        """Start over from a full build on a random backend: what it
        adopts — the index and the fingerprints its extraction pass took
        — must carry the churn and refreshes that follow exactly like
        state grown by refreshes alone."""
        self.indexer = Search.build(self.fs, cache=0, **build)._segmented
        assert self.indexer.refresh().total == 0
        self.refreshed = True

    @rule()
    def save_and_reopen(self):
        """Persist whatever the steps so far left — refreshed or not —
        over the file the previous reopen may still have mapped, and go
        on from the reopened session: the mapped segment 0 plus the
        state file must carry the churn that follows exactly like the
        state they were saved from."""
        path = os.path.join(self.work, "index.ridx")
        Search(self.indexer, fs=self.fs, cache=0).save(path)
        live = self.indexer.manifest.live_paths()
        self.indexer = Search.open(path, source=self.fs, cache=0)._segmented
        manifest = self.indexer.manifest
        assert [type(s).__name__ for s in manifest.segments] == ["DiskSegment"]
        # A term-less file is no document, refreshed or saved: the
        # saved file holds exactly the live documents.
        assert manifest.live_paths() == live

    @rule(name=names)
    def crashed_refresh_then_replay(self, name):
        """A refresh that dies reading ``name`` must leave no trace; the
        replay right after must fully converge."""
        if not self.fs.exists(name):
            return
        faulty = FaultInjectingFileSystem(
            self.fs, {name: FaultSpec(action="error", exc_type=OSError)}
        )
        crashing = SegmentedIndexer(
            faulty,
            manifest=self.indexer.manifest,
            fingerprints=self.indexer.fingerprints,
        )
        before = crashing.manifest
        try:
            crashing.refresh()
        except OSError:
            assert crashing.manifest is before
        self.indexer.refresh()
        self.refreshed = True

    @rule(fanin=st.integers(min_value=2, max_value=4))
    @precondition(lambda self: self.refreshed)
    def compact(self, fanin):
        self.indexer.compact(policy=CompactionPolicy(fanin=fanin))
        manifest = self.indexer.manifest
        assert manifest.segment_count <= 1
        assert not manifest.tombstones
        rebuilt = SequentialIndexer(self.fs, naive=False).build().index
        assert manifest.to_ridx2() == dump_index_ridx2(rebuilt)

    @rule(
        prefix=st.text(
            alphabet=string.ascii_lowercase, min_size=1, max_size=3
        )
    )
    @precondition(lambda self: self.refreshed)
    def prefix_query(self, prefix):
        """A wildcard over whatever segment stack the steps so far
        left, against a scan of the model's own sorted terms."""
        holders = {}
        for ref in self.fs.list_files():
            for word in self.fs.read_file(ref.path).decode().split():
                holders.setdefault(word, set()).add(ref.path)
        expected = set()
        for term in sorted(holders):
            if term.startswith(prefix):
                expected |= holders[term]
        session = Search(self.indexer, fs=self.fs, cache=0)
        assert session.query(prefix + "*").paths == sorted(expected)

    # -- the oracle ----------------------------------------------------

    @invariant()
    def matches_rebuild_when_refreshed(self):
        if not getattr(self, "refreshed", True):
            return
        rebuilt = SequentialIndexer(self.fs, naive=False).build().index
        assert self.indexer.manifest.materialize() == rebuilt
        assert self.indexer.manifest.live_paths() == universe_of(rebuilt)

    @invariant()
    def live_view_consistent(self):
        manifest = self.indexer.manifest
        live = set(manifest.document_paths())
        assert live == manifest.live_paths()
        for term in manifest.terms():
            hits = manifest.lookup(term)
            assert hits, f"dead term {term!r} listed"
            assert set(hits) <= live


SegmentedMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSegmented = SegmentedMachine.TestCase
