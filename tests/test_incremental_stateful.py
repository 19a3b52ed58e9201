"""Stateful property testing of *resumed* incremental maintenance.

``tests/test_segments_stateful.py`` drives one long-lived indexer.  This
machine drives the ``repro-cli refresh`` lifecycle instead: every
refresh is a fresh session, ``Search.open(F, source=fs)`` ->
``refresh()`` -> ``save(F)`` (a first run, with no ``F`` yet,
``Search.build(fs)`` -> ``save(F)``), resuming from what the previous
one saved: the RIDX2 file ``F`` and the fingerprints at
``F + ".state"``.  A run may lose the state write — the previous state
bytes are put back, so the state describes an older index than the one
beside it.  After every refresh the saved index must equal a
from-scratch rebuild of the current filesystem state, and so must the
documents it counts — ``len()`` and a ``NOT`` answer — term-less files
included.
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
    rule,
)

from repro.api import Search
from repro.engine import SequentialIndexer
from repro.fsmodel import VirtualFileSystem
from repro.index import load_index
from repro.index.fingerprint import state_path

words = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=6),
    min_size=0,
    max_size=6,
)
names = st.integers(min_value=0, max_value=9).map(lambda i: f"file{i}.txt")


def _read(path):
    """The bytes at ``path``, or None when there is no file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class ResumedRefreshMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.fs = VirtualFileSystem()
        self.directory = tempfile.mkdtemp(prefix="resumed-refresh-")
        self.path = os.path.join(self.directory, "index.ridx")
        self.earlier = {}  # name -> the bytes before its last edit
        self.session = None  # the last refresh's session
        self.refreshed = True  # nothing saved == empty fs

    def teardown(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(name=names, content=words)
    def create_or_edit(self, name, content):
        self.write(name, " ".join(content).encode())

    @rule(name=names, short=st.sampled_from([b"", b"a b 1"]))
    def empty(self, name, short):
        """Leave ``name`` with no terms: empty, or only short tokens."""
        if self.fs.exists(name):
            self.write(name, short)

    @rule(name=names)
    def edit_back(self, name):
        """A -> B -> A: put back the bytes ``name`` held before its last
        edit — bytes a state that outlived its index has fingerprinted."""
        if name in self.earlier:
            self.write(name, self.earlier[name])

    def write(self, name, data):
        if self.fs.exists(name):
            self.earlier[name] = self.fs.read_file(name)
            self.fs.replace_file(name, data)
        else:
            self.fs.write_file(name, data)
        self.refreshed = False

    @rule(name=names)
    def delete(self, name):
        if self.fs.exists(name):
            self.fs.remove_file(name)
            self.refreshed = False

    @rule(state_persisted=st.booleans())
    def refresh(self, state_persisted):
        if os.path.exists(self.path):
            session = Search.open(self.path, source=self.fs, cache=0)
            session.refresh()
        else:
            session = Search.build(self.fs, cache=0)
        state = state_path(self.path)
        previous = _read(state)
        session.save(self.path)
        self.session = session
        if not state_persisted:
            # The state write is lost: the old state, or none, remains.
            if previous is None:
                os.remove(state)
            else:
                with open(state, "wb") as fh:
                    fh.write(previous)
        self.refreshed = True

    @invariant()
    def index_matches_rebuild_after_refresh(self):
        if not self.refreshed or not os.path.exists(self.path):
            return
        rebuilt = SequentialIndexer(self.fs, naive=False).build().index
        assert load_index(self.path) == rebuilt

    @invariant()
    def documents_match_rebuild_after_refresh(self):
        if not self.refreshed or self.session is None:
            return
        rebuilt = Search.build(self.fs, cache=0)
        expected = rebuilt.query("NOT zzzzzzz").paths
        for session in (self.session, Search.open(self.path, cache=0)):
            assert len(session) == len(rebuilt)
            assert session.query("NOT zzzzzzz").paths == expected


TestIncrementalStateful = ResumedRefreshMachine.TestCase
TestIncrementalStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
