"""Stateful property testing of *resumed* incremental maintenance.

``tests/test_segments_stateful.py`` drives one long-lived indexer.  This
machine drives the ``repro-cli refresh`` lifecycle instead: every
refresh starts in a fresh :class:`~repro.index.segments.SegmentedIndexer`
that adopts what the previous one persisted — the flattened index as
file bytes and the fingerprint map as JSON — and a run may lose the
fingerprint write, restarting with an index ahead of its fingerprints.
After every refresh the index must equal a from-scratch rebuild of the
current filesystem state.
"""

import json
import string

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.engine import SequentialIndexer
from repro.fsmodel import VirtualFileSystem
from repro.index import index_from_bytes, index_to_bytes
from repro.index.segments import SegmentedIndexer

words = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=6),
    min_size=0,
    max_size=6,
)
names = st.integers(min_value=0, max_value=9).map(lambda i: f"file{i}.txt")


class ResumedRefreshMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.fs = VirtualFileSystem()
        self.index_bytes = None
        self.state_json = json.dumps({})
        self.refreshed = True  # nothing persisted == empty fs

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

    @rule(fingerprints_persisted=st.booleans())
    def refresh(self, fingerprints_persisted):
        indexer = SegmentedIndexer(self.fs)
        if self.index_bytes is not None:
            fingerprints = {
                path: tuple(entry)
                for path, entry in json.loads(self.state_json).items()
            }
            indexer.adopt(index_from_bytes(self.index_bytes), fingerprints)
        indexer.refresh()
        self.index_bytes = index_to_bytes(
            indexer.manifest.materialize(), format="binary"
        )
        if fingerprints_persisted:
            self.state_json = json.dumps(
                {p: list(e) for p, e in indexer.fingerprints.items()}
            )
        self.refreshed = True

    @invariant()
    def index_matches_rebuild_after_refresh(self):
        if not self.refreshed or self.index_bytes is None:
            return
        rebuilt = SequentialIndexer(self.fs, naive=False).build().index
        assert index_from_bytes(self.index_bytes) == rebuilt


TestIncrementalStateful = ResumedRefreshMachine.TestCase
TestIncrementalStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
