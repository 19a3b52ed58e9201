"""The ``repro.api`` facade: one Search session end to end.

Covers the full lifecycle ``build -> query -> refresh -> save -> open``
on the virtual filesystem, the serve() bridge into the service layer,
and the curated top level: ``repro`` exports exactly ``__all__``, and
the historical entry points import from their home modules.
"""

from __future__ import annotations

import os
import stat
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import Search
from repro.engine import SequentialIndexer
from repro.engine.config import ThreadConfig
from repro.fsmodel import VirtualFileSystem
from repro.index import (
    DiskSegment,
    IndexFormatError,
    MemorySegment,
    dump_index_ridx2,
    save_index,
)
from repro.index.fingerprint import (
    load_fingerprints,
    save_fingerprints,
    state_path,
)
from repro.service import SearchService
from repro.service.snapshot import QueryResult
from tests.test_fingerprint import CountingFs, saved_crc


@pytest.fixture
def small_fs():
    fs = VirtualFileSystem()
    fs.mkdir("docs")
    fs.write_file("docs/cats.txt", b"cat feline whiskers")
    fs.write_file("docs/dogs.txt", b"dog canine bark")
    fs.write_file("docs/both.txt", b"cat dog truce")
    return fs


#: ``small_fs``'s index as the JSON-lines file older versions saved,
#: written by hand: such files no longer get written, but still open.
SMALL_FS_JSON_LINES = (
    '{"format": "repro-index-v1", "terms": 7, "postings": 9, "blocks": 3}\n'
    '["cat", ["docs/cats.txt", "docs/both.txt"]]\n'
    '["feline", ["docs/cats.txt"]]\n'
    '["whiskers", ["docs/cats.txt"]]\n'
    '["dog", ["docs/dogs.txt", "docs/both.txt"]]\n'
    '["canine", ["docs/dogs.txt"]]\n'
    '["bark", ["docs/dogs.txt"]]\n'
    '["truce", ["docs/both.txt"]]\n'
)


def write_small_fs_json_lines(path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SMALL_FS_JSON_LINES)


class TestBuildAndQuery:
    def test_sequential_default_build(self, small_fs):
        session = Search.build(small_fs)
        assert len(session) == 3
        assert session.generation == 0
        assert session.report is not None
        assert session.report.file_count == 3
        assert sorted(session.universe) == [
            "docs/both.txt", "docs/cats.txt", "docs/dogs.txt"
        ]

    def test_query_returns_typed_result(self, small_fs):
        session = Search.build(small_fs)
        result = session.query("cat AND dog")
        assert isinstance(result, QueryResult)
        assert result.paths == ["docs/both.txt"]
        assert result.generation == 0
        assert not result.cached

    def test_repeat_query_is_cached(self, small_fs):
        session = Search.build(small_fs)
        first = session.query("cat")
        again = session.query("cat")
        assert not first.cached and again.cached
        assert again.paths == first.paths
        # normalization: an equivalent query shape hits the same entry
        assert session.query("(cat)").cached

    def test_cache_can_be_disabled(self, small_fs):
        session = Search.build(small_fs, cache=0)
        session.query("cat")
        assert not session.query("cat").cached

    def test_threaded_build_matches_sequential(self, small_fs):
        threaded = Search.build(small_fs, config=ThreadConfig(2, 2, 0))
        sequential = Search.build(small_fs)
        for query in ("cat", "dog", "cat AND dog", "cat OR dog"):
            assert threaded.query(query).paths == sequential.query(query).paths


class TestRefresh:
    def test_refresh_applies_delta_and_bumps_generation(self, small_fs):
        session = Search.build(small_fs)
        session.query("ferret")
        small_fs.write_file("docs/new.txt", b"ferret burrow")
        small_fs.remove_file("docs/dogs.txt")
        change = session.refresh()
        assert change.added == ["docs/new.txt"]
        assert change.removed == ["docs/dogs.txt"]
        assert session.generation == 1
        # the cache was invalidated with the swap
        result = session.query("ferret")
        assert result.paths == ["docs/new.txt"]
        assert not result.cached
        assert session.query("bark").paths == []
        assert session.query("dog").paths == ["docs/both.txt"]

    def test_noop_refresh_keeps_generation_and_cache(self, small_fs):
        session = Search.build(small_fs)
        session.query("cat")
        change = session.refresh()
        assert change.total == 0
        assert session.generation == 0
        assert session.query("cat").cached

    def test_modify_is_detected(self, small_fs):
        session = Search.build(small_fs)
        small_fs.replace_file("docs/cats.txt", b"cat feline purr")
        change = session.refresh()
        assert change.modified == ["docs/cats.txt"]
        assert session.query("purr").paths == ["docs/cats.txt"]
        assert session.query("whiskers").paths == []

    def test_refresh_swaps_rather_than_mutates(self, small_fs):
        # the service-layer contract: a snapshot taken before a refresh
        # keeps answering from the old index
        session = Search.build(small_fs)
        before = session.snapshot()
        old_index = session.index
        small_fs.write_file("docs/new.txt", b"ferret")
        session.refresh()
        assert session.index is not old_index
        assert before.search("ferret") == []
        assert session.query("ferret").paths == ["docs/new.txt"]

    @pytest.mark.parametrize("update", ["refresh", "rebuild"])
    def test_index_change_mid_query_is_neither_relabelled_nor_cached(
        self, update
    ):
        # An index change landing while a query is in flight (a serve()
        # refresher, the background compactor): the old answer must keep
        # the old generation's label and must not be stored where the
        # next asker, on the new generation, finds it.  Scripted, no
        # threads: the first posting lookup performs the update.
        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"alpha beta")
        session = Search.build(fs)
        manifest = session.manifest
        real_lookup = manifest.lookup

        def lookup_then_update(term):
            hits = real_lookup(term)
            if fs.exists("b.txt"):
                return hits
            fs.write_file("b.txt", b"alpha gamma")
            getattr(session, update)()
            return hits

        manifest.lookup = lookup_then_update
        in_flight = session.query("alpha")
        assert in_flight.paths == ["a.txt"]
        assert in_flight.generation == 0
        assert session.generation == 1
        after = session.query("alpha")
        assert after.paths == ["a.txt", "b.txt"]
        assert after.generation == 1
        assert not after.cached
        assert session.query("alpha").cached


class TestSaveAndOpen:
    def test_round_trip_binary_and_json(self, small_fs, tmp_path):
        session = Search.build(small_fs)
        ridx2 = str(tmp_path / "index.ridx")
        ridx1 = str(tmp_path / "index.bin")
        legacy = str(tmp_path / "index.idx")
        assert session.save(ridx2) > 0
        assert save_index(session.index, ridx1, format="binary") > 0
        write_small_fs_json_lines(legacy)
        for path in (ridx2, ridx1, legacy):
            reopened = Search.open(path)
            assert reopened.index == session.index
            assert len(reopened) == 3
            assert reopened.query("cat AND dog").paths == ["docs/both.txt"]
            assert reopened.report is None

    def test_open_with_source_reconciles_on_first_refresh(
        self, small_fs, tmp_path
    ):
        path = str(tmp_path / "index.ridx")
        Search.build(small_fs).save(path)
        small_fs.write_file("docs/late.txt", b"gecko")
        small_fs.replace_file("docs/cats.txt", b"cat purr")
        small_fs.remove_file("docs/dogs.txt")
        session = Search.open(path, source=small_fs)
        change = session.refresh()
        assert change.added == ["docs/late.txt"]
        assert change.modified == ["docs/cats.txt"]
        assert change.removed == ["docs/dogs.txt"]
        assert session.query("gecko").paths == ["docs/late.txt"]
        # and the next refresh is an ordinary incremental no-op
        assert session.refresh().total == 0

    def test_refresh_without_source_raises(self, small_fs, tmp_path):
        path = str(tmp_path / "index.idx")
        Search.build(small_fs).save(path)
        session = Search.open(path)
        with pytest.raises(ValueError, match="source"):
            session.refresh()

    def test_rebuild_reruns_the_original_engine(self, small_fs):
        session = Search.build(small_fs, config=ThreadConfig(2, 2, 0))
        small_fs.write_file("docs/new.txt", b"ferret")
        report = session.rebuild()
        assert report.file_count == 4
        assert session.generation == 1
        assert session.query("ferret").paths == ["docs/new.txt"]


class TestOpenAdoptsTheFile:
    """``Search.open`` of an RIDX2 file maps it as segment 0; the
    file's magic — not an argument — picks mapped or eager."""

    def test_ridx_is_mapped_and_other_formats_load(self, small_fs, tmp_path):
        session = Search.build(small_fs)
        shapes = {}
        for name in ("a.ridx", "b.bin", "c.ridx2"):
            session.save(str(tmp_path / name))
        save_index(session.index, str(tmp_path / "d.ridx"), format="binary")
        write_small_fs_json_lines(str(tmp_path / "e.jsonl"))
        for name in ("a.ridx", "b.bin", "c.ridx2", "d.ridx", "e.jsonl"):
            path = str(tmp_path / name)
            (segment,) = Search.open(path).manifest.segments
            shapes[name] = type(segment)
        assert shapes == {
            "a.ridx": DiskSegment,
            "b.bin": DiskSegment,
            "c.ridx2": DiskSegment,
            "d.ridx": MemorySegment,
            "e.jsonl": MemorySegment,
        }

    def test_saved_bytes_are_the_canonical_ridx2(self, small_fs, tmp_path):
        session = Search.build(small_fs)
        path = str(tmp_path / "x.ridx")
        written = session.save(path)
        with open(path, "rb") as fh:
            assert fh.read() == dump_index_ridx2(session.index)
        assert written == os.path.getsize(path)

    def test_open_decodes_nothing_and_one_query_reads_one_block(
        self, small_fs, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "x.ridx")
        Search.build(small_fs).save(path)

        def eager(*_args, **_kwargs):
            raise AssertionError("Search.open loaded an RIDX2 file eagerly")

        monkeypatch.setattr("repro.api.load_index", eager)
        session = Search.open(path)
        (segment,) = session.manifest.segments
        assert segment.stats()["ondisk.blocks_read"] == 0
        assert session.query("cat").paths == ["docs/both.txt", "docs/cats.txt"]
        assert segment.stats()["ondisk.blocks_read"] == 1

    def test_index_property_decodes_on_demand(self, small_fs, tmp_path):
        built = Search.build(small_fs)
        path = str(tmp_path / "x.ridx")
        built.save(path)
        session = Search.open(path)
        assert session.index == built.index
        assert session.index is session.index  # cached per generation

    def test_every_prefix_and_bit_flip_is_a_typed_refusal(
        self, small_fs, tmp_path
    ):
        good = str(tmp_path / "good.ridx")
        Search.build(small_fs).save(good)
        with open(good, "rb") as fh:
            data = fh.read()
        bad = str(tmp_path / "bad.ridx")
        for length in range(len(data)):
            with open(bad, "wb") as fh:
                fh.write(data[:length])
            with pytest.raises(IndexFormatError):
                Search.open(bad)
        positions = range(0, len(data), max(1, len(data) // 90))
        assert len(positions) >= 60
        for n, position in enumerate(positions):
            flipped = bytearray(data)
            flipped[position] ^= 1 << (n % 8)
            with open(bad, "wb") as fh:
                fh.write(flipped)
            with pytest.raises(IndexFormatError):
                Search.open(bad)
        assert len(Search.open(good)) == 3

    def test_state_file_makes_the_first_refresh_read_only_the_delta(
        self, small_fs, tmp_path
    ):
        path = str(tmp_path / "x.ridx")
        Search.build(small_fs).save(path)
        small_fs.write_file("docs/late.txt", b"gecko")
        small_fs.replace_file("docs/cats.txt", b"cat purr")
        small_fs.remove_file("docs/dogs.txt")

        counting = CountingFs(small_fs)
        session = Search.open(path, source=counting)
        change = session.refresh()
        assert sorted(counting.reads) == ["docs/cats.txt", "docs/late.txt"]
        assert (change.added, change.modified, change.removed) == (
            ["docs/late.txt"], ["docs/cats.txt"], ["docs/dogs.txt"]
        )
        assert session.manifest.segment_count == 2
        assert isinstance(session.manifest.segments[0], DiskSegment)

        os.remove(state_path(path))
        counting = CountingFs(small_fs)
        reconciled = Search.open(path, source=counting)
        assert reconciled.refresh().total == 3
        assert sorted(counting.reads) == sorted(
            ref.path for ref in small_fs.list_files()
        )
        assert reconciled.index == session.index

    def test_compact_after_refresh_equals_a_from_scratch_build(
        self, small_fs, tmp_path
    ):
        path = str(tmp_path / "x.ridx")
        Search.build(small_fs).save(path)
        session = Search.open(path, source=small_fs)
        small_fs.write_file("docs/late.txt", b"gecko cat")
        small_fs.remove_file("docs/dogs.txt")
        session.refresh()
        assert session.compact()
        (segment,) = session.manifest.segments
        assert isinstance(segment, MemorySegment)
        rebuilt = SequentialIndexer(small_fs, naive=False).build().index
        assert session.manifest.to_ridx2() == dump_index_ridx2(rebuilt)


class TestWritesReplaceNeverTruncate:
    """Every index and state write is temp -> fsync -> os.replace."""

    def test_saving_over_the_mapped_file_keeps_both_sessions_answering(
        self, small_fs, tmp_path
    ):
        # With an in-place write this is a SIGBUS, not a failed assert:
        # the session below serves the very file it then saves over.
        path = str(tmp_path / "x.ridx")
        Search.build(small_fs).save(path)
        session = Search.open(path, source=small_fs)
        assert isinstance(session.manifest.segments[0], DiskSegment)
        small_fs.write_file("docs/late.txt", b"gecko cat")
        assert session.refresh().added == ["docs/late.txt"]
        session.save(path)
        assert session.query("cat AND NOT dog").paths == [
            "docs/cats.txt", "docs/late.txt",
        ]
        assert session.query("feline").paths == ["docs/cats.txt"]
        reopened = Search.open(path, source=small_fs)
        assert reopened.query("gecko").paths == ["docs/late.txt"]
        assert len(reopened) == 4
        assert reopened.refresh().total == 0

    def test_a_failed_replace_leaves_index_and_state_as_they_were(
        self, small_fs, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "x.ridx")
        session = Search.build(small_fs)
        session.save(path)
        before = {}
        for name in (path, state_path(path)):
            with open(name, "rb") as fh:
                before[name] = fh.read()
        small_fs.write_file("docs/late.txt", b"gecko")
        session.refresh()

        def crash(_src, _dst):
            raise OSError("crashed between write and rename")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="crashed"):
                session.save(path)
            with pytest.raises(OSError, match="crashed"):
                save_fingerprints(
                    session._segmented.fingerprints,
                    state_path(path),
                    saved_crc(path),
                )
        for name, data in before.items():
            with open(name, "rb") as fh:
                assert fh.read() == data
        assert sorted(os.listdir(tmp_path)) == ["x.ridx", "x.ridx.state"]
        assert len(Search.open(path)) == 3
        assert len(load_fingerprints(state_path(path), saved_crc(path))) == 3

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX")
    def test_the_directory_is_synced_after_the_replace(
        self, small_fs, tmp_path, monkeypatch
    ):
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", os.path.dirname(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        path = str(tmp_path / "x.ridx")
        Search.build(small_fs).save(path)
        # The index, then its state: file synced, replaced, directory synced.
        each = [("fsync", False), ("replace", str(tmp_path)), ("fsync", True)]
        assert calls == each * 2


class TestTheStateNamesItsIndex:
    """``save`` names the file it wrote in the state; ``open`` resumes
    from a state only beside the file it names."""

    def test_a_lost_state_write_cannot_hide_an_edit_back(self, tmp_path):
        # A -> B -> A: the index is saved at B, the state write is lost
        # (the state still describes A), and the file goes back to A.
        # Were that state trusted, the first refresh would read a.txt,
        # find the bytes its fingerprint records and keep revision B.
        fs = VirtualFileSystem()
        fs.write_file("a.txt", b"alpha")
        fs.write_file("b.txt", b"beta")
        path = str(tmp_path / "x.ridx")
        session = Search.build(fs)
        session.save(path)
        with open(state_path(path), "rb") as fh:
            state_at_a = fh.read()
        fs.replace_file("a.txt", b"delta")
        assert session.refresh().modified == ["a.txt"]
        session.save(path)
        with open(state_path(path), "wb") as fh:
            fh.write(state_at_a)
        fs.replace_file("a.txt", b"alpha")

        reopened = Search.open(path, source=fs)
        reopened.refresh()
        assert reopened.index == SequentialIndexer(fs, naive=False).build().index
        assert reopened.query("alpha").paths == ["a.txt"]
        assert reopened.query("delta").paths == []


WORDS = ("cat", "dog", "feline", "canine", "truce", "gecko", "absent")


def _queries():
    leaf = st.sampled_from(WORDS) | st.sampled_from(
        ("ca*", "d*", "tr*", "zz*")
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda p: f"({p[0]} AND {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"({p[0]} OR {p[1]})"),
            st.tuples(inner, inner).map(lambda p: f"{p[0]} AND NOT {p[1]}"),
            inner.map(lambda q: f"NOT ({q})"),
        ),
        max_leaves=5,
    )


class TestOpenedFormatsAgree:
    """One index saved two ways: whatever ``Search.open`` makes of
    each file — a mapped segment or a loaded one — answers alike."""

    @pytest.fixture(scope="class")
    def doors(self, tmp_path_factory):
        fs = VirtualFileSystem()
        fs.mkdir("docs")
        fs.write_file("docs/cats.txt", b"cat feline whiskers")
        fs.write_file("docs/dogs.txt", b"dog canine bark")
        fs.write_file("docs/both.txt", b"cat dog truce")
        fs.write_file("docs/late.txt", b"gecko cat canine")
        built = Search.build(fs)
        work = tmp_path_factory.mktemp("formats")
        sessions = {"built": built}
        built.save(str(work / "x.ridx"))
        save_index(built.index, str(work / "y.ridx"), format="binary")
        for name in ("x.ridx", "y.ridx"):
            sessions[name] = Search.open(str(work / name))
        assert isinstance(
            sessions["x.ridx"].manifest.segments[0], DiskSegment
        )
        opened = []
        for name, session in sessions.items():
            opened.append((f"{name}:query", session.query, None))
            for door in (
                session.serve(),
                session.serve_async(),
                session.serve_sharded(2),
            ):
                opened.append((f"{name}:{type(door).__name__}", door.query, door))
        yield sessions, opened
        for _label, _ask, door in opened:
            if door is not None:
                door.close()

    def test_same_shape(self, doors):
        sessions, _ = doors
        built = sessions["built"]
        for session in sessions.values():
            assert len(session) == len(built)
            assert session.universe == built.universe
            assert session.index == built.index

    @settings(max_examples=60, deadline=None)
    @given(query=_queries())
    def test_same_answers_through_every_door(self, doors, query):
        _, opened = doors
        answers = {label: ask(query).paths for label, ask, _ in opened}
        expected = answers["built:query"]
        assert answers == dict.fromkeys(answers, expected)


class TestServe:
    def test_serve_bridges_to_service(self, small_fs):
        session = Search.build(small_fs)
        with session.serve(workers=2) as service:
            assert isinstance(service, SearchService)
            assert service.query("cat AND dog").paths == ["docs/both.txt"]
            small_fs.write_file("docs/new.txt", b"ferret")
            outcome = service.refresh()
            assert outcome.generation == 1
            assert outcome.change.added == ["docs/new.txt"]
            result = service.query("ferret")
            assert result.paths == ["docs/new.txt"]
            assert result.generation == 1

    def test_serve_without_source_has_no_refresher(self, small_fs, tmp_path):
        path = str(tmp_path / "index.idx")
        Search.build(small_fs).save(path)
        with Search.open(path).serve() as service:
            assert service.query("cat").paths
            with pytest.raises(ValueError):
                service.refresh()

    def test_refresh_error_names_the_missing_source(self, small_fs, tmp_path):
        path = str(tmp_path / "index.idx")
        Search.build(small_fs).save(path)
        with Search.open(path).serve() as service:
            with pytest.raises(ValueError, match="fixed snapshot") as caught:
                service.refresh()
            assert "source=" in str(caught.value)
            assert "Search.serve()" not in str(caught.value)


def _serving(session, door):
    """``(ask, service, server)`` for one serving door over ``session``:
    the door's query, the :class:`SearchService` behind it (the front
    end's own, for ``serve_async``) and what to close."""
    if door == "serve":
        service = session.serve(workers=1)
        return service.query, service, service
    frontend = session.serve_async(workers=1)
    return frontend.query, frontend.service, frontend


@pytest.mark.parametrize("door", ("serve", "serve_async"))
class TestServedSnapshotIsTheSessions:
    """A service serves the session's own snapshots: one generation and
    one cache across ``Search.query`` and the serving doors."""

    def test_a_refresh_that_changes_nothing_keeps_the_warm_snapshot(
        self, small_fs, door
    ):
        session = Search.build(small_fs)
        ask, service, server = _serving(session, door)
        with server:
            assert not ask("cat").cached
            outcome = service.refresh()
            assert outcome.change.total == 0
            assert outcome.generation == session.generation == 0
            assert service.generation == session.generation
            assert service.snapshot is session.snapshot()
            assert ask("cat").cached

    def test_after_a_change_the_doors_share_generation_and_cache(
        self, small_fs, door
    ):
        session = Search.build(small_fs)
        ask, service, server = _serving(session, door)
        with server:
            service.refresh()  # a watch tick that finds nothing
            small_fs.write_file("docs/new.txt", b"cat ferret")
            service.refresh()
            served = ask("cat")
            direct = session.query("cat")
            assert served.generation == direct.generation == 1
            assert not served.cached and direct.cached
            assert "docs/new.txt" in served.paths
            assert direct.paths == served.paths
            # and the other way round: asked first on the session
            assert not session.query("ferret").cached
            assert ask("ferret").cached
            assert service.snapshot is session.snapshot()

    def test_a_compaction_is_served_from_the_next_refresh(
        self, small_fs, door
    ):
        session = Search.build(small_fs)
        ask, service, server = _serving(session, door)
        with server:
            small_fs.write_file("docs/new.txt", b"ferret")
            service.refresh()
            assert session.compact()
            assert service.generation == 1 < session.generation
            assert service.refresh().change.total == 0
            assert service.snapshot is session.snapshot()
            assert ask("ferret").generation == session.generation


class TestCuratedTopLevel:
    def test_all_is_exactly_the_curated_api(self):
        assert set(repro.__all__) == {
            "AsyncSearchFrontend", "BuildReport", "Extractor",
            "ExtractorSpec", "FaultPolicy", "InvertedIndex",
            "QueryEngine", "ScatterGatherBroker", "Search",
            "SearchService", "ShardDeadError", "ThreadConfig",
            "get_extractor",
        }

    def test_curated_names_import_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None

    @pytest.mark.parametrize("name,home", [
        ("IndexGenerator", "repro.engine"),
        ("SequentialIndexer", "repro.engine"),
        ("CorpusGenerator", "repro.corpus"),
        ("TINY_PROFILE", "repro.corpus"),
        ("MultiIndex", "repro.index"),
        ("join_indices", "repro.index"),
        ("parse_query", "repro.query"),
        ("SimPipeline", "repro.simengine"),
        ("Workload", "repro.simengine"),
        ("QUAD_CORE", "repro.platforms"),
    ])
    def test_legacy_names_live_in_home_modules_only(self, name, home):
        import importlib

        assert getattr(importlib.import_module(home), name) is not None
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_old_entry_points_still_work_end_to_end(self, small_fs):
        # the quickstart from the 1.x README, importing from the home
        # module instead of the top level
        from repro import Implementation
        from repro.engine import IndexGenerator

        report = IndexGenerator(small_fs).build(
            Implementation.REPLICATED_UNJOINED, ThreadConfig(2, 2, 0)
        )
        assert report.file_count == 3
