"""Tests for postings, the inverted index, joins, multi-index and
serialization."""

import os
import pickle

import pytest

from repro.api import Search
from repro.engine import Implementation, ProcessReplicatedIndexer, ThreadConfig
from repro.fsmodel import VirtualFileSystem
from repro.index import (
    InvertedIndex,
    MultiIndex,
    PostingsList,
    join_indices,
    join_pairwise_tree,
    load_index,
    load_multi_index,
    merge_into,
    save_index,
    save_multi_index,
)
from repro.index.binfmt import (
    dump_index_bytes,
    dump_index_ridx2,
    dump_index_wire,
    join_wire_replicas,
    load_index_bytes,
    load_index_ridx2,
    load_index_wire,
)
from repro.index.segments import compact_manifest
from repro.service.sharded import shard_snapshots
from repro.text import TermBlock


def block(path, *terms):
    return TermBlock(path, tuple(terms))


class TestPostingsList:
    def test_append_and_iterate(self):
        postings = PostingsList()
        postings.append("a")
        postings.append("b")
        assert list(postings) == ["a", "b"]
        assert len(postings) == 2

    def test_contains_linear_search(self):
        postings = PostingsList(["a", "b"])
        assert postings.contains("a")
        assert not postings.contains("z")

    def test_extend(self):
        a = PostingsList(["1"])
        a.extend(PostingsList(["2", "3"]))
        assert list(a) == ["1", "2", "3"]

    def test_equality_order_insensitive(self):
        assert PostingsList(["a", "b"]) == PostingsList(["b", "a"])
        assert PostingsList(["a"]) != PostingsList(["a", "b"])

    def test_paths_returns_copy(self):
        postings = PostingsList(["a"])
        paths = postings.paths()
        paths.append("b")
        assert list(postings) == ["a"]

    def test_is_a_list_and_never_equals_a_plain_one(self):
        postings = PostingsList(["a", "b"])
        assert isinstance(postings, list)
        assert postings != ["a", "b"] and ["a", "b"] != postings
        assert not postings == ["a", "b"] and not ["a", "b"] == postings
        assert postings != PostingsList(["a"])
        assert not postings != PostingsList(["b", "a"])
        with pytest.raises(TypeError):
            hash(postings)

    def test_remove_returns_whether_it_was_present(self):
        postings = PostingsList(["a", "b", "a"])
        assert postings.remove("a") is True
        assert postings.remove("z") is False
        assert list(postings) == ["b", "a"]

    def test_pickle_round_trip(self):
        postings = PostingsList(["b", "a"])
        back = pickle.loads(pickle.dumps(postings))
        assert type(back) is PostingsList
        assert list(back) == ["b", "a"]
        assert repr(back) == "PostingsList(['b', 'a'])"


class TestOneObjectPerTerm:
    """Every producer's map holds :class:`PostingsList` values, each a
    ``list`` itself: no wrapper object per term."""

    FILES = {
        "a.txt": b"alpha beta gamma",
        "b.txt": b"beta delta",
        "c.txt": b"gamma alpha epsilon",
    }

    @staticmethod
    def filesystem(files):
        fs = VirtualFileSystem()
        for path, content in files.items():
            fs.write_file(path, content)
        return fs

    @staticmethod
    def assert_one_object_per_term(index):
        assert len(index) > 0
        for term, postings in index.items():
            assert type(postings) is PostingsList, term
            assert isinstance(postings, list), term

    def test_the_sequential_build(self):
        index = Search.build(self.filesystem(self.FILES), cache=0).index
        self.assert_one_object_per_term(index)

    def test_the_process_build(self):
        index = ProcessReplicatedIndexer(
            self.filesystem(self.FILES), oversubscribe=True
        ).build(ThreadConfig(2, 0, 1, backend="process")).index
        self.assert_one_object_per_term(index)

    def test_a_refresh_seal_a_compaction_and_materialize(self):
        fs = self.filesystem(self.FILES)
        session = Search.build(fs, cache=0)
        fs.write_file("d.txt", b"zeta alpha")
        fs.remove_file("b.txt")
        session.refresh()
        manifest = session._segmented.manifest
        assert manifest.segment_count == 2 and manifest.tombstones
        self.assert_one_object_per_term(manifest.segments[-1].index)
        self.assert_one_object_per_term(manifest.materialize())
        compacted = compact_manifest(manifest)
        self.assert_one_object_per_term(compacted.segments[0].index)

    @pytest.mark.parametrize(
        "dump, load",
        [
            (dump_index_bytes, load_index_bytes),
            (dump_index_ridx2, load_index_ridx2),
            (dump_index_wire, load_index_wire),
        ],
        ids=["RIDX1", "RIDX2", "RWIRE1"],
    )
    def test_the_loaders(self, dump, load):
        index = Search.build(self.filesystem(self.FILES), cache=0).index
        self.assert_one_object_per_term(load(dump(index)))

    def test_loaders_and_shard_cuts_hand_over_postings_lists(
        self, monkeypatch
    ):
        # Each builds a PostingsList per term, so from_postings copies
        # none of them; only the process fold's unpickled lists need it.
        index = Search.build(self.filesystem(self.FILES), cache=0).index
        universe = sorted({path for _, paths in index.items() for path in paths})
        handed = []
        real = InvertedIndex.from_postings.__func__

        def spying(cls, postings, block_count=0):
            handed.extend(type(paths) for paths in postings.values())
            return real(cls, postings, block_count)

        monkeypatch.setattr(InvertedIndex, "from_postings", classmethod(spying))
        for make in (
            lambda: load_index_bytes(dump_index_bytes(index)),
            lambda: load_index_ridx2(dump_index_ridx2(index)),
            lambda: join_wire_replicas([dump_index_wire(index)] * 2),
            lambda: shard_snapshots(index, universe, 2),
        ):
            del handed[:]
            make()
            assert handed and set(handed) == {PostingsList}

    def test_equality_is_order_insensitive_across_the_two_builds(self):
        fs = self.filesystem(self.FILES)
        fnv = Search.build(
            fs,
            implementation=Implementation.SHARED_LOCKED,
            config=ThreadConfig(1, 0, 0),
            cache=0,
        ).index
        product = Search.build(fs, cache=0).index
        assert fnv == product
        reversed_paths = InvertedIndex.from_postings(
            {term: paths[::-1] for term, paths in product.items()}
        )
        assert any(len(paths) > 1 for _, paths in product.items())
        assert reversed_paths == fnv

    def test_copy_shares_no_list(self):
        index = Search.build(self.filesystem(self.FILES), cache=0).index
        copied = index.copy()
        assert copied == index
        self.assert_one_object_per_term(copied)
        for term, postings in copied.items():
            assert postings is not index._map[term]
        copied._map["alpha"].append("z.txt")
        assert "z.txt" not in index.lookup("alpha")


class TestInvertedIndex:
    def test_add_block_and_lookup(self):
        index = InvertedIndex()
        index.add_block(block("f1", "cat", "dog"))
        index.add_block(block("f2", "cat"))
        assert sorted(index.lookup("cat")) == ["f1", "f2"]
        assert index.lookup("dog") == ["f1"]
        assert index.lookup("ghost") == []

    def test_counts(self):
        index = InvertedIndex()
        index.add_block(block("f1", "a", "b"))
        index.add_block(block("f2", "b"))
        assert len(index) == 2
        assert index.posting_count == 3
        assert index.block_count == 2

    def test_contains(self):
        index = InvertedIndex()
        index.add_block(block("f", "x"))
        assert "x" in index and "y" not in index

    def test_terms_iteration(self):
        index = InvertedIndex()
        index.add_block(block("f", "a", "b", "c"))
        assert sorted(index.terms()) == ["a", "b", "c"]

    def test_naive_update_deduplicates(self):
        index = InvertedIndex()
        assert index.add_term_naive("cat", "f1") is True
        assert index.add_term_naive("cat", "f1") is False
        assert index.lookup("cat") == ["f1"]

    def test_naive_and_en_bloc_agree(self):
        en_bloc = InvertedIndex()
        en_bloc.add_block(block("f1", "a", "b"))
        en_bloc.add_block(block("f2", "a"))
        naive = InvertedIndex()
        for term, path in [("a", "f1"), ("b", "f1"), ("a", "f1"), ("a", "f2")]:
            naive.add_term_naive(term, path)
        assert en_bloc == naive

    def test_equality(self):
        a = InvertedIndex()
        b = InvertedIndex()
        a.add_block(block("f", "x"))
        b.add_block(block("f", "x"))
        assert a == b
        b.add_block(block("g", "y"))
        assert a != b

    def test_repr(self):
        index = InvertedIndex()
        index.add_block(block("f", "x"))
        assert "terms=1" in repr(index)


class TestJoins:
    def make_replicas(self):
        r1 = InvertedIndex()
        r1.add_block(block("f1", "a", "b"))
        r2 = InvertedIndex()
        r2.add_block(block("f2", "b", "c"))
        r3 = InvertedIndex()
        r3.add_block(block("f3", "a"))
        return [r1, r2, r3]

    def expected(self):
        index = InvertedIndex()
        for b in (block("f1", "a", "b"), block("f2", "b", "c"), block("f3", "a")):
            index.add_block(b)
        return index

    def test_merge_into(self):
        r1, r2, _ = self.make_replicas()
        merged = merge_into(r1, r2)
        assert merged is r1
        assert sorted(merged.lookup("b")) == ["f1", "f2"]

    def test_join_indices(self):
        joined = join_indices(self.make_replicas())
        assert joined == self.expected()

    def test_join_preserves_block_count(self):
        joined = join_indices(self.make_replicas())
        assert joined.block_count == 3

    def test_join_empty(self):
        assert len(join_indices([])) == 0

    def test_pairwise_tree_single_thread(self):
        joined = join_pairwise_tree(self.make_replicas())
        assert joined == self.expected()

    def test_pairwise_tree_threaded(self):
        joined = join_pairwise_tree(self.make_replicas(), threads_per_level=2)
        assert joined == self.expected()

    def test_pairwise_tree_many_replicas(self):
        replicas = []
        expected = InvertedIndex()
        for i in range(9):
            b = block(f"f{i}", f"term{i}", "shared")
            replica = InvertedIndex()
            replica.add_block(b)
            replicas.append(replica)
            expected.add_block(b)
        assert join_pairwise_tree(replicas, threads_per_level=3) == expected

    def test_pairwise_tree_empty(self):
        assert len(join_pairwise_tree([])) == 0

    def test_pairwise_invalid_threads(self):
        with pytest.raises(ValueError):
            join_pairwise_tree(self.make_replicas(), threads_per_level=0)


class TestMultiIndex:
    def make(self):
        r1 = InvertedIndex()
        r1.add_block(block("f1", "a", "b"))
        r2 = InvertedIndex()
        r2.add_block(block("f2", "a"))
        return MultiIndex([r1, r2])

    def test_lookup_unions(self):
        assert sorted(self.make().lookup("a")) == ["f1", "f2"]

    def test_contains(self):
        multi = self.make()
        assert "b" in multi and "z" not in multi

    def test_len_distinct_terms(self):
        assert len(self.make()) == 2

    def test_posting_count(self):
        assert self.make().posting_count == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([])

    def test_matches_joined(self):
        multi = self.make()
        joined = join_indices(multi.replicas)
        for term in ("a", "b"):
            assert sorted(multi.lookup(term)) == sorted(joined.lookup(term))


class TestSerialization:
    def make_index(self):
        index = InvertedIndex()
        index.add_block(block("f1", "alpha", "beta"))
        index.add_block(block("f2", "beta"))
        return index

    def test_round_trip(self, tmp_path):
        index = self.make_index()
        path = str(tmp_path / "test.idx")
        save_index(index, path)
        assert load_index(path) == index

    def test_block_count_preserved(self, tmp_path):
        path = str(tmp_path / "test.idx")
        save_index(self.make_index(), path)
        assert load_index(path).block_count == 2

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_index(str(path))

    def test_multi_round_trip(self, tmp_path):
        r1 = self.make_index()
        r2 = InvertedIndex()
        r2.add_block(block("f3", "gamma"))
        multi = MultiIndex([r1, r2])
        directory = str(tmp_path / "replicas")
        save_multi_index(multi, directory)
        for name in ("replica-000.idx", "replica-001.idx"):
            with open(os.path.join(directory, name), "rb") as fh:
                assert fh.read(5) == b"RIDX2"
        loaded = load_multi_index(directory)
        assert len(loaded.replicas) == 2
        assert sorted(loaded.lookup("beta")) == ["f1", "f2"]
        assert loaded.lookup("gamma") == ["f3"]

    def test_multi_refuses_overwrite(self, tmp_path):
        directory = str(tmp_path / "replicas")
        save_multi_index(MultiIndex([self.make_index()]), directory)
        with pytest.raises(FileExistsError):
            save_multi_index(MultiIndex([self.make_index()]), directory)

    def test_multi_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_multi_index(str(tmp_path))
