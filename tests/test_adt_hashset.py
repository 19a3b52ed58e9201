"""Tests for FnvHashSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt import FnvHashSet
from repro.text import dedup_terms
from tests.test_adt_hashmap import PINNED_ORDER


class TestBasicOperations:
    def test_empty(self):
        s = FnvHashSet()
        assert len(s) == 0
        assert not s
        assert "x" not in s

    def test_add_returns_new_flag(self):
        s = FnvHashSet()
        assert s.add("x") is True
        assert s.add("x") is False
        assert len(s) == 1

    def test_contains(self):
        s = FnvHashSet(["a", "b"])
        assert "a" in s and "b" in s and "c" not in s

    def test_discard(self):
        s = FnvHashSet(["a"])
        assert s.discard("a") is True
        assert s.discard("a") is False
        assert len(s) == 0

    def test_construct_with_duplicates(self):
        s = FnvHashSet(["a", "a", "b"])
        assert len(s) == 2

    def test_bytes_elements(self):
        s = FnvHashSet()
        s.add(b"raw")
        assert b"raw" in s

    def test_clear(self):
        s = FnvHashSet(str(i) for i in range(100))
        s.clear()
        assert len(s) == 0
        assert s.bucket_count == 16

    def test_iteration_yields_all(self):
        elements = {f"e{i}" for i in range(50)}
        s = FnvHashSet(elements)
        assert set(s) == elements

    def test_repr_mentions_size(self):
        assert "size=2" in repr(FnvHashSet(["a", "b"]))


class TestSetAlgebra:
    def test_union(self):
        s = FnvHashSet(["a", "b"]).union(["b", "c"])
        assert set(s) == {"a", "b", "c"}

    def test_union_leaves_operands_unchanged(self):
        a = FnvHashSet(["a"])
        b = FnvHashSet(["b"])
        a.union(b)
        assert set(a) == {"a"} and set(b) == {"b"}

    def test_intersection(self):
        a = FnvHashSet(["a", "b", "c"])
        b = FnvHashSet(["b", "c", "d"])
        assert set(a.intersection(b)) == {"b", "c"}

    def test_intersection_commutes(self):
        a = FnvHashSet(["a", "b", "c"])
        b = FnvHashSet(["b"])
        assert a.intersection(b) == b.intersection(a)

    def test_equality(self):
        assert FnvHashSet(["a", "b"]) == FnvHashSet(["b", "a"])
        assert FnvHashSet(["a"]) != FnvHashSet(["a", "b"])

    def test_equality_with_non_set(self):
        assert FnvHashSet() != "not a set"


class TestGrowth:
    def test_grows_and_keeps_elements(self):
        s = FnvHashSet()
        for i in range(1000):
            s.add(f"element{i}")
        assert len(s) == 1000
        assert s.bucket_count >= 1024
        assert all(f"element{i}" in s for i in range(0, 1000, 97))

    def test_bucket_order_is_pinned(self):
        keys = [f"term{i}" for i in range(200)]
        one_by_one = FnvHashSet()
        for key in keys:
            one_by_one.add(key)
        for s in (one_by_one, FnvHashSet(keys)):
            assert [int(k[4:]) for k in s] == PINNED_ORDER
            assert s.bucket_count == 256


def elementwise(terms):
    """De-duplication as it ran before ``add_all``: one ``add`` a term."""
    seen = FnvHashSet()
    ordered = [term for term in terms if seen.add(term)]
    return seen, ordered


class TestAddAll:
    def test_returns_newly_added_in_first_seen_order(self):
        s = FnvHashSet(["b"])
        assert s.add_all(["c", "b", "a", "c", "a"]) == ["c", "a"]
        assert set(s) == {"a", "b", "c"} and len(s) == 3
        assert s.add_all(iter(["a", "b"])) == []

    @settings(max_examples=200, deadline=None)
    @given(terms=st.lists(st.text(max_size=3), max_size=150))
    def test_equals_elementwise_add(self, terms):
        bulk = FnvHashSet()
        added = bulk.add_all(terms)
        seen, ordered = elementwise(terms)
        assert added == ordered
        assert list(bulk) == list(seen)  # same buckets, same chain order
        assert bulk.bucket_count == seen.bucket_count
        assert len(bulk) == len(seen) == len(set(terms))
        assert dedup_terms(terms) == tuple(ordered)

    @pytest.mark.parametrize(
        "distinct, buckets",
        [(16, 16), (17, 32), (32, 32), (33, 64), (64, 64), (65, 128)],
    )
    def test_growth_boundaries(self, distinct, buckets):
        # The table doubles when the 17th, 33rd and 65th distinct term
        # arrives; duplicates in between must not move that point.
        terms = []
        for i in range(distinct):
            terms += [f"t{i}", f"t{i // 2}", f"t{i}"]
        bulk = FnvHashSet()
        added = bulk.add_all(terms)
        seen, ordered = elementwise(terms)
        assert added == ordered == [f"t{i}" for i in range(distinct)]
        assert list(bulk) == list(seen)
        assert bulk.bucket_count == seen.bucket_count == buckets

    def test_growth_after_discard(self):
        s = FnvHashSet(f"e{i}" for i in range(16))
        for i in range(0, 16, 2):
            assert s.discard(f"e{i}") is True
        assert s.add_all(f"n{i}" for i in range(40)) == [f"n{i}" for i in range(40)]
        assert set(s) == {f"e{i}" for i in range(1, 16, 2)} | {
            f"n{i}" for i in range(40)
        }
        assert len(s) == 48 and s.bucket_count == 64
