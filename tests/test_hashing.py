"""Tests for the FNV hash functions."""

import sys
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hashing import (
    FNV1_32_INIT,
    FNV1_64_INIT,
    IncrementalFnv1a,
    fnv,
    fnv1_32,
    fnv1_64,
    fnv1a_32,
    fnv1a_64,
    fnv1a_interned,
)


class TestKnownVectors:
    """Official test vectors from Noll's FNV reference page."""

    def test_fnv1_32_empty(self):
        assert fnv1_32(b"") == FNV1_32_INIT

    def test_fnv1_64_empty(self):
        assert fnv1_64(b"") == FNV1_64_INIT

    def test_fnv1a_32_a(self):
        assert fnv1a_32(b"a") == 0xE40C292C

    def test_fnv1a_32_foobar(self):
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_fnv1a_64_a(self):
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_fnv1a_64_foobar(self):
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8

    def test_fnv1_32_a(self):
        assert fnv1_32(b"a") == 0x050C5D7E

    def test_fnv1_64_a(self):
        assert fnv1_64(b"a") == 0xAF63BD4C8601B7BE


class TestInputHandling:
    def test_str_hashed_as_utf8(self):
        assert fnv1a_64("foobar") == fnv1a_64(b"foobar")

    def test_bytearray_accepted(self):
        assert fnv1a_64(bytearray(b"xyz")) == fnv1a_64(b"xyz")

    def test_memoryview_accepted(self):
        assert fnv1a_32(memoryview(b"xyz")) == fnv1a_32(b"xyz")

    def test_non_ascii_str(self):
        assert fnv1a_64("héllo") == fnv1a_64("héllo".encode("utf-8"))

    def test_rejects_int(self):
        with pytest.raises(TypeError):
            fnv1a_64(12345)

    def test_rejects_none(self):
        with pytest.raises(TypeError):
            fnv1_32(None)


class TestRanges:
    def test_32_bit_output_fits(self):
        for word in ("", "a", "hello world", "x" * 100):
            assert 0 <= fnv1_32(word) < 2**32
            assert 0 <= fnv1a_32(word) < 2**32

    def test_64_bit_output_fits(self):
        for word in ("", "a", "hello world", "x" * 100):
            assert 0 <= fnv1_64(word) < 2**64
            assert 0 <= fnv1a_64(word) < 2**64

    def test_variants_differ_on_nonempty_input(self):
        assert fnv1_32(b"hello") != fnv1a_32(b"hello")
        assert fnv1_64(b"hello") != fnv1a_64(b"hello")


class TestIncremental:
    def test_matches_one_shot(self):
        hasher = IncrementalFnv1a()
        hasher.update(b"hello ").update(b"world")
        assert hasher.digest() == fnv1a_64(b"hello world")

    def test_empty_matches_basis(self):
        assert IncrementalFnv1a().digest() == FNV1_64_INIT

    def test_byte_at_a_time(self):
        hasher = IncrementalFnv1a()
        for i in range(len(b"foobar")):
            hasher.update(b"foobar"[i : i + 1])
        assert hasher.digest() == 0x85944171F73967E8

    def test_reset(self):
        hasher = IncrementalFnv1a()
        hasher.update(b"junk")
        hasher.reset()
        assert hasher.digest() == FNV1_64_INIT
        hasher.update(b"a")
        assert hasher.digest() == fnv1a_64(b"a")

    def test_digest_does_not_finalize(self):
        hasher = IncrementalFnv1a()
        hasher.update(b"foo")
        mid = hasher.digest()
        assert mid == fnv1a_64(b"foo")
        hasher.update(b"bar")
        assert hasher.digest() == fnv1a_64(b"foobar")


class TestInterned:
    """``fnv1a_interned`` against the per-byte spec, ``fnv1a_64``."""

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=40))
    @example(text="")
    @example(text="héllo wörld ✓")
    @example(text="x" * 1000)
    def test_equals_spec_before_and_after_eviction(self, text):
        want = fnv1a_64(text)
        assert fnv1a_interned(text) == want  # miss or hit
        assert fnv1a_interned(text) == want  # hit
        with mock.patch.object(fnv, "_INTERN_LIMIT", 2):
            for filler in ("evict-a", "evict-b", "evict-c"):
                assert fnv1a_interned(filler) == fnv1a_64(filler)
            assert fnv1a_interned(text) == want  # re-evaluated
            assert fnv1a_interned(text) == want

    def test_table_never_exceeds_its_limit(self):
        limit = 50
        keys = [f"bound{i}" for i in range(limit + 1)]
        fnv._interned.clear()
        with mock.patch.object(fnv, "_INTERN_LIMIT", limit):
            for key in keys:
                assert fnv1a_interned(key) == fnv1a_64(key)
                assert len(fnv._interned) <= limit
            assert len(fnv._interned) == 1  # started over on key limit+1
            assert all(fnv1a_interned(k) == fnv1a_64(k) for k in keys)
        assert all(fnv._interned[k] == fnv1a_64(k) for k in fnv._interned)

    def test_spec_runs_once_per_distinct_str(self):
        fnv._interned.clear()
        with mock.patch.object(fnv, "fnv1a_64", wraps=fnv1a_64) as spec:
            for _ in range(20):
                fnv1a_interned("once")
                fnv1a_interned("twice")
        assert spec.call_count == 2

    def test_only_str_is_remembered(self):
        fnv._interned.clear()
        assert fnv1a_interned(b"raw") == fnv1a_64(b"raw")
        assert fnv1a_interned(bytearray(b"raw")) == fnv1a_64(b"raw")
        assert fnv1a_interned(memoryview(b"raw")) == fnv1a_64(b"raw")
        assert not fnv._interned
        assert fnv1a_interned("raw") == fnv1a_64(b"raw")
        assert list(fnv._interned) == ["raw"]

    def test_rejects_what_the_spec_rejects(self):
        with pytest.raises(TypeError):
            fnv1a_interned(12345)
        with pytest.raises(TypeError):
            fnv1a_interned(None)

    def test_threads_on_overlapping_keys_agree_with_spec(self):
        # A small limit keeps the table starting over while the threads
        # run, so hits, misses, stores and clears all interleave.
        keys = [f"race{i}" for i in range(300)]
        want = {k: fnv1a_64(k) for k in keys}
        errors = []

        def hammer(offset):
            try:
                for _ in range(15):
                    for key in keys[offset : offset + 200]:
                        if fnv1a_interned(key) != want[key]:
                            errors.append(key)
            except Exception as exc:  # reported below, in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(o,)) for o in (0, 30, 60, 100)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(fnv, "_INTERN_LIMIT", 64):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(fnv._interned[k] == want[k] for k in list(fnv._interned))
