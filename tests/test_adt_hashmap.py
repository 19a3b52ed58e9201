"""Tests for FnvHashMap."""

import pytest

from repro.adt import FnvHashMap, hashmap

#: Iteration order of the keys ``term0`` .. ``term199`` inserted in that
#: order, recorded at the commit before hashing was interned.  The
#: reproduction's indexes (grown key by key) iterate in bucket order, so
#: hash values, bucket choice and growth schedule must never move it.
PINNED_ORDER = [
    7, 12, 142, 55, 105, 180, 26, 84, 176, 75, 125, 42, 112, 48, 118, 199, 4,
    11, 141, 35, 93, 165, 50, 100, 154, 23, 81, 173, 189, 78, 128, 47, 117, 68,
    138, 1, 14, 144, 62, 132, 190, 30, 96, 160, 98, 151, 20, 82, 170, 184, 88,
    71, 121, 67, 137, 195, 33, 95, 163, 39, 169, 152, 54, 104, 183, 27, 85, 177,
    74, 124, 43, 113, 49, 119, 64, 134, 196, 5, 10, 140, 34, 92, 164, 59, 109,
    53, 103, 155, 24, 86, 174, 188, 77, 127, 44, 114, 8, 69, 139, 2, 17, 147,
    63, 133, 191, 37, 91, 167, 158, 156, 21, 83, 171, 187, 89, 70, 120, 60, 130,
    192, 32, 94, 162, 38, 168, 153, 57, 107, 182, 28, 178, 73, 123, 40, 110, 19,
    149, 65, 135, 197, 6, 13, 143, 58, 108, 52, 102, 181, 25, 87, 175, 76, 126,
    45, 115, 9, 198, 3, 16, 146, 36, 90, 166, 159, 51, 101, 157, 22, 80, 172,
    186, 79, 129, 46, 116, 0, 15, 145, 61, 131, 193, 31, 97, 161, 99, 150, 56,
    106, 185, 29, 179, 72, 122, 41, 111, 18, 148, 66, 136, 194,
]


class TestBasicOperations:
    def test_empty(self):
        m = FnvHashMap()
        assert len(m) == 0
        assert not m
        assert "missing" not in m

    def test_set_and_get(self):
        m = FnvHashMap()
        m["alpha"] = 1
        assert m["alpha"] == 1
        assert "alpha" in m
        assert len(m) == 1

    def test_overwrite_keeps_size(self):
        m = FnvHashMap()
        m["k"] = 1
        m["k"] = 2
        assert m["k"] == 2
        assert len(m) == 1

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            FnvHashMap()["nope"]

    def test_delete(self):
        m = FnvHashMap()
        m["k"] = 1
        del m["k"]
        assert "k" not in m
        assert len(m) == 0

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            del FnvHashMap()["nope"]

    def test_bytes_keys(self):
        m = FnvHashMap()
        m[b"raw"] = 9
        assert m[b"raw"] == 9

    def test_construct_from_items(self):
        m = FnvHashMap(iter([("a", 1), ("b", 2)]))
        assert m["a"] == 1 and m["b"] == 2

    def test_bool_nonempty(self):
        m = FnvHashMap()
        m["x"] = 0
        assert m

    def test_repr_mentions_size(self):
        m = FnvHashMap()
        m["x"] = 1
        assert "size=1" in repr(m)


class TestDictProtocolHelpers:
    def test_get_default(self):
        m = FnvHashMap()
        assert m.get("missing") is None
        assert m.get("missing", 7) == 7

    def test_setdefault_inserts(self):
        m = FnvHashMap()
        value = m.setdefault("k", [])
        value.append(1)
        assert m["k"] == [1]

    def test_setdefault_preserves_existing(self):
        m = FnvHashMap()
        m["k"] = "old"
        assert m.setdefault("k", "new") == "old"
        assert m["k"] == "old"

    def test_pop(self):
        m = FnvHashMap()
        m["k"] = 3
        assert m.pop("k") == 3
        assert "k" not in m

    def test_pop_missing_raises(self):
        with pytest.raises(KeyError):
            FnvHashMap().pop("k")

    def test_pop_missing_with_default(self):
        assert FnvHashMap().pop("k", 42) == 42

    def test_clear(self):
        m = FnvHashMap()
        for i in range(100):
            m[f"k{i}"] = i
        m.clear()
        assert len(m) == 0
        assert m.bucket_count == 16

    def test_get_and_pop_probe_once_and_raise_nothing(self, monkeypatch):
        # A miss used to be answered by raising and catching KeyError in
        # __getitem__, and pop hashed and walked the bucket twice.
        def forbidden(self, key):
            raise AssertionError("get/pop must not go through __getitem__")

        hashes = []

        def counting(key):
            hashes.append(key)
            return real(key)

        real = hashmap.fnv1a_interned
        m = FnvHashMap(iter([("k", 3), ("j", 4)]))
        monkeypatch.setattr(FnvHashMap, "__getitem__", forbidden)
        monkeypatch.setattr(hashmap, "fnv1a_interned", counting)
        assert m.get("missing") is None
        assert m.get("missing", 7) == 7
        assert m.get("k") == 3
        assert m.pop("missing", 42) == 42
        assert m.pop("k") == 3
        assert hashes == ["missing", "missing", "k", "missing", "k"]
        assert len(m) == 1 and list(m.items()) == [("j", 4)]


class TestSingleProbeHelpers:
    def test_get_or_insert_calls_factory_once_when_missing(self):
        m = FnvHashMap()
        calls = []

        def factory():
            calls.append(1)
            return []

        value = m.get_or_insert("k", factory)
        value.append(7)
        assert m["k"] == [7]
        assert calls == [1]

    def test_get_or_insert_skips_factory_when_present(self):
        m = FnvHashMap()
        m["k"] = "old"

        def exploding_factory():
            raise AssertionError("factory must not run for present keys")

        assert m.get_or_insert("k", exploding_factory) == "old"

    def test_get_or_insert_triggers_growth(self):
        m = FnvHashMap()
        for i in range(100):
            m.get_or_insert(f"k{i}", list)
        assert len(m) == 100
        assert m.bucket_count > 16

    def test_insert_absent_inserts_and_returns_none(self):
        m = FnvHashMap()
        assert m.insert_absent("k", 5) is None
        assert m["k"] == 5
        assert len(m) == 1

    def test_insert_absent_returns_existing_without_overwrite(self):
        m = FnvHashMap()
        m["k"] = "old"
        assert m.insert_absent("k", "new") == "old"
        assert m["k"] == "old"
        assert len(m) == 1

    def test_insert_absent_triggers_growth(self):
        m = FnvHashMap()
        for i in range(100):
            assert m.insert_absent(f"k{i}", i) is None
        assert len(m) == 100
        assert m.bucket_count > 16


class TestIteration:
    def test_keys_values_items_consistent(self):
        m = FnvHashMap()
        data = {f"key{i}": i for i in range(50)}
        for k, v in data.items():
            m[k] = v
        assert sorted(m.keys()) == sorted(data.keys())
        assert sorted(m.values()) == sorted(data.values())
        assert dict(m.items()) == data

    def test_bucket_order_is_pinned(self):
        m = FnvHashMap()
        for i in range(200):
            m[f"term{i}"] = i
        assert list(m.values()) == PINNED_ORDER
        assert [int(k[4:]) for k in m] == PINNED_ORDER
        assert m.bucket_count == 256

    def test_iter_is_keys(self):
        m = FnvHashMap()
        m["a"] = 1
        m["b"] = 2
        assert sorted(m) == ["a", "b"]


class TestRehashing:
    def test_grows_past_load_factor(self):
        m = FnvHashMap()
        for i in range(100):
            m[f"key{i}"] = i
        assert m.bucket_count >= 128
        assert m.load_factor <= 1.0

    def test_contents_survive_growth(self):
        m = FnvHashMap()
        n = 1000
        for i in range(n):
            m[f"key{i}"] = i * 2
        assert len(m) == n
        for i in range(n):
            assert m[f"key{i}"] == i * 2

    def test_collisions_resolved_by_chaining(self):
        # Force everything into few buckets by inserting far more keys
        # than the initial table size before any lookup.
        m = FnvHashMap()
        keys = [f"collision-test-{i}" for i in range(64)]
        for i, key in enumerate(keys):
            m[key] = i
        assert all(m[key] == i for i, key in enumerate(keys))

    @pytest.mark.parametrize("size, buckets", [
        (0, 16), (1, 16), (16, 16), (17, 32),
        (32, 32), (33, 64), (64, 64), (65, 128),
    ])
    @pytest.mark.parametrize("kind", [str, bytes])
    def test_sizes_at_the_doubling_points(self, size, buckets, kind):
        keys = [f"term{i}" for i in range(size)]
        if kind is bytes:
            keys = [key.encode() for key in keys]
        m = FnvHashMap()
        for key in keys:
            m[key] = 0
        assert m.bucket_count == buckets
        assert len(m) == size
