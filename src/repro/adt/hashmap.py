"""A separate-chaining hash map keyed by FNV-1a.

``FnvHashMap`` implements the subset of the mapping protocol the index
generator needs (get/set/del/contains/iterate/len) plus ``setdefault``
and ``get``, with amortized O(1) operations.  Keys must be ``str`` or
``bytes`` because the whole point is to hash them with FNV rather than
Python's built-in ``hash``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Generic,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.hashing import fnv1a_interned

Key = Union[str, bytes]
V = TypeVar("V")

_INITIAL_BUCKETS = 16
_MAX_LOAD_FACTOR = 1.0


class FnvHashMap(Generic[V]):
    """Hash map from str/bytes keys to arbitrary values, hashed with FNV-1a.

    Collision handling is separate chaining: each bucket is a list of
    ``(hash, key, value)`` entries.  The table doubles when the load
    factor exceeds 1.0, rehashing via the stored hash values so keys are
    never re-hashed.
    """

    __slots__ = ("_buckets", "_size")

    def __init__(self, items: Optional[Iterator[Tuple[Key, V]]] = None) -> None:
        self._buckets: List[List[Tuple[int, Key, V]]] = [
            [] for _ in range(_INITIAL_BUCKETS)
        ]
        self._size = 0
        if items is not None:
            for key, value in items:
                self[key] = value

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Key) -> bool:
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        return any(eh == h and ek == key for eh, ek, _ in bucket)

    def __getitem__(self, key: Key) -> V:
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for eh, ek, value in bucket:
            if eh == h and ek == key:
                return value
        raise KeyError(key)

    def __setitem__(self, key: Key, value: V) -> None:
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for i, (eh, ek, _) in enumerate(bucket):
            if eh == h and ek == key:
                bucket[i] = (h, key, value)
                return
        bucket.append((h, key, value))
        self._size += 1
        if self._size > len(buckets) * _MAX_LOAD_FACTOR:
            self._grow()

    def __delitem__(self, key: Key) -> None:
        self.pop(key)

    def __iter__(self) -> Iterator[Key]:
        return self.keys()

    def __repr__(self) -> str:
        preview = ", ".join(f"{k!r}: {v!r}" for k, v in list(self.items())[:4])
        suffix = ", ..." if self._size > 4 else ""
        return f"FnvHashMap({{{preview}{suffix}}}, size={self._size})"

    def get(self, key: Key, default: Optional[V] = None) -> Optional[V]:
        """Value for ``key``, or ``default`` when absent.

        One hash, one probe, and a miss raises nothing.
        """
        h = fnv1a_interned(key)
        buckets = self._buckets
        for eh, ek, value in buckets[h % len(buckets)]:
            if eh == h and ek == key:
                return value
        return default

    def setdefault(self, key: Key, default: V) -> V:
        """Return the value for ``key``, inserting ``default`` if absent."""
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for eh, ek, value in bucket:
            if eh == h and ek == key:
                return value
        bucket.append((h, key, default))
        self._size += 1
        if self._size > len(buckets) * _MAX_LOAD_FACTOR:
            self._grow()
        return default

    def get_or_insert(self, key: Key, factory: Callable[[], V]) -> V:
        """Return the value for ``key``, inserting ``factory()`` if absent.

        The single-probe sibling of :meth:`setdefault` for the index hot
        path: the key is hashed once, the bucket is walked once, and the
        default value is only *constructed* when the key is actually
        missing (``setdefault`` forces callers to allocate it up front).
        """
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for eh, ek, value in bucket:
            if eh == h and ek == key:
                return value
        value = factory()
        bucket.append((h, key, value))
        self._size += 1
        if self._size > len(buckets) * _MAX_LOAD_FACTOR:
            self._grow()
        return value

    def insert_absent(self, key: Key, value: V) -> Optional[V]:
        """Insert ``value`` unless ``key`` is present; one hash, one probe.

        Returns the *existing* value when the key was already mapped (the
        insert is skipped), or ``None`` after storing ``value``.  Used by
        the index join to keep its move-semantics fast path without the
        get-then-set double probe.
        """
        h = fnv1a_interned(key)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for eh, ek, existing in bucket:
            if eh == h and ek == key:
                return existing
        bucket.append((h, key, value))
        self._size += 1
        if self._size > len(buckets) * _MAX_LOAD_FACTOR:
            self._grow()
        return None

    def pop(self, key: Key, *default: Any) -> V:
        """Remove and return the value for ``key``.

        With a second positional argument, return it instead of raising
        when the key is absent (mirrors ``dict.pop``).
        """
        h = fnv1a_interned(key)
        bucket = self._buckets[h % len(self._buckets)]
        for i, (eh, ek, value) in enumerate(bucket):
            if eh == h and ek == key:
                bucket.pop(i)
                self._size -= 1
                return value
        if default:
            return default[0]
        raise KeyError(key)

    def keys(self) -> Iterator[Key]:
        """Iterate over keys in bucket order."""
        for bucket in self._buckets:
            for _, key, _ in bucket:
                yield key

    def values(self) -> Iterator[V]:
        """Iterate over values in bucket order."""
        for bucket in self._buckets:
            for _, _, value in bucket:
                yield value

    def items(self) -> Iterator[Tuple[Key, V]]:
        """Iterate over (key, value) pairs in bucket order."""
        for bucket in self._buckets:
            for _, key, value in bucket:
                yield key, value

    def clear(self) -> None:
        """Remove all entries, shrinking back to the initial table size."""
        self._buckets = [[] for _ in range(_INITIAL_BUCKETS)]
        self._size = 0

    @property
    def bucket_count(self) -> int:
        """Current number of buckets (exposed for tests and diagnostics)."""
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        """Entries per bucket; rehash triggers above 1.0."""
        return self._size / len(self._buckets)

    def _grow(self) -> None:
        old = self._buckets
        self._buckets = [[] for _ in range(len(old) * 2)]
        n = len(self._buckets)
        for bucket in old:
            for entry in bucket:
                self._buckets[entry[0] % n].append(entry)
