"""A separate-chaining hash set keyed by FNV-1a.

``FnvHashSet`` is the duplicate-elimination structure each term extractor
keeps per file: terms are added as they are scanned, and the set's
contents become the file's term block.  Only ``str``/``bytes`` elements
are supported (they are what FNV hashes).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.hashing import fnv1a_interned

Element = Union[str, bytes]

_INITIAL_BUCKETS = 16
_MAX_LOAD_FACTOR = 1.0


class FnvHashSet:
    """Hash set of str/bytes elements, hashed with FNV-1a.

    Supports add/discard/contains/iterate/len, plus set algebra helpers
    (union/intersection) used by the index join tests.
    """

    __slots__ = ("_buckets", "_size")

    def __init__(self, elements: Optional[Iterable[Element]] = None) -> None:
        self._buckets: List[List[Tuple[int, Element]]] = [
            [] for _ in range(_INITIAL_BUCKETS)
        ]
        self._size = 0
        if elements is not None:
            self.add_all(elements)

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, element: Element) -> bool:
        h = fnv1a_interned(element)
        bucket = self._buckets[h % len(self._buckets)]
        return any(eh == h and el == element for eh, el in bucket)

    def __iter__(self) -> Iterator[Element]:
        for bucket in self._buckets:
            for _, element in bucket:
                yield element

    def __repr__(self) -> str:
        preview = ", ".join(repr(e) for _, e in zip(range(4), self))
        suffix = ", ..." if self._size > 4 else ""
        return f"FnvHashSet({{{preview}{suffix}}}, size={self._size})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FnvHashSet):
            return NotImplemented
        return len(self) == len(other) and all(e in other for e in self)

    def add(self, element: Element) -> bool:
        """Insert ``element``; returns True if it was newly added.

        Single probe: the element is hashed once and the bucket walked
        once whether or not it was already present.
        """
        h = fnv1a_interned(element)
        buckets = self._buckets
        bucket = buckets[h % len(buckets)]
        for eh, el in bucket:
            if eh == h and el == element:
                return False
        bucket.append((h, element))
        self._size += 1
        if self._size > len(buckets) * _MAX_LOAD_FACTOR:
            self._grow()
        return True

    def add_all(self, elements: Iterable[Element]) -> List[Element]:
        """Insert every element; returns the newly added, in first-seen order.

        Exactly :meth:`add` applied element by element — same buckets,
        same growth points — in one frame: per-file de-duplication calls
        this once per file instead of ``add`` once per term occurrence.
        """
        buckets = self._buckets
        count = len(buckets)
        added: List[Element] = []
        for element in elements:
            h = fnv1a_interned(element)
            bucket = buckets[h % count]
            for eh, el in bucket:
                if eh == h and el == element:
                    break
            else:
                bucket.append((h, element))
                added.append(element)
                self._size += 1
                if self._size > count * _MAX_LOAD_FACTOR:
                    self._grow()
                    buckets = self._buckets
                    count = len(buckets)
        return added

    def discard(self, element: Element) -> bool:
        """Remove ``element`` if present; returns True if it was removed."""
        h = fnv1a_interned(element)
        bucket = self._buckets[h % len(self._buckets)]
        for i, (eh, el) in enumerate(bucket):
            if eh == h and el == element:
                bucket.pop(i)
                self._size -= 1
                return True
        return False

    def clear(self) -> None:
        """Remove all elements, shrinking back to the initial table size."""
        self._buckets = [[] for _ in range(_INITIAL_BUCKETS)]
        self._size = 0

    def union(self, other: Iterable[Element]) -> "FnvHashSet":
        """New set containing the elements of both self and ``other``."""
        result = FnvHashSet(self)
        result.add_all(other)
        return result

    def intersection(self, other: "FnvHashSet") -> "FnvHashSet":
        """New set containing the elements present in both sets."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return FnvHashSet(e for e in small if e in large)

    @property
    def bucket_count(self) -> int:
        """Current number of buckets (exposed for tests and diagnostics)."""
        return len(self._buckets)

    def _grow(self) -> None:
        old = self._buckets
        self._buckets = [[] for _ in range(len(old) * 2)]
        n = len(self._buckets)
        for bucket in old:
            for entry in bucket:
                self._buckets[entry[0] % n].append(entry)
