"""Fowler-Noll-Vo hash functions (FNV-1 and FNV-1a, 32- and 64-bit).

FNV hashes a byte stream by repeatedly multiplying an accumulator by a
magic prime and XOR-ing in the next byte.  FNV-1 multiplies first and
XORs second; FNV-1a reverses the two steps, which gives slightly better
avalanche behaviour on short keys.  The constants below are the official
ones from Noll's reference page.

The functions accept ``str`` (hashed as UTF-8) or ``bytes`` and return a
non-negative int that fits the requested width.

The per-byte loops below are the executable specification.  The hash
containers in :mod:`repro.adt` and the shard selectors do not call them
directly: they go through :func:`fnv1a_interned`, which returns the very
same 64-bit FNV-1a values but evaluates the loop once per distinct term
per process instead of once per occurrence.
"""

from __future__ import annotations

from typing import Dict, Union

FNV_32_PRIME = 0x01000193
FNV1_32_INIT = 0x811C9DC5
FNV_64_PRIME = 0x100000001B3
FNV1_64_INIT = 0xCBF29CE484222325

_MASK_32 = 0xFFFFFFFF
_MASK_64 = 0xFFFFFFFFFFFFFFFF

HashInput = Union[str, bytes, bytearray, memoryview]


def _as_bytes(data: HashInput) -> bytes:
    """Normalize hashable input to bytes (str is encoded as UTF-8)."""
    if isinstance(data, str):
        return data.encode("utf-8")
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, bytes):
        return data
    raise TypeError(f"cannot hash object of type {type(data).__name__}")


def fnv1_32(data: HashInput) -> int:
    """32-bit FNV-1 hash (multiply, then XOR) of ``data``."""
    h = FNV1_32_INIT
    for byte in _as_bytes(data):
        h = (h * FNV_32_PRIME) & _MASK_32
        h ^= byte
    return h


def fnv1a_32(data: HashInput) -> int:
    """32-bit FNV-1a hash (XOR, then multiply) of ``data``."""
    h = FNV1_32_INIT
    for byte in _as_bytes(data):
        h ^= byte
        h = (h * FNV_32_PRIME) & _MASK_32
    return h


def fnv1_64(data: HashInput) -> int:
    """64-bit FNV-1 hash (multiply, then XOR) of ``data``."""
    h = FNV1_64_INIT
    for byte in _as_bytes(data):
        h = (h * FNV_64_PRIME) & _MASK_64
        h ^= byte
    return h


def fnv1a_64(data: HashInput) -> int:
    """64-bit FNV-1a hash (XOR, then multiply) of ``data``."""
    h = FNV1_64_INIT
    for byte in _as_bytes(data):
        h ^= byte
        h = (h * FNV_64_PRIME) & _MASK_64
    return h


#: Most distinct terms :func:`fnv1a_interned` remembers.  A constant, not a
#: knob: 64 Ki entries (about 8 MB when full, keys included) hold the
#: vocabulary of a desktop-sized corpus, and a larger vocabulary only pays
#: one more evaluation per term each time the table starts over.
_INTERN_LIMIT = 1 << 16

#: ``str -> fnv1a_64(str)``.  Process-wide on purpose: an entry is a pure
#: function of its key, so sharing the table between indexes, threads and
#: tests can change how often the loop runs but never what a caller sees.
_interned: Dict[str, int] = {}


def fnv1a_interned(data: HashInput) -> int:
    """:func:`fnv1a_64` of ``data``, evaluated once per distinct ``str``.

    Only the reproduction hashes (the product keeps native dicts), and
    there a term occurs about twenty times for every time it is new:
    the byte loop above is the dearest step of its de-duplication and
    index update, so the result is remembered in a bounded table that
    is cleared when full.  Anything that is not a ``str`` is hashed
    directly.  The table never decides an order or a bucket: those come
    from the returned value alone, which is bit-identical to the spec's.

    Safe to call from several threads without a lock: reading, storing
    and clearing a dict are each atomic, and every writer of a key
    stores the same value, so a lost or repeated store is harmless.  Two
    threads that miss at the same moment may overshoot the limit by an
    entry each before the next miss clears the table.
    """
    try:
        return _interned[data]
    except (KeyError, TypeError):  # new term, or an unhashable bytearray
        pass
    h = fnv1a_64(data)
    if isinstance(data, str):
        if len(_interned) >= _INTERN_LIMIT:
            _interned.clear()
        _interned[data] = h
    return h


class IncrementalFnv1a:
    """Incrementally feedable 64-bit FNV-1a hasher.

    Useful when a key arrives in chunks (e.g. while scanning a file byte
    by byte) and re-materializing it just to hash would be wasteful::

        hasher = IncrementalFnv1a()
        hasher.update(b"hello ")
        hasher.update(b"world")
        assert hasher.digest() == fnv1a_64(b"hello world")
    """

    __slots__ = ("_state",)

    def __init__(self) -> None:
        self._state = FNV1_64_INIT

    def update(self, data: HashInput) -> "IncrementalFnv1a":
        """Feed more bytes; returns self so calls can be chained."""
        h = self._state
        for byte in _as_bytes(data):
            h ^= byte
            h = (h * FNV_64_PRIME) & _MASK_64
        self._state = h
        return self

    def digest(self) -> int:
        """Current hash value; the hasher may keep being updated after."""
        return self._state

    def reset(self) -> None:
        """Restore the initial basis so the hasher can be reused."""
        self._state = FNV1_64_INIT
