"""FNV (Fowler-Noll-Vo) hash functions.

The paper's index generator hashes terms with the FNV1 hash function
(Noll, http://isthe.com/chongo/tech/comp/fnv/) for both the shared index
hash map and the per-extractor duplicate-elimination hash set.  This
package provides faithful 32- and 64-bit FNV-1 and FNV-1a implementations
plus an incremental hasher; :mod:`repro.adt` hashes through
:func:`fnv1a_interned`, the 64-bit FNV-1a evaluated once per distinct term.
"""

from repro.hashing.fnv import (
    FNV1_32_INIT,
    FNV1_64_INIT,
    FNV_32_PRIME,
    FNV_64_PRIME,
    IncrementalFnv1a,
    fnv1_32,
    fnv1_64,
    fnv1a_32,
    fnv1a_64,
    fnv1a_interned,
)

__all__ = [
    "FNV1_32_INIT",
    "FNV1_64_INIT",
    "FNV_32_PRIME",
    "FNV_64_PRIME",
    "IncrementalFnv1a",
    "fnv1_32",
    "fnv1_64",
    "fnv1a_32",
    "fnv1a_64",
    "fnv1a_interned",
]
