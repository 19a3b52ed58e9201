"""Helpers shared by the parent (set-up, oracle, report) and the child
(the product journey): digests, the percentile, the reference kernel.

Nothing here imports the product, so both sides of a comparison compute
their digest with the same independent code.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import random
import time
from typing import Iterable, Sequence, Tuple


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def index_digest(items: Iterable[Tuple[str, Iterable[str]]]) -> str:
    """Digest of a term -> paths mapping in canonical (sorted) order.

    Two indexes have the same digest exactly when they hold the same
    postings, which is also when their canonical serializations are
    byte-identical; terms with no postings are canonicalized away.
    """
    digest = hashlib.blake2b(digest_size=16)
    for term, paths in sorted((t, sorted(p)) for t, p in items):
        if paths:
            digest.update(term.encode("ascii"))
            digest.update(b"\x00")
            digest.update("\n".join(paths).encode("utf-8"))
            digest.update(b"\x01")
    return digest.hexdigest()


def answer_digest(paths: Sequence[str], scores: Sequence[float] = ()) -> str:
    """Digest of one query answer: the paths in order, and for a ranked
    answer the exact ``repr`` of every score (float-for-float)."""
    text = "\n".join(paths)
    if scores:
        text += "\x00" + "\n".join(repr(s) for s in scores)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


#: What ``ref_kernel_ms`` reads on a quiet core of the sandbox the
#: benchmark was sized on.  Timings are reported at this speed (wall time
#: x REFERENCE_KERNEL_MS / the kernel's reading beside the repetition);
#: on another machine it is only a unit, the same for every run.
REFERENCE_KERNEL_MS = 20.0


@functools.lru_cache(maxsize=1)
def _probe_documents() -> Tuple[bytes, ...]:
    rng = random.Random(12345)
    words = [
        "".join(
            rng.choice("bcdfghjklmnprstvwz") + rng.choice("aeiou")
            for _ in range(rng.randint(2, 4))
        )
        for _ in range(12_000)
    ]
    zipf = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(words))))
    return tuple(
        " ".join(rng.choices(words, cum_weights=zipf, k=2_000)).encode("ascii")
        for _ in range(48)
    )


def ref_kernel_ms() -> float:
    """Wall time of a fixed indexing-shaped kernel: the machine's speed now.

    Pure Python with no product code, but the product's diet — split
    bytes, hash strings, grow dicts and lists, intersect sets — over a
    working set of a few MB, because the sandbox's slow spells hit
    memory-bound code harder than arithmetic (a 10 ms arithmetic loop
    moved 9 % while index building moved 24 %).  About 20 ms here when the
    host is quiet, 30-40 ms when it is not; twice the documents read twice
    that in either state and were no steadier, reading for reading.  The
    collector is off while it runs: its allocations would otherwise
    trigger full collections of the product's heap (100 ms with an index
    live) and the kernel would measure the heap, not the machine.
    """
    documents = _probe_documents()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        postings: dict = {}
        for doc_id, document in enumerate(documents):
            for term in set(document.split()):
                postings.setdefault(term.decode("ascii"), []).append(doc_id)
        terms = sorted(postings)
        shared = 0
        for left, right in zip(terms[::2], terms[1::2]):
            shared += len(set(postings[left]) & set(postings[right]))
        return (time.perf_counter() - started) * 1e3
    finally:
        if was_enabled:
            gc.enable()
