"""Multi-index search view (what makes Implementation 3 legitimate).

Implementation 3 never joins the replicas "because the search can work
with multiple indices in parallel".  :class:`MultiIndex` is that search
side: a read-only view over several replicas whose lookup unions the
per-replica postings, one replica after another, which is how
:class:`~repro.query.evaluator.QueryEngine` probes it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.index.inverted import InvertedIndex


class MultiIndex:
    """Read-only union view over index replicas."""

    def __init__(self, replicas: Sequence[InvertedIndex]) -> None:
        if not replicas:
            raise ValueError("MultiIndex needs at least one replica")
        self.replicas = list(replicas)

    def lookup(self, term: str) -> List[str]:
        """Union of the term's postings across all replicas (sequential)."""
        paths: List[str] = []
        for replica in self.replicas:
            paths.extend(replica.lookup(term))
        return paths

    def __contains__(self, term: str) -> bool:
        return any(term in replica for replica in self.replicas)

    def terms(self):
        """Distinct terms across all replicas (arbitrary order)."""
        seen = set()
        for replica in self.replicas:
            for term in replica.terms():
                if term not in seen:
                    seen.add(term)
                    yield term

    def __len__(self) -> int:
        """Number of distinct terms across all replicas."""
        return len({t for replica in self.replicas for t in replica.terms()})

    @property
    def posting_count(self) -> int:
        """Total (term, file) pairs across all replicas."""
        return sum(replica.posting_count for replica in self.replicas)
