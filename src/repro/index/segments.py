"""LSM-style segmented incremental indexing.

Incremental maintenance the way easily-updatable full-text indexes are
actually built (immutable index parts plus a merge, cf. PAPERS.md and
the Web-Search-Engine pipeline in SNIPPETS.md §3).  A segment *is* an
index — an :class:`~repro.index.inverted.InvertedIndex` held by
reference, or an mmap'd RIDX2 file — plus the set of paths sealed in
it; no second, per-document copy is kept beside the postings:

* **immutable sealed segments** — each refresh seals the batch of
  changed documents into a new :class:`MemorySegment` (or, once
  compacted to disk, a :class:`DiskSegment` served off an mmap'd RIDX2
  file).  Sealed segments are never mutated;
* **tombstones** — deletions never touch old segments: the path goes
  into a global tombstone set and simply stops being visible;
* **newest-wins ownership** — a path may appear in several segments
  (one per revision); only the newest occurrence is live.  The
  :class:`SegmentManifest` resolves ownership once at construction and
  serves ``lookup``/``terms`` over the frozen view, so it can sit
  directly behind :class:`~repro.query.evaluator.QueryEngine` and be
  wrapped by an :class:`~repro.service.snapshot.IndexSnapshot` — publish
  stays one pointer store;
* **layered k-way compaction** — :func:`compact_manifest` merges runs
  of segments ``fanin`` at a time (the ``parallel_merge --fanin``
  pattern) with the one postings-wise newest-wins merge,
  :func:`merge_postings`, dropping tombstoned docs.
  Merge groups are independent, so they run on the fault-tolerant
  process pool (:class:`~repro.engine.procbackend.CompactionExecutor`)
  with an in-parent fallback.  A fully compacted manifest's canonical
  RIDX2 bytes are identical to a from-scratch rebuild's — the invariant
  the test suite pins after every mutation sequence.

Refresh correctness (the bugfix half of this layer):

* the successor manifest and fingerprint map are built **off to the
  side** and swapped in last, so a crash mid-refresh leaves the old
  state fully intact and a replay trivially converges;
* each changed file is **read once** — the same bytes are hashed and
  extracted, closing the snapshot-then-re-read TOCTOU window;
* removals become tombstones **before** the new segment is appended,
  and a path that was removed and re-added in one interval is excluded
  from the tombstone set (asserted), so tombstones can never shadow the
  segment appended by the same refresh.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.index.atomic import atomic_write
from repro.index.binfmt import (
    dump_index_ridx2,
    dump_index_wire,
    load_index_ridx2,
    load_index_wire,
)
from repro.index.fingerprint import (
    FingerprintMap,
    read_fingerprinted,
    stat_fingerprint,
)
from repro.index.inverted import InvertedIndex
from repro.index.ondisk import MmapPostingsReader
from repro.index.postings import PostingsList
from repro.obs import recorder as obsrec
from repro.text.termblock import TermBlock


@dataclass
class ChangeReport:
    """What one refresh did."""

    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    modified: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of documents touched."""
        return len(self.added) + len(self.removed) + len(self.modified)


# -- segments -----------------------------------------------------------------


def forward_view(postings) -> Dict[str, Tuple[str, ...]]:
    """Transpose ``(term, paths)`` pairs into path -> its terms.

    The only forward (document -> terms) structure in the system, and
    only :meth:`SegmentedIndexer.reconcile` ever asks for one: queries,
    refreshes and merges all work on postings.
    """
    by_path: Dict[str, List[str]] = {}
    for term, paths in postings:
        for path in paths:
            by_path.setdefault(path, []).append(term)
    return {path: tuple(terms) for path, terms in by_path.items()}


class _SealedSegment:
    """What both segment kinds are: an index, the paths sealed in it,
    and a term dictionary and a forward view built on first use.

    ``paths`` may name documents with no postings at all (an emptied
    file): they still shadow the path's older revisions.
    """

    def __init__(self, segment_id: int, source, paths: Iterable[str]) -> None:
        self.segment_id = segment_id
        self._source = source
        # Sorted once, immutable from here: iteration order and O(1)
        # membership from one structure.
        self._paths: Dict[str, None] = dict.fromkeys(sorted(paths))
        self._forward: Optional[Dict[str, Tuple[str, ...]]] = None
        self._dictionary: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: str) -> bool:
        return path in self._paths

    def doc_paths(self) -> List[str]:
        """Paths in this segment, sorted."""
        return list(self._paths)

    def doc_terms(self, path: str) -> Tuple[str, ...]:
        """The de-duplicated terms of ``path``'s sealed revision."""
        if path not in self._paths:
            raise KeyError(path)
        if self._forward is None:
            self._forward = forward_view(self.postings())
        return self._forward.get(path, ())

    def lookup(self, term: str) -> List[str]:
        return self._source.lookup(term)

    def terms(self) -> Iterable[str]:
        return self._source.terms()

    def dictionary(self) -> List[str]:
        """The segment's term dictionary: its terms, sorted.

        Built by the first caller and kept for the segment's lifetime —
        a sealed segment never changes, so there is nothing to
        invalidate, and every manifest that carries the segment forward
        shares the one list.  Lock-free on purpose: two readers racing
        to build it compute equal lists and the attribute store is
        atomic, so whichever lands last changes nothing.  Treat the
        list as read-only.
        """
        dictionary = self._dictionary
        if dictionary is None:
            dictionary = self._dictionary = self._sorted_terms()
        return dictionary

    def _sorted_terms(self) -> List[str]:
        # An RIDX2 lexicon already comes in this order: one linear pass.
        return sorted(self.terms())

    def postings(self) -> Iterator[Tuple[str, Iterable[str]]]:
        """Every ``(term, paths)`` pair of the segment."""
        raise NotImplementedError


class MemorySegment(_SealedSegment):
    """An immutable sealed batch of documents: an index held by reference.

    The segment *is* ``index`` — nothing is copied, so whoever hands an
    index over must stop mutating it.  ``paths`` lists the sealed
    documents when the caller knows them; by default they are the paths
    the postings mention.
    """

    def __init__(
        self,
        segment_id: int,
        index: InvertedIndex,
        paths: Optional[Iterable[str]] = None,
    ) -> None:
        if paths is None:
            paths = set()
            for _term, postings in index.items():
                paths.update(postings)
        super().__init__(segment_id, index, paths)
        self.index = index

    def postings(self):
        return self.index.items()

    def to_ridx2(self) -> bytes:
        """Canonical RIDX2 serialization of this segment alone."""
        return dump_index_ridx2(self.index)

    def __repr__(self) -> str:
        return f"MemorySegment(id={self.segment_id}, docs={len(self)})"


class DiskSegment(_SealedSegment):
    """A sealed segment served off an mmap'd RIDX2 file.

    Every call goes straight to the
    :class:`~repro.index.ondisk.MmapPostingsReader`; only the path set
    is read up front (a sealed segment's paths never change), after the
    one checksum pass a file gets: a cut or bit-flipped file is an
    :class:`~repro.index.binfmt.IndexFormatError` here, not a wrong
    answer later.
    """

    def __init__(self, segment_id: int, path: str) -> None:
        self.path = path
        self._reader = MmapPostingsReader(path)
        try:
            self._reader.verify()
            paths = self._reader.doc_paths()
        except Exception:
            self._reader.close()
            raise
        super().__init__(segment_id, self._reader, paths)

    @property
    def index(self) -> InvertedIndex:
        """The segment as an in-memory index, decoded in full per call."""
        return load_index_ridx2(self.to_ridx2())

    def postings(self):
        return self._reader.postings()

    def to_ridx2(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    def stats(self) -> Dict[str, int]:
        """The reader's block counters since the file was adopted."""
        return self._reader.stats()

    def close(self) -> None:
        self._reader.close()

    def __repr__(self) -> str:
        return f"DiskSegment(id={self.segment_id}, path={self.path!r})"


def _resolve_owners(
    segments: Sequence, tombstones: Iterable[str]
) -> Dict[str, int]:
    """path -> position of the newest segment holding it; tombstoned
    paths are simply absent."""
    owner: Dict[str, int] = {}
    for position, segment in enumerate(segments):
        for path in segment.doc_paths():
            owner[path] = position
    for path in tombstones:
        owner.pop(path, None)
    return owner


def merge_postings(
    sources: Sequence, owner: Mapping[str, int]
) -> InvertedIndex:
    """The one merge: newest-wins over ``sources`` (oldest→newest).

    Each source yields a segment's ``(term, paths)`` pairs and
    ``owner`` maps every live path to the position of the source that
    holds its newest revision (:func:`_resolve_owners`).  Postings-wise:
    a source's postings are filtered down to the paths it owns,
    concatenated per term and sorted, so a document's terms are never
    regrouped and no posting is inserted twice.  Serves
    :meth:`SegmentManifest.materialize` and every compaction group,
    in-process or in a pool worker.  The inputs are only read.
    """
    merged: Dict[str, List[str]] = {}
    for position, postings in enumerate(sources):
        for term, paths in postings:
            kept = [p for p in paths if owner.get(p) == position]
            if kept:
                merged.setdefault(term, []).extend(kept)
    index = InvertedIndex()
    for term, paths in merged.items():
        paths.sort()
        index._map[term] = PostingsList(paths)
    index._block_count = len(owner)
    return index


# -- the manifest -------------------------------------------------------------


class SegmentManifest:
    """An immutable ordered view over segments + tombstones.

    ``segments`` is oldest→newest; a path's live revision is its
    occurrence in the **newest** segment containing it, unless the path
    is tombstoned.  The manifest quacks like an index for the query
    layer (``lookup``/``terms``) and like a corpus for snapshots
    (``document_paths``), so the rest of the system needs no new
    concepts: :class:`~repro.service.snapshot.IndexSnapshot` wraps it,
    ``SearchService.publish`` swaps it, one pointer store.
    """

    def __init__(
        self,
        segments: Sequence = (),
        tombstones: Iterable[str] = (),
        generation: int = 0,
    ) -> None:
        self.segments: Tuple = tuple(segments)
        self.tombstones = frozenset(tombstones)
        self.generation = generation
        # Ownership resolved once, at construction.
        self._owner = _resolve_owners(self.segments, self.tombstones)

    # -- index protocol (QueryEngine duck type) ------------------------

    def lookup(self, term: str) -> List[str]:
        """Live paths containing ``term`` (newest revision only)."""
        owner = self._owner
        hits: List[str] = []
        for position, segment in enumerate(self.segments):
            for path in segment.lookup(term):
                if owner.get(path) == position:
                    hits.append(path)
        return hits

    def terms(self) -> List[str]:
        """Terms with at least one live posting, sorted.

        A segment that owns every path sealed in it contributes its
        whole dictionary; any other is walked once, postings-wise, for
        the terms it still owns a path of.
        """
        owner = self._owner
        owned = Counter(owner.values())
        live = set()
        for position, segment in enumerate(self.segments):
            if owned[position] == len(segment):
                live.update(segment.dictionary())
                continue
            for term, paths in segment.postings():
                if term not in live and any(
                    owner.get(path) == position for path in paths
                ):
                    live.add(term)
        return sorted(live)

    def expand(self, prefix: str, limit: int = 1000) -> List[str]:
        """Terms starting with ``prefix``, sorted, at most ``limit``.

        The manifest is its own term dictionary (what
        :func:`~repro.query.wildcard.expand_prefixes` asks for): the
        prefix is a bisected range of each sealed segment's
        :meth:`~_SealedSegment.dictionary`, and the ranges are united.
        Nothing is kept per manifest, so a refresh costs the next
        prefix query one sort of the new segment's terms and nothing
        for the segments carried over.

        Liveness rule: when the united range fits in ``limit`` it is
        returned whole and may name terms whose every posting is
        shadowed or tombstoned — :meth:`lookup` gives those no paths,
        so a query over the expansion answers as if they were absent.
        Past ``limit`` the choice of terms matters, so each candidate is
        checked in order and exactly the first ``limit`` terms with a
        live posting are returned.
        """
        if not prefix:
            raise ValueError("empty prefix")
        stop = prefix + "\U0010ffff"
        ranges = []
        for segment in self.segments:
            terms = segment.dictionary()
            low = bisect_left(terms, prefix)
            high = bisect_left(terms, stop, low)
            if low < high:
                ranges.append(terms[low:high])
        if len(ranges) == 1:
            candidates = ranges[0]
        else:
            candidates = sorted(set().union(*ranges))
        if len(candidates) <= limit:
            return candidates
        return list(islice(filter(self.lookup, candidates), limit))

    # -- corpus protocol -----------------------------------------------

    def document_paths(self) -> List[str]:
        """All live paths."""
        return list(self._owner)

    def live_paths(self) -> frozenset:
        return frozenset(self._owner)

    def doc_terms(self, path: str) -> Tuple[str, ...]:
        """The live revision's terms for ``path``."""
        return self.segments[self._owner[path]].doc_terms(path)

    def __contains__(self, path: str) -> bool:
        return path in self._owner

    def __len__(self) -> int:
        return len(self._owner)

    # -- stats / derived -----------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def tombstone_ratio(self) -> float:
        """Tombstones as a fraction of all path slots held by segments."""
        slots = sum(len(s) for s in self.segments)
        return len(self.tombstones) / slots if slots else 0.0

    @property
    def next_segment_id(self) -> int:
        return 1 + max(
            (s.segment_id for s in self.segments), default=-1
        )

    def materialize(self) -> InvertedIndex:
        """Flatten the live view into one fresh :class:`InvertedIndex`."""
        return merge_postings(
            [segment.postings() for segment in self.segments], self._owner
        )

    def to_ridx2(self) -> bytes:
        """Canonical RIDX2 bytes of the live view.

        Because :func:`~repro.index.binfmt.dump_index_ridx2` is
        canonical, these bytes are identical to a from-scratch rebuild
        of the same filesystem state — the merge-equivalence oracle.
        """
        return dump_index_ridx2(self.materialize())

    def record_metrics(self, prefix: str = "segments") -> None:
        """Publish manifest shape gauges through :mod:`repro.obs`."""
        if not obsrec.enabled():
            return
        metrics = obsrec.metrics()
        metrics.gauge(f"{prefix}.count").set(self.segment_count)
        metrics.gauge(f"{prefix}.tombstones").set(len(self.tombstones))
        metrics.gauge(f"{prefix}.tombstone_ratio").set(self.tombstone_ratio)
        metrics.gauge(f"{prefix}.live_docs").set(len(self._owner))
        metrics.gauge(f"{prefix}.generation").set(self.generation)

    def __repr__(self) -> str:
        return (
            f"SegmentManifest(gen={self.generation}, "
            f"segments={self.segment_count}, live={len(self._owner)}, "
            f"tombstones={len(self.tombstones)})"
        )


# -- compaction ---------------------------------------------------------------


@dataclass(frozen=True)
class CompactionPolicy:
    """When and how wide to compact.

    ``fanin`` is the k-way merge width per layer; compaction triggers
    when the manifest holds more than ``max_segments`` segments or its
    tombstone ratio exceeds ``max_tombstone_ratio``.
    """

    fanin: int = 4
    max_segments: int = 6
    max_tombstone_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.fanin < 2:
            raise ValueError(f"fanin must be >= 2, got {self.fanin}")
        if self.max_segments < 1:
            raise ValueError(
                f"max_segments must be >= 1, got {self.max_segments}"
            )

    def should_compact(self, manifest: SegmentManifest) -> bool:
        if manifest.segment_count > self.max_segments:
            return True
        return (
            bool(manifest.tombstones)
            and manifest.tombstone_ratio > self.max_tombstone_ratio
        )


def merge_segment_payload(payload) -> bytes:
    """Merge one compaction group in a pool worker; RWIRE1 in and out.

    ``payload`` is picklable plain data — ``(wires, owner)``: the
    group's segment indexes oldest→newest as RWIRE1 bytes, and the
    group's ownership map.  The worker runs the same
    :func:`merge_postings` the parent would, so the in-parent fallback
    is result-identical.  Must stay a module-level function of plain
    data.
    """
    wires, owner = payload
    return dump_index_wire(
        merge_postings([load_index_wire(w).items() for w in wires], owner)
    )


def compact_manifest(
    manifest: SegmentManifest,
    policy: Optional[CompactionPolicy] = None,
    executor=None,
    segment_dir: Optional[str] = None,
) -> SegmentManifest:
    """Layered k-way merge down to a single sealed segment.

    Each round groups consecutive segments ``fanin`` at a time and
    merges every group independently with :func:`merge_postings` —
    directly when in-process, and on ``executor`` (a
    :class:`~repro.engine.procbackend.CompactionExecutor`) through
    :func:`merge_segment_payload`.  Tombstones are applied during the
    merges, so the compacted manifest carries none.  With
    ``segment_dir`` the final product is written as an RIDX2 file and
    served as a :class:`DiskSegment`; otherwise it stays in memory.
    """
    policy = policy or CompactionPolicy()
    segments: List = list(manifest.segments)
    tombstones = manifest.tombstones
    next_id = manifest.next_segment_id
    merged_postings = 0
    rounds = 0
    with obsrec.span(
        "compaction.run",
        segments=manifest.segment_count,
        tombstones=len(manifest.tombstones),
        fanin=policy.fanin,
    ):
        while len(segments) > 1 or tombstones:
            rounds += 1
            groups = [
                segments[i : i + policy.fanin]
                for i in range(0, len(segments), policy.fanin)
            ] or [[]]
            owners = [_resolve_owners(g, tombstones) for g in groups]
            with obsrec.span(
                "compaction.round", round=rounds, groups=len(groups)
            ):
                if executor is not None:
                    blobs = executor.run(
                        merge_segment_payload,
                        [
                            ([dump_index_wire(s.index) for s in g], owner)
                            for g, owner in zip(groups, owners)
                        ],
                    )
                    products = [load_index_wire(blob) for blob in blobs]
                else:
                    products = [
                        merge_postings([s.postings() for s in g], owner)
                        for g, owner in zip(groups, owners)
                    ]
            merged_postings += sum(p.posting_count for p in products)
            # A product keeps its group's live paths, postings or not:
            # an emptied file must go on shadowing older revisions in
            # the next round.
            segments = [
                MemorySegment(next_id + i, product, owner)
                for i, (product, owner) in enumerate(zip(products, owners))
                if owner
            ]
            next_id += len(products)
            # Tombstoned paths are gone from every merged product.
            tombstones = frozenset()
    if segment_dir is not None and segments:
        final = segments[-1]
        os.makedirs(segment_dir, exist_ok=True)
        path = os.path.join(
            segment_dir, f"segment-{final.segment_id:08d}.ridx2"
        )
        with atomic_write(path) as fh:
            fh.write(final.to_ridx2())
        segments[-1] = DiskSegment(final.segment_id, path)
    if obsrec.enabled():
        metrics = obsrec.metrics()
        metrics.counter("compaction.runs").inc()
        metrics.counter("compaction.merged_postings").inc(merged_postings)
    compacted = SegmentManifest(
        segments, frozenset(), manifest.generation + 1
    )
    compacted.record_metrics()
    return compacted


# -- the indexer --------------------------------------------------------------


class SegmentedIndexer:
    """Keeps a :class:`SegmentManifest` in sync with a filesystem.

    The mutable ingest state (the memtable) exists only *inside* one
    ``refresh()`` call: changed documents accumulate in a plain dict
    and are sealed into a :class:`MemorySegment` before the swap, so
    every state the outside world can observe is an immutable manifest
    plus the fingerprint map that produced it.
    """

    def __init__(
        self,
        fs,
        *,
        root: str = "",
        manifest: Optional[SegmentManifest] = None,
        fingerprints: Optional[FingerprintMap] = None,
        segment_dir: Optional[str] = None,
        extractor=None,
    ) -> None:
        from repro.extract.registry import resolve_extractor

        self.fs = fs
        # One Extractor seam (see repro.extract).
        self.extractor = resolve_extractor(extractor)
        self.root = root
        self.segment_dir = segment_dir
        self._manifest = manifest or SegmentManifest()
        self._fingerprints: FingerprintMap = dict(fingerprints or {})
        self.last_scan_stats: Dict[str, int] = {}

    @property
    def manifest(self) -> SegmentManifest:
        return self._manifest

    @property
    def fingerprints(self) -> FingerprintMap:
        """The fingerprint state to persist alongside the manifest."""
        return dict(self._fingerprints)

    # -- bootstrap ------------------------------------------------------

    def adopt(self, index, fingerprints: FingerprintMap) -> SegmentManifest:
        """Adopt a bulk-built index, or a sealed segment (the
        :class:`DiskSegment` over a saved file), as segment 0 of a
        fresh manifest; held by reference, not to be mutated again."""
        if not isinstance(index, _SealedSegment):
            index = MemorySegment(0, index)
        self._manifest = SegmentManifest([index])
        self._fingerprints = dict(fingerprints)
        self._manifest.record_metrics()
        return self._manifest

    def fingerprint_corpus(self) -> FingerprintMap:
        """Fingerprint every file, reading each once.

        A build needs no such walk — its engine's
        ``BuildReport.fingerprints`` come from the extraction pass; this
        is the standalone form, for an index obtained some other way.
        """
        return {
            ref.path: read_fingerprinted(self.fs, ref.path)[1]
            for ref in self.fs.list_files(self.root)
        }

    # -- refresh --------------------------------------------------------

    def refresh(self) -> ChangeReport:
        """Scan, seal the delta into a new segment, swap at the end.

        The stat-first scan is what makes refresh O(delta) in bytes
        read: unchanged files (same size and mtime stamp as recorded)
        are skipped without opening them.  Files that must be read are
        read **once**; the same bytes feed both the fingerprint hash
        and term extraction.  Nothing observable mutates until the
        final two assignments, so a crashed refresh replays cleanly.
        """
        previous = self._fingerprints
        manifest = self._manifest
        fingerprints: FingerprintMap = {}
        changed: Dict[str, TermBlock] = {}
        files_seen = 0
        files_read = 0
        with obsrec.span("segments.refresh", generation=manifest.generation):
            for ref in self.fs.list_files(self.root):
                files_seen += 1
                _, stamp = stat_fingerprint(self.fs, ref.path)
                old = previous.get(ref.path)
                if (
                    old is not None
                    and stamp != 0
                    and old[0] == ref.size
                    and old[1] == stamp
                ):
                    # Unchanged by stat: not read, not re-hashed.
                    fingerprints[ref.path] = old
                    continue
                content, fingerprint = read_fingerprinted(
                    self.fs, ref.path, stamp
                )
                files_read += 1
                fingerprints[ref.path] = fingerprint
                # A HASH_UNKNOWN old hash (a chunk-split build) equals
                # no real one: such a file is re-indexed, not skipped.
                if (
                    old is not None
                    and old[0] == fingerprint[0]
                    and old[2] == fingerprint[2]
                ):
                    # Same bytes as the indexed revision (e.g. removed
                    # and re-added identical content, or a bare mtime
                    # bump): refresh the stamp, skip re-indexing, and —
                    # critically — do not classify it removed/modified.
                    continue
                changed[ref.path] = self._extract(ref.path, content)

            added = sorted(p for p in changed if p not in previous)
            modified = sorted(p for p in changed if p in previous)
            # Every indexed path the scan did not see goes — the
            # fingerprinted ones and, after a crash between persisting
            # an index and its fingerprints, any the manifest holds
            # beyond them.
            removed = sorted(
                p
                for p in previous.keys() | manifest.live_paths()
                if p not in fingerprints
            )
            self.apply_delta(changed, removed, fingerprints)
        self.last_scan_stats = {
            "files_seen": files_seen,
            "files_read": files_read,
        }
        if obsrec.enabled():
            metrics = obsrec.metrics()
            metrics.counter("segments.refreshes").inc()
            metrics.counter("segments.files_read").inc(files_read)
            metrics.counter("segments.files_seen").inc(files_seen)
        return ChangeReport(added=added, removed=removed, modified=modified)

    def reconcile(self) -> ChangeReport:
        """First refresh with no recorded fingerprints (post-``open``).

        Without fingerprints the only truth is the manifest itself, so
        every live file is read once (hash and term extraction share
        the bytes) and compared against the manifest's live revision;
        the computed delta is then applied exactly like a refresh.
        """
        manifest = self._manifest
        fingerprints: FingerprintMap = {}
        changed: Dict[str, TermBlock] = {}
        live = set(manifest.document_paths())
        modified: List[str] = []
        added: List[str] = []
        with obsrec.span("segments.reconcile", live=len(live)):
            for ref in self.fs.list_files(self.root):
                content, fingerprints[ref.path] = read_fingerprinted(
                    self.fs, ref.path
                )
                block = self._extract(ref.path, content)
                if ref.path in live:
                    if set(manifest.doc_terms(ref.path)) != set(block.terms):
                        changed[ref.path] = block
                        modified.append(ref.path)
                else:
                    changed[ref.path] = block
                    added.append(ref.path)
            removed = sorted(live - set(fingerprints))
            self.apply_delta(changed, removed, fingerprints)
        return ChangeReport(
            added=sorted(added), removed=removed, modified=sorted(modified)
        )

    def apply_delta(
        self,
        changed: Mapping[str, TermBlock],
        removed: Iterable[str],
        fingerprints: FingerprintMap,
    ) -> None:
        """Seal ``changed`` into a new segment, tombstone ``removed``.

        Tombstone-then-append ordering: removals are folded into the
        tombstone set *before* the new segment exists, and any path
        re-appearing in this very delta is excluded — a tombstone must
        never shadow the segment its own refresh appends (asserted).
        The manifest/fingerprint swap is the only observable mutation
        and happens last, so interrupted callers replay cleanly.
        """
        manifest = self._manifest
        if not changed and not removed:
            # Nothing to seal: just remember the verified fingerprints.
            self._fingerprints = dict(fingerprints)
            return
        tombstones = (manifest.tombstones | frozenset(removed)) - set(changed)
        assert not (tombstones & set(changed)), (
            "tombstones may not shadow the appended segment"
        )
        segments = manifest.segments
        if changed:
            with obsrec.span("segments.seal", docs=len(changed)):
                sealed = InvertedIndex()
                for path in sorted(changed):
                    sealed.add_block(changed[path])
                segments = segments + (
                    MemorySegment(manifest.next_segment_id, sealed, changed),
                )
        successor = SegmentManifest(
            segments, tombstones, manifest.generation + 1
        )
        successor.record_metrics()
        self._manifest = successor
        self._fingerprints = dict(fingerprints)

    # -- compaction -----------------------------------------------------

    def compact(
        self,
        policy: Optional[CompactionPolicy] = None,
        executor=None,
        force: bool = True,
    ) -> bool:
        """Compact the current manifest in place (swap on completion).

        With ``force=False`` the policy decides; returns whether a
        compaction ran.
        """
        policy = policy or CompactionPolicy()
        manifest = self._manifest
        if not force and not policy.should_compact(manifest):
            return False
        if manifest.segment_count <= 1 and not manifest.tombstones:
            return False
        self._manifest = compact_manifest(
            manifest, policy, executor=executor, segment_dir=self.segment_dir
        )
        return True

    # -- internals ------------------------------------------------------

    def _extract(self, path: str, content: bytes) -> TermBlock:
        return self.extractor.term_block(path, content)


class BackgroundCompactor:
    """Periodically runs a compaction callback on its own thread.

    The callback (typically ``Search.compact`` with ``force=False``)
    owns all index state and locking; this class owns only the cadence
    — an interruptible condition-variable wait, so ``stop()`` returns
    promptly instead of sleeping out the interval.  Built on the
    :class:`~repro.concurrency.provider.SyncProvider` seam like every
    other thread in the system, so schedcheck can drive it.
    """

    def __init__(
        self,
        tick,
        interval_s: float = 5.0,
        sync=None,
        name: str = "compactor",
    ) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}"
            )
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync = THREADING_SYNC
        self._tick = tick
        self._interval_s = interval_s
        self._lock = sync.lock(f"{name}.lock")
        self._cond = sync.condition(self._lock, f"{name}.cond")
        self._stopping = False
        self._thread = sync.thread(self._loop, name=name)
        self.runs = 0
        self.compactions = 0

    def start(self) -> "BackgroundCompactor":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Signal the loop and wait for it to exit."""
        with self._lock:
            self._stopping = True
            self._cond.notify_all()
        self._thread.join()

    def _loop(self) -> None:
        while True:
            with self._lock:
                if not self._stopping:
                    self._cond.wait(timeout=self._interval_s)
                if self._stopping:
                    return
            self.runs += 1
            if self._tick():
                self.compactions += 1
