"""LSM-style segmented incremental indexing.

Incremental maintenance the way easily-updatable full-text indexes are
actually built (immutable index parts plus a merge, cf. PAPERS.md and
the Web-Search-Engine pipeline in SNIPPETS.md §3).  A segment *is* an
index — an :class:`~repro.index.inverted.InvertedIndex` held by
reference, or an mmap'd RIDX2 file — plus the set of paths sealed in
it; no second, per-document copy is kept beside the postings:

* **immutable sealed segments** — each refresh seals the batch of
  changed documents into a new :class:`MemorySegment`; a saved RIDX2
  file is adopted as a :class:`DiskSegment` served off its mmap.
  Sealed segments are never mutated;
* **tombstones** — deletions never touch old segments: the path goes
  into a global tombstone set and simply stops being visible;
* **newest-wins ownership** — a path may appear in several segments
  (one per revision); only the newest occurrence is live.  The
  :class:`SegmentManifest` resolves ownership once at construction —
  each segment's *dead* paths, shadowed by a newer revision or a
  tombstone, fixed as a set — and serves ``lookup``/``terms`` over the
  frozen view, so it can sit directly behind
  :class:`~repro.query.evaluator.QueryEngine` and be wrapped by an
  :class:`~repro.service.snapshot.IndexSnapshot` — publish stays one
  pointer store;
* **layered k-way compaction** — :func:`compact_manifest` merges runs
  of segments ``fanin`` at a time (the ``parallel_merge --fanin``
  pattern) with the one postings-wise newest-wins merge,
  :func:`merge_postings`, dropping tombstoned docs, in-process and
  into memory.  A fully compacted manifest's canonical
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

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import filterfalse, islice
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

from repro.engine.faults import FileFailure, check_on_error
from repro.engine.stage2 import read_file_terms
from repro.index.binfmt import dump_index_ridx2, load_index_ridx2
from repro.index.fingerprint import FingerprintMap, read_fingerprinted
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
    # Files the refresh could not index under on_error="skip": left
    # out of the index and of the fingerprints, so the next refresh
    # tries them again (as BuildReport.failures, for a build).
    failures: List[FileFailure] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of documents touched."""
        return len(self.added) + len(self.removed) + len(self.modified)


# -- segments -----------------------------------------------------------------


def forward_view(postings) -> Dict[str, Tuple[str, ...]]:
    """Transpose ``(term, paths)`` pairs into path -> its terms.

    The only forward (document -> terms) structure in the system, and
    only a refresh that meets a live document with no recorded
    fingerprint ever asks for one: queries, other refreshes and merges
    all work on postings.
    """
    by_path: Dict[str, List[str]] = {}
    for term, paths in postings:
        for path in paths:
            by_path.setdefault(path, []).append(term)
    return {path: tuple(terms) for path, terms in by_path.items()}


class _SealedSegment:
    """What both segment kinds are: an index, the paths sealed in it,
    and a term dictionary and a forward view built on first use.
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

    Every call goes straight to its
    :class:`~repro.index.ondisk.MmapPostingsReader`, :attr:`reader`;
    only the path set is read up front (a sealed segment's paths never
    change), after the one checksum pass a file gets: a cut or
    bit-flipped file is an :class:`~repro.index.binfmt.IndexFormatError`
    here, not a wrong answer later.
    """

    def __init__(self, segment_id: int, path: str) -> None:
        self.path = path
        self.reader = MmapPostingsReader(path)
        try:
            self.reader.verify()
            paths = self.reader.doc_paths()
        except Exception:
            self.reader.close()
            raise
        super().__init__(segment_id, self.reader, paths)

    @property
    def index(self) -> InvertedIndex:
        """The segment as an in-memory index, decoded in full per call."""
        return load_index_ridx2(self.to_ridx2())

    @property
    def crc32(self) -> int:
        """The CRC-32 the file's header records, checked at adoption."""
        return self.reader._header.crc32

    def postings(self):
        return self.reader.postings()

    def to_ridx2(self) -> bytes:
        """The mapped file's bytes, as checked at adoption."""
        return self.reader._mm[:]

    def stats(self) -> Dict[str, int]:
        """The reader's block counters since the file was adopted."""
        return self.reader.stats()

    def close(self) -> None:
        self.reader.close()

    def __repr__(self) -> str:
        return f"DiskSegment(id={self.segment_id}, path={self.path!r})"


def _resolve_owners(
    segments: Sequence, tombstones: Iterable[str]
) -> Tuple[Dict[str, int], List[set]]:
    """``(owner, dead)``: path -> position of the newest segment holding
    it, tombstoned paths simply absent; and per segment the paths sealed
    in it that a newer segment or a tombstone shadows."""
    owner: Dict[str, int] = {}
    dead: List[set] = [set() for _ in segments]
    for position, segment in enumerate(segments):
        for path in segment._paths:
            older = owner.get(path)
            if older is not None:
                dead[older].add(path)
            owner[path] = position
    for path in tombstones:
        position = owner.pop(path, None)
        if position is not None:
            dead[position].add(path)
    return owner, dead


def merge_postings(
    sources: Sequence, dead: Sequence[set], block_count: int
) -> InvertedIndex:
    """The one merge: newest-wins over ``sources`` (oldest→newest).

    Each source yields a segment's ``(term, paths)`` pairs and ``dead``
    holds, per source, the paths a newer source or a tombstone shadows
    (:func:`_resolve_owners`).  Postings-wise, by
    :meth:`SegmentManifest.lookup`'s rule: a source's lists are taken
    whole, or filtered in C by its dead set, then concatenated per term
    and sorted, so a document's terms are never regrouped and no
    posting is inserted twice.  Serves :meth:`SegmentManifest.materialize`
    and every compaction group.  The inputs are only read.
    """
    merged: Dict[str, PostingsList] = {}
    setdefault = merged.setdefault
    for postings, shadowed in zip(sources, dead):
        drop = shadowed.__contains__
        for term, paths in postings:
            kept = PostingsList(filterfalse(drop, paths) if shadowed else paths)
            if kept:
                held = setdefault(term, kept)
                if held is not kept:
                    held += kept
    for paths in merged.values():
        paths.sort()
    return InvertedIndex.from_postings(merged, block_count)


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
        # Ownership resolved once, at construction; ``lookup`` runs
        # each segment's bound lookup and filters by its dead set.
        self._owner, dead = _resolve_owners(self.segments, self.tombstones)
        self._dead: Tuple[set, ...] = tuple(dead)
        self._probes = tuple(
            (segment.lookup, dead_paths)
            for segment, dead_paths in zip(self.segments, dead)
        )

    # -- index protocol (QueryEngine duck type) ------------------------

    def lookup(self, term: str) -> List[str]:
        """Live paths containing ``term`` (newest revision only).

        A segment with no dead paths contributes its list as is; a
        shadowed one is filtered by one set-membership test per posting.
        Exact because every segment's postings name only paths sealed
        in it.
        """
        probes = self._probes
        if len(probes) == 1:
            lookup, dead = probes[0]
            paths = lookup(term)
            return list(filterfalse(dead.__contains__, paths)) if dead else paths
        hits: List[str] = []
        for lookup, dead in probes:
            paths = lookup(term)
            if paths:
                hits += filterfalse(dead.__contains__, paths) if dead else paths
        return hits

    def terms(self) -> List[str]:
        """Terms with at least one live posting, sorted.

        A segment with no dead paths contributes its whole dictionary,
        a segment with only dead ones nothing; any other is walked once,
        postings-wise, for the terms it still holds a live path of.
        """
        live = set()
        for segment, dead in zip(self.segments, self._dead):
            if not dead:
                live.update(segment.dictionary())
            elif len(dead) < len(segment):
                for term, paths in segment.postings():
                    if term not in live and not dead.issuperset(paths):
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
        postings = [segment.postings() for segment in self.segments]
        return merge_postings(postings, self._dead, len(self._owner))

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


def compact_manifest(
    manifest: SegmentManifest,
    policy: Optional[CompactionPolicy] = None,
) -> SegmentManifest:
    """Layered k-way merge down to a single in-memory segment.

    Each round groups consecutive segments ``fanin`` at a time and
    merges every group independently with :func:`merge_postings`.
    Tombstones are applied during the merges, so the compacted
    manifest carries none.
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
            owners, deads = zip(
                *(_resolve_owners(g, tombstones) for g in groups)
            )
            with obsrec.span(
                "compaction.round", round=rounds, groups=len(groups)
            ):
                products = [
                    merge_postings([s.postings() for s in g], d, len(o))
                    for g, o, d in zip(groups, owners, deads)
                ]
            if obsrec.enabled():
                # Only the counter reads it: not walked otherwise.
                merged_postings += sum(p.posting_count for p in products)
            # A product's paths are its group's live paths, known
            # already: not derived again from its postings.
            segments = [
                MemorySegment(next_id + i, product, owner)
                for i, (product, owner) in enumerate(zip(products, owners))
                if owner
            ]
            next_id += len(products)
            # Tombstoned paths are gone from every merged product.
            tombstones = frozenset()
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
        extractor=None,
        on_error: str = "strict",
    ) -> None:
        from repro.extract.registry import resolve_extractor

        self.fs = fs
        # One Extractor seam (see repro.extract).
        self.extractor = resolve_extractor(extractor)
        # The per-file error policy of the build this index came from
        # (see repro.engine.faults); refresh honours it.
        self.on_error = check_on_error(on_error)
        self.root = root
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

    def adopt(
        self,
        index,
        fingerprints: FingerprintMap,
        documents: Optional[Iterable[str]] = None,
    ) -> SegmentManifest:
        """Adopt a bulk-built index, or a sealed segment (the
        :class:`DiskSegment` over a saved file), as segment 0 of a
        fresh manifest; held by reference, not to be mutated again.
        ``documents`` are the index's paths when the build collected
        them (``BuildReport.documents``), so its postings are not
        walked again to find them."""
        if not isinstance(index, _SealedSegment):
            index = MemorySegment(0, index, documents)
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
            ref.path: read_fingerprinted(self.fs, ref.path, ref.stamp)[1]
            for ref in self.fs.list_files(self.root)
        }

    # -- refresh --------------------------------------------------------

    def refresh(self) -> ChangeReport:
        """Scan, seal the delta into a new segment, swap at the end.

        The stat-first scan is what makes refresh O(delta) in bytes
        read: unchanged files (same size and mtime stamp as recorded)
        are skipped without opening them.  The stat is the walk's own
        (``FileRef.size`` and ``.stamp``), so an unchanged file costs
        one stat and nothing more.  Files that must be read are
        read **once**, through stage 2's file ladder
        (:func:`~repro.engine.stage2.read_file_terms`): the same bytes
        feed both the fingerprint hash and term extraction.  A live
        document with no recorded fingerprint — every one, the first
        time a session opened without its state refreshes — is read and
        kept when its term set equals the live revision's.  Under
        ``on_error="skip"`` a file that fails gets no fingerprint and
        no place in the index, exactly as a rebuild would leave it.
        Nothing observable mutates until the final two assignments, so
        a crashed refresh replays cleanly.
        """
        previous = self._fingerprints
        manifest = self._manifest
        fingerprints: FingerprintMap = {}
        changed: Dict[str, TermBlock] = {}
        failures: List[FileFailure] = []
        files_seen = 0
        files_read = 0
        with obsrec.span("segments.refresh", generation=manifest.generation):
            for ref in self.fs.list_files(self.root):
                files_seen += 1
                old = previous.get(ref.path)
                if (
                    old is not None
                    and ref.stamp != 0
                    and old[0] == ref.size
                    and old[1] == ref.stamp
                ):
                    # Unchanged by stat: not read, not re-hashed.
                    fingerprints[ref.path] = old
                    continue
                files_read += 1
                unit = self._read(ref, failures, old)
                if unit is None:
                    continue  # skipped: removed below if it was live
                terms, fingerprints[ref.path] = unit
                if terms is None:
                    # Same bytes as the indexed revision (e.g. removed
                    # and re-added identical content, or a bare mtime
                    # bump): the stage-2 ladder stopped after the read,
                    # so refresh the stamp, skip re-indexing, and —
                    # critically — do not classify it removed/modified.
                    continue
                block = TermBlock(path=ref.path, terms=tuple(terms))
                if (
                    old is None
                    and ref.path in manifest
                    and set(manifest.doc_terms(ref.path)) == set(block.terms)
                ):
                    continue  # no fingerprint, but unchanged terms
                changed[ref.path] = block

            # A document is a file with at least one term: a term-less
            # one keeps its fingerprint (it is not read again) and no
            # place in the index.
            termless = {p for p, block in changed.items() if not block.terms}
            for path in termless:
                del changed[path]
            modified = sorted(p for p in changed if p in manifest)
            added = sorted(set(changed).difference(modified))
            # Every indexed path the scan did not see, or saw emptied,
            # goes.
            removed = sorted(
                p
                for p in manifest.live_paths()
                if p not in fingerprints or p in termless
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
        return ChangeReport(
            added=added, removed=removed, modified=modified, failures=failures
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
                postings: Dict[str, PostingsList] = defaultdict(PostingsList)
                for path in sorted(changed):
                    for term in changed[path].terms:
                        postings[term].append(path)
                sealed = InvertedIndex.from_postings(postings, len(changed))
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
        self._manifest = compact_manifest(manifest, policy)
        return True

    # -- internals ------------------------------------------------------

    def _read(self, ref, failures: List[FileFailure], previous=None):
        """Stage 2 for one file under the indexer's error policy, in its
        distinct form; ``previous`` is its indexed fingerprint, when a
        refresh has one."""
        return read_file_terms(
            self.fs,
            ref,
            self.extractor,
            failures if self.on_error == "skip" else None,
            previous,
            distinct=True,
        )


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
