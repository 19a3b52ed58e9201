"""The unified public API: one ``Search`` session end to end.

Historically this package grew one entry point per subsystem: engines
behind :class:`~repro.engine.runner.IndexGenerator`, persistence split
across four save/load functions, querying split between an engine, a
caching wrapper and a separate incremental indexer.  :class:`Search`
folds that into a single session object::

    from repro import Search

    session = Search.build("~/documents", config=ThreadConfig(3, 2, 0))
    hits = session.query("cat AND dog")         # typed QueryResult
    session.refresh()                           # incremental delta
    session.compact()                           # fold segments back to one
    session.save("documents.ridx")              # RIDX2: open() maps it
    service = session.serve(workers=4)          # long-running SearchService
    frontend = session.serve_async(workers=4)   # batched/coalescing front end

Every knob is a keyword on one constructor:
:class:`~repro.engine.config.ThreadConfig` picks the engine and
backend, :class:`~repro.engine.faults.FaultPolicy` the error/retry
behaviour, ``cache`` the LRU result-cache capacity, ``extractor`` the
extraction pipeline.  The historical entry points still work from their
home modules (``docs/api.md`` has the migration table).

The session's source of truth is an immutable
:class:`~repro.index.segments.SegmentManifest` maintained by a
:class:`~repro.index.segments.SegmentedIndexer`: the built index is
adopted by reference as segment 0, ``refresh()`` seals the filesystem
delta into a new segment (reading only changed files), deletions
become tombstones, and :meth:`compact` (or a :meth:`start_compactor`
background thread) folds segments back down with layered k-way merges.
Queries evaluate directly over the manifest — a saved RIDX2 file
opened alone by the DAAT engine over its blocks, any other manifest by
the set evaluator; :attr:`index` is the lone segment's own
:class:`~repro.index.inverted.InvertedIndex` while there is one, and a
merge of the segments (cached per generation) otherwise.

Sessions allow one writer at a time: ``refresh``/``rebuild``/``compact``
serialize on an internal lock (so a background compactor never races a
refresh).  ``query`` takes no lock: every index change publishes one
:class:`~repro.service.snapshot.IndexSnapshot` (also what
:meth:`Search.snapshot` and the serving doors hand on) owning an empty
result cache, as one store, and a query reads it once, so one that
races a writer (the refresher of :meth:`Search.serve`, the compactor)
answers from — and is labelled with — exactly one generation.  The
serving doors serve those same snapshots — a service publishes the
session's snapshot, never one of its own — so every door reports the
session's generation and answers repeats from the same cache.
"""

from __future__ import annotations

import os
from typing import List, Optional, Union

from repro.engine.config import Implementation, ThreadConfig
from repro.engine.faults import FaultPolicy
from repro.engine.results import BuildReport
from repro.engine.runner import IndexGenerator
from repro.engine.sequential import SequentialIndexer
from repro.extract.registry import resolve_extractor
from repro.fsmodel.realfs import OsFileSystem
from repro.index.binfmt import IndexFormatError, dump_index_ridx2
from repro.index.fingerprint import (
    load_fingerprints,
    save_with_state,
    state_path,
)
from repro.index.inverted import InvertedIndex
from repro.index.merge import join_indices
from repro.index.multi import MultiIndex
from repro.index.segments import (
    BackgroundCompactor,
    ChangeReport,
    CompactionPolicy,
    DiskSegment,
    SegmentedIndexer,
    SegmentManifest,
)
from repro.index.serialize import (
    load_index,
    load_multi_index,
    sniff_file,
)
from repro.query.cache import QueryCache
from repro.query.daat import DaatQueryEngine
from repro.service.frontend import AsyncSearchFrontend
from repro.service.service import SearchService
from repro.service.snapshot import IndexSnapshot, QueryResult


def _flatten(index: Union[InvertedIndex, MultiIndex]) -> InvertedIndex:
    """Any engine's output as one single index (joins replicas)."""
    if isinstance(index, MultiIndex):
        return join_indices(index.replicas)
    if hasattr(index, "to_inverted_index"):
        return index.to_inverted_index()
    return index


def _as_filesystem(source):
    """A path becomes an :class:`~repro.fsmodel.realfs.OsFileSystem`;
    anything implementing ``list_files``/``read_file`` passes through."""
    if isinstance(source, (str, os.PathLike)):
        return OsFileSystem(os.fspath(source))
    return source


class Search:
    """One desktop-search session: build, query, refresh, compact, serve.

    Construct through :meth:`build` (index a filesystem) or
    :meth:`open` (load a saved index).  The session keeps a segmented
    index manifest plus the fingerprint map that makes incremental
    refresh O(delta), a result cache, and a generation counter that
    bumps on every index change.
    """

    def __init__(
        self,
        segmented: SegmentedIndexer,
        *,
        fs=None,
        root: str = "",
        generation: int = 0,
        provenance: str = "build",
        report: Optional[BuildReport] = None,
        implementation: Optional[Implementation] = None,
        config: Optional[ThreadConfig] = None,
        fault: Optional[FaultPolicy] = None,
        cache: int = 128,
        sync=None,
        extractor=None,
    ) -> None:
        self._segmented = segmented
        self._fs = fs
        self._root = root
        self._generation = generation
        self._provenance = provenance
        self._report = report
        self._implementation = implementation
        self._config = config
        self._fault = fault or FaultPolicy()
        # One extraction seam (see repro.extract): the session resolves
        # extractor= once and hands the Extractor to every engine it
        # constructs.
        self._extractor = resolve_extractor(extractor)
        self._sync = sync
        if sync is None:
            from repro.concurrency.provider import THREADING_SYNC

            sync_provider = THREADING_SYNC
        else:
            sync_provider = sync
        self._write_lock = sync_provider.lock("search.write-lock")
        self._cache_capacity = cache
        self._index_cache: Optional[InvertedIndex] = None
        self._index_cache_generation = -1
        self._publish()

    # -- constructors -----------------------------------------------------

    @classmethod
    def build(
        cls,
        source,
        *,
        implementation: Optional[Implementation] = None,
        config: Optional[ThreadConfig] = None,
        fault: Optional[FaultPolicy] = None,
        cache: int = 128,
        root: str = "",
        sync=None,
        extractor=None,
    ) -> "Search":
        """Index ``source`` (a directory path or a filesystem object).

        ``config=None`` runs the sequential en-bloc build; otherwise
        ``config.backend`` and ``implementation`` select any of the
        threaded or multiprocessing engines (defaults: Implementation 3
        on threads, Implementation 2 on the process backend).
        ``fault`` applies the per-file error policy and, for the
        process backend, the retry/timeout ladder.  ``extractor`` picks the
        extraction pipeline — an :class:`~repro.extract.Extractor`
        instance or a registered name (``"ascii"``, ``"code"``,
        ``"tsv"``).
        """
        fs = _as_filesystem(source)
        fault = fault or FaultPolicy()
        extractor = resolve_extractor(extractor)
        segmented = SegmentedIndexer(
            fs, extractor=extractor, root=root, on_error=fault.on_error
        )
        if config is None:
            report = SequentialIndexer(
                fs,
                naive=False,
                on_error=fault.on_error,
                extractor=extractor,
            ).build(root)
        else:
            if implementation is None:
                implementation = (
                    Implementation.REPLICATED_JOINED
                    if config.backend == "process"
                    else Implementation.REPLICATED_UNJOINED
                )
            config.validate_for(implementation)
            report = IndexGenerator(
                fs,
                on_error=fault.on_error,
                max_retries=fault.max_retries,
                batch_timeout=fault.batch_timeout,
                sync=sync,
                extractor=extractor,
            ).build(implementation, config, root)
        # The engine fingerprinted each file by the read it indexed, so
        # a file modified while the build runs is seen as changed by
        # the next refresh, never silently lost.
        segmented.adopt(
            _flatten(report.index), report.fingerprints, report.documents
        )
        return cls(
            segmented,
            fs=fs,
            root=root,
            provenance="build",
            report=report,
            implementation=implementation,
            config=config,
            fault=fault,
            cache=cache,
            sync=sync,
            extractor=extractor,
        )

    @classmethod
    def open(
        cls,
        path: str,
        *,
        source=None,
        cache: int = 128,
        root: str = "",
        sync=None,
        extractor=None,
    ) -> "Search":
        """Open a saved index; the file's leading bytes decide how.

        An RIDX2 file (what :meth:`save` writes) is not loaded: it is
        mapped and adopted as the manifest's one
        :class:`~repro.index.segments.DiskSegment` after a checksum
        pass (``IndexFormatError`` naming ``path`` on a cut or flipped
        file), so no
        posting is decoded before a query asks.  Until a refresh
        changes the index the DAAT engine answers off the map, and
        ranks off the file's frequencies; an uncached query costs
        about 1.8 times the in-memory map's (``docs/api.md``).  Every
        other format loads eagerly; replica directories join.  Pass
        ``source`` — the indexed directory or filesystem — to re-enable
        :meth:`refresh`: with the fingerprints :meth:`save` left beside
        this very file (the state names its header CRC) the first
        refresh reads only what changed since; without them — no state,
        a state naming another file, a non-RIDX2 index — it reads every
        live file once and compares its terms with the indexed ones.
        """
        if os.path.isdir(path):
            index = _flatten(load_multi_index(path))
        else:
            format = sniff_file(path)
            if format != "ridx2":
                index = load_index(path, format)
            else:
                try:
                    index = DiskSegment(0, path)
                except IndexFormatError as exc:
                    # load_index names its file; the map reader cannot.
                    raise IndexFormatError(f"{path}: {exc}") from exc
        fs = _as_filesystem(source) if source is not None else None
        extractor = resolve_extractor(extractor)
        segmented = SegmentedIndexer(fs, extractor=extractor, root=root)
        # Only a session that can refresh has a use for the state file,
        # and only one naming the mapped file describes this index.
        fingerprints = None
        if fs is not None and isinstance(index, DiskSegment):
            fingerprints = load_fingerprints(state_path(path), index.crc32)
        segmented.adopt(index, fingerprints or {})
        return cls(
            segmented,
            fs=fs,
            root=root,
            provenance="open",
            cache=cache,
            sync=sync,
            extractor=extractor,
        )

    # -- reading ----------------------------------------------------------

    @property
    def manifest(self) -> SegmentManifest:
        """The immutable segment manifest behind the session."""
        return self._segmented.manifest

    @property
    def index(self) -> InvertedIndex:
        """The session's current state as one index.

        A manifest of one segment and no tombstone *is* that segment's
        index, returned as is; anything else is merged on demand and
        cached until the next index change.  Frozen either way:
        refresh, rebuild and compact replace it, never mutate it, so
        an index captured here stays what it was.
        """
        if self._index_cache_generation != self._generation:
            manifest = self._segmented.manifest
            if manifest.segment_count == 1 and not manifest.tombstones:
                self._index_cache = manifest.segments[0].index
            else:
                self._index_cache = manifest.materialize()
            self._index_cache_generation = self._generation
        return self._index_cache

    @property
    def generation(self) -> int:
        """Bumps by one on every refresh/rebuild/compaction."""
        return self._generation

    @property
    def report(self) -> Optional[BuildReport]:
        """The build report behind the current index (None after open)."""
        return self._report

    @property
    def universe(self) -> List[str]:
        """All indexed paths."""
        return self._segmented.manifest.document_paths()

    def __len__(self) -> int:
        return len(self._segmented.manifest)

    def query(self, query_text: str) -> QueryResult:
        """Evaluate a boolean/wildcard query: the published
        snapshot's ``answer``, memoized in its LRU cache by the text as
        asked and parsed only on a miss.  The result's
        ``generation`` is the one the answer was computed on, even when
        an index change lands mid-query (see :meth:`_publish`).
        """
        return self._published.answer(query_text)

    # -- updating ---------------------------------------------------------

    def refresh(self) -> ChangeReport:
        """Apply the filesystem delta; returns what changed.

        The scan stats only changed files (unchanged size+mtime files
        are never opened), seals the delta into a new immutable segment
        and tombstones removals — the manifest swap is the last step,
        so a previously served snapshot (see :meth:`serve`) never
        observes a half-applied delta and a crashed refresh replays
        cleanly.  A session opened from disk without its state reads
        every live file on its first refresh and keeps each whose terms
        are the indexed ones.
        Files are read under the error policy :meth:`build` was given
        (strict after :meth:`open`): under ``"skip"`` a file that fails
        is left out, as a rebuild would leave it, and reported on
        ``ChangeReport.failures``.
        """
        self._require_fs("refresh")
        with self._write_lock:
            change = self._segmented.refresh()
            if change.total == 0:
                # Nothing changed: keep the published view and the warm
                # cache; the freshly verified fingerprints are already
                # recorded by the indexer.
                return change
            self._bump("refresh")
        return change

    def rebuild(self) -> BuildReport:
        """Re-run the original full build against the live filesystem.

        The alternative update path to :meth:`refresh` for when the
        corpus changed wholesale; uses the engine, config and fault
        policy the session was built with.
        """
        fs = self._require_fs("rebuild")
        rebuilt = Search.build(
            fs,
            implementation=self._implementation,
            config=self._config,
            fault=self._fault,
            cache=0,
            extractor=self._extractor,
            root=self._root,
            sync=self._sync,
        )
        with self._write_lock:
            self._report = rebuilt.report
            self._segmented = rebuilt._segmented
            self._bump("rebuild")
        return rebuilt.report

    def compact(
        self,
        policy: Optional[CompactionPolicy] = None,
        force: bool = True,
    ) -> bool:
        """Fold the manifest's segments back down with k-way merges,
        in-process, into one in-memory segment.

        With ``force=False`` the ``policy`` decides whether compaction
        is due (the background-compactor mode).  Returns whether a
        compaction ran.  Queries are unaffected either way: the live
        view of a compacted manifest is identical, only its shape
        changes.
        """
        with self._write_lock:
            ran = self._segmented.compact(policy=policy, force=force)
            if ran:
                self._bump("compact")
        return ran

    def start_compactor(
        self,
        interval_s: float = 5.0,
        policy: Optional[CompactionPolicy] = None,
        sync=None,
    ) -> BackgroundCompactor:
        """Run :meth:`compact` periodically on a background thread.

        The compactor checks ``policy`` every ``interval_s`` seconds
        and compacts only when due; it shares the session's write lock
        with :meth:`refresh`, so the two writers serialize.  Call
        ``stop()`` on the returned handle to shut it down.
        """
        policy = policy or CompactionPolicy()
        compactor = BackgroundCompactor(
            lambda: self.compact(policy=policy, force=False),
            interval_s=interval_s,
            sync=sync if sync is not None else self._sync,
        )
        return compactor.start()

    def save(self, path: str) -> int:
        """Persist the index as RIDX2 (which :meth:`open` serves in
        place); returns bytes written.

        The session's fingerprints go beside it (``path`` + ``.state``),
        index first, naming the file by its header CRC: :meth:`open`
        with ``source=`` resumes from them only beside that file, so a
        lost state write costs one reconciling refresh, never a stale
        answer.  Both are replaced atomically: ``path`` may be a mapped
        file.  A lone segment and no tombstone is written as that
        segment's own bytes, so an opened file a refresh did not change
        is kept as it is, term frequencies included.
        """
        manifest = self._segmented.manifest
        if manifest.segment_count == 1 and not manifest.tombstones:
            data = manifest.segments[0].to_ridx2()
        else:
            data = dump_index_ridx2(self.index)
        return save_with_state(data, path, self._segmented.fingerprints)

    # -- serving ----------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        """The session's current state as an immutable snapshot — the
        one :meth:`query` evaluates on, replaced by the next index
        change.  It wraps the segment manifest directly: manifests are
        immutable, so snapshot isolation needs no copying at all."""
        return self._published

    def serve(
        self,
        workers: int = 2,
        max_inflight: int = 32,
        sync=None,
    ) -> SearchService:
        """A :class:`~repro.service.service.SearchService` over this
        session.  The service's refresher runs :meth:`refresh` and
        hands on :meth:`snapshot`, so ``service.refresh()`` (or
        ``--watch``) updates readers with one atomic pointer swap, and
        a refresh that changed nothing keeps the served snapshot and
        its warm cache.  A compaction reaches the service at its next
        refresh."""
        refresher = None
        if self._fs is not None:

            def refresher():
                # Refresh first: the snapshot handed on is its result.
                change = self.refresh()
                return self.snapshot(), change

        return SearchService(
            self.snapshot(),
            refresher=refresher,
            workers=workers,
            max_inflight=max_inflight,
            sync=sync if sync is not None else self._sync,
        )

    def serve_async(
        self,
        workers: int = 2,
        max_inflight: int = 32,
        batch_window: float = 0.0,
        sync=None,
    ) -> AsyncSearchFrontend:
        """An :class:`~repro.service.frontend.AsyncSearchFrontend` over
        this session: single-flight coalescing of duplicate in-flight
        queries and batched admission (the batcher plans a burst and
        admits it against one snapshot load), with an awaitable
        ``query_async`` face.  The frontend owns its backing
        :class:`~repro.service.service.SearchService` (built via
        :meth:`serve`), so one ``close()`` — or leaving the context
        manager — shuts both down.  ``workers`` are the evaluation
        threads; the service itself starts none.
        """
        service = self.serve(
            workers=1, max_inflight=max_inflight, sync=sync
        )
        return AsyncSearchFrontend(
            service,
            batch_window=batch_window,
            workers=workers,
            max_inflight=max_inflight,
            own_service=True,
            sync=sync if sync is not None else self._sync,
        )

    def serve_sharded(
        self,
        shards: int = 2,
        replicas: int = 1,
        partial: str = "degrade",
        workers: int = 1,
        max_inflight: int = 32,
        bm25: bool = False,
        backend: str = "local",
        sync=None,
    ):
        """Document-partitioned serving: N shards behind a
        scatter-gather broker.

        The corpus is partitioned by document (sorted paths dealt
        round-robin, the paper's rule), each shard serves its slice
        from its own
        :class:`~repro.service.service.SearchService` (× ``replicas``
        for failover/throughput), and the returned
        :class:`~repro.service.sharded.ScatterGatherBroker` fans every
        query out and merges: boolean results byte-identical to the
        unsharded engine, BM25 a heap-merge of top-K lists scored on
        the whole collection's statistics, equal to the unsharded
        ranking to the float (``docs/sharded.md`` has the scoring
        contract).  ``partial`` picks the dead-shard policy
        (``"degrade"`` answers from live shards with a
        ``shards_ok/shards_total`` health tuple; ``"fail"`` raises).  ``bm25=True`` builds the collection's
        frequency sidecar (needs the session's filesystem) so
        ``rank="bm25"`` works.  ``backend="process"`` spawns one OS
        process per replica serving an RIDX2 shard file off mmap; the
        files live in a temporary directory the broker removes on
        ``close()``.  ``backend="local"`` keeps in-memory shards
        in-process.

        The sharded topology is immutable — built from this session's
        current state; rebuild and re-serve to pick up changes.  For
        coalescing *before* fan-out, seat a frontend on the broker:
        ``AsyncSearchFrontend(broker, own_service=True)``.
        """
        from repro.query.ranking import FrequencyIndex
        from repro.service.sharded import build_sharded_service

        frequencies = None
        if bm25:
            fs = self._require_fs("serve sharded BM25 (frequency sidecar)")
            frequencies = FrequencyIndex.from_fs(
                fs,
                extractor=self._extractor,
                root=self._root,
            )
        return build_sharded_service(
            self.index,
            self.snapshot().universe,
            shards=shards,
            replicas=replicas,
            partial=partial,
            frequencies=frequencies,
            workers=workers,
            max_inflight=max_inflight,
            sync=sync if sync is not None else self._sync,
            generation=self._generation,
            backend=backend,
        )

    # -- internals --------------------------------------------------------

    def _publish(self) -> None:
        """Swap in what :meth:`query` reads, as one store: a snapshot
        of the current manifest (engine, universe, generation) owning
        an empty result cache that lives exactly as long — a cached
        answer can never outlive the index it was computed on.

        The manifest's shape picks the engine.  One saved RIDX2 file
        and no tombstone is served as it is, by the DAAT evaluator
        over its blocks, which also ranks off its frequencies; any
        other manifest is answered by the set evaluator.
        """
        manifest = self._segmented.manifest
        engine = None
        segments = manifest.segments
        if (
            len(segments) == 1
            and isinstance(segments[0], DiskSegment)
            and not manifest.tombstones
        ):
            engine = DaatQueryEngine(segments[0].reader)
        self._published = IndexSnapshot(
            index=manifest,
            generation=self._generation,
            provenance=self._provenance,
            report=self._report,
            engine=engine,
            cache=QueryCache(self._cache_capacity, sync=self._sync)
            if self._cache_capacity
            else None,
        )

    def _bump(self, why: str) -> None:
        """Advance the session past an index change (caller holds the
        write lock)."""
        self._generation += 1
        self._provenance = why
        self._publish()

    def _require_fs(self, operation: str):
        if self._fs is None:
            raise ValueError(
                f"this session cannot {operation}: it was opened from a "
                "saved index without source=; pass Search.open(path, "
                "source=directory) to re-attach the filesystem"
            )
        return self._fs

    def __repr__(self) -> str:
        return (
            f"Search(files={len(self)}, generation={self._generation}, "
            f"provenance={self._provenance!r}, "
            f"segments={self._segmented.manifest.segment_count})"
        )
