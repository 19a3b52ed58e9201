"""The product journey (child process).

Runs in its own process so that ``peak_rss_mb`` is the product's memory
alone — corpus generation, planning and the oracle stay in the parent.
It reads a plan (files on disk, query strings, the mutation list), drives
the product through its public functions, times each call from outside,
and writes raw observations back; it never sees an expected answer.

A run is R interleaved rounds — build rep, cold-start reps, query pass,
churn cycle (+ compaction) — because single-thread speed on a shared
sandbox moves by tens of percent over tens of seconds: a metric taken
from one contiguous block inherits the spell it landed in.  Every timed
repetition also carries the reference kernel's reading beside it
(``Machine``), so that the parent can report it at one machine speed.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import threading
import time
from statistics import median
from typing import Callable, List, Optional, Sequence, Tuple

from repro.api import Search
from repro.engine.config import ThreadConfig
from repro.fsmodel.realfs import OsFileSystem
from repro.index.ondisk import MmapPostingsReader
from repro.index.serialize import save_index
from repro.query.ranking import FrequencyIndex
from repro.service.service import SearchService, ServiceOverloadedError
from repro.service.snapshot import IndexSnapshot

from benchmarks.pipeline.common import answer_digest, index_digest, ref_kernel_ms

CACHE_CAPACITY = 128
TOPK = 10
SERVICE_WORKERS = 2
SERVICE_MAX_INFLIGHT = 32
FRONTEND_MAX_INFLIGHT = 64


def build_config(kind: str) -> Optional[ThreadConfig]:
    """``sequential`` is the en-bloc build; ``process`` is Implementation 2
    on a pool of 2 extractor processes (1 where only one CPU is usable,
    which the process backend would otherwise refuse)."""
    if kind == "sequential":
        return None
    cpus = len(os.sched_getaffinity(0))
    return ThreadConfig(min(2, cpus), 0, 1, backend="process")


def settle(thaw: bool = False) -> None:
    """Collect garbage, then freeze the survivors, so that the coming
    phase's collections scan what the phase allocates and not the index
    already in memory.  Unfrozen, every full collection inside a build,
    a compaction or ``Search.open`` re-scanned the live session: the
    first build of a run (empty heap) took 0.80 s and the later ones
    1.0-1.2 s, compaction 1.0 s against 0.75 s, and which repetition met
    how many collections was most of the run-to-run noise.  ``thaw``
    unfreezes first, so cycles among long-lived objects go too; that
    scans the whole heap (50-100 ms with an index live), so it is done
    before each build only, and the cheap form before every timed phase."""
    if thaw:
        gc.unfreeze()
    gc.collect()
    gc.freeze()


class Machine:
    """The machine's speed beside every timed repetition.

    The sandbox is a few cores of a shared host that moves between a
    quiet state and slow ones (the reference kernel reads 20 ms, then
    30-33 ms or 40 ms for 10-40 s at a time, and the product slows with
    it: a build 1.40 -> 2.0 -> 2.4 s), so a whole run can sit in a slow
    spell and no statistic over its repetitions finds the quiet number.
    Each repetition is therefore bracketed by two readings of the
    reference kernel, and the parent reports its wall time divided by
    their mean.  A reading taken right after one repetition also serves
    the next if nothing ran in between.
    """

    #: A reading older than this is not "right before" any more.
    FRESH_S = 0.02

    def __init__(self) -> None:
        ref_kernel_ms()  # the first reading pays for the kernel's own set-up
        self.readings: List[float] = []
        self._read_at = float("-inf")
        self._last = 0.0

    def read(self, readings: int = 1) -> float:
        """Mean of ``readings`` runs of the kernel, now."""
        taken = [ref_kernel_ms() for _ in range(readings)]
        self.readings.extend(taken)
        self._read_at = time.perf_counter()
        self._last = sum(taken) / readings
        return self._last

    def before(self, readings: int = 1) -> float:
        if readings == 1 and time.perf_counter() - self._read_at <= self.FRESH_S:
            return self._last
        return self.read(readings)

    def timed(self, call: Callable, readings: int = 1):
        """(result, wall seconds, kernel ms beside it) of ``call()``; the
        heap is settled first so a phase never pays for its predecessor's
        garbage.  A single reading is off by 10 % (two of them, taken back
        to back, differ by 14 %), so the few long repetitions (build,
        compaction) take ``readings`` = 2 on either side."""
        settle()
        before = self.before(readings)
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        return result, wall, (before + self.read(readings)) / 2.0


def apply_delta(corpus_dir: str, delta: dict) -> None:
    for path, staged in delta["modify"] + delta["add"]:
        shutil.copyfile(staged, os.path.join(corpus_dir, path))
    for path in delta["remove"]:
        os.remove(os.path.join(corpus_dir, path))


def product_digest(index) -> str:
    return index_digest((term, postings.paths()) for term, postings in index.items())


def digest_result(result) -> str:
    if result.hits is not None:
        return answer_digest(
            [h.path for h in result.hits], [h.score for h in result.hits]
        )
    return answer_digest(result.paths)


# -- serving stacks -------------------------------------------------------


class SessionStack:
    """``Search.query`` on the session itself (LRU 128); one client."""

    #: Answers come from the session's current manifest, so a pass's cost
    #: depends on how many segments the churn has left since a compaction.
    follows_refresh = True

    def __init__(self, session: Search, files: dict) -> None:
        self.session = session
        self.saved = files["ridx1"]
        session.save(self.saved)

    def ask(self, text: str, rank: str):
        return self.session.query(text)

    def cold_start(self, query: Tuple[str, str]) -> None:
        Search.open(self.saved, cache=CACHE_CAPACITY).query(query[0])

    def stats(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class OnDiskServiceStack:
    """RIDX2 + frequencies off mmap behind a ``SearchService``."""

    follows_refresh = False  # serves the pristine file throughout

    def __init__(self, session: Search, files: dict) -> None:
        self.saved = files["ridx2"]
        self.reader = MmapPostingsReader.open(self.saved)
        self.service = SearchService(
            IndexSnapshot.from_ondisk(self.reader),
            workers=SERVICE_WORKERS,
            max_inflight=SERVICE_MAX_INFLIGHT,
        )

    def ask(self, text: str, rank: str):
        return self.service.query(text, rank=rank, topk=TOPK)

    def cold_start(self, query: Tuple[str, str]) -> None:
        with MmapPostingsReader.open(self.saved) as reader:
            IndexSnapshot.from_ondisk(reader).search(query[0])

    def stats(self) -> dict:
        return {**self.service.stats(), **self.reader.stats()}

    def close(self) -> None:
        self.service.close()
        self.reader.close()


class FrontendStack(SessionStack):
    """``Search.serve_async``: clients submit bursts and wait for all."""

    follows_refresh = False  # serves the snapshot it was started on

    def __init__(self, session: Search, files: dict) -> None:
        super().__init__(session, files)
        self.frontend = session.serve_async(
            workers=SERVICE_WORKERS, max_inflight=FRONTEND_MAX_INFLIGHT
        )

    def ask(self, text: str, rank: str):
        return self.frontend.submit(text, rank=rank, topk=TOPK)

    def stats(self) -> dict:
        return self.frontend.stats()

    def close(self) -> None:
        self.frontend.close()


STACKS = {
    "session": SessionStack,
    "service_ondisk": OnDiskServiceStack,
    "frontend": FrontendStack,
}


def _client(stack, queries: Sequence[Tuple[str, str]], burst: int, out: list):
    """One closed-loop client: ``burst`` queries out, all answers in, next
    burst.  ``out`` collects (latency seconds, result or exception); with
    bursts the latency runs from the burst's submission."""
    clock = time.perf_counter
    if burst == 1:
        for text, rank in queries:
            started = clock()
            try:
                result = stack.ask(text, rank)
            except Exception as error:  # counted, reported, never raised
                result = error
            out.append((clock() - started, result))
        return
    for at in range(0, len(queries), burst):
        started = clock()
        tickets = []
        for text, rank in queries[at : at + burst]:
            try:
                tickets.append(stack.ask(text, rank))
            except Exception as error:
                tickets.append(error)
        for ticket in tickets:
            if not isinstance(ticket, Exception):
                try:
                    ticket = ticket.result(timeout=60.0)
                except Exception as error:
                    ticket = error
            out.append((clock() - started, ticket))


def run_pass(
    stack, queries, clients: int, burst: int, machine: Optional[Machine] = None
) -> dict:
    """One closed-loop pass at a fixed client count; with ``machine``,
    also the reference kernel's reading beside it."""
    slices = [queries[i::clients] for i in range(clients)]
    outs: List[list] = [[] for _ in slices]
    settle()
    kernel_ms = machine.before() if machine else 0.0
    if clients == 1:
        started = time.perf_counter()
        _client(stack, slices[0], burst, outs[0])
        wall = time.perf_counter() - started
    else:
        threads = [
            threading.Thread(target=_client, args=(stack, part, burst, out))
            for part, out in zip(slices, outs)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    if machine:
        kernel_ms = (kernel_ms + machine.read()) / 2.0
    # Back to the stream's order, then digest outside the timed section.
    latencies: List[Optional[float]] = [None] * len(queries)
    answers: List[str] = [""] * len(queries)
    for c, out in enumerate(outs):
        for k, (latency, result) in enumerate(out):
            position = c + k * clients
            if isinstance(result, ServiceOverloadedError):
                answers[position] = "shed"
            elif isinstance(result, Exception):
                answers[position] = f"error:{type(result).__name__}"
            else:
                latencies[position] = latency * 1e3
                answers[position] = digest_result(result)
    return {
        "wall_s": wall,
        "kernel_ms": kernel_ms,
        "latency_ms": latencies,
        "answers": answers,
    }


# -- the journey ----------------------------------------------------------


def build_once(corpus_dir: str, config, machine: Machine):
    session, wall, kernel_ms = machine.timed(
        lambda: Search.build(corpus_dir, config=config, cache=CACHE_CAPACITY),
        readings=2,
    )
    report = session.report
    facts = {
        "files": report.file_count,
        "failed": len(report.failures),
        "retries": report.retries,
        "degraded": report.degraded,
        "docs": len(session),
        "terms": report.term_count,
        "postings": report.posting_count,
    }
    return session, (wall, kernel_ms), facts


def persist(session: Search, corpus_dir: str, files: dict) -> int:
    """The size metric's file: RIDX2 with real term frequencies."""
    frequencies = FrequencyIndex.from_fs(OsFileSystem(corpus_dir))
    return save_index(
        session.index, files["ridx2"], format="ridx2", frequencies=frequencies
    )


class PhaseClock:
    """Where the run's wall time went, by phase (printed, not gated)."""

    def __init__(self) -> None:
        self.seconds: dict = {}
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._mark
        self._mark = now


def run_journey(plan: dict) -> dict:
    workload = plan["workload"]
    corpus_dir = plan["corpus_dir"]
    files = plan["files"]
    config = build_config(workload["build"])
    machine = Machine()
    # Every timed repetition is kept as (value, kernel ms beside it).
    out = {
        "build_wall_s": [],
        "builds": [],
        "cold_start_ms": [],
        "cold_starts": 0,
        "passes": [],
        "refresh_wall_s": [],
        "refreshes": [],
        "compact_wall_s": [],
        "compactions": [],
        "verify_s": 0.0,
    }
    session = stack = None
    clock = PhaseClock()
    for step in plan["rounds"]:
        if step["build"]:
            settle(thaw=True)
            built, timing, facts = build_once(corpus_dir, config, machine)
            out["build_wall_s"].append(timing)
            out["builds"].append(facts)
            clock.lap("build")
            if session is None:
                session = built
                started = time.perf_counter()
                out["digest_pristine"] = product_digest(session.index)
                out["verify_s"] += time.perf_counter() - started
                clock.lap("verify")
                out["ridx2_bytes"] = persist(session, corpus_dir, files)
                stack = STACKS[workload["stack"]](session, files)
                clock.lap("persist")
            del built
        if step["cold"]:
            # One round's cold starts are one repetition: their median,
            # beside one pair of kernel readings.
            settle()
            before = machine.before()
            walls = []
            for _ in range(step["cold"]):
                started = time.perf_counter()
                stack.cold_start(plan["cold_query"])
                walls.append((time.perf_counter() - started) * 1e3)
            out["cold_start_ms"].append(
                (median(walls), (before + machine.read()) / 2.0)
            )
            out["cold_starts"] += len(walls)
            clock.lap("cold_start")
        if step["queries"] is not None:
            observed = run_pass(
                stack,
                step["queries"],
                workload["clients"],
                workload["burst"],
                machine,
            )
            # Passes that answer from the same index state are
            # exchangeable, each an epoch of its own; on a stack that
            # follows the churn an epoch is a whole compaction cycle.
            observed["epoch"] = (
                len(out["compactions"])
                if stack.follows_refresh
                else len(out["passes"])
            )
            out["passes"].append(observed)
            clock.lap("query")
        if step["churn"] is not None:
            apply_delta(corpus_dir, step["churn"])
            clock.lap("mutate")
            change, wall, kernel_ms = machine.timed(session.refresh)
            out["refresh_wall_s"].append((wall, kernel_ms))
            out["refreshes"].append(
                {
                    "added": change.added,
                    "modified": change.modified,
                    "removed": change.removed,
                    "docs": len(session),
                }
            )
            clock.lap("refresh")
        if step["compact"]:
            ran, wall, kernel_ms = machine.timed(session.compact, readings=2)
            out["compact_wall_s"].append((wall, kernel_ms))
            out["compactions"].append(
                {"ran": ran, "segments": session.manifest.segment_count}
            )
            clock.lap("compact")
    out["ref_kernel_ms"] = machine.readings
    out["stack_stats"] = stack.stats()
    stack.close()
    started = time.perf_counter()
    out["digest_final"] = product_digest(session.index)
    out["verify_s"] += time.perf_counter() - started
    clock.lap("verify")
    out["phase_s"] = clock.seconds
    return out


def peak_rss_kb() -> dict:
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def main(argv: Sequence[str]) -> int:
    plan_path, out_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    plan["rounds"] = [
        {**step, "queries": step["queries"] and [tuple(q) for q in step["queries"]]}
        for step in plan["rounds"]
    ]
    plan["cold_query"] = tuple(plan["cold_query"])
    # One CPU for everything but a process-pool build.  Where the guest
    # scheduler puts two Python threads decides what a hand-off between
    # them costs (thread ping-pong: 5.6 us round trip on one CPU, 40 us
    # across the two), the placement sticks for a whole process, and the
    # interpreter lock lets only one of them run anyway.
    plan["cpus"] = sorted(os.sched_getaffinity(0))
    if plan["workload"]["build"] != "process":
        os.sched_setaffinity(0, plan["cpus"][-1:])
    if plan["trace"]:
        from benchmarks.pipeline.stages import run_staged

        out = run_staged(plan)
    else:
        out = run_journey(plan)
    out["peak_rss_kb"] = peak_rss_kb()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
