"""Serving smoke test: 200 concurrent queries across three live refreshes.

Builds an index over a synthetic corpus, stands up a
:class:`~repro.service.service.SearchService`, then hammers it from
four reader threads while a fifth thread adds files and swaps refreshed
snapshots in.  The oracle is snapshot isolation itself: every result
must exactly match the generation it claims to come from — a query that
mixed two generations (a torn read across the swap) fails the run.
After each swap the service must serve the session's own snapshot, so
``session.query`` and ``service.query`` agree on the generation; a last
refresh that finds nothing to change must not advance it.

Writes a Chrome trace of the whole exercise; CI validates it with
``python -m repro.obs.validate``.

Run:  PYTHONPATH=src python examples/serving_smoke.py [trace.json]
"""

from __future__ import annotations

import sys
import threading
import time

from repro import Search, obs
from repro.corpus import CorpusGenerator, TINY_PROFILE

READERS = 4
QUERIES_EACH = 50
MARKER = "xylophonesmoke"

#: what a query for MARKER must return at each generation — exactly.
EXPECTED = {
    0: [],
    1: ["smoke-1.txt"],
    2: ["smoke-1.txt", "smoke-2.txt"],
}


def main(trace_path: str = "serving-trace.json") -> int:
    obs.enable()
    corpus = CorpusGenerator(TINY_PROFILE).generate()
    session = Search.build(corpus.fs)
    print(f"indexed {len(session)} files; serving with {READERS} readers "
          f"x {QUERIES_EACH} queries during 3 refreshes")

    results, errors, drift = [], [], []
    barrier = threading.Barrier(READERS + 1)

    with session.serve(workers=4, max_inflight=256) as service:

        def reader() -> None:
            barrier.wait()
            for _ in range(QUERIES_EACH):
                try:
                    results.append(service.query(MARKER))
                except BaseException as exc:
                    errors.append(exc)
                # pace the stream so it straddles both swaps instead of
                # finishing before the first refresh lands
                time.sleep(0.002)

        def refresher() -> None:
            barrier.wait()
            # Two rounds that add a file, then one that finds nothing.
            for round_no in (1, 2, None):
                if round_no is not None:
                    corpus.fs.write_file(
                        f"smoke-{round_no}.txt",
                        f"{MARKER} appears in round {round_no}".encode(),
                    )
                before = service.generation
                outcome = service.refresh()
                print(f"  swap: {outcome}")
                if service.snapshot is not session.snapshot():
                    drift.append(f"round {round_no}: service snapshot "
                                 "is not the session's")
                doors = (session.query(MARKER).generation,
                         service.query(MARKER).generation)
                if doors[0] != doors[1]:
                    drift.append(f"round {round_no}: session answered "
                                 f"generation {doors[0]}, service {doors[1]}")
                if round_no is None and outcome.generation != before:
                    drift.append(f"a refresh with no change advanced "
                                 f"generation {before} -> "
                                 f"{outcome.generation}")

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        threads.append(threading.Thread(target=refresher))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()

    torn = [r for r in results if r.paths != EXPECTED.get(r.generation)]
    by_generation = {
        g: sum(1 for r in results if r.generation == g) for g in EXPECTED
    }
    written = obs.write_chrome_trace(trace_path, obs.get_recorder().spans)
    print(f"served {len(results)} queries across generations "
          f"{by_generation}; trace -> {trace_path} ({written} bytes)")
    print(f"final stats: {stats}")

    if errors:
        print(f"FAIL: {len(errors)} queries errored: {errors[:3]}",
              file=sys.stderr)
        return 1
    if drift:
        print(f"FAIL: the service drifted from its session: {drift}",
              file=sys.stderr)
        return 1
    if torn:
        print(f"FAIL: {len(torn)} torn reads, e.g. generation "
              f"{torn[0].generation} answered {torn[0].paths}",
              file=sys.stderr)
        return 1
    if len(results) != READERS * QUERIES_EACH:
        print(f"FAIL: expected {READERS * QUERIES_EACH} results, "
              f"got {len(results)}", file=sys.stderr)
        return 1
    print("OK: every result matched exactly one generation")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
