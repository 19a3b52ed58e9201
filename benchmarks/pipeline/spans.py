"""The harness's own span recorder (used by ``--trace 1`` runs only).

Spans are recorded from the benchmark's files, around the calls into each
layer — ``name, start, end, parent, run id`` — kept in memory and written
out when the run ends, as a Chrome ``trace_event`` file plus a table of
total and self time per span name.  Tracing inside ``src/`` is a later
change; ``repro.obs`` is measured here only as a layer (its overhead).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str, attrs: dict) -> dict:
        """A new record under the thread's open span, not yet timed."""
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "tid": threading.get_ident(),
            "attrs": attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time one interval; nests under the thread's open span."""
        record = self._open(name, attrs)
        stack = self._local.stack
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an interval measured by the caller, under the thread's
        open span (used for time summed over an interleaved loop)."""
        self._open(name, attrs).update(start=start, end=end)

    def duration(self, name: str) -> float:
        """Total seconds under every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def table(self) -> List[dict]:
        """Per span name: count, total seconds, self seconds (total minus
        the part its direct children cover)."""
        child_time: Dict[Optional[int], float] = {}
        for span in self.spans:
            child_time[span["parent"]] = child_time.get(
                span["parent"], 0.0
            ) + (span["end"] - span["start"])
        rows: Dict[str, dict] = {}
        for span in self.spans:
            total = span["end"] - span["start"]
            row = rows.setdefault(
                span["name"],
                {"name": span["name"], "count": 0, "total_s": 0.0, "self_s": 0.0},
            )
            row["count"] += 1
            row["total_s"] += total
            row["self_s"] += max(0.0, total - child_time.get(span["id"], 0.0))
        return sorted(rows.values(), key=lambda r: -r["total_s"])

    def chrome_trace(self) -> dict:
        """The spans as Chrome ``trace_event`` complete ("X") events."""
        pid = os.getpid()
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": round((span["start"] - origin) * 1e6, 1),
                "dur": round((span["end"] - span["start"]) * 1e6, 1),
                "pid": pid,
                "tid": span["tid"],
                "args": {
                    "id": span["id"],
                    "parent": span["parent"],
                    "run": span["run"],
                    **span["attrs"],
                },
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
