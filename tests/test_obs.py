"""Unit tests for the observability layer: spans, metrics, recorder,
Chrome-trace export, and the trace validator.

The global recorder is process state; every test that touches it swaps
in a fresh one via the ``fresh_obs`` fixture so nothing leaks between
tests (or into the engine tests, which also record through it).
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_SPAN,
    MetricsRegistry,
    Recorder,
    SpanRecord,
    children_of,
    chrome_trace,
    human_summary,
    rebase_spans,
    total_duration,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs import recorder as obsrec
from repro.obs.metrics import Counter, Gauge


@pytest.fixture
def fresh_obs():
    """A fresh, disabled global recorder; the previous one is restored."""
    previous = obsrec.set_recorder(Recorder(enabled=False))
    try:
        yield obsrec.get_recorder()
    finally:
        obsrec.set_recorder(previous)


def make_span(name, start=0.0, duration=1.0, span_id=1, parent_id=None,
              pid=1000, tid=1, **attrs):
    return SpanRecord(name=name, start=start, duration=duration, pid=pid,
                      tid=tid, thread="t", span_id=span_id,
                      parent_id=parent_id, attrs=attrs)


# -- span records ------------------------------------------------------


class TestSpanRecord:
    def test_end_is_start_plus_duration(self):
        span = make_span("a", start=2.0, duration=0.5)
        assert span.end == 2.5

    def test_rebase_shifts_starts_only(self):
        spans = [make_span("a", start=1.0), make_span("b", start=2.0)]
        rebased = rebase_spans(spans, 10.0)
        assert [s.start for s in rebased] == [11.0, 12.0]
        assert [s.duration for s in rebased] == [1.0, 1.0]
        assert [s.name for s in rebased] == ["a", "b"]

    def test_rebase_roundtrip(self):
        spans = [make_span("a", start=5.25)]
        assert rebase_spans(rebase_spans(spans, -5.0), 5.0)[0].start == 5.25

    def test_children_of(self):
        root = make_span("root", span_id=1)
        child = make_span("child", span_id=2, parent_id=1)
        other = make_span("other", span_id=3, parent_id=99)
        assert children_of([root, child, other], root) == [child]

    def test_total_duration(self):
        spans = [make_span("phase.extract", duration=1.0),
                 make_span("phase.extract", duration=0.5),
                 make_span("phase.join", duration=2.0)]
        assert total_duration(spans, "phase.extract") == 1.5
        assert total_duration(spans, "phase.missing") == 0.0


# -- metrics -----------------------------------------------------------


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.snapshot()["c"] == 5.0

    def test_gauge_tracks_last_and_max(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(7)
        registry.gauge("g").set(3)
        snapshot = registry.snapshot()
        assert snapshot["g"] == 3
        assert snapshot["g.max"] == 7

    def test_histogram_summary_keys(self):
        registry = MetricsRegistry()
        for value in (1, 2, 3, 100):
            registry.histogram("h").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["h.count"] == 4.0
        assert snapshot["h.mean"] == pytest.approx(26.5)
        # Percentiles report bucket upper bounds: coarse but bounded.
        assert snapshot["h.p50"] >= 2.0
        assert snapshot["h.p99"] >= 100.0

    def test_buckets_cover_powers_of_two(self):
        assert DEFAULT_BUCKETS[0] == 1
        assert DEFAULT_BUCKETS[-1] >= 2 ** 19
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")


class TestRegistryUnderThreads:
    """An existing instrument is read without the registry lock; only
    creation locks.  Real threads, released together, must still see
    one instrument object per name and lose no increment."""

    THREADS = 8
    NAMES = 50
    ROUNDS = 10_000

    def run_threads(self, work):
        barrier = threading.Barrier(self.THREADS)
        results = [None] * self.THREADS
        errors = []

        def body(i):
            barrier.wait()
            try:
                results[i] = work(i)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [
                threading.Thread(target=body, args=(i,))
                for i in range(self.THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        return results

    def test_one_instrument_per_name_and_exact_totals(self):
        registry = MetricsRegistry()

        def work(_i):
            first = {}
            for n in range(self.ROUNDS):
                k = n % self.NAMES
                counter = registry.counter(f"c{k}")
                gauge = registry.gauge(f"g{k}")
                first.setdefault(f"c{k}", counter)
                first.setdefault(f"g{k}", gauge)
                counter.inc()
                gauge.add(1)
            return first

        seen = self.run_threads(work)
        per_name = self.THREADS * self.ROUNDS // self.NAMES
        assert len(registry.names()) == 2 * self.NAMES
        for name in registry.names():
            instrument = registry.get(name)
            assert all(first[name] is instrument for first in seen), name
            assert instrument.value == per_name
        for k in range(self.NAMES):
            assert registry.gauge(f"g{k}").max == per_name
        with pytest.raises(TypeError, match="already registered as Counter"):
            registry.gauge("c0")  # the lock-free read meets the clash
        with pytest.raises(TypeError, match="already registered as Gauge"):
            registry.counter("g0")

    def test_racing_creations_of_two_kinds_agree_on_one(self):
        registry = MetricsRegistry()

        def work(i):
            kind = registry.counter if i % 2 else registry.gauge
            outcomes = {}
            for k in range(self.NAMES):
                try:
                    outcomes[k] = kind(f"clash{k}")
                except TypeError:
                    outcomes[k] = TypeError
            return outcomes

        seen = self.run_threads(work)
        for k in range(self.NAMES):
            winner = registry.get(f"clash{k}")
            for i, outcomes in enumerate(seen):
                asked = Counter if i % 2 else Gauge
                if isinstance(winner, asked):
                    assert outcomes[k] is winner
                else:
                    assert outcomes[k] is TypeError

    def test_a_clash_found_under_the_lock_still_raises(self):
        """The name is registered between the lock-free read and the
        lock: the locked re-read finds it, and the kind check runs."""

        class MissesOnce(dict):
            missed = False

            def get(self, key, default=None):
                if not self.missed:
                    self.missed = True
                    return default
                return super().get(key, default)

        registry = MetricsRegistry()
        counter = registry.counter("n")
        registry._instruments = MissesOnce(registry._instruments)
        with pytest.raises(TypeError, match="already registered as Counter"):
            registry.gauge("n")
        registry._instruments.missed = False
        assert registry.counter("n") is counter


# -- recorder ----------------------------------------------------------


class TestRecorder:
    def test_nesting_builds_parent_links(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_siblings_share_parent(self):
        recorder = Recorder()
        with recorder.span("root"):
            with recorder.span("a"):
                pass
            with recorder.span("b"):
                pass
        by_name = {s.name: s for s in recorder.spans}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id

    def test_attrs_recorded_and_settable(self):
        recorder = Recorder()
        with recorder.span("s", fixed=1) as span:
            span.set_attr("late", "v")
        (record,) = recorder.spans
        assert record.attrs == {"fixed": 1, "late": "v"}

    def test_duration_positive_and_matches_record(self):
        recorder = Recorder()
        with recorder.span("s") as span:
            time.sleep(0.001)
        (record,) = recorder.spans
        assert record.duration == span.duration > 0

    def test_disabled_recorder_hands_out_null_span(self):
        recorder = Recorder(enabled=False)
        assert recorder.span("anything", k=1) is NULL_SPAN
        assert recorder.spans == []

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set_attr("k", 1)
        assert span.duration == 0.0
        assert span.name == ""

    def test_absorb_appends_foreign_spans(self):
        recorder = Recorder()
        foreign = make_span("foreign")
        recorder.absorb([foreign])
        assert recorder.spans == [foreign]

    def test_clear_resets_spans_and_metrics(self):
        recorder = Recorder()
        with recorder.span("s"):
            pass
        recorder.metrics.counter("c").inc()
        recorder.clear()
        assert recorder.spans == []
        assert recorder.metrics.snapshot() == {}


class TestGlobalRecorder:
    def test_disabled_by_default_and_toggles(self, fresh_obs):
        assert not obsrec.enabled()
        assert obsrec.span("x") is NULL_SPAN
        obsrec.enable()
        assert obsrec.enabled()
        with obsrec.span("x"):
            pass
        assert [s.name for s in obsrec.get_recorder().spans] == ["x"]
        obsrec.disable()
        assert obsrec.span("y") is NULL_SPAN

    def test_set_recorder_returns_previous(self, fresh_obs):
        replacement = Recorder(enabled=True)
        previous = obsrec.set_recorder(replacement)
        try:
            assert previous is fresh_obs
            assert obsrec.get_recorder() is replacement
        finally:
            obsrec.set_recorder(fresh_obs)

    def test_metrics_usable_while_disabled(self, fresh_obs):
        obsrec.metrics().counter("c").inc()
        assert obsrec.metrics().snapshot()["c"] == 1.0

    def test_disabled_span_overhead_is_one_branch(self, fresh_obs):
        """The whole point of the design: tracing off must cost nearly
        nothing.  Time 200k disabled span calls and insist on a
        generous absolute bound — microseconds per call would mean the
        disabled path started allocating or locking."""
        span = obsrec.span
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            span("hot.path")
        elapsed = time.perf_counter() - start
        # ~60-120ns/call in CPython; 2.5us/call is a 20x+ regression
        # cushion that still fails if the fast path grows real work.
        assert elapsed / calls < 2.5e-6
        assert obsrec.get_recorder().spans == []


# -- chrome trace export ----------------------------------------------


def nested_spans():
    recorder = Recorder()
    with recorder.span("build", implementation="IMPL2"):
        with recorder.span("phase.stage1"):
            pass
        with recorder.span("phase.extract"):
            with recorder.span("extract.worker", worker=0):
                pass
    return recorder.spans


class TestChromeTrace:
    def test_document_shape(self):
        trace = chrome_trace(nested_spans())
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        assert all(e["ph"] in ("B", "E", "M") for e in events)

    def test_begin_end_pairs_balance(self):
        events = chrome_trace(nested_spans())["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 4

    def test_timestamps_microseconds_monotonic_per_track(self):
        events = chrome_trace(nested_spans())["traceEvents"]
        tracks = {}
        for event in events:
            if event["ph"] in ("B", "E"):
                tracks.setdefault((event["pid"], event["tid"]), []).append(
                    event["ts"]
                )
        for stamps in tracks.values():
            assert stamps == sorted(stamps)

    def test_attrs_become_args(self):
        events = chrome_trace(nested_spans())["traceEvents"]
        build = next(e for e in events
                     if e["ph"] == "B" and e["name"] == "build")
        assert build["args"]["implementation"] == "IMPL2"

    def test_validator_accepts_own_output(self):
        assert validate_chrome_trace(chrome_trace(nested_spans())) == []

    def test_validator_rejects_unbalanced_stack(self):
        trace = chrome_trace(nested_spans())
        trace["traceEvents"] = [e for e in trace["traceEvents"]
                                if e["ph"] != "E"]
        assert validate_chrome_trace(trace) != []

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "B"}]}) != []

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), nested_spans())
        with open(path) as handle:
            json.load(handle)  # must be a valid JSON document
        assert validate_trace_file(str(path)) == []

    def test_validate_cli_accepts_and_rejects(self, tmp_path):
        good = tmp_path / "good.json"
        write_chrome_trace(str(good), nested_spans())
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "B", "name": "x"}]}')
        ok = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(good)],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0
        assert "valid chrome trace" in ok.stdout
        broken = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(bad)],
            capture_output=True, text=True,
        )
        assert broken.returncode == 1


class TestHumanSummary:
    def test_sections_present(self):
        text = human_summary(nested_spans(), {"build.files_per_s": 42.0,
                                              "query.cache.hit_rate": 0.5})
        assert "stages:" in text
        assert "extract" in text
        assert "workers:" in text
        assert "metrics:" in text
        assert "build.files_per_s" in text

    def test_empty_inputs_do_not_crash(self):
        assert isinstance(human_summary([], {}), str)
