"""Unit tests for the metrics instruments and the span registry."""

from __future__ import annotations

import math
import time

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, SpanRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("messages")
        assert counter.snapshot() == 0.0
        counter.inc()
        counter.inc(41.0)
        assert counter.snapshot() == 42.0

    def test_rejects_decrease(self):
        counter = Counter("messages")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1.0)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("weight_sum")
        gauge.set(1.0)
        gauge.set(0.25)
        assert gauge.snapshot() == 0.25


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram("err")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0
        assert histogram.mean == 2.0

    def test_log2_buckets(self):
        histogram = Histogram("err")
        histogram.observe(3.0)  # -> bucket 4.0
        histogram.observe(4.0)  # -> bucket 4.0 (exact power stays)
        histogram.observe(0.0)  # -> bucket 0.0
        assert histogram.buckets == {4.0: 2, 0.0: 1}

    def test_rejects_non_finite(self):
        histogram = Histogram("err")
        with pytest.raises(ValueError, match="non-finite"):
            histogram.observe(math.nan)

    def test_empty_snapshot_has_null_extremes(self):
        snapshot = Histogram("err").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] is None
        assert snapshot["max"] is None


class TestMetricsRegistry:
    def test_instruments_created_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("rounds").inc(3)
        registry.gauge("mass").set(20.0)
        registry.histogram("err").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"rounds": 3.0}
        assert snapshot["gauges"] == {"mass": 20.0}
        assert snapshot["histograms"]["err"]["count"] == 1


class TestSpanRegistry:
    def test_nested_paths_join_with_slash(self):
        registry = SpanRegistry()
        with registry.span("run"):
            for _ in range(2):
                with registry.span("instance"):
                    with registry.span("round"):
                        pass
        assert registry.stats("run").count == 1
        assert registry.stats("run/instance").count == 2
        assert registry.stats("run/instance/round").count == 2
        assert registry.stats("round") is None

    def test_durations_accumulate(self):
        registry = SpanRegistry()
        with registry.span("work"):
            time.sleep(0.01)
        stats = registry.stats("work")
        assert stats.total_seconds >= 0.01
        assert stats.min_seconds <= stats.mean_seconds <= stats.max_seconds

    def test_exception_still_records(self):
        registry = SpanRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("work"):
                raise RuntimeError("boom")
        assert registry.stats("work").count == 1

    def test_snapshot_round_trips(self):
        registry = SpanRegistry()
        with registry.span("run"):
            pass
        snapshot = registry.snapshot()
        assert set(snapshot) == {"run"}
        assert snapshot["run"]["count"] == 1


def test_bench_harness_finds_peak_rss_bytes():
    # bench/measure.py imports exactly one name from repro.obs.profile's
    # old surface; the harness lives outside tier-1, so guard it here.
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    subprocess.run(
        [sys.executable, "-c",
         "from repro.obs import peak_rss_bytes; import bench.measure"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
    )
