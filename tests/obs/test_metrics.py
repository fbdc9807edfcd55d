"""Unit tests for the metric instruments, read-through series and registries.

Everything here runs against *private* :class:`MetricsRegistry`
instances so the process-global seam (which the instrumented modules
write to) is never perturbed.  Observed values are exact binary
fractions throughout, so float equality is deliberate.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.errors import ParameterError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    registry,
    render_prometheus,
    set_registry,
)


@pytest.fixture
def reg():
    return MetricsRegistry(enabled=True)


class TestCounter:
    def test_inc_accumulates(self, reg):
        c = reg.counter("http_requests_total", "Requests.")
        c.inc()
        c.inc(2.0)
        assert c.value() == 3.0

    def test_never_incremented_reads_zero(self, reg):
        assert reg.counter("jobs_noop_total", "Never touched.").value() == 0.0

    def test_decrease_is_rejected(self, reg):
        c = reg.counter("http_requests_total", "Requests.")
        with pytest.raises(ParameterError, match="cannot decrease"):
            c.inc(-1.0)

    def test_labelled_series_are_independent(self, reg):
        c = reg.counter("http_requests_total", "Requests.", labelnames=("code",))
        c.labels(code=200).inc(3.0)
        c.labels(code=500).inc()
        assert c.value(code=200) == 3.0
        assert c.value(code=500) == 1.0
        assert c.collect() == {
            "http_requests_total{code=200}": 3.0,
            "http_requests_total{code=500}": 1.0,
        }

    def test_unlabelled_call_on_labelled_counter_is_rejected(self, reg):
        c = reg.counter("http_requests_total", "Requests.", labelnames=("code",))
        with pytest.raises(ParameterError, match="use .labels"):
            c.inc()

    def test_wrong_label_set_is_rejected(self, reg):
        c = reg.counter("http_requests_total", "Requests.", labelnames=("code",))
        with pytest.raises(ParameterError, match="takes labels"):
            c.labels(status=200)

    def test_concurrent_increments_do_not_lose_updates(self, reg):
        c = reg.counter("jobs_hammer_total", "Contended counter.")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert c.value() == 8000.0


class TestReadThrough:
    def test_counter_reports_its_owner_on_every_collection(self, reg):
        owner = {"hit": 2, "compile": 1}
        c = reg.counter(
            "cache_lookups_total",
            "Lookups.",
            labelnames=("outcome",),
            read=lambda: {(outcome,): n for outcome, n in owner.items()},
        )
        assert c.collect() == {
            "cache_lookups_total{outcome=compile}": 1.0,
            "cache_lookups_total{outcome=hit}": 2.0,
        }
        owner["hit"] += 3
        assert c.value(outcome="hit") == 5.0
        assert c.value(outcome="derive") == 0.0

    def test_label_values_are_stringified(self, reg):
        c = reg.counter(
            "http_requests_total",
            "Requests.",
            labelnames=("status",),
            read=lambda: {(404,): 1, (200,): 2},
        )
        assert c.collect() == {
            "http_requests_total{status=200}": 2.0,
            "http_requests_total{status=404}": 1.0,
        }

    def test_counter_cannot_be_incremented(self, reg):
        c = reg.counter("sched_jobs_total", "Jobs.", read=lambda: {(): 1})
        with pytest.raises(ParameterError, match="reads its owner"):
            c.inc()

    def test_name_has_one_owner(self, reg):
        reg.counter("sched_jobs_total", "Jobs.", read=lambda: {(): 1})
        with pytest.raises(ParameterError, match="already registered"):
            reg.counter("sched_jobs_total", "Jobs.", read=lambda: {(): 2})

    def test_series_report_when_metrics_are_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("sched_jobs_total", "Jobs.", read=lambda: {(): 3})
        reg.gauge("sched_queue_depth", "Depth.", read=lambda: {(): 1})
        assert reg.snapshot()["counters"] == {"sched_jobs_total": 3.0}
        assert reg.snapshot()["gauges"] == {"sched_queue_depth": 1.0}

    def test_reset_leaves_the_owner_alone(self, reg):
        c = reg.counter("sched_jobs_total", "Jobs.", read=lambda: {(): 3})
        reg.reset()
        assert c.value() == 3.0


class TestGauge:
    def test_reads_its_owner_on_every_collection(self, reg):
        owner = {"depth": 5}
        g = reg.gauge(
            "sched_queue_depth", "Depth.", read=lambda: {(): owner["depth"]}
        )
        assert g.value() == 5.0
        owner["depth"] = 2
        assert g.value() == 2.0
        assert reg.snapshot()["gauges"] == {"sched_queue_depth": 2.0}

    def test_labelled_gauge(self, reg):
        g = reg.gauge(
            "dist_workers",
            "Workers.",
            labelnames=("state",),
            read=lambda: {("healthy",): 3, ("failed",): 1},
        )
        assert g.collect() == {
            "dist_workers{state=failed}": 1.0,
            "dist_workers{state=healthy}": 3.0,
        }

    def test_a_level_cannot_be_pushed(self, reg):
        g = reg.gauge("sched_queue_depth", "Depth.", read=lambda: {(): 0})
        for push in ("set", "inc", "dec"):
            assert not hasattr(g, push)


class TestHistogram:
    def test_bucket_assignment_and_overflow(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.", buckets=(0.25, 0.5, 1.0))
        for value in (0.125, 0.25, 0.375, 2.0):
            h.observe(value)
        (series,) = h.collect().values()
        # Edges are inclusive upper bounds; 2.0 lands in the +Inf bucket.
        assert series["counts"] == [2, 1, 0, 1]
        assert series["count"] == 4
        assert series["sum"] == 2.75
        assert series["bounds"] == [0.25, 0.5, 1.0]

    def test_quantiles_are_pure_functions_of_counts(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.", buckets=(0.25, 0.5, 1.0))
        g = reg.histogram("jobs_lap_seconds", "Laps.", buckets=(0.25, 0.5, 1.0))
        for value in (0.125, 0.375, 0.375, 0.75):
            h.observe(value)
        # Different raw values, same buckets -> identical quantiles.
        for value in (0.0625, 0.3125, 0.4375, 0.625):
            g.observe(value)
        assert h.quantile(0.5) == g.quantile(0.5)
        assert h.quantile(0.99) == g.quantile(0.99)

    def test_overflow_quantile_is_clamped_to_last_edge(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.", buckets=(0.25, 0.5))
        h.observe(100.0)
        assert h.quantile(0.99) == 0.5

    def test_empty_histogram_quantile_is_zero(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.")
        assert h.quantile(0.5) == 0.0
        assert h.collect() == {}

    def test_quantile_out_of_range_is_rejected(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.")
        with pytest.raises(ParameterError, match="quantile"):
            h.quantile(1.5)

    def test_bounds_must_increase(self, reg):
        with pytest.raises(ParameterError, match="strictly increasing"):
            reg.histogram("http_bad_seconds", "Bad.", buckets=(0.5, 0.5))
        with pytest.raises(ParameterError, match="at least one bucket"):
            reg.histogram("http_none_seconds", "Bad.", buckets=())

    def test_default_buckets_span_millis_to_ten_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] == 10.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self, reg):
        first = reg.counter("http_requests_total", "Requests.")
        second = reg.counter("http_requests_total", "Requests.")
        assert first is second

    def test_conflicting_reregistration_raises(self, reg):
        reg.counter("http_requests_total", "Requests.")
        with pytest.raises(ParameterError, match="already registered"):
            reg.gauge("http_requests_total", "Requests.", read=dict)
        with pytest.raises(ParameterError, match="already registered"):
            reg.counter("http_requests_total", "Requests.", labelnames=("code",))

    def test_bad_names_are_rejected(self, reg):
        with pytest.raises(ParameterError, match="snake_case"):
            reg.counter("HttpRequests", "Camels.")
        with pytest.raises(ParameterError, match="snake_case"):
            reg.counter("http_ok_total", "Bad label.", labelnames=("Code",))

    def test_snapshot_shape(self, reg):
        reg.counter("http_requests_total", "Requests.").inc(2.0)
        reg.gauge("sched_queue_depth", "Depth.", read=lambda: {(): 1})
        reg.histogram("http_lap_seconds", "Laps.", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"] == {"http_requests_total": 2.0}
        assert snap["gauges"] == {"sched_queue_depth": 1.0}
        assert snap["histograms"]["http_lap_seconds"]["counts"] == [1, 0]

    def test_reset_zeroes_series_but_keeps_registrations(self, reg):
        c = reg.counter("http_requests_total", "Requests.")
        c.inc()
        reg.reset()
        assert c.value() == 0.0
        assert reg.get("http_requests_total") is c

    def test_disabled_registry_is_a_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("http_requests_total", "Requests.")
        h = reg.histogram("http_lap_seconds", "Laps.")
        c.inc()
        h.observe(0.5)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        reg.set_enabled(True)
        c.inc()
        assert c.value() == 1.0

    def test_env_gate_disables_new_registries(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_METRICS", "1")
        assert MetricsRegistry().enabled is False
        monkeypatch.setenv("REPRO_DISABLE_METRICS", "0")
        assert MetricsRegistry().enabled is True

    def test_child_shows_its_parent_series(self):
        parent = MetricsRegistry(enabled=True)
        child = MetricsRegistry(enabled=True, parent=parent)
        parent.counter("engine_runs_total", "Runs.").inc(2.0)
        child.counter("http_requests_total", "Requests.").inc()
        assert child.snapshot()["counters"] == {
            "engine_runs_total": 2.0,
            "http_requests_total": 1.0,
        }
        assert parent.snapshot()["counters"] == {"engine_runs_total": 2.0}
        assert child.get("engine_runs_total") is None
        assert "# TYPE engine_runs_total counter" in render_prometheus(child)

    def test_child_reset_and_names_stay_local(self):
        parent = MetricsRegistry(enabled=True)
        child = MetricsRegistry(enabled=True, parent=parent)
        parent.counter("engine_runs_total", "Runs.").inc(2.0)
        child.counter("engine_runs_total", "Shadow.").inc(5.0)
        assert child.snapshot()["counters"] == {"engine_runs_total": 5.0}
        child.reset()
        assert child.snapshot()["counters"] == {}
        assert parent.snapshot()["counters"] == {"engine_runs_total": 2.0}

    def test_global_seam_swap(self):
        original = registry()
        try:
            replacement = MetricsRegistry(enabled=True)
            assert set_registry(replacement) is replacement
            assert registry() is replacement
        finally:
            set_registry(original)
        assert registry() is original


class TestPrometheusRendering:
    def test_counter_gauge_and_histogram_lines(self, reg):
        c = reg.counter("http_requests_total", "Requests.", labelnames=("code",))
        c.labels(code=200).inc(3.0)
        reg.gauge("sched_queue_depth", "Depth.", read=lambda: {(): 2})
        h = reg.histogram("http_lap_seconds", "Laps.", buckets=(0.25, 0.5))
        h.observe(0.125)
        h.observe(2.0)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE http_requests_total counter" in lines
        assert 'http_requests_total{code="200"} 3' in lines
        assert "sched_queue_depth 2" in lines
        # Cumulative buckets: 0.125 <= 0.25, 2.0 overflows to +Inf.
        assert 'http_lap_seconds_bucket{le="0.25"} 1' in lines
        assert 'http_lap_seconds_bucket{le="0.5"} 1' in lines
        assert 'http_lap_seconds_bucket{le="+Inf"} 2' in lines
        assert "http_lap_seconds_sum 2.125" in lines
        assert "http_lap_seconds_count 2" in lines
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, reg):
        c = reg.counter("http_requests_total", "Requests.", labelnames=("path",))
        c.labels(path='a"b').inc()
        assert 'path="a\\"b"' in render_prometheus(reg)

    def test_histogram_bucket_counts_are_cumulative_and_finite(self, reg):
        h = reg.histogram("http_lap_seconds", "Laps.", buckets=(0.25, 0.5, 1.0))
        for value in (0.125, 0.375, 0.75, 4.0):
            h.observe(value)
        (series,) = h.collect().values()
        cumulative = 0
        for count in series["counts"]:
            cumulative += count
        assert cumulative == series["count"] == 4
        assert all(math.isfinite(edge) for edge in series["bounds"])
