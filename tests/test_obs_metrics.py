"""Metrics registry semantics and exporter round-trips."""

import json
import math

import pytest

from repro.obs import (
    MetricError,
    MetricsRegistry,
    load_jsonl_snapshot,
    parse_prometheus_text,
    render_jsonl,
    render_prometheus,
    write_jsonl,
    write_prometheus,
)


class TestCounter:
    def test_inc_and_value(self):
        counter = MetricsRegistry().counter("requests_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("sfi_injections_total",
                                            labelnames=("outcome",))
        counter.inc(outcome="Vanished")
        counter.inc(3, outcome="Hang")
        assert counter.value(outcome="Vanished") == 1
        assert counter.value(outcome="Hang") == 3
        assert counter.value(outcome="Checkstop") == 0

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricError, match="only go up"):
            counter.inc(-1)

    def test_rejects_wrong_label_set(self):
        counter = MetricsRegistry().counter("c", labelnames=("outcome",))
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc()
        with pytest.raises(MetricError, match="expected labels"):
            counter.inc(outcome="x", extra="y")


class TestGauge:
    def test_set_inc_value(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value() == 7


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(55.55)
        cumulative = hist.cumulative_buckets(())
        assert [count for _, count in cumulative] == [1, 2, 3, 4]
        assert cumulative[-1][0] == math.inf

    def test_inf_bucket_appended_and_bounds_sorted(self):
        hist = MetricsRegistry().histogram("h", buckets=(5.0, 1.0, 1.0))
        assert hist.buckets == (1.0, 5.0, math.inf)

    def test_labeled_histograms(self):
        hist = MetricsRegistry().histogram("h", labelnames=("status",),
                                           buckets=(1.0,))
        hist.observe(0.5, status="ok")
        hist.observe(2.0, status="ok")
        hist.observe(0.1, status="failed")
        assert hist.count(status="ok") == 2
        assert hist.count(status="failed") == 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("x")

    def test_label_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(MetricError, match="already registered"):
            registry.counter("x", labelnames=("b",))

    def test_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid"):
            registry.counter("bad name")
        with pytest.raises(MetricError, match="invalid"):
            registry.counter("1starts_with_digit")

    def test_merge_sums_counters_and_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry in (left, right):
            registry.counter("c", labelnames=("k",)).inc(3, k="a")
            hist = registry.histogram("h", buckets=(1.0,))
            hist.observe(0.5)
            hist.observe(2.0)
            registry.gauge("g").set(id(registry))
        left.merge(right)
        assert left.counter("c", labelnames=("k",)).value(k="a") == 6
        assert left.histogram("h", buckets=(1.0,)).count() == 4
        # Gauges are last-write-wins: the merged-in snapshot is newer.
        assert left.gauge("g").value() == id(right)

    def test_merge_rejects_kind_mismatch(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("x")
        right.gauge("x").set(1)
        with pytest.raises(MetricError):
            left.merge(right)

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", "help!", ("k",)).inc(2, k="v")
        registry.gauge("g").set(1.5)
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(100.0)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sfi_injections_total",
                     "completed injections by outcome",
                     ("outcome",)).inc(7, outcome="Vanished")
    registry.counter("sfi_injections_total",
                     labelnames=("outcome",)).inc(2, outcome="Hang")
    registry.gauge("sfi_injections_per_second", "throughput").set(41.5)
    hist = registry.histogram("sfi_shard_wall_seconds", "shard wall time",
                              ("status",), buckets=(0.1, 1.0, 10.0))
    hist.observe(0.05, status="ok")
    hist.observe(3.0, status="ok")
    return registry


class TestPrometheusExport:
    def test_render_contains_help_type_and_samples(self):
        text = render_prometheus(_sample_registry())
        assert "# HELP sfi_injections_total completed injections" in text
        assert "# TYPE sfi_injections_total counter" in text
        assert 'sfi_injections_total{outcome="Vanished"} 7' in text
        assert "# TYPE sfi_shard_wall_seconds histogram" in text
        assert 'sfi_shard_wall_seconds_bucket{status="ok",le="+Inf"} 2' in text
        assert 'sfi_shard_wall_seconds_count{status="ok"} 2' in text

    def test_parse_round_trip(self):
        registry = _sample_registry()
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.types["sfi_injections_total"] == "counter"
        assert parsed.value("sfi_injections_total", outcome="Vanished") == 7
        assert parsed.value("sfi_injections_per_second") == 41.5
        assert parsed.value("sfi_shard_wall_seconds_bucket",
                            status="ok", le="1") == 1
        assert parsed.value("sfi_shard_wall_seconds_count", status="ok") == 2

    def test_label_escaping_survives_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c", labelnames=("detail",)).inc(
            1, detail='quote " slash \\ newline \n end')
        parsed = parse_prometheus_text(render_prometheus(registry))
        assert parsed.value(
            "c", detail='quote " slash \\ newline \n end') == 1

    def test_write_is_atomic_and_readable(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(_sample_registry(), path)
        parsed = parse_prometheus_text(path.read_text())
        assert parsed.value("sfi_injections_total", outcome="Hang") == 2
        assert not list(tmp_path.glob("*.tmp*")), "tmp file left behind"


class TestJsonlExport:
    def test_round_trip_preserves_everything(self, tmp_path):
        registry = _sample_registry()
        path = tmp_path / "metrics.jsonl"
        write_jsonl(registry, path)
        loaded = load_jsonl_snapshot(path)
        assert render_prometheus(loaded) == render_prometheus(registry)

    def test_one_json_object_per_family(self):
        lines = [line for line in
                 render_jsonl(_sample_registry()).splitlines() if line]
        assert len(lines) == 3
        names = [json.loads(line)["name"] for line in lines]
        assert "sfi_shard_wall_seconds" in names
