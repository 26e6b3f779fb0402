"""Dependency-free metrics primitives: counters, gauges and histograms.

The observability substrate every execution layer reports into.  A
:class:`MetricsRegistry` owns named metrics; each metric holds one time
series per distinct label-value combination, so ``sfi_injections_total``
can carry ``{outcome="Vanished"}`` and ``{outcome="Checkstop"}`` side by
side.  Everything here is plain stdlib — campaigns must be runnable on a
bare interpreter — and the exporters
(:mod:`repro.obs.exporters`) turn a registry into Prometheus textfile or
JSONL snapshots.

Semantics follow the Prometheus data model where it matters:

* **Counter** — monotonically increasing float; ``merge_from`` sums.
* **Gauge** — last-write-wins float; ``merge_from`` keeps the other
  registry's value (the merged-in snapshot is assumed newer).
* **Histogram** — fixed upper-bound buckets plus ``sum``/``count``;
  exported cumulatively (``le``-style); ``merge_from`` sums bucket-wise.

Components take an explicit registry, so tests and parallel campaigns
isolate their series.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricError",
    "MetricsRegistry",
]

#: Default histogram upper bounds (seconds-flavoured, like Prometheus').
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 30.0, 60.0, math.inf)


class MetricError(ValueError):
    """A metric was registered or used inconsistently."""


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"invalid metric name {name!r}")
    return name


class Metric:
    """Base class: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = ()) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple[str, ...], object] = {}

    # -- label handling -----------------------------------------------

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def series(self) -> dict[tuple[str, ...], object]:
        """Raw series map (label values tuple -> series state)."""
        return dict(self._series)

    # -- overridden per kind ------------------------------------------

    def merge_from(self, other: "Metric") -> None:
        raise NotImplementedError

    def _check_mergeable(self, other: "Metric") -> None:
        if (other.kind != self.kind
                or other.labelnames != self.labelnames):
            raise MetricError(
                f"cannot merge {other.kind}{other.labelnames} into "
                f"{self.name} ({self.kind}{self.labelnames})")


class Counter(Metric):
    """Monotonically increasing value (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up "
                              f"(inc {amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def merge_from(self, other: Metric) -> None:
        self._check_mergeable(other)
        for key, value in other._series.items():
            self._series[key] = self._series.get(key, 0.0) + value


class Gauge(Metric):
    """Last-write-wins value (per label set)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return float(self._series.get(self._key(labels), 0.0))

    def merge_from(self, other: Metric) -> None:
        self._check_mergeable(other)
        self._series.update(other._series)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * nbuckets  # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Observations bucketed by fixed upper bounds (per label set)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: tuple[str, ...] = (),
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(set(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds.append(math.inf)
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[index] += 1
                break
        series.sum += value
        series.count += 1

    def count(self, **labels) -> int:
        series = self._series.get(self._key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return series.sum if series is not None else 0.0

    def cumulative_buckets(self, key: tuple[str, ...]) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` pairs, the exported representation."""
        series = self._series[key]
        pairs, running = [], 0
        for bound, count in zip(self.buckets, series.bucket_counts):
            running += count
            pairs.append((bound, running))
        return pairs

    def merge_from(self, other: Metric) -> None:
        self._check_mergeable(other)
        if not isinstance(other, Histogram) or other.buckets != self.buckets:
            raise MetricError(f"{self.name}: bucket layout mismatch")
        for key, theirs in other._series.items():
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            for index, count in enumerate(theirs.bucket_counts):
                series.bucket_counts[index] += count
            series.sum += theirs.sum
            series.count += theirs.count


class MetricsRegistry:
    """A named collection of metrics (thread-safe registration).

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object, asking with a conflicting
    kind or label set raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: tuple[str, ...], **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)):
                    raise MetricError(
                        f"{name} already registered as {existing.kind}"
                        f"{existing.labelnames}")
                return existing
            metric = cls(name, help, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, labelnames,
                                     buckets=buckets)
        if isinstance(metric, Histogram) and \
                metric.buckets != Histogram("x", buckets=buckets).buckets:
            raise MetricError(f"{name} already registered with different "
                              f"buckets")
        return metric

    # -- access --------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- merge / snapshot ---------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (shard snapshots, worker results)."""
        for metric in other.metrics():
            if isinstance(metric, Histogram):
                mine = self.histogram(metric.name, metric.help,
                                      metric.labelnames, metric.buckets)
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help, metric.labelnames)
            else:
                mine = self.counter(metric.name, metric.help,
                                    metric.labelnames)
            mine.merge_from(metric)

    def snapshot(self) -> list[dict]:
        """JSON-serializable dump (inverse of :meth:`from_snapshot`)."""
        out = []
        for metric in self.metrics():
            entry = {"name": metric.name, "kind": metric.kind,
                     "help": metric.help,
                     "labelnames": list(metric.labelnames)}
            if isinstance(metric, Histogram):
                entry["buckets"] = ["+Inf" if b == math.inf else b
                                    for b in metric.buckets]
                entry["series"] = [
                    {"labels": metric.labels_of(key),
                     "bucket_counts": list(series.bucket_counts),
                     "sum": series.sum, "count": series.count}
                    for key, series in sorted(metric.series().items())]
            else:
                entry["series"] = [
                    {"labels": metric.labels_of(key), "value": value}
                    for key, value in sorted(metric.series().items())]
            out.append(entry)
        return out

    @classmethod
    def from_snapshot(cls, payload: list[dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for entry in payload:
            try:
                name = entry["name"]
                kind = entry["kind"]
                labelnames = tuple(entry.get("labelnames", ()))
                if kind == "histogram":
                    buckets = tuple(math.inf if b == "+Inf" else float(b)
                                    for b in entry["buckets"])
                    metric = registry.histogram(name, entry.get("help", ""),
                                                labelnames, buckets)
                    for series in entry["series"]:
                        key = metric._key(series["labels"])
                        state = _HistogramSeries(len(metric.buckets))
                        state.bucket_counts = list(series["bucket_counts"])
                        state.sum = float(series["sum"])
                        state.count = int(series["count"])
                        metric._series[key] = state
                elif kind == "gauge":
                    metric = registry.gauge(name, entry.get("help", ""),
                                            labelnames)
                    for series in entry["series"]:
                        metric.set(series["value"], **series["labels"])
                elif kind == "counter":
                    metric = registry.counter(name, entry.get("help", ""),
                                              labelnames)
                    for series in entry["series"]:
                        metric.inc(series["value"], **series["labels"])
                else:
                    raise MetricError(f"unknown metric kind {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise MetricError(
                    f"malformed metrics snapshot entry: {exc!r}") from exc
        return registry
