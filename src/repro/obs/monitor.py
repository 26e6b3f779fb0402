"""Live campaign monitoring and snapshot rendering.

``repro-sfi monitor`` tails a running campaign's journal (the
crash-consistent JSONL stream the supervisor appends to) plus an
optional metrics snapshot file and renders a live throughput/outcome
summary; ``repro-sfi stats`` renders a finished run's metrics snapshot.
Both read files only — they attach to a campaign from the outside, so a
wedged campaign can still be observed and a monitor crash cannot hurt
the run.

The journal is read through :mod:`repro.sfi.storage`'s one reader, so
the monitor shares the warehouse's end-of-file and record-line rules,
but it never decodes a record (it reads only the ``record``'s ``unit``
and ``outcome``): it works for core and chip journals alike.  Polling
is incremental: each :class:`JournalProgress` carries a byte-offset
:class:`~repro.sfi.storage.JournalCursor`, so a poll reads only the
bytes appended since the previous one (the same cursor API the
warehouse tailer uses) instead of re-parsing the whole journal.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.convergence import ConvergenceTracker, render_convergence
from repro.obs.exporters import load_jsonl_snapshot, parse_prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry
# obs reaches into an execution-layer module for the campaign-file reader
# only: it is pure read-only file code (no simulation imports), and
# sharing it keeps the monitor and the warehouse tailer consuming
# journals byte-for-byte identically.
from repro.sfi.storage import (
    CampaignStorageError,
    JournalCursor,
    journal_entry,
    scan_journal,
)

__all__ = [
    "JournalProgress",
    "advance_journal_progress",
    "format_duration",
    "lease_sidecar_lines",
    "load_metrics_file",
    "monitor_campaign",
    "read_journal_progress",
    "render_monitor_frame",
    "render_stats",
]


# ----------------------------------------------------------------------
# Journal tailing.

@dataclass
class JournalProgress:
    """What a campaign journal says about its campaign right now.

    Accumulates across polls: pass the same instance to
    :func:`advance_journal_progress` and only newly appended journal
    bytes are read each time (``cursor`` tracks the consumed prefix;
    ``positions`` de-duplicates retried shards across polls).
    """

    path: Path
    header: dict = field(default_factory=dict)
    done: int = 0
    outcomes: Counter = field(default_factory=Counter)
    # Fast-path sidecars (the ``{"fastpath": ...}`` journal-line extras):
    # how many records carried one, summed cycles saved, and the early
    # exits by reason ("frozen", "golden", "wave-survive", ...).
    fastpath: int = 0
    saved_cycles: int = 0
    early_exits: Counter = field(default_factory=Counter)
    # Per-unit outcome counts — the convergence tracker's input, folded
    # here so the live view and an offline journal recount are the same
    # computation on the same accumulator.
    unit_outcomes: dict = field(default_factory=dict)
    cursor: JournalCursor = field(default_factory=JournalCursor)
    positions: set = field(default_factory=set, repr=False)

    @property
    def total(self) -> int:
        return int(self.header.get("total_sites", 0))

    @property
    def complete(self) -> bool:
        return self.total > 0 and self.done >= self.total


def advance_journal_progress(progress: JournalProgress) -> JournalProgress:
    """Fold journal bytes appended since the last call into ``progress``.

    A missing journal or an unreadable header leaves the progress
    unchanged (the campaign may simply not have started); a journal that
    shrank under the cursor (torn-tail recovery rewrote it) resets the
    accumulators and re-reads from the top.
    """
    try:
        delta = scan_journal(progress.path, progress.cursor, kind=None)
    except CampaignStorageError:
        return progress
    if delta.rewound:
        progress.header = {}
        progress.outcomes.clear()
        progress.fastpath = 0
        progress.saved_cycles = 0
        progress.early_exits.clear()
        progress.unit_outcomes.clear()
        progress.positions.clear()
    if progress.cursor.header is not None:
        progress.header = progress.cursor.header
    total = progress.header.get("total_sites")
    for _number, payload in delta.entries:
        try:
            position, record = journal_entry(payload, total, decoder=None)
        except CampaignStorageError:
            continue
        if position in progress.positions:
            continue
        progress.positions.add(position)
        outcome = record.get("outcome") if isinstance(record, dict) else None
        progress.outcomes[outcome or "?"] += 1
        unit = record.get("unit") if isinstance(record, dict) else None
        if unit and outcome:
            per_unit = progress.unit_outcomes.setdefault(str(unit), {})
            per_unit[str(outcome)] = per_unit.get(str(outcome), 0) + 1
        sidecar = payload.get("fastpath")
        if isinstance(sidecar, dict):
            progress.fastpath += 1
            progress.saved_cycles += int(sidecar.get("saved_cycles", 0))
            if sidecar.get("exit"):
                progress.early_exits[sidecar["exit"]] += 1
    progress.done = len(progress.positions)
    return progress


def read_journal_progress(path: str | Path) -> JournalProgress:
    """One read-only pass over a (possibly still growing) journal."""
    return advance_journal_progress(JournalProgress(path=Path(path)))


# ----------------------------------------------------------------------
# Rendering.

def format_duration(seconds: float) -> str:
    """``95`` -> ``1m35s`` (coarse, for ETA lines)."""
    if not math.isfinite(seconds):
        return "?"
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_monitor_frame(progress: JournalProgress, rate: float | None,
                         eta: float | None,
                         metrics_lines: list[str] | None = None) -> str:
    """One monitor update: progress bar line, outcome mix, hot metrics."""
    total = progress.total
    done = progress.done
    lines = []
    pct = f" ({100 * done / total:.1f}%)" if total else ""
    head = f"[monitor] {done}/{total or '?'} injections{pct}"
    if rate is not None:
        head += f"  {rate:.1f} inj/s"
    if eta is not None and not progress.complete:
        head += f"  ETA {format_duration(eta)}"
    if progress.complete:
        head += "  [complete]"
    lines.append(head)
    if progress.outcomes:
        mix = "  ".join(f"{outcome}: {count}"
                        for outcome, count in sorted(progress.outcomes.items(),
                                                     key=lambda kv: -kv[1]))
        lines.append(f"[monitor] outcomes: {mix}")
    if progress.fastpath:
        line = (f"[monitor] fastpath: {progress.fastpath} injections, "
                f"{progress.saved_cycles:,} cycles saved")
        if progress.early_exits:
            exits = "  ".join(f"{reason}: {count}" for reason, count
                              in sorted(progress.early_exits.items()))
            line += f"  (early exits — {exits})"
        lines.append(line)
    for line in metrics_lines or []:
        lines.append(f"[monitor] {line}")
    return "\n".join(lines)


def _interesting_metric_lines(registry: MetricsRegistry) -> list[str]:
    """A few high-signal series for the live frame."""
    lines = []
    for name in ("sfi_injections_per_second", "core_cycles_per_second"):
        metric = registry.get(name)
        if metric is None:
            continue
        for key, value in sorted(metric.series().items()):
            label = f"{name}{dict(metric.labels_of(key)) or ''}"
            lines.append(f"{label} = {value:.1f}")
    for name in ("sfi_shard_retries_total", "sfi_shard_splits_total",
                 "sfi_degrades_total", "sfi_early_exits_total",
                 "sfi_ladder_hits_total", "sfi_ladder_misses_total",
                 "sfi_taint_edges_total", "sfi_ingest_records_total",
                 "sfi_waves_total", "sfi_lease_reissues_total",
                 "sfi_fenced_records_total"):
        metric = registry.get(name)
        if metric is None or isinstance(metric, Histogram):
            continue
        total = sum(metric.series().values())
        if total:
            lines.append(f"{name} = {total:g}")
    occupancy = _histogram_mean(registry, "sfi_wave_occupancy_lanes")
    if occupancy is not None:
        lines.append(f"sfi_wave_occupancy_lanes mean = {occupancy:.2f}")
    return lines


def _histogram_mean(registry: MetricsRegistry, name: str) -> float | None:
    """Mean of a histogram in either loaded shape.

    A JSONL snapshot keeps the Histogram object; the Prometheus text
    loader folds ``<name>_sum`` / ``<name>_count`` into plain series, so
    both spellings are checked.
    """
    metric = registry.get(name)
    if isinstance(metric, Histogram):
        count = sum(series.count for series in metric.series().values())
        total = sum(series.sum for series in metric.series().values())
        return total / count if count else None
    total_metric = registry.get(f"{name}_sum")
    count_metric = registry.get(f"{name}_count")
    if total_metric is None or count_metric is None:
        return None
    count = sum(count_metric.series().values())
    total = sum(total_metric.series().values())
    return total / count if count else None


def lease_sidecar_lines(journal_path: str | Path) -> list[str]:
    """Lease/fencing health from the ``<journal>.leases`` sidecar.

    One line summarizing grant/reclaim/split/fence counts when the
    sidecar exists and has events; empty otherwise (serial campaigns
    have no sidecar and the monitor shows nothing new).
    """
    delta = scan_journal(str(journal_path) + ".leases", JournalCursor(),
                         header=False)
    counts = Counter(event.get("event") for _number, event in delta.entries
                     if isinstance(event, dict) and event.get("event"))
    if not counts:
        return []
    return [f"leases: grants={counts.get('grant', 0)} "
            f"done={counts.get('done', 0)} "
            f"reclaims={counts.get('reclaim', 0)} "
            f"splits={counts.get('split', 0)} "
            f"fenced={counts.get('fenced', 0)}"]


def load_metrics_file(path: str | Path) -> MetricsRegistry | None:
    """Load a snapshot file in either export format (None if unreadable).

    Format is sniffed from the content (`#`/bare sample = Prometheus
    text, `{` = JSONL), so any file extension works.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError:
        return None
    if not text.strip():
        return None
    try:
        if text.lstrip().startswith("{"):
            return load_jsonl_snapshot(path)
        parsed = parse_prometheus_text(text)
        # Rebuild a registry shape good enough for rendering: bucket
        # samples fold back into plain gauges keyed by their full name.
        registry = MetricsRegistry()
        for (name, labels), value in parsed.samples.items():
            kind = parsed.types.get(name)
            if kind == "counter":
                metric = registry.counter(name,
                                          labelnames=tuple(k for k, _ in labels))
                metric.inc(value, **dict(labels))
            else:
                metric = registry.gauge(name,
                                        labelnames=tuple(k for k, _ in labels))
                metric.set(value, **dict(labels))
        return registry
    except ValueError:
        return None


# ----------------------------------------------------------------------
# The live loop.

def monitor_campaign(journal_path: str | Path, *,
                     metrics_path: str | Path | None = None,
                     interval: float = 2.0,
                     follow: bool = True,
                     max_updates: int | None = None,
                     target_width: float = 0.02,
                     convergence: bool = True,
                     out=None,
                     clock=time.monotonic,
                     sleep=time.sleep) -> int:
    """Tail a campaign journal (and metrics file) until it completes.

    Each poll reads only the journal bytes appended since the previous
    poll (one persistent :class:`JournalProgress` carries the byte
    cursor), derives injections/sec from the covered-position delta, and
    prints one frame.  Returns 0 when the campaign completed (or on a
    clean ``follow=False`` single shot), 1 when the journal never
    appeared.  ``max_updates`` bounds the loop for tests and cron use.
    """
    out = out if out is not None else sys.stdout
    journal_path = Path(journal_path)
    previous_done: int | None = None
    previous_time: float | None = None
    rate: float | None = None
    updates = 0
    progress = JournalProgress(path=journal_path)
    while True:
        advance_journal_progress(progress)
        now = clock()
        if previous_done is not None and now > previous_time \
                and progress.done >= previous_done:
            window_rate = (progress.done - previous_done) / (now - previous_time)
            # Light smoothing so one slow poll doesn't zero the display.
            rate = (window_rate if rate is None
                    else 0.5 * rate + 0.5 * window_rate)
        previous_done, previous_time = progress.done, now
        eta = None
        if rate and progress.total:
            eta = (progress.total - progress.done) / rate
        metrics_lines: list[str] = []
        if metrics_path is not None:
            registry = load_metrics_file(metrics_path)
            if registry is not None:
                metrics_lines = _interesting_metric_lines(registry)
        metrics_lines.extend(lease_sidecar_lines(journal_path))
        if convergence and progress.unit_outcomes:
            tracker = ConvergenceTracker.from_counts(
                progress.unit_outcomes, target_width=target_width)
            metrics_lines.extend(
                render_convergence(tracker, limit=4).splitlines())
        if not progress.header and not journal_path.exists():
            print(f"[monitor] waiting for journal {journal_path}", file=out)
        else:
            print(render_monitor_frame(progress, rate, eta, metrics_lines),
                  file=out)
        updates += 1
        if progress.complete or not follow:
            return 0 if (progress.complete or progress.header) else 1
        if max_updates is not None and updates >= max_updates:
            return 0 if progress.header else 1
        sleep(interval)


# ----------------------------------------------------------------------
# Snapshot rendering (`repro-sfi stats`).

def render_stats(registry: MetricsRegistry) -> str:
    """Human-readable table of every series in a snapshot."""
    lines = []
    for metric in registry.metrics():
        title = f"{metric.name} ({metric.kind})"
        if metric.help:
            title += f" — {metric.help}"
        lines.append(title)
        if isinstance(metric, Histogram):
            for key, series in sorted(metric.series().items()):
                labels = metric.labels_of(key)
                prefix = f"  {labels} " if labels else "  "
                mean = series.sum / series.count if series.count else 0.0
                lines.append(f"{prefix}count={series.count} "
                             f"sum={series.sum:.4f} mean={mean:.4f}")
                quantiles = _histogram_quantile_line(metric, key)
                if quantiles:
                    lines.append(f"    {quantiles}")
        else:
            for key, value in sorted(metric.series().items()):
                labels = metric.labels_of(key)
                prefix = f"  {labels} " if labels else "  "
                lines.append(f"{prefix}{value:g}")
        lines.append("")
    return "\n".join(lines).rstrip() + ("\n" if lines else "")


def _histogram_quantile_line(metric: Histogram,
                             key: tuple[str, ...]) -> str | None:
    """Coarse p50/p90/p99 upper bounds from the cumulative buckets."""
    pairs = metric.cumulative_buckets(key)
    total = pairs[-1][1] if pairs else 0
    if not total:
        return None
    estimates = []
    for quantile in (0.5, 0.9, 0.99):
        target = quantile * total
        bound = next((le for le, cumulative in pairs
                      if cumulative >= target), math.inf)
        text = "+Inf" if bound == math.inf else f"{bound:g}"
        estimates.append(f"p{int(quantile * 100)}<={text}")
    return " ".join(estimates)
