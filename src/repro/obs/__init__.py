"""Observability: metrics, structured traces, profiling and monitoring.

The measurement substrate for campaign execution (see DESIGN.md
"Observability"): a dependency-free metrics registry with Prometheus
textfile and JSONL exporters, a structured fault-propagation trace
layer, a sampled core profiler, and the journal-tailing monitor behind
``repro-sfi monitor`` / ``repro-sfi stats``.

This package only *observes*: it never imports the execution layers
(``repro.sfi``, ``repro.cpu``), which instead accept a registry or a
trace writer and report into it.  Two read-only carve-outs: the
campaign-file reader of ``repro.sfi.storage``, which the monitor and the
span and trace-log readers share with resume, ``journal verify`` and the
warehouse, and the detection rule of ``repro.cpu.events``
(``first_detection``), which trace chains share with provenance payloads
and warehouse rows.
"""

from repro.obs.convergence import (
    ConvergenceRow,
    ConvergenceTracker,
    render_convergence,
)
from repro.obs.exporters import (
    ParsedMetrics,
    load_jsonl_snapshot,
    parse_prometheus_text,
    render_jsonl,
    render_prometheus,
    write_jsonl,
    write_prometheus,
)
from repro.obs.fleet import (
    FleetRegistry,
    FleetSpanPhase,
    Span,
    SpanRecorder,
    TelemetryStream,
    critical_path,
    read_span_log,
    rebase_spans,
    render_fleet,
    write_span_log,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricError,
    MetricsRegistry,
)
from repro.obs.monitor import (
    JournalProgress,
    advance_journal_progress,
    format_duration,
    lease_sidecar_lines,
    load_metrics_file,
    monitor_campaign,
    read_journal_progress,
    render_monitor_frame,
    render_stats,
)
from repro.obs.profile import CoreProfiler
from repro.obs.provenance import (
    MaskingEvent,
    ProvenanceReport,
    TaintNodeKind,
)
from repro.obs.trace import (
    TRACE_FORMAT_VERSION,
    TraceWriter,
    chain_from_record,
    read_trace_log,
    spans_from_events,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "TRACE_FORMAT_VERSION",
    "ConvergenceRow",
    "ConvergenceTracker",
    "CoreProfiler",
    "Counter",
    "FleetRegistry",
    "FleetSpanPhase",
    "Gauge",
    "Histogram",
    "JournalProgress",
    "MaskingEvent",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "ParsedMetrics",
    "ProvenanceReport",
    "Span",
    "SpanRecorder",
    "TaintNodeKind",
    "TelemetryStream",
    "TraceWriter",
    "advance_journal_progress",
    "chain_from_record",
    "critical_path",
    "format_duration",
    "lease_sidecar_lines",
    "load_jsonl_snapshot",
    "load_metrics_file",
    "monitor_campaign",
    "parse_prometheus_text",
    "read_journal_progress",
    "read_span_log",
    "read_trace_log",
    "rebase_spans",
    "render_convergence",
    "render_fleet",
    "render_jsonl",
    "render_monitor_frame",
    "render_prometheus",
    "render_stats",
    "spans_from_events",
    "write_jsonl",
    "write_prometheus",
]
