"""Fleet telemetry: cross-host spans and streamed metrics deltas.

A distributed campaign (PR 6) ships records but, until this module, no
telemetry: queue-wait, lease churn and wave occupancy on remote workers
were invisible while the campaign ran.  This module is both ends of the
telemetry channel:

* **Worker side** — :class:`SpanRecorder` collects phase spans against
  the local monotonic clock, and :class:`TelemetryStream` packages
  changed metrics series plus finished spans into compact frame
  payloads (zlib + base64 over the existing JSON wire protocol).
  Workers send *cumulative* snapshots, never deltas: a lost frame loses
  nothing, because the next frame carries the running totals again.

* **Coordinator side** — :class:`FleetRegistry` folds those cumulative
  snapshots into a fleet-wide registry by diffing against the last
  snapshot seen per worker incarnation (counter/histogram diffs clamp
  at zero; gauges are last-write-wins), so replays and restarts can
  never double-count.  :func:`rebase_spans` moves worker-local span
  times into the coordinator's clock domain using the frame's send
  timestamp, and :func:`critical_path` attributes campaign wall-clock
  to the deepest active phase at every instant.

Everything here is observational: the record journal is byte-identical
with telemetry on or off (the differential test in
``tests/test_fleet_obs.py`` holds this under worker SIGKILL).
"""

from __future__ import annotations

import base64
import binascii
import json
import time
import zlib
from dataclasses import dataclass, replace
from enum import Enum, unique

from repro.obs.metrics import MetricError, MetricsRegistry
from repro.sfi.storage import JournalCursor, scan_journal

__all__ = [
    "FleetRegistry",
    "FleetSpanPhase",
    "Span",
    "SpanRecorder",
    "TELEMETRY_VERSION",
    "TelemetryStream",
    "critical_path",
    "pack_payload",
    "read_span_log",
    "rebase_spans",
    "render_fleet",
    "unpack_payload",
    "write_span_log",
]

#: Version stamped into every telemetry frame and span sidecar header.
TELEMETRY_VERSION = 1

#: Span sidecar files live next to the journal: ``<journal>.spans``.
SPAN_SIDECAR_SUFFIX = ".spans"


@unique
class FleetSpanPhase(Enum):
    """Phases a campaign's wall-clock is attributed to.

    Serialized by value into frames, sidecars and the warehouse
    ``spans`` table; values are kebab-case per REPRO-N02.
    """

    CAMPAIGN = "campaign"          #: root — the whole supervised run
    WORKER_WAIT = "worker-wait"    #: coordinator waiting for min_workers
    QUEUE_WAIT = "queue-wait"      #: shard queued, no worker assigned
    LEASE_HELD = "lease-held"      #: grant → done/reclaim on coordinator
    WORKER_WARMUP = "worker-warmup"  #: lease receipt → first record
    WORKER_EXECUTE = "worker-execute"  #: the runner executing a lease
    TRIAL = "trial"                #: one injection inside a lease
    POOL_EXECUTE = "pool-execute"  #: local pool leg (serial or degrade)
    DRAIN = "drain"                #: fencing + lease-log drain at exit


@dataclass(frozen=True)
class Span:
    """One timed phase, in whichever clock domain recorded it."""

    span_id: str
    phase: str
    start: float
    end: float
    parent_id: str | None = None
    worker: str = ""
    shard_id: int = -1
    token: int = -1

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id, "phase": self.phase,
            "start": self.start, "end": self.end,
            "parent_id": self.parent_id, "worker": self.worker,
            "shard_id": self.shard_id, "token": self.token,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            span_id=str(payload["span_id"]),
            phase=str(payload["phase"]),
            start=float(payload["start"]),
            end=float(payload["end"]),
            parent_id=(None if payload.get("parent_id") is None
                       else str(payload["parent_id"])),
            worker=str(payload.get("worker", "")),
            shard_id=int(payload.get("shard_id", -1)),
            token=int(payload.get("token", -1)),
        )


class SpanRecorder:
    """Collects spans against one process's monotonic clock.

    ``source`` prefixes span ids so trees merged from several hosts
    never collide (workers use ``name@pid``, the coordinator ``coord``).
    Finished spans accumulate until :meth:`drain` ships them.
    """

    def __init__(self, source: str = "coord", clock=time.monotonic) -> None:
        self.source = source
        self.clock = clock
        self._next = 0
        self._open: dict[str, Span] = {}
        self._finished: list[Span] = []

    def begin(self, phase: FleetSpanPhase, *, parent_id: str | None = None,
              worker: str = "", shard_id: int = -1,
              token: int = -1) -> str:
        self._next += 1
        span_id = f"{self.source}-{self._next}"
        self._open[span_id] = Span(
            span_id=span_id, phase=phase.value, start=self.clock(),
            end=-1.0, parent_id=parent_id, worker=worker,
            shard_id=shard_id, token=token)
        return span_id

    def record(self, phase: FleetSpanPhase, start: float, end: float, *,
               parent_id: str | None = None, worker: str = "",
               shard_id: int = -1, token: int = -1) -> str:
        """Append an already-finished span with explicit times (trial
        spans are emit-to-emit intervals measured by the caller)."""
        self._next += 1
        span_id = f"{self.source}-{self._next}"
        self._finished.append(Span(
            span_id=span_id, phase=phase.value, start=start, end=end,
            parent_id=parent_id, worker=worker, shard_id=shard_id,
            token=token))
        return span_id

    def finish(self, span_id: str) -> Span | None:
        span = self._open.pop(span_id, None)
        if span is None:
            return None
        done = replace(span, end=self.clock())
        self._finished.append(done)
        return done

    def finish_all(self) -> None:
        for span_id in list(self._open):
            self.finish(span_id)

    def drain(self) -> list[Span]:
        """Finished spans since the last drain (ownership transfers)."""
        finished, self._finished = self._finished, []
        return finished

    @property
    def open_count(self) -> int:
        return len(self._open)


# ----------------------------------------------------------------------
# Frame payload packing.

def pack_payload(value) -> str:
    """JSON → zlib → base64: a frame-safe string for bulky payloads."""
    raw = json.dumps(value, sort_keys=True).encode("utf-8")
    return base64.b64encode(zlib.compress(raw, 6)).decode("ascii")


def unpack_payload(packed: str):
    """Inverse of :func:`pack_payload`; raises ValueError on garbage."""
    try:
        raw = zlib.decompress(base64.b64decode(packed.encode("ascii")))
        return json.loads(raw.decode("utf-8"))
    except (binascii.Error, zlib.error, UnicodeError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"undecodable telemetry payload: {exc}") from exc


def snapshot_subset(snapshot: list, last: dict) -> list:
    """Entries of ``snapshot`` that changed since ``last`` (name-keyed).

    Whole-metric granularity: a changed series resends its metric's
    full cumulative entry.  Correctness never depends on this filter —
    it only keeps steady-state frames small.
    """
    return [entry for entry in snapshot
            if entry != last.get(entry["name"])]


class TelemetryStream:
    """Worker side: turns local state into TelemetryFrame payloads."""

    def __init__(self, registry: MetricsRegistry, recorder: SpanRecorder,
                 *, worker: str, pid: int, max_span_batch: int = 512,
                 clock=time.monotonic) -> None:
        self.registry = registry
        self.recorder = recorder
        self.worker = worker
        self.pid = pid
        self.max_span_batch = max_span_batch
        self.clock = clock
        self.seq = 0
        self._last_sent: dict[str, dict] = {}
        self._span_backlog: list[Span] = []

    def frame(self, *, force: bool = False) -> dict | None:
        """Next frame payload, or None when nothing changed.

        The metrics payload is the *cumulative* snapshot restricted to
        changed metrics; the span payload is whatever finished since
        the last frame (bounded by ``max_span_batch``; the rest waits
        for the next frame).
        """
        subset = snapshot_subset(self.registry.snapshot(), self._last_sent)
        self._span_backlog.extend(self.recorder.drain())
        spans = self._span_backlog[:self.max_span_batch]
        self._span_backlog = self._span_backlog[len(spans):]
        if not subset and not spans and not force:
            return None
        self.seq += 1
        for entry in subset:
            self._last_sent[entry["name"]] = entry
        return {
            "version": TELEMETRY_VERSION,
            "worker": self.worker,
            "pid": self.pid,
            "seq": self.seq,
            "now": self.clock(),
            "metrics": pack_payload(subset) if subset else "",
            "spans": pack_payload([span.to_dict() for span in spans])
            if spans else "",
        }

    def reset_connection(self) -> None:
        """Resend everything cumulative after a reconnect.

        The coordinator diffs against its own per-incarnation baseline,
        so the full resend is idempotent there."""
        self._last_sent = {}


# ----------------------------------------------------------------------
# Coordinator-side fold.

class _FleetInstruments:
    def __init__(self, registry: MetricsRegistry) -> None:
        self.frames = registry.counter(
            "sfi_fleet_frames_total", "telemetry frames absorbed")
        self.frame_errors = registry.counter(
            "sfi_fleet_frame_errors_total",
            "telemetry frames dropped as undecodable or stale")
        self.spans = registry.counter(
            "sfi_fleet_spans_total", "worker spans merged into the tree")
        self.incarnations = registry.counter(
            "sfi_fleet_incarnations_total",
            "worker restarts observed via pid change")
        self.workers = registry.gauge(
            "sfi_fleet_workers", "distinct workers that ever streamed")
        self.frame_bytes = registry.histogram(
            "sfi_fleet_frame_bytes", "packed telemetry payload size",
            buckets=(256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0))


class _WorkerState:
    __slots__ = ("pid", "seq", "last", "updated")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.seq = 0
        self.last: dict[str, dict] = {}  # metric name -> cumulative entry
        self.updated = 0.0


def _series_map(entry: dict) -> dict:
    """Label-tuple -> series dict, for diffing cumulative entries."""
    names = tuple(entry.get("labelnames", ()))
    return {tuple(str(series["labels"][name]) for name in names): series
            for series in entry.get("series", ())}


def _entry_delta(entry: dict, last: dict | None) -> dict | None:
    """The merge-ready difference between two cumulative entries.

    Counters and histograms diff series-wise with clamping at zero (a
    shrinking cumulative value means a restarted source; the baseline
    reset in :meth:`FleetRegistry.absorb` is the real handler — the
    clamp is belt-and-braces).  Gauges pass through: merge semantics
    are last-write-wins already.
    """
    if last is None or entry.get("kind") == "gauge":
        return entry
    if entry.get("kind") not in ("counter", "histogram"):
        return entry
    if entry.get("kind") == "histogram" and \
            entry.get("buckets") != last.get("buckets"):
        return entry  # relayout: treat as fresh
    previous = _series_map(last)
    names = tuple(entry.get("labelnames", ()))
    series_out = []
    for series in entry.get("series", ()):
        key = tuple(str(series["labels"][name]) for name in names)
        before = previous.get(key)
        if entry["kind"] == "counter":
            delta = series["value"] - (before["value"] if before else 0.0)
            if delta > 0:
                series_out.append({"labels": series["labels"],
                                   "value": delta})
        else:
            old_counts = before["bucket_counts"] if before else \
                [0] * len(series["bucket_counts"])
            counts = [max(0, new - old) for new, old in
                      zip(series["bucket_counts"], old_counts)]
            count = max(0, series["count"]
                        - (before["count"] if before else 0))
            total = max(0.0, series["sum"]
                        - (before["sum"] if before else 0.0))
            if count or any(counts):
                series_out.append({"labels": series["labels"],
                                   "bucket_counts": counts,
                                   "sum": total, "count": count})
    if not series_out:
        return None
    delta_entry = dict(entry)
    delta_entry["series"] = series_out
    return delta_entry


class FleetRegistry:
    """Folds worker telemetry frames into one fleet-wide registry.

    Kept separate from the coordinator's own registry: the fleet view
    aggregates *worker* processes; mixing it into the coordinator's
    series would double-count anything both sides measure.

    The no-double-count invariant — every fleet counter equals the sum
    of the per-incarnation cumulative values absorbed — is checkable at
    any time via :meth:`consistency_check`; the CI telemetry-chaos
    smoke asserts it across a worker SIGKILL.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 clock=time.monotonic) -> None:
        self.fleet = MetricsRegistry()
        self.clock = clock
        self._workers: dict[str, _WorkerState] = {}
        self._retired: list[dict[str, dict]] = []
        self._inst = _FleetInstruments(metrics) if metrics is not None \
            else None

    # -- ingestion -----------------------------------------------------

    def absorb(self, frame: dict, *,
               received_at: float | None = None) -> list[Span]:
        """Fold one TelemetryFrame payload; returns rebased spans.

        Robust by construction: an undecodable or stale frame is
        counted and dropped without touching the fleet state, so a torn
        connection can never leave the registry half-updated.
        """
        received_at = self.clock() if received_at is None else received_at
        try:
            worker = str(frame["worker"])
            pid = int(frame["pid"])
            seq = int(frame["seq"])
            sent_now = float(frame["now"])
            metrics_delta = self._metrics_delta(worker, pid, seq, frame)
            spans = self._frame_spans(frame, received_at - sent_now)
        except (KeyError, TypeError, ValueError, MetricError):
            if self._inst:
                self._inst.frame_errors.inc()
            return []
        if metrics_delta is None:  # stale seq: already absorbed
            if self._inst:
                self._inst.frame_errors.inc()
            return []
        if metrics_delta:
            self.fleet.merge(MetricsRegistry.from_snapshot(metrics_delta))
        if self._inst:
            self._inst.frames.inc()
            self._inst.workers.set(len(self._workers))
            if spans:
                self._inst.spans.inc(len(spans))
            self._inst.frame_bytes.observe(
                len(frame.get("metrics", "")) + len(frame.get("spans", "")))
        return spans

    def _metrics_delta(self, worker: str, pid: int, seq: int,
                       frame: dict) -> list | None:
        state = self._workers.get(worker)
        if state is None or state.pid != pid:
            if state is not None:
                self._retired.append(state.last)
                if self._inst:
                    self._inst.incarnations.inc()
            state = self._workers[worker] = _WorkerState(pid)
        if seq <= state.seq:
            return None
        packed = frame.get("metrics", "")
        entries = unpack_payload(packed) if packed else []
        deltas = []
        for entry in entries:
            delta = _entry_delta(entry, state.last.get(entry["name"]))
            state.last[entry["name"]] = entry
            if delta is not None:
                deltas.append(delta)
        state.seq = seq
        state.updated = self.clock()
        return deltas

    @staticmethod
    def _frame_spans(frame: dict, offset: float) -> list[Span]:
        packed = frame.get("spans", "")
        if not packed:
            return []
        spans = [Span.from_dict(entry) for entry in unpack_payload(packed)]
        return rebase_spans(spans, offset)

    # -- inspection ----------------------------------------------------

    def worker_names(self) -> list[str]:
        return sorted(self._workers)

    def worker_snapshot(self, worker: str) -> list:
        """The worker's last cumulative snapshot (registry format)."""
        state = self._workers.get(worker)
        if state is None:
            return []
        return [state.last[name] for name in sorted(state.last)]

    def worker_info(self, worker: str) -> dict:
        state = self._workers.get(worker)
        if state is None:
            return {}
        return {"pid": state.pid, "seq": state.seq,
                "updated": state.updated}

    def consistency_check(self) -> dict:
        """Verify fleet counters equal the sum of absorbed cumulatives.

        Walks every counter series in the fleet registry and recomputes
        its expected value from the live per-worker cumulative
        snapshots plus retired incarnations.  Any mismatch means a
        delta was double-applied or lost — the exact failure mode the
        telemetry-chaos CI smoke exists to catch.
        """
        expected: dict[tuple, float] = {}
        sources = [state.last for state in self._workers.values()]
        sources.extend(self._retired)
        for last in sources:
            for entry in last.values():
                if entry.get("kind") != "counter":
                    continue
                for series in entry.get("series", ()):
                    key = (entry["name"],
                           tuple(sorted(series["labels"].items())))
                    expected[key] = expected.get(key, 0.0) \
                        + series["value"]
        mismatches = []
        for entry in self.fleet.snapshot():
            if entry["kind"] != "counter":
                continue
            for series in entry["series"]:
                key = (entry["name"],
                       tuple(sorted(series["labels"].items())))
                want = expected.pop(key, 0.0)
                if abs(series["value"] - want) > 1e-9:
                    mismatches.append({"metric": entry["name"],
                                       "labels": series["labels"],
                                       "fleet": series["value"],
                                       "expected": want})
        for (name, labels), want in expected.items():
            if want > 1e-9:
                mismatches.append({"metric": name, "labels": dict(labels),
                                   "fleet": 0.0, "expected": want})
        return {"ok": not mismatches, "mismatches": mismatches}


def rebase_spans(spans: list, offset: float) -> list:
    """Move spans between clock domains by a fixed offset.

    ``offset = coordinator_receive_time - frame_send_time`` rebases
    worker-local monotonic times into the coordinator's domain; network
    latency biases every span late by the (one-way) transit time, which
    cancels out of durations and only skews cross-host ordering by
    milliseconds — fine for phase attribution.
    """
    return [replace(span, start=span.start + offset,
                    end=span.end + offset) for span in spans]


# ----------------------------------------------------------------------
# Critical-path analysis.

def critical_path(spans: list) -> dict:
    """Attribute campaign wall-clock to the deepest active phase.

    Sweeps the root (``campaign``) span's interval; each instant is
    charged to the deepest span covering it (ties: latest start, then
    span id, so the sweep is deterministic).  Time no child covers
    stays on the root, which is exactly the unattributed residue the
    acceptance criterion bounds at 5%.

    Returns ``{"total", "phases": {phase: seconds}, "coverage",
    "segments"}`` where coverage is the non-root fraction.
    """
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans
             if span.phase == FleetSpanPhase.CAMPAIGN.value]
    if not roots:
        return {"total": 0.0, "phases": {}, "coverage": 0.0,
                "segments": []}
    root = max(roots, key=lambda span: span.duration)

    depth_cache: dict[str, int] = {}

    def depth(span: Span) -> int:
        cached = depth_cache.get(span.span_id)
        if cached is not None:
            return cached
        depth_cache[span.span_id] = 1  # cycle guard
        parent = by_id.get(span.parent_id) if span.parent_id else None
        value = 1 if parent is None else depth(parent) + 1
        depth_cache[span.span_id] = value
        return value

    live = [span for span in spans
            if span.end > span.start
            and span.end > root.start and span.start < root.end]
    bounds = sorted({max(root.start, min(root.end, t))
                     for span in live for t in (span.start, span.end)})
    phases: dict[str, float] = {}
    segments = []
    for left, right in zip(bounds, bounds[1:]):
        if right <= left:
            continue
        active = [span for span in live
                  if span.start <= left and span.end >= right]
        if not active:
            continue
        winner = max(active, key=lambda span: (depth(span), span.start,
                                               span.span_id))
        phases[winner.phase] = phases.get(winner.phase, 0.0) \
            + (right - left)
        if segments and segments[-1]["phase"] == winner.phase and \
                abs(segments[-1]["end"] - left) < 1e-12:
            segments[-1]["end"] = right
        else:
            segments.append({"phase": winner.phase, "start": left,
                             "end": right})
    total = root.duration
    attributed = sum(seconds for phase, seconds in phases.items()
                     if phase != root.phase)
    return {
        "total": total,
        "phases": dict(sorted(phases.items())),
        "coverage": attributed / total if total > 0 else 0.0,
        "segments": segments,
    }


# ----------------------------------------------------------------------
# Span sidecar (``<journal>.spans``), mirroring the ``.leases`` log.

def write_span_log(path, spans: list, *, campaign: str = "") -> None:
    """Write the merged span tree next to the journal (atomic enough:
    single writer, post-campaign)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "kind": "header", "version": TELEMETRY_VERSION,
            "campaign": campaign, "spans": len(spans),
        }, sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def read_span_log(path) -> list:
    """Read a span sidecar through the campaign-file reader; skips the
    header, the torn tail and malformed lines like the other sidecar
    readers, and a missing sidecar reads as empty."""
    delta = scan_journal(path, JournalCursor(), header=False)
    spans = []
    for _number, payload in delta.entries:
        if not isinstance(payload, dict) or payload.get("kind") == "header":
            continue
        try:
            spans.append(Span.from_dict(payload))
        except (ValueError, KeyError, TypeError):
            continue
    return spans


# ----------------------------------------------------------------------
# Live fleet view rendering (``repro-sfi monitor --connect``).

def _counter_total(entries: list, name: str) -> float:
    for entry in entries:
        if entry["name"] == name and entry["kind"] == "counter":
            return sum(series["value"] for series in entry["series"])
    return 0.0


def _histogram_mean(entries: list, name: str) -> float | None:
    for entry in entries:
        if entry["name"] == name and entry["kind"] == "histogram":
            count = sum(series["count"] for series in entry["series"])
            total = sum(series["sum"] for series in entry["series"])
            return total / count if count else None
    return None


def render_fleet(snapshot: dict, *, rates: dict | None = None) -> str:
    """Render one FleetSnapshot payload for the live monitor.

    ``snapshot`` is the coordinator-built dict (see
    ``SocketTransport._fleet_snapshot``): campaign name, per-worker
    cumulative registry snapshots, fleet totals and the convergence
    summary.  ``rates`` optionally maps worker -> injections/s computed
    client-side from consecutive snapshots.
    """
    lines = [f"fleet: campaign {snapshot.get('campaign') or '?'}  "
             f"workers={len(snapshot.get('workers', {}))}"]
    for name in sorted(snapshot.get("workers", {})):
        info = snapshot["workers"][name]
        entries = info.get("snapshot", [])
        injections = _counter_total(entries, "sfi_injections_total")
        waves = _counter_total(entries, "sfi_waves_total")
        occupancy = _histogram_mean(entries, "sfi_wave_occupancy_lanes")
        rate = (rates or {}).get(name)
        parts = [f"  {name} pid={info.get('pid', '?')} "
                 f"seq={info.get('seq', '?')}",
                 f"injections={injections:.0f}"]
        if rate is not None:
            parts.append(f"({rate:.1f}/s)")
        if waves:
            parts.append(f"waves={waves:.0f}")
        if occupancy is not None:
            parts.append(f"occupancy={occupancy:.1f} lanes")
        lines.append("  ".join(parts))
    fleet_entries = snapshot.get("fleet", [])
    if fleet_entries:
        degrades = _counter_total(fleet_entries, "sfi_degrades_total")
        lines.append(
            f"  fleet totals: injections="
            f"{_counter_total(fleet_entries, 'sfi_injections_total'):.0f}  "
            f"fastpath_saved="
            f"{_counter_total(fleet_entries, 'sfi_fastpath_saved_cycles'):.0f}"
            + (f"  degrades={degrades:.0f}" if degrades else ""))
    service = snapshot.get("service", [])
    if service:
        reissues = _counter_total(service, "sfi_lease_reissues_total")
        fenced = _counter_total(service, "sfi_fenced_records_total")
        if reissues or fenced:
            lines.append(f"  leases: reissues={reissues:.0f}  "
                         f"fenced={fenced:.0f}")
    return "\n".join(lines)
