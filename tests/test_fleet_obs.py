"""Fleet telemetry: spans, streamed metrics, convergence, robustness.

The tentpole contracts under test: (1) the telemetry channel is purely
observational — record journals are byte-identical with telemetry on or
off, held here under a worker SIGKILL with two subprocess workers;
(2) the coordinator's fleet registry never double-counts a streamed
delta, checkable at any time via ``consistency_check``; (3) the live
convergence view is the same pure fold as an offline journal recount,
so the two agree exactly; and (4) the critical-path analyzer attributes
campaign wall-clock to named phases off the warehouse spans table.
"""

from __future__ import annotations

import signal
import struct
import threading

import pytest

from repro.obs import MetricsRegistry, read_journal_progress
from repro.obs.convergence import ConvergenceTracker, render_convergence
from repro.obs.fleet import (
    FleetRegistry,
    FleetSpanPhase,
    Span,
    SpanRecorder,
    TelemetryStream,
    critical_path,
    pack_payload,
    read_span_log,
    rebase_spans,
    render_fleet,
    unpack_payload,
    write_span_log,
)
from repro.sfi import CampaignSupervisor
from repro.sfi.service.coordinator import SocketTransport
from repro.sfi.service.wire import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    encode_frame,
)
from repro.stats import wilson_width
from repro.warehouse import Warehouse, write_fixture_journal
from repro.warehouse.queries import (
    campaign_critical_path,
    convergence,
    span_phases,
)

from tests.test_service_campaign import (
    CONFIG,
    SEED,
    SITES,
    _journal_body,
    _run_in_thread,
    _start_worker_process,
    _start_worker_thread,
    _wait_for_journal_lines,
)
from tests.test_supervisor import keep_records, narrated_run


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Payload packing.

class TestPayloadPacking:
    def test_roundtrip(self):
        value = {"metrics": [{"name": "a", "series": [1, 2.5]}],
                 "nested": {"deep": [None, True]}}
        assert unpack_payload(pack_payload(value)) == value

    def test_garbage_raises_value_error(self):
        for garbage in ("!!! not base64", "YWJjZA==",  # valid b64, not zlib
                        pack_payload([])[:-4] + "AAAA"):
            with pytest.raises(ValueError):
                unpack_payload(garbage)


# ----------------------------------------------------------------------
# Span recording and the critical path.

class TestSpanRecorder:
    def test_begin_finish_drain(self):
        clock = FakeClock()
        recorder = SpanRecorder(source="w1@9", clock=clock)
        root = recorder.begin(FleetSpanPhase.CAMPAIGN)
        clock.now += 5.0
        child = recorder.begin(FleetSpanPhase.LEASE_HELD, parent_id=root,
                               token=3)
        assert recorder.open_count == 2
        clock.now += 2.0
        done = recorder.finish(child)
        assert done.duration == pytest.approx(2.0)
        assert done.parent_id == root and done.token == 3
        assert done.span_id.startswith("w1@9-")
        recorder.finish(root)
        spans = recorder.drain()
        assert [span.phase for span in spans] == ["lease-held", "campaign"]
        assert recorder.drain() == []  # ownership transferred

    def test_finish_unknown_and_finish_all(self):
        recorder = SpanRecorder(clock=FakeClock())
        assert recorder.finish("nope") is None
        recorder.begin(FleetSpanPhase.QUEUE_WAIT)
        recorder.begin(FleetSpanPhase.DRAIN)
        recorder.finish_all()
        assert recorder.open_count == 0
        assert len(recorder.drain()) == 2

    def test_record_explicit_interval(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.record(FleetSpanPhase.TRIAL, 10.0, 12.5, shard_id=4)
        (span,) = recorder.drain()
        assert span.phase == "trial" and span.duration == 2.5

    def test_span_dict_roundtrip(self):
        span = Span(span_id="s", phase="trial", start=1.0, end=2.0,
                    parent_id="p", worker="w", shard_id=2, token=7)
        assert Span.from_dict(span.to_dict()) == span

    def test_rebase_shifts_both_ends(self):
        spans = rebase_spans([Span("s", "trial", 10.0, 20.0)], 30.0)
        assert spans[0].start == 40.0 and spans[0].end == 50.0


class TestCriticalPath:
    def _tree(self):
        return [
            Span("r", "campaign", 0.0, 10.0),
            Span("l", "lease-held", 1.0, 9.0, parent_id="r"),
            Span("e", "worker-execute", 2.0, 8.0, parent_id="l"),
            Span("t1", "trial", 2.0, 4.0, parent_id="e"),
            Span("t2", "trial", 4.0, 7.0, parent_id="e"),
        ]

    def test_deepest_span_wins_each_instant(self):
        result = critical_path(self._tree())
        assert result["total"] == pytest.approx(10.0)
        assert result["phases"] == pytest.approx({
            "campaign": 2.0,       # [0,1) and [9,10): nothing deeper
            "lease-held": 2.0,     # [1,2) and [8,9)
            "worker-execute": 1.0,  # [7,8)
            "trial": 5.0,          # [2,7)
        })
        # Coverage counts everything attributed below the root.
        assert result["coverage"] == pytest.approx(0.8)
        # Adjacent same-phase segments merge.
        trial_segments = [seg for seg in result["segments"]
                          if seg["phase"] == "trial"]
        assert trial_segments == [
            {"phase": "trial", "start": 2.0, "end": 7.0}]

    def test_no_root_or_degenerate_spans(self):
        assert critical_path([]) == {"total": 0.0, "phases": {},
                                     "coverage": 0.0, "segments": []}
        # Zero-length spans are ignored; the root still sweeps cleanly.
        result = critical_path([Span("r", "campaign", 0.0, 4.0),
                                Span("z", "trial", 2.0, 2.0,
                                     parent_id="r")])
        assert result["phases"] == {"campaign": pytest.approx(4.0)}

    def test_orphan_parent_and_cycle_are_harmless(self):
        spans = [Span("r", "campaign", 0.0, 4.0),
                 Span("a", "trial", 1.0, 2.0, parent_id="ghost"),
                 Span("b", "queue-wait", 2.0, 3.0, parent_id="c"),
                 Span("c", "lease-held", 2.0, 3.0, parent_id="b")]
        result = critical_path(spans)
        assert result["total"] == pytest.approx(4.0)
        assert sum(result["phases"].values()) == pytest.approx(4.0)


class TestSpanSidecar:
    def test_roundtrip_skips_header_and_torn_lines(self, tmp_path):
        path = tmp_path / "c.jsonl.spans"
        spans = [Span("a", "campaign", 0.0, 1.0),
                 Span("b", "trial", 0.2, 0.8, parent_id="a")]
        write_span_log(path, spans, campaign="c.jsonl")
        with path.open("a") as handle:
            handle.write('{"span_id": "torn", "phase"\n')
        assert read_span_log(path) == spans

    def test_missing_file_is_empty(self, tmp_path):
        assert read_span_log(tmp_path / "nope.spans") == []


# ----------------------------------------------------------------------
# Worker-side streaming.

def _stream(clock, *, worker="w1", pid=100, **kwargs):
    registry = MetricsRegistry()
    recorder = SpanRecorder(source=f"{worker}@{pid}", clock=clock)
    stream = TelemetryStream(registry, recorder, worker=worker, pid=pid,
                             clock=clock, **kwargs)
    return registry, recorder, stream


class TestTelemetryStream:
    def test_quiet_stream_sends_nothing(self):
        _registry, _recorder, stream = _stream(FakeClock())
        assert stream.frame() is None
        forced = stream.frame(force=True)
        assert forced["seq"] == 1
        assert forced["metrics"] == "" and forced["spans"] == ""

    def test_frames_are_cumulative_and_seq_increases(self):
        registry, _recorder, stream = _stream(FakeClock())
        counter = registry.counter("sfi_injections_total", "t")
        counter.inc(5)
        first = stream.frame()
        counter.inc(3)
        second = stream.frame()
        assert (first["seq"], second["seq"]) == (1, 2)
        for frame, want in ((first, 5.0), (second, 8.0)):
            (entry,) = unpack_payload(frame["metrics"])
            assert entry["name"] == "sfi_injections_total"
            assert entry["series"][0]["value"] == want
        # Unchanged registry: nothing further to say.
        assert stream.frame() is None

    def test_reset_connection_resends_everything(self):
        registry, _recorder, stream = _stream(FakeClock())
        registry.counter("sfi_injections_total", "t").inc(4)
        assert stream.frame() is not None
        assert stream.frame() is None
        stream.reset_connection()
        resent = stream.frame()
        (entry,) = unpack_payload(resent["metrics"])
        assert entry["series"][0]["value"] == 4.0

    def test_span_batching_respects_max_batch(self):
        _registry, recorder, stream = _stream(FakeClock(),
                                              max_span_batch=2)
        for index in range(5):
            recorder.record(FleetSpanPhase.TRIAL, float(index),
                            index + 0.5)
        sizes = []
        while True:
            frame = stream.frame()
            if frame is None:
                break
            sizes.append(len(unpack_payload(frame["spans"])))
        assert sizes == [2, 2, 1]


# ----------------------------------------------------------------------
# Coordinator-side fold.

class TestFleetRegistry:
    def test_cumulative_frames_never_double_count(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        counter = registry.counter("sfi_injections_total", "t")
        fleet = FleetRegistry(MetricsRegistry(), clock=clock)
        counter.inc(5)
        fleet.absorb(stream.frame())
        counter.inc(3)
        fleet.absorb(stream.frame())
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 8.0
        check = fleet.consistency_check()
        assert check["ok"], check["mismatches"]

    def test_full_resend_after_reconnect_is_idempotent(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        registry.counter("sfi_injections_total", "t").inc(6)
        fleet = FleetRegistry(MetricsRegistry(), clock=clock)
        fleet.absorb(stream.frame())
        stream.reset_connection()  # same pid: cumulative resend
        fleet.absorb(stream.frame(force=True))
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 6.0
        assert fleet.consistency_check()["ok"]

    def test_seq_replay_is_dropped(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        registry.counter("sfi_injections_total", "t").inc(2)
        inst = MetricsRegistry()
        fleet = FleetRegistry(inst, clock=clock)
        frame = stream.frame()
        assert fleet.absorb(frame) == []
        fleet.absorb(dict(frame))  # replayed frame: same seq
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 2.0
        assert inst.get("sfi_fleet_frame_errors_total").value() == 1
        assert fleet.consistency_check()["ok"]

    def test_pid_restart_opens_fresh_baseline(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock, pid=100)
        registry.counter("sfi_injections_total", "t").inc(8)
        inst = MetricsRegistry()
        fleet = FleetRegistry(inst, clock=clock)
        fleet.absorb(stream.frame())
        # The worker restarts: new pid, counters back near zero.  The
        # cumulative 3 must add to the old incarnation's 8, not replace
        # or subtract.
        registry2, _recorder2, stream2 = _stream(clock, pid=101)
        registry2.counter("sfi_injections_total", "t").inc(3)
        fleet.absorb(stream2.frame())
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 11.0
        assert inst.get("sfi_fleet_incarnations_total").value() == 1
        assert fleet.consistency_check()["ok"]

    def test_undecodable_frame_leaves_state_untouched(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        registry.counter("sfi_injections_total", "t").inc(4)
        inst = MetricsRegistry()
        fleet = FleetRegistry(inst, clock=clock)
        fleet.absorb(stream.frame())
        registry.counter("sfi_injections_total", "t").inc(1)
        torn = stream.frame()
        torn["metrics"] = "!corrupt!"
        assert fleet.absorb(torn) == []
        assert inst.get("sfi_fleet_frame_errors_total").value() == 1
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 4.0
        assert fleet.consistency_check()["ok"]

    def test_gauges_last_write_wins_and_histograms_diff(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        gauge = registry.gauge("sfi_worker_pool_size", "t")
        hist = registry.histogram("sfi_wave_occupancy_lanes", "t",
                                  buckets=(1.0, 8.0, 64.0))
        fleet = FleetRegistry(clock=clock)
        gauge.set(4)
        hist.observe(3.0)
        fleet.absorb(stream.frame())
        gauge.set(2)
        hist.observe(30.0)
        fleet.absorb(stream.frame())
        assert fleet.fleet.get("sfi_worker_pool_size").value() == 2.0
        merged = fleet.fleet.get("sfi_wave_occupancy_lanes")
        assert merged.count() == 2
        assert sum(series.sum for series in
                   merged.series().values()) == pytest.approx(33.0)

    def test_spans_rebase_into_receiver_clock(self):
        worker_clock = FakeClock(50.0)
        _registry, recorder, stream = _stream(worker_clock)
        recorder.record(FleetSpanPhase.TRIAL, 10.0, 20.0)
        fleet = FleetRegistry()
        spans = fleet.absorb(stream.frame(), received_at=80.0)
        assert spans[0].start == pytest.approx(40.0)
        assert spans[0].end == pytest.approx(50.0)

    def test_consistency_check_detects_tampering(self):
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock)
        registry.counter("sfi_injections_total", "t").inc(3)
        fleet = FleetRegistry(clock=clock)
        fleet.absorb(stream.frame())
        fleet.fleet.counter("sfi_injections_total", "t").inc(1)
        check = fleet.consistency_check()
        assert not check["ok"]
        assert check["mismatches"][0]["metric"] == "sfi_injections_total"


# ----------------------------------------------------------------------
# FrameReader under telemetry load (satellite).

def _telemetry_wire(stream) -> bytes:
    frame = stream.frame(force=True)
    return encode_frame({"type": "telemetry", **frame})


class TestFrameReaderTelemetryLoad:
    def test_interleaved_partial_telemetry_frames(self):
        clock = FakeClock()
        registry, recorder, stream = _stream(clock)
        counter = registry.counter("sfi_injections_total", "t")
        blobs = []
        for index in range(4):
            counter.inc(index + 1)
            recorder.record(FleetSpanPhase.TRIAL, float(index),
                            index + 0.5)
            blobs.append(_telemetry_wire(stream))
            blobs.append(encode_frame({"type": "heartbeat",
                                       "token": index}))
        blob = b"".join(blobs)
        reader = FrameReader()
        out = []
        for start in range(0, len(blob), 7):  # deliberately torn feeds
            out.extend(reader.feed(blob[start:start + 7]))
        assert [m["type"] for m in out] == ["telemetry", "heartbeat"] * 4
        assert [m["seq"] for m in out if m["type"] == "telemetry"] \
            == [1, 2, 3, 4]
        assert reader.pending_bytes == 0

    def test_oversized_telemetry_frame_rejected(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            reader.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_torn_frame_at_death_leaves_registry_consistent(self):
        """Connection dies mid-frame: the decoded prefix is absorbed,
        the torn suffix is dropped, and the full cumulative resend from
        the worker's next incarnation restores the totals exactly."""
        clock = FakeClock()
        registry, _recorder, stream = _stream(clock, pid=100)
        counter = registry.counter("sfi_injections_total", "t")
        counter.inc(5)
        first = _telemetry_wire(stream)
        counter.inc(3)
        second = _telemetry_wire(stream)
        counter.inc(4)
        third = _telemetry_wire(stream)
        blob = first + second + third[:len(third) // 2]
        reader = FrameReader()
        decoded = []
        for start in range(0, len(blob), 11):
            decoded.extend(reader.feed(blob[start:start + 11]))
        assert len(decoded) == 2 and reader.pending_bytes > 0
        fleet = FleetRegistry(MetricsRegistry(), clock=clock)
        for frame in decoded:
            fleet.absorb(frame)
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 8.0  # the torn frame's delta never landed
        assert fleet.consistency_check()["ok"]
        # Worker restarts (new pid) and resends its cumulative state.
        registry2, _recorder2, stream2 = _stream(clock, pid=101)
        registry2.counter("sfi_injections_total", "t").inc(12)
        fleet.absorb(stream2.frame())
        total = sum(fleet.fleet.get("sfi_injections_total")
                    .series().values())
        assert total == 20.0
        assert fleet.consistency_check()["ok"]


# ----------------------------------------------------------------------
# Convergence tracking.

class TestConvergence:
    BREAKDOWN = {"IFU": {"Vanished": 40, "Hang": 2},
                 "LSU": {"Vanished": 10, "Checkstop": 1}}

    def test_fold_order_invariance(self):
        bulk = ConvergenceTracker.from_counts(self.BREAKDOWN)
        one_by_one = ConvergenceTracker()
        for unit, outcomes in reversed(list(self.BREAKDOWN.items())):
            for outcome, count in outcomes.items():
                for _ in range(count):
                    one_by_one.fold(unit, outcome)
        assert bulk.snapshot() == one_by_one.snapshot()
        assert bulk.counts() == self.BREAKDOWN

    def test_rows_match_wilson_widths(self):
        tracker = ConvergenceTracker.from_counts(self.BREAKDOWN)
        rows = {(row.unit, row.outcome): row for row in tracker.rows()}
        ifu_hang = rows[("IFU", "Hang")]
        assert ifu_hang.trials == 42
        assert ifu_hang.width == pytest.approx(
            wilson_width(2, 42, confidence=0.95))
        assert not ifu_hang.converged  # 42 trials is nowhere near ±1%

    def test_converged_category_needs_no_more_trials(self):
        tracker = ConvergenceTracker.from_counts(
            {"IFU": {"Vanished": 100_000}}, target_width=0.02)
        (row,) = tracker.rows()
        assert row.converged
        assert tracker.remaining_trials() == 0

    def test_remaining_trials_sums_per_unit_maxima(self):
        tracker = ConvergenceTracker.from_counts(self.BREAKDOWN)
        shortfalls = {}
        for row in tracker.rows():
            missing = max(0, row.trials_needed - row.trials)
            shortfalls[row.unit] = max(shortfalls.get(row.unit, 0),
                                       missing)
        assert tracker.remaining_trials() == sum(shortfalls.values())
        assert tracker.remaining_trials() > 0

    def test_render_snapshot_and_tracker_agree(self):
        tracker = ConvergenceTracker.from_counts(self.BREAKDOWN)
        text = render_convergence(tracker)
        assert render_convergence(tracker.snapshot()) == text
        assert "convergence toward" in text
        assert "IFU" in text and "needs" in text
        limited = render_convergence(tracker, limit=1)
        assert len(limited.splitlines()) == 3  # title, one row, summary

    def test_empty_tracker_renders_placeholder(self):
        assert "no records yet" in render_convergence(ConvergenceTracker())

    def test_publish_uses_convergence_prefix(self):
        registry = MetricsRegistry()
        ConvergenceTracker.from_counts(self.BREAKDOWN).publish(registry)
        width = registry.get("sfi_convergence_width")
        assert width is not None
        assert len(width.series()) == 4
        assert registry.get(
            "sfi_convergence_remaining_trials").value() > 0


# ----------------------------------------------------------------------
# Progress narration after --resume (satellite).

class TestPrintProgressResume:
    def test_rate_and_eta_count_only_records_since_resume(
            self, monkeypatch, tmp_path):
        sites = [110 * k for k in range(1, 21)]
        journal = tmp_path / "campaign.journal"
        CampaignSupervisor(CONFIG, workers=1, journal=journal).run(
            sites, seed=SEED)
        keep_records(journal, 10)
        progress = narrated_run(monkeypatch, sites, step=1.0,
                                journal=journal, resume=True)
        assert progress.details("resume") == \
            ["resuming: 10/20 injections already journaled"]
        # 2 executed in 2s -> 1.0 inj/s and 8 to go -> ETA 8s.  The
        # regression rated done/elapsed = 12/2 = 6.0 inj/s, ETA 1s.
        assert progress.details("progress")[0] == \
            "12/20 injections (1.0 inj/s, ETA 8s)"

    def test_fresh_run_unaffected(self, monkeypatch):
        progress = narrated_run(monkeypatch, SITES[:5], step=2.0)
        assert progress.details("resume") == []
        assert "5/5 injections (0.5 inj/s)" in progress.details("progress")


# ----------------------------------------------------------------------
# Warehouse: spans ingest, critical-path and convergence queries.

class TestWarehouseSpans:
    def _ingest(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=4,
                                        records=12)
        write_span_log(
            str(journal) + ".spans",
            [Span("r", "campaign", 0.0, 10.0),
             Span("l", "lease-held", 1.0, 9.0, parent_id="r"),
             Span("t", "trial", 2.0, 8.0, parent_id="l", worker="w1",
                  shard_id=0, token=1)],
            campaign=journal.name)
        warehouse = Warehouse(tmp_path / "wh.sqlite")
        stats = warehouse.ingest_journal(journal, name="camp")
        return warehouse, stats

    def test_sidecar_rows_ingest_once(self, tmp_path):
        warehouse, stats = self._ingest(tmp_path)
        with warehouse:
            assert stats.span_rows == 3
            again = warehouse.ingest_journal(
                tmp_path / "c.jsonl", name="camp")
            assert again.span_rows == 0  # idempotent re-ingest

    def test_critical_path_and_phase_rollup(self, tmp_path):
        warehouse, stats = self._ingest(tmp_path)
        with warehouse:
            result = campaign_critical_path(warehouse, "camp")
            assert result["total"] == pytest.approx(10.0)
            assert result["phases"]["trial"] == pytest.approx(6.0)
            assert result["coverage"] == pytest.approx(0.8)
            phases = span_phases(warehouse, "camp")
            by_name = {row["phase"]: row for row in phases}
            assert by_name["campaign"]["seconds"] == pytest.approx(10.0)
            assert by_name["trial"]["spans"] == 1

    def test_convergence_query_matches_journal_recount(self, tmp_path):
        warehouse, _stats = self._ingest(tmp_path)
        with warehouse:
            tracker = convergence(warehouse, "camp")
            offline = ConvergenceTracker.from_counts(
                read_journal_progress(tmp_path / "c.jsonl").unit_outcomes)
            assert tracker.snapshot() == offline.snapshot()


# ----------------------------------------------------------------------
# The differential acceptance tests (distributed, slow).

@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """Telemetry-off single-process run: the byte-identity reference."""
    path = tmp_path_factory.mktemp("fleet-serial") / "ref.journal"
    result = CampaignSupervisor(CONFIG, workers=1, journal=path).run(
        SITES, seed=SEED)
    return result, _journal_body(path)


class TestTelemetryDifferential:
    @pytest.mark.slow
    def test_sigkill_mid_stream_keeps_journal_identical(
            self, tmp_path, serial_reference):
        """Two subprocess workers stream telemetry; one is SIGKILLed
        mid-campaign.  The journal must stay byte-identical to the
        telemetry-off serial run, the fleet registry must pass its
        no-double-count consistency check across the dead incarnation,
        and the live convergence fold must equal an offline recount."""
        _serial_result, serial_body = serial_reference
        journal = tmp_path / "chaos.journal"
        registry = MetricsRegistry()
        tracker = ConvergenceTracker()
        trace = SpanRecorder()
        transport = SocketTransport(
            heartbeat_interval=0.1, lease_items=1,
            worker_wait=120.0, metrics=registry,
            telemetry_interval=0.05, campaign="chaos",
            convergence=tracker)
        victim = _start_worker_process(transport.port, "victim")
        survivor = _start_worker_process(transport.port, "survivor")
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, journal=journal, transport=transport,
            trace=trace, backoff_base=0.0)
        thread, box = _run_in_thread(supervisor, SITES, SEED)
        try:
            _wait_for_journal_lines(journal, 2)
            victim.send_signal(signal.SIGKILL)
            thread.join(timeout=300)
            assert not thread.is_alive(), "campaign never finished"
        finally:
            for process in (victim, survivor):
                process.kill()
                process.wait()
        assert "error" not in box, box.get("error")
        # (1) Telemetry changed nothing the journal can see.
        assert _journal_body(journal) == serial_body
        # (2) No streamed delta was double-counted across the SIGKILL.
        check = transport.fleet.consistency_check()
        assert check["ok"], check["mismatches"]
        streamed = sum(transport.fleet.fleet
                       .get("sfi_injections_total").series().values())
        assert streamed > 0
        # (3) Live convergence is exactly the offline journal recount.
        offline = read_journal_progress(journal).unit_outcomes
        assert tracker.counts() == offline
        # (4) Worker spans crossed the wire.  (No trial spans here:
        # single-item leases have no emit-to-emit interval.)
        assert any(span.phase == "worker-execute"
                   for span in transport.worker_spans)

    @pytest.mark.slow
    def test_span_tree_attributes_campaign_wall_clock(
            self, tmp_path, serial_reference):
        """Clean distributed run with telemetry: the merged span tree,
        ingested into the warehouse, attributes >=95% of measured
        campaign wall-clock to named (non-root) phases."""
        _serial_result, serial_body = serial_reference
        journal = tmp_path / "traced.journal"
        trace = SpanRecorder()
        tracker = ConvergenceTracker()
        transport = SocketTransport(
            heartbeat_interval=0.1, lease_items=2, worker_wait=60.0,
            telemetry_interval=0.05, campaign="traced",
            convergence=tracker)
        _start_worker_thread(transport.port, "tracer")
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, journal=journal, transport=transport,
            trace=trace)
        supervisor.run(SITES, seed=SEED)
        assert _journal_body(journal) == serial_body
        spans = list(trace.drain()) + list(transport.worker_spans)
        write_span_log(str(journal) + ".spans", spans,
                       campaign=journal.name)
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            stats = warehouse.ingest_journal(journal, name="traced")
            assert stats.span_rows == len(spans) > 0
            result = campaign_critical_path(warehouse, "traced")
            assert result["total"] > 0
            assert result["coverage"] >= 0.95, result
            assert "lease-held" in result["phases"] \
                or "worker-execute" in result["phases"]
        # The monitor's fleet snapshot renders the streamed state.
        snapshot = transport._fleet_snapshot()
        text = render_fleet(snapshot)
        assert "workers=1" in text and "tracer" in text
        assert tracker.total == len(SITES)
