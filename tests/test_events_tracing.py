"""Event log and cause-and-effect tracing."""

import pytest

from repro.cpu.events import EventKind, EventLog, MachineEvent
from repro.cpu.tainttrace import detection_info
from repro.analysis import (
    detection_event,
    detection_latency,
    render_cause_effect,
    render_trace_summary,
    summarize_traces,
)
from repro.obs.trace import chain_from_record
from repro.rtl import LatchKind
from repro.sfi import Outcome
from repro.sfi.results import CampaignResult, InjectionRecord
from repro.sfi.storage import RECORD_ROW_FIELDS, record_to_row


class TestEventLog:
    def test_record_and_iterate(self):
        log = EventLog()
        log.record(5, EventKind.INJECTION, "x.0")
        log.record(9, EventKind.ERROR_DETECTED, "CHK")
        assert len(log) == 2
        assert [event.cycle for event in log] == [5, 9]

    def test_first_of_and_of_kind(self):
        log = EventLog()
        log.record(1, EventKind.INJECTION, "a")
        log.record(2, EventKind.ERROR_DETECTED, "b")
        log.record(3, EventKind.ERROR_DETECTED, "c")
        assert log.first_of(EventKind.ERROR_DETECTED).detail == "b"
        assert len(log.of_kind(EventKind.ERROR_DETECTED)) == 2
        assert log.first_of(EventKind.CHECKSTOP) is None

    def test_capacity_bound(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.record(i, EventKind.HALT)
        assert len(log) == 3
        assert log.dropped == 2
        assert "dropped" in log.render()

    def test_snapshot_restore(self):
        log = EventLog()
        log.record(1, EventKind.INJECTION, "a")
        snap = log.snapshot()
        log.record(2, EventKind.HALT)
        log.restore(snap)
        assert len(log) == 1

    def test_clear(self):
        log = EventLog()
        log.record(1, EventKind.HALT)
        log.clear()
        assert len(log) == 0 and log.dropped == 0


class TestEventLogRing:
    """The ``max_events`` ring bound (campaign paths use it so a
    hang-heavy injection cannot grow memory for the whole drain window)."""

    def test_ring_keeps_newest_events(self):
        log = EventLog(capacity=None, max_events=3)
        for i in range(5):
            log.record(i, EventKind.HALT)
        assert [event.cycle for event in log] == [2, 3, 4]
        assert log.dropped == 2

    def test_ring_wins_over_capacity(self):
        log = EventLog(capacity=2, max_events=3)
        for i in range(5):
            log.record(i, EventKind.HALT)
        # Ring semantics: full length, newest retained.
        assert [event.cycle for event in log] == [2, 3, 4]

    def test_unbounded_when_both_none(self):
        log = EventLog(capacity=None, max_events=None)
        for i in range(1000):
            log.record(i, EventKind.HALT)
        assert len(log) == 1000 and log.dropped == 0

    def test_max_events_validation(self):
        with pytest.raises(ValueError, match="max_events"):
            EventLog(max_events=0)

    def test_snapshot_restore_keeps_ring_state(self):
        log = EventLog(capacity=None, max_events=2)
        log.record(1, EventKind.INJECTION, "a")
        log.record(2, EventKind.HALT)
        log.record(3, EventKind.HALT)
        snap = log.snapshot()
        log.clear()
        log.restore(snap)
        assert [event.cycle for event in log] == [2, 3]
        assert log.dropped == 1
        # The bound still applies after restore.
        log.record(4, EventKind.HALT)
        assert [event.cycle for event in log] == [3, 4]

    def test_campaign_cores_are_ring_bounded(self, experiment):
        assert experiment.core.event_log.max_events == 512
        assert experiment.core.event_log.capacity is None

    def test_terminal_events_survive_a_hangy_log(self):
        log = EventLog(capacity=None, max_events=4)
        for i in range(100):
            log.record(i, EventKind.ERROR_DETECTED, "CHK")
        log.record(100, EventKind.HANG_DETECTED, "wedged")
        assert log.first_of(EventKind.HANG_DETECTED) is not None


class TestCoreEventIntegration:
    def test_fault_free_run_logs_only_halt(self, core, testcase):
        core.load_program(testcase.program)
        core.run(max_cycles=100_000)
        kinds = {event.kind for event in core.event_log}
        assert kinds == {EventKind.HALT}

    def test_detected_error_produces_causal_chain(self, core, testcase):
        core.load_program(testcase.program)
        for _ in range(40):
            core.cycle()
        core.gprs.copies[0].banks[0][29].flip(3)  # data base, exec copy
        core.run(max_cycles=100_000)
        kinds = [event.kind for event in core.event_log]
        if EventKind.ERROR_DETECTED in kinds:
            # Detection must precede recovery start, which precedes done.
            assert kinds.index(EventKind.ERROR_DETECTED) \
                <= kinds.index(EventKind.RECOVERY_START)
            assert EventKind.RECOVERY_DONE in kinds \
                or EventKind.CHECKSTOP in kinds or EventKind.HANG_DETECTED in kinds

    def test_load_program_clears_log(self, core, testcase):
        core.load_program(testcase.program)
        core.run(max_cycles=100_000)
        assert len(core.event_log) > 0
        core.load_program(testcase.program)
        assert len(core.event_log) == 0

    def test_restore_restores_log(self, core, testcase):
        core.load_program(testcase.program)
        snap = core.snapshot()
        core.run(max_cycles=100_000)
        core.restore(snap)
        assert len(core.event_log) == 0


def _record(trace, outcome=Outcome.CORRECTED, inject_cycle=10):
    return InjectionRecord(0, "u.x.0", "LSU", LatchKind.FUNC, "LSU", 1,
                           inject_cycle, outcome, trace=tuple(trace))


class TestTracingAnalysis:
    def test_detection_event_after_injection_only(self):
        trace = [MachineEvent(5, EventKind.ERROR_DETECTED, "EARLIER"),
                 MachineEvent(10, EventKind.INJECTION, "u.x.0 -> 1"),
                 MachineEvent(25, EventKind.ERROR_DETECTED, "CHK later")]
        record = _record(trace)
        event = detection_event(record)
        assert event.cycle == 25
        assert detection_latency(record) == 15

    def test_undetected_returns_none(self):
        record = _record([MachineEvent(10, EventKind.INJECTION, "x"),
                          MachineEvent(90, EventKind.HALT, "")],
                         outcome=Outcome.SDC)
        assert detection_event(record) is None
        assert detection_latency(record) is None

    def test_evicted_injection_marker_agrees_across_readers(self):
        """A bounded ring evicted the INJECTION marker, so every surviving
        event is post-injection: the tracing analysis, the warehouse row
        and the trace chain report the cycle the provenance payload
        (``detection_info``) reports."""
        record = _record([MachineEvent(700, EventKind.RECOVERY_DONE, "r"),
                          MachineEvent(720, EventKind.HANG_DETECTED,
                                       "CORE_HANG_DETECT x"),
                          MachineEvent(730, EventKind.CHECKSTOP, "late")],
                         outcome=Outcome.HANG, inject_cycle=500)
        cycle = detection_info(record.trace, record.inject_cycle)["cycle"]
        assert cycle == 720
        assert detection_event(record).cycle == cycle
        row = dict(zip(RECORD_ROW_FIELDS, record_to_row(record)))
        assert row["detector"] == "CORE_HANG_DETECT"
        assert row["detect_latency"] == cycle - record.inject_cycle
        assert chain_from_record(record)["detection_cycle"] == cycle

    def test_render_cause_effect_mentions_everything(self):
        record = _record([MachineEvent(10, EventKind.INJECTION, "u.x.0 -> 1"),
                          MachineEvent(20, EventKind.ERROR_DETECTED, "CHK")])
        text = render_cause_effect(record)
        assert "u.x.0" in text and "error-detected" in text
        assert "Corrected" in text

    def test_summary_counts(self):
        detected = _record([MachineEvent(10, EventKind.INJECTION, "a"),
                            MachineEvent(30, EventKind.ERROR_DETECTED, "CHK_A x")])
        silent = _record([MachineEvent(10, EventKind.INJECTION, "b")],
                         outcome=Outcome.SDC)
        vanished = _record([MachineEvent(10, EventKind.INJECTION, "c")],
                           outcome=Outcome.VANISHED)
        result = CampaignResult([detected, silent, vanished], 100)
        summary = summarize_traces(result)
        assert summary.detected == 1
        assert summary.undetected_visible == 1
        assert summary.latencies == [20]
        assert summary.detection_points["CHK_A"] == 1
        text = render_trace_summary(summary)
        assert "CHK_A" in text and "mean 20" in text

    def test_campaign_records_carry_traces(self, experiment):
        result = experiment.run_random_campaign(25, seed=3)
        assert all(any(event.kind is EventKind.INJECTION
                       for event in record.trace)
                   for record in result.records)
