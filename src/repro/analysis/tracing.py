"""Cause-and-effect tracing analysis.

The third of the paper's headline capabilities: tracing a system-level
error (effect) back to the originating bit flip (cause).  Each
:class:`~repro.sfi.results.InjectionRecord` carries the machine's event
trace; this module renders the causal narrative for one injection and
aggregates detection-latency / detection-point statistics over a
campaign — the designer-facing feedback loop §4 describes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.cpu.events import first_detection
from repro.sfi.outcomes import Outcome
from repro.sfi.results import CampaignResult, InjectionRecord


def render_cause_effect(record: InjectionRecord) -> str:
    """Human-readable causal narrative for one injection."""
    lines = [f"Injection into {record.site_name} "
             f"({record.unit}, {record.kind.value} latch) "
             f"at cycle {record.inject_cycle} "
             f"[testcase seed {record.testcase_seed}]"]
    for event in record.trace:
        lines.append(f"  {event}")
    lines.append(f"  => outcome: {record.outcome.value}")
    return "\n".join(lines)


def detection_event(record: InjectionRecord):
    """First detection-class event after the injection, or None
    (:func:`~repro.cpu.events.first_detection`)."""
    return first_detection(record.trace)


def detection_latency(record: InjectionRecord) -> int | None:
    """Cycles from the flip to its first detection (None if undetected)."""
    event = detection_event(record)
    if event is None:
        return None
    return event.cycle - record.inject_cycle


@dataclass
class TraceSummary:
    """Aggregate cause-and-effect statistics for one campaign."""

    detected: int
    undetected_visible: int  # non-vanished outcome with no detection event
    latencies: list[int]
    detection_points: Counter

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0

    @property
    def max_latency(self) -> int:
        return max(self.latencies) if self.latencies else 0


def summarize_traces(result: CampaignResult) -> TraceSummary:
    """Detection statistics over every non-vanished injection."""
    detected = 0
    undetected = 0
    latencies: list[int] = []
    points: Counter = Counter()
    for record in result.records:
        if record.outcome is Outcome.VANISHED:
            continue
        event = detection_event(record)
        if event is None:
            undetected += 1
            continue
        detected += 1
        latencies.append(event.cycle - record.inject_cycle)
        points[event.detail.split(" ")[0]] += 1
    return TraceSummary(detected=detected, undetected_visible=undetected,
                        latencies=latencies, detection_points=points)


def render_trace_summary(summary: TraceSummary) -> str:
    """Campaign-level cause-and-effect report."""
    lines = ["Cause-and-effect tracing summary (non-vanished flips)",
             f"  detected by a checker:      {summary.detected}",
             f"  visible but never detected: {summary.undetected_visible} "
             f"(silent corruption / timeout paths)"]
    if summary.latencies:
        lines.append(f"  detection latency: mean {summary.mean_latency:.0f} "
                     f"cycles, max {summary.max_latency}")
    if summary.detection_points:
        lines.append("  detection points:")
        for checker, count in summary.detection_points.most_common():
            lines.append(f"    {checker:<24} {count}")
    return "\n".join(lines)
