"""Structured fault-propagation traces.

The paper's third headline capability is tracing a system-level error
(effect) back to the originating bit flip (cause).  The human-readable
narration lives in :mod:`repro.analysis.tracing`; this module is the
machine-readable counterpart: each injection's causal chain is folded
into **spans** — injection, detection, recovery (with duration),
terminal events — and serialized as one JSON line per injection, so
campaign traces can be post-processed, joined against metrics, or
loaded into any span viewer.

Chain schema (one JSON object per line)::

    {"format": 1, "position": 17, "site": "fxu.alu_out.3",
     "unit": "FXU", "kind": "FUNC", "testcase_seed": 99,
     "inject_cycle": 1203, "end_cycle": 1890,
     "detection_cycle": 1219, "detection_latency": 16,
     "outcome": "Corrected",
     "spans": [{"name": "injection", "start": 1203, "end": 1203,
                "unit": "FXU", "detail": "fxu.alu_out.3 -> 1 (toggle)"},
               {"name": "error-detected", "start": 1219, "end": 1219,
                "unit": "FXU", "detail": "FXU_PARITY (ifar=0x...)"},
               {"name": "recovery", "start": 1219, "end": 1890,
                "unit": "FXU", "detail": "FXU_PARITY"}]}

This module is deliberately decoupled from ``repro.sfi``: it reads
records duck-typed (``site_name``/``unit``/``outcome``/``trace`` with
``cycle``/``kind``/``detail`` events, ``kind`` an
:class:`~repro.cpu.events.EventKind`).  It imports only the detection
rule of :mod:`repro.cpu.events` and the campaign-file reader of
:mod:`repro.sfi.storage`, whose own imports are leaf modules, so it
never creates an import cycle with the layers it observes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cpu.events import first_detection
from repro.sfi.storage import JournalCursor, scan_journal

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceWriter",
    "chain_from_record",
    "read_trace_log",
    "spans_from_events",
]

TRACE_FORMAT_VERSION = 1


def _kind_str(kind) -> str:
    return getattr(kind, "value", None) or str(kind)


def _outcome_str(outcome) -> str:
    return getattr(outcome, "value", None) or str(outcome)


def _unit_of_detail(detail: str, fallback: str) -> str:
    """Checker names encode their unit as a prefix (``FXU_PARITY``)."""
    token = detail.split(" ", 1)[0] if detail else ""
    if "_" in token:
        return token.split("_", 1)[0]
    return fallback


def spans_from_events(events, unit: str = "?") -> list[dict]:
    """Fold a machine event sequence into causal spans.

    Point events become zero-length spans; a ``recovery-start`` ..
    ``recovery-done`` pair folds into one ``recovery`` span carrying its
    cycle duration.  ``unit`` labels spans whose detail string does not
    itself name a unit (checker details do: ``FXU_PARITY ...``).
    """
    spans: list[dict] = []
    open_recovery: dict | None = None
    for event in events:
        kind = _kind_str(event.kind)
        detail = event.detail
        span_unit = _unit_of_detail(detail, unit)
        if kind == "recovery-start":
            open_recovery = {"name": "recovery", "start": event.cycle,
                             "end": event.cycle, "unit": span_unit,
                             "detail": detail}
            spans.append(open_recovery)
            continue
        if kind in ("recovery-restored", "recovery-done") \
                and open_recovery is not None:
            open_recovery["end"] = event.cycle
            if kind == "recovery-done":
                open_recovery = None
            continue
        spans.append({"name": kind, "start": event.cycle,
                      "end": event.cycle, "unit": span_unit,
                      "detail": detail})
    return spans


def chain_from_record(record, position: int | None = None) -> dict:
    """Build one injection's span chain (the JSONL line payload)."""
    events = list(record.trace)
    chain: dict = {
        "format": TRACE_FORMAT_VERSION,
        "site": record.site_name,
        "unit": record.unit,
        "kind": _kind_str(record.kind),
        "testcase_seed": record.testcase_seed,
        "inject_cycle": record.inject_cycle,
        "outcome": _outcome_str(record.outcome),
    }
    if position is not None:
        chain["position"] = position
    detection = first_detection(events)
    detection_cycle = detection.cycle if detection is not None else None
    chain["end_cycle"] = events[-1].cycle if events else record.inject_cycle
    chain["detection_cycle"] = detection_cycle
    chain["detection_latency"] = (
        detection_cycle - record.inject_cycle
        if detection_cycle is not None else None)
    chain["spans"] = spans_from_events(events, unit=record.unit)
    return chain


class TraceWriter:
    """Streams injection span chains to a JSONL file.

    By default only non-vanished injections are written — a vanished
    flip has no effect to trace, and large campaigns are ~95% vanished
    (Table 3), so the filter keeps trace logs proportional to the
    *interesting* outcome mass.  Pass ``include_vanished=True`` to keep
    everything.
    """

    def __init__(self, path: str | os.PathLike, *,
                 include_vanished: bool = False) -> None:
        self.path = Path(path)
        self.include_vanished = include_vanished
        self.written = 0
        self.filtered = 0
        self._handle = self.path.open("w")

    def write(self, position: int, record) -> bool:
        """Serialize one record's chain; False when filtered out."""
        if self._handle is None:
            raise ValueError(f"{self.path}: trace log is closed")
        if not self.include_vanished \
                and _outcome_str(record.outcome) == "Vanished":
            self.filtered += 1
            return False
        chain = chain_from_record(record, position)
        self._handle.write(json.dumps(chain) + "\n")
        self._handle.flush()
        self.written += 1
        return True

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace_log(path: str | os.PathLike) -> list[dict]:
    """Load every span chain from a trace log (strict: a line that does
    not parse, the torn tail included, raises ValueError)."""
    delta = scan_journal(path, JournalCursor(), header=False)
    if delta.skipped or delta.torn is not None:
        number = delta.skipped[0] if delta.skipped else delta.torn
        raise ValueError(f"{path}:{number}: malformed trace line")
    return [chain for _number, chain in delta.entries]
