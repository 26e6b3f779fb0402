"""Machine event log: the cause-and-effect tracing substrate.

One of the paper's three headline capabilities is "cause and effect
tracing of system errors (effect) to the originating bit flip (cause) in
a full-system environment".  The event log records every RAS-visible
transition with its cycle — error detections (which checker, at what
PC), recovery sequencing, corrected events, hang/checkstop assertion,
instruction-stream landmarks — so a campaign record can narrate the
full causal chain from the flip to the final outcome.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass


class EventKind(enum.Enum):
    """RAS-visible machine events."""

    INJECTION = "injection"
    ERROR_DETECTED = "error-detected"
    ERROR_MASKED = "error-masked"          # checker disabled; data flowed
    CORRECTED_LOCAL = "corrected-local"    # in-place fix (cache/ERAT/ECC)
    RECOVERY_START = "recovery-start"
    RECOVERY_RESTORED = "recovery-restored"
    RECOVERY_DONE = "recovery-done"
    HANG_DETECTED = "hang"
    CHECKSTOP = "checkstop"
    HALT = "halt"


@dataclass(frozen=True)
class MachineEvent:
    """One timestamped event."""

    cycle: int
    kind: EventKind
    detail: str

    def __str__(self) -> str:
        return f"cycle {self.cycle:>7}: {self.kind.value:<18} {self.detail}"


#: Event kinds that count as "the machine noticed" an injected fault.
DETECTION_KINDS = frozenset({
    EventKind.ERROR_DETECTED,
    EventKind.CORRECTED_LOCAL,
    EventKind.HANG_DETECTED,
    EventKind.CHECKSTOP,
})


def first_detection(events) -> MachineEvent | None:
    """The first detection event after the INJECTION marker, or None.

    ``events`` is a sequence.  If a bounded ring evicted the marker,
    every surviving event is post-injection by construction.
    """
    seen = not any(event.kind is EventKind.INJECTION for event in events)
    for event in events:
        if event.kind is EventKind.INJECTION:
            seen = True
        elif seen and event.kind in DETECTION_KINDS:
            return event
    return None


class EventLog:
    """Bounded in-order event recorder attached to a core.

    Two independent bounds, both optional:

    * ``capacity`` — legacy head-biased cap: once full, *new* events are
      counted in ``dropped`` and discarded (the log keeps the beginning
      of the story).
    * ``max_events`` — ring buffer: once full, the *oldest* event is
      evicted per append (the log keeps the end of the story — the
      terminal checkstop/hang/halt a classifier and tracer care about).
      Hang-heavy workloads emit events indefinitely, so campaign paths
      pass a ring bound to keep a wedged run's memory flat; ``None``
      (the default) leaves the ring unbounded.

    When both are set the ring bound wins (a ring never refuses an
    append).  Evictions and refusals share the ``dropped`` counter.
    """

    def __init__(self, capacity: int | None = 256,
                 max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be at least 1")
        self.capacity = capacity
        self.max_events = max_events
        self.events: deque[MachineEvent] = deque()
        self.dropped = 0

    def record(self, cycle: int, kind: EventKind, detail: str = "") -> None:
        self._append(MachineEvent(cycle, kind, detail))

    def replay(self, events) -> None:
        """Append pre-recorded events through the normal bounding logic.

        The fast-path early exit splices the golden run's event tail onto
        a truncated injection run; routing the tail through the same
        ring/capacity machinery as live :meth:`record` calls guarantees
        the spliced log truncates exactly as a full drain would have.
        """
        for event in events:
            self._append(event)

    def _append(self, event: MachineEvent) -> None:
        if self.max_events is not None:
            if len(self.events) >= self.max_events:
                self.events.popleft()
                self.dropped += 1
            self.events.append(event)
            return
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def clear(self) -> None:
        self.events = deque()
        self.dropped = 0

    def of_kind(self, kind: EventKind) -> list[MachineEvent]:
        return [event for event in self.events if event.kind is kind]

    def first_of(self, kind: EventKind) -> MachineEvent | None:
        for event in self.events:
            if event.kind is kind:
                return event
        return None

    def snapshot(self) -> tuple:
        return (tuple(self.events), self.dropped)

    def restore(self, snap: tuple) -> None:
        self.events = deque(snap[0])
        self.dropped = snap[1]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def render(self) -> str:
        lines = [str(event) for event in self.events]
        if self.dropped:
            lines.append(f"... ({self.dropped} further events dropped)")
        return "\n".join(lines)
