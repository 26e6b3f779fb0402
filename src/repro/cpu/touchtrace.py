"""Latch touch tracing for golden reference runs.

The fast path's *frozen* and *masked* early exits (see
``sfi/campaign.py``) need one fact about the fault-free run: after which
cycle is a given latch never read or written again?  If the faulty
machine matches the golden state everywhere except the injected latch,
and the golden run never touches that latch afterwards, then both runs
evolve identically from here with the flip frozen in place — the
trial's remaining cycles are already known.  Each access is stamped with
the cycle it happens in (``Core.cycle`` increments ``cycles`` before any
unit runs), so a last touch at or before cycle *c* means no cycle after
*c* reads or writes the latch.

:func:`trace_touches` records that fact by swapping every core latch's
class to a zero-slot subclass whose ``value``/``par`` attributes are
properties stamping ``last_touch[id(latch)] = core.cycles`` on each
access, then routing storage through the base class's slot descriptors.
All functional reads and writes go through those two attributes
(``read``/``write``/``parity_ok``/``bit``/``flip`` included), so the
trace *over*-approximates at worst — observability polls inside the
traced window mark latches as touched — which only suppresses exits,
never permits an unsound one.  The swap is reverted on exit, so campaign
hot paths pay nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.rtl.latch import Latch

_VALUE = Latch.value  # the slot descriptors: storage behind the properties
_PAR = Latch.par

#: The active trace, consulted by every traced attribute access.  A
#: module global (not thread-local): reference runs are single-threaded
#: and worker processes each get their own module state.
_ACTIVE: TouchTrace | None = None


class TouchTrace:
    """Last-touch cycle per latch (keyed by ``id(latch)``)."""

    __slots__ = ("core", "last_touch")

    def __init__(self, core) -> None:
        self.core = core
        self.last_touch: dict[int, int] = {}


class _TracedLatch(Latch):
    """Layout-compatible :class:`Latch` whose state accesses are stamped."""

    __slots__ = ()

    @property
    def value(self) -> int:
        trace = _ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
        return _VALUE.__get__(self)

    @value.setter
    def value(self, new: int) -> None:
        trace = _ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
        _VALUE.__set__(self, new)

    @property
    def par(self) -> int:
        trace = _ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
        return _PAR.__get__(self)

    @par.setter
    def par(self, new: int) -> None:
        trace = _ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
        _PAR.__set__(self, new)


@contextmanager
def trace_touches(core):
    """Record the last cycle each of ``core``'s latches is accessed.

    Yields a :class:`TouchTrace`; the class swap (and the recording) ends
    when the context exits.  Use :func:`untraced` inside the window for
    observational reads (snapshots, digests) that must not count as
    machine activity.
    """
    global _ACTIVE
    latches = core.all_latches()
    trace = TouchTrace(core)
    for latch in latches:
        latch.__class__ = _TracedLatch
    _ACTIVE = trace
    try:
        yield trace
    finally:
        _ACTIVE = None
        for latch in latches:
            latch.__class__ = Latch


@contextmanager
def untraced():
    """Suspend touch recording (for snapshot/digest reads of the state)."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    try:
        yield
    finally:
        _ACTIVE = previous
