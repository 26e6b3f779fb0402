"""Latch access tracing: the one place that observes storage access.

Golden last touch (:class:`TouchTrace`: the frozen and tracked exits),
the bit-plane schedule (``repro.emulator.bitplane``: in-plane
wave classification), taint flow (``repro.cpu.tainttrace``: provenance
payloads) and golden read sets (``repro.emulator.structural``: proven
masking bounds) are all :class:`Recorder` subclasses, so there is one
definition of a read and a write (the events on :class:`Recorder`).

:func:`trace` swaps every latch of the given cores to
:class:`HookedLatch`, a zero-slot (so layout-compatible) subclass of
:class:`Latch` that reports each access to the one active recorder.  A
recorder that needs the reads of only some latches names them
(:meth:`Recorder.watched_reads`); every other latch becomes a
:class:`WriteHookedLatch`, whose reads cost what a plain latch's do and
report nothing, and :func:`watch` moves a latch between the two as the
recorder's set changes.  A recorder with ``words`` set also gets the
cores' memory swapped to :class:`HookedMemory`, their SRAM arrays'
``read``/``write``/``write_raw`` wrapped and ``Core.taint_hook`` set.
Traces do not nest: a second swap would silently undo the first on
exit.  :func:`suspended` takes the active trace off the machine for
observational windows (snapshots, rung comparisons), so they
neither reach the recorder nor pay for tracing.  Untraced code always
runs on plain classes.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

from repro.isa.memory import Memory
from repro.rtl.latch import Latch

_VALUE = Latch.value  # the slot descriptors: storage behind the properties
_PAR = Latch.par

#: The active recorder, consulted by every hooked access, and the cores
#: its swap covers (empty while :func:`suspended`).  Module globals, not
#: thread-local: traced runs are single-threaded and worker processes
#: each get their own module state.
_RECORDER: Recorder | None = None
_CORES: tuple = ()


class Recorder:
    """Base recorder: the access events, each ignored.

    ``read_value``/``write_value``/``read_par``/``write_par``: a latch's
    ``value`` or parity shadow ``par`` is read or written (a write is
    reported before it lands).  Every plain :class:`Latch` method
    reaches storage through these two attributes.

    ``bit``/``write_bit``/``flip``/``force_bit``: the bit-granular and
    fault-model accessors, which the recorder performs.  The base runs
    the plain :class:`Latch` method, whose attribute accesses report
    the events above exactly as a plain latch routes them; a recorder
    overrides one only to account it differently.

    ``read_array``/``write_array`` (``write`` and ``write_raw``),
    ``read_word``/``write_word`` (memory words and bytes) and ``cycle``
    (each cycle boundary): reported to ``words`` recorders only.

    Reads of a latch are reported only while the recorder watches them
    (:meth:`watched_reads`); writes and the fault accessors always are.
    """

    __slots__ = ()

    #: Also trace SRAM array and memory word accesses and cycle
    #: boundaries (not only latches).
    words = False

    def watched_reads(self):
        """The ``id()`` keys of the latches whose reads (``value``,
        ``par`` and ``bit``) this recorder needs, or None for all of
        them.  Keys naming no latch of the traced cores are ignored.  A
        recorder that names a subset keeps it current with :func:`watch`.
        """
        return None

    def read_value(self, latch: Latch) -> None:
        pass

    def write_value(self, latch: Latch, new: int) -> None:
        pass

    def read_par(self, latch: Latch) -> None:
        pass

    def write_par(self, latch: Latch, new: int) -> None:
        pass

    def bit(self, latch: Latch, bit: int) -> int:
        return Latch.bit(latch, bit)

    def write_bit(self, latch: Latch, bit: int, level: int) -> None:
        Latch.write_bit(latch, bit, level)

    def flip(self, latch: Latch, bit: int) -> None:
        Latch.flip(latch, bit)

    def force_bit(self, latch: Latch, bit: int, level: int) -> None:
        Latch.force_bit(latch, bit, level)

    def read_array(self, array, index: int, result) -> None:
        pass

    def write_array(self, array, index: int) -> None:
        pass

    def read_word(self, memory: Memory, addr: int) -> None:
        pass

    def write_word(self, memory: Memory, addr: int) -> None:
        pass

    def cycle(self, core) -> None:
        pass


class TouchTrace(Recorder):
    """Last-touch cycle per latch (keyed by ``id(latch)``).

    The frozen and tracked exits need one fact about the
    fault-free run: after which cycle is a given latch never read or
    written again?  Each access is stamped with the cycle it happens in
    (``Core.cycle`` increments ``cycles`` before any unit runs), so a
    last touch at or before cycle *c* means no cycle after *c* reads or
    writes the latch.  Every access counts, observability polls inside
    the traced window included, so the trace over-approximates at
    worst, which only suppresses exits, never permits an unsound one.
    """

    __slots__ = ("core", "last_touch")

    def __init__(self, core) -> None:
        self.core = core
        self.last_touch: dict[int, int] = {}

    def read_value(self, latch: Latch) -> None:
        self.last_touch[id(latch)] = self.core.cycles

    def write_value(self, latch: Latch, new: int) -> None:
        self.last_touch[id(latch)] = self.core.cycles

    read_par = read_value
    write_par = write_value


class HookedLatch(Latch):
    """Layout-compatible :class:`Latch` reporting to the active recorder."""

    __slots__ = ()

    @property
    def value(self) -> int:
        _RECORDER.read_value(self)
        return _VALUE.__get__(self)

    @value.setter
    def value(self, new: int) -> None:
        _RECORDER.write_value(self, new)
        _VALUE.__set__(self, new)

    @property
    def par(self) -> int:
        _RECORDER.read_par(self)
        return _PAR.__get__(self)

    @par.setter
    def par(self, new: int) -> None:
        _RECORDER.write_par(self, new)
        _PAR.__set__(self, new)

    def bit(self, bit: int) -> int:
        return _RECORDER.bit(self, bit)

    def write_bit(self, bit: int, level: int) -> None:
        _RECORDER.write_bit(self, bit, level)

    def flip(self, bit: int) -> None:
        _RECORDER.flip(self, bit)

    def force_bit(self, bit: int, level: int) -> None:
        _RECORDER.force_bit(self, bit, level)


class WriteHookedLatch(HookedLatch):
    """A :class:`HookedLatch` whose reads the recorder does not watch.

    Its ``value`` and ``par`` getters are the slot descriptors' own
    ``__get__`` (no Python frame) and its ``bit`` is the plain one, so a
    read reports nothing and costs what a plain latch's does; writes and
    the fault accessors still report."""

    __slots__ = ()

    value = property(_VALUE.__get__, HookedLatch.value.fset)
    par = property(_PAR.__get__, HookedLatch.par.fset)
    bit = Latch.bit


class HookedMemory(Memory):
    """Layout-compatible :class:`Memory` reporting word accesses."""

    __slots__ = ()

    def load_word(self, addr: int) -> int:
        value = Memory.load_word(self, addr)
        _RECORDER.read_word(self, addr)
        return value

    def store_word(self, addr: int, value: int) -> None:
        _RECORDER.write_word(self, addr)
        Memory.store_word(self, addr, value)

    def load_byte(self, addr: int) -> int:
        value = Memory.load_byte(self, addr)
        _RECORDER.read_word(self, addr)
        return value

    def store_byte(self, addr: int, value: int) -> None:
        _RECORDER.write_word(self, addr)
        Memory.store_byte(self, addr, value)


def _wrap_array(array, recorder: Recorder) -> None:
    """Shadow the array's access methods with reporting instance
    attributes (removing them restores the class methods)."""
    read, write = array.read, array.write
    on_read, on_write = recorder.read_array, recorder.write_array

    def traced_read(index):
        result = read(index)
        on_read(array, index, result)
        return result

    def traced_write(index, value):
        on_write(array, index)
        write(index, value)

    array.read, array.write = traced_read, traced_write
    if hasattr(array, "write_raw"):
        write_raw = array.write_raw

        def traced_write_raw(index, value, check):
            on_write(array, index)
            write_raw(index, value, check)

        array.write_raw = traced_write_raw


#: Each core's latches by ``id()``, built on a core's first traced
#: attach with a subset watched.  Weakly keyed, so a dropped core takes
#: its map with it.
_BY_ID: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _attach(cores, recorder: Recorder) -> None:
    watched = recorder.watched_reads()
    for core in cores:
        if watched is None:
            for latch in core.all_latches():
                latch.__class__ = HookedLatch
        else:
            latches = core.all_latches()
            for latch in latches:
                latch.__class__ = WriteHookedLatch
            by_id = _BY_ID.get(core)
            if by_id is None:
                by_id = _BY_ID[core] = {id(latch): latch
                                        for latch in latches}
            for key in watched:
                latch = by_id.get(key)
                if latch is not None:
                    latch.__class__ = HookedLatch
        if recorder.words:
            core.memory.__class__ = HookedMemory
            for array in core.arrays():
                _wrap_array(array, recorder)
            core.taint_hook = recorder.cycle


def _detach(cores) -> None:
    for core in cores:
        for latch in core.all_latches():
            latch.__class__ = Latch
        if type(core.memory) is HookedMemory:
            core.memory.__class__ = Memory
        for array in core.arrays():
            for name in ("read", "write", "write_raw"):
                array.__dict__.pop(name, None)
        core.taint_hook = None


def watch(recorder: Recorder, latch: Latch, reads: bool) -> None:
    """Report ``latch``'s reads to ``recorder`` from now on (``reads``)
    or stop reporting them.  A recorder that watches a subset of reads
    (:meth:`Recorder.watched_reads`) calls this as the subset changes.
    A no-op unless ``recorder`` is tracing, unsuspended, and watches a
    subset: the next attach reads the subset afresh."""
    if recorder is _RECORDER and _CORES \
            and recorder.watched_reads() is not None:
        latch.__class__ = HookedLatch if reads else WriteHookedLatch


@contextmanager
def trace(cores, recorder: Recorder):
    """Report every storage access of ``cores`` to ``recorder`` until
    exit; yields the recorder.  Raises :class:`RuntimeError`, touching
    nothing, while another trace is active."""
    global _RECORDER, _CORES
    if _RECORDER is not None:
        raise RuntimeError(
            f"cannot trace with a {type(recorder).__name__}: a "
            f"{type(_RECORDER).__name__} is already tracing")
    cores = tuple(cores)
    _RECORDER, _CORES = recorder, cores
    try:
        _attach(cores, recorder)
        yield recorder
    finally:
        _detach(cores)
        _RECORDER, _CORES = None, ()


@contextmanager
def suspended():
    """Take the active trace off the machine for the block.

    Inside, every latch and memory is its plain class again, the arrays
    are unwrapped and ``taint_hook`` is unset, so no access reaches the
    recorder and its state on exit is exactly what it was on entry.  The
    recorder stays active (a :func:`trace` inside is still refused).  A
    no-op when nothing is traced or the trace is already suspended.
    """
    global _CORES
    cores, _CORES = _CORES, ()
    _detach(cores)
    try:
        yield
    finally:
        if cores:
            _attach(cores, _RECORDER)
        _CORES = cores
