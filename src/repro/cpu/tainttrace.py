"""Taint propagation tracing: the fault-provenance capture layer.

One injected bit flip either dies (overwritten, scrubbed, corrected,
architecturally dead) or travels — latch to latch, into an SRAM array,
out to memory, into architected state.  :class:`TaintTracker` shadows
that journey for one injection by swapping every latch's class to a
zero-slot subclass (the ``touchtrace.py`` technique: layout-compatible,
reverted on exit, zero cost when inactive), wrapping the SRAM arrays'
read/write methods, class-swapping the sparse :class:`Memory`, and
installing the core's per-cycle ``taint_hook``.

Propagation semantics are *consume-on-write*: each read of a tainted
node is queued in a pending window; the next value write consumes the
window — the written node becomes tainted and one DAG edge per pending
source is recorded — and the window also clears at every cycle boundary
(the ``taint_hook``).  This "nearest write" pairing is a heuristic, not
dataflow truth: it can over-taint (an unrelated write landing between a
tainted read and its real sink inherits the taint) and under-taint (the
real sink then sees an empty window).  The alternative — tainting every
write in a cycle that read taint — diverges immediately: the pervasive
watchdog reads *and* writes its counter every cycle, which would taint
the whole machine through one control read.  Consume-on-write keeps the
DAG sound enough to attribute unit-to-unit flow while staying O(1) per
access.

A write with an *empty* window over a tainted node is a cleansing: the
taint is dropped and attributed via the masking taxonomy
(:class:`repro.obs.provenance.MaskingEvent`) using machine context — the
recovery sequencer state and the tail of the event log distinguish
recovery/refill scrubs and ECC corrections from plain overwrites.

Taint granularity is the storage node (whole latch, array word, memory
word), so bit counts here are the *capacity* of infected storage — an
over-approximation of infected bits, consistent across the footprint
series, peak, and residual fields.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import NamedTuple

from repro.isa.memory import Memory
from repro.obs.provenance import MaskingEvent, TaintNodeKind
from repro.rtl.latch import Latch, LatchKind
from repro.rtl.parity import EccStatus

from repro.cpu.events import EventKind
from repro.cpu.pervasive import R_IDLE

_VALUE = Latch.value  # the slot descriptors: storage behind the properties
_PAR = Latch.par

#: The active tracker, consulted by every traced access.  A module
#: global (not thread-local), like ``touchtrace._ACTIVE``: injection
#: drains are single-threaded and worker processes have private state.
_TAINT: TaintTracker | None = None

#: Event kinds that count as "the machine noticed" for detection latency.
DETECTION_KINDS = frozenset({
    EventKind.ERROR_DETECTED,
    EventKind.CORRECTED_LOCAL,
    EventKind.HANG_DETECTED,
    EventKind.CHECKSTOP,
})

_MEMORY_WIDTH = 32  # tainted storage width of one memory / array word


class _NodeMaps(NamedTuple):
    """Display unit/name of every latch and array of a core set, plus
    its architected-state latch keys."""

    latch_unit: dict[int, str]
    latch_name: dict[int, str]
    arch: frozenset[int]
    array_unit: dict[int, str]
    array_name: dict[int, str]


#: Node maps per core, by display prefix.  A core's latches and arrays
#: are fixed at construction, so every tracker over it shares one set of
#: maps instead of rebuilding them (about 0.6 ms on the default core) for
#: each trial.  Weakly keyed: a dropped core takes its maps with it.
_NODE_MAPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _core_maps(core, prefix: str) -> _NodeMaps:
    """``core``'s node maps with every name prefixed by ``prefix``
    (shared; callers must not mutate them)."""
    by_prefix = _NODE_MAPS.setdefault(core, {})
    maps = by_prefix.get(prefix)
    if maps is None:
        latch_unit, latch_name, arch = {}, {}, set()
        for latch in core.all_latches():
            key = id(latch)
            latch_unit[key] = prefix + core.unit_of(latch)
            latch_name[key] = prefix + latch.name
            if latch.kind is LatchKind.REGFILE:
                arch.add(key)
        for latch in (core.idu.cr, core.idu.lr, core.idu.ctr,
                      core.ifu.ifar):
            arch.add(id(latch))
        array_unit, array_name = {}, {}
        for array, unit in ((core.ifu.icache.array, "IFU"),
                            (core.lsu.dcache.array, "LSU"),
                            (core.rut.ckpt, "RUT")):
            array_unit[id(array)] = prefix + unit
            array_name[id(array)] = prefix + array.name
        maps = by_prefix[prefix] = _NodeMaps(
            latch_unit, latch_name, frozenset(arch), array_unit, array_name)
    return maps


def _merged(parts: list[_NodeMaps]) -> _NodeMaps:
    """One map set over several cores (their keys are disjoint)."""
    return _NodeMaps(*(
        frozenset().union(*field) if isinstance(field[0], frozenset)
        else {key: value for part in field for key, value in part.items()}
        for field in zip(*parts)))


def detection_info(events, inject_cycle: int) -> dict | None:
    """First detection event after the INJECTION marker, as payload dict.

    Returns ``{"cycle", "latency", "detector", "kind"}`` or ``None`` when
    the machine never noticed.  The detector is the leading token of the
    event detail (the checker name; recovery context in parentheses is
    dropped).  If the INJECTION marker was evicted from a bounded ring,
    every surviving event is post-injection by construction.
    """
    seen = not any(event.kind is EventKind.INJECTION for event in events)
    for event in events:
        if event.kind is EventKind.INJECTION:
            seen = True
            continue
        if seen and event.kind in DETECTION_KINDS:
            detector = (event.detail.split(" ")[0] if event.detail
                        else event.kind.value)
            return {"cycle": event.cycle,
                    "latency": event.cycle - inject_cycle,
                    "detector": detector,
                    "kind": event.kind.value}
    return None


class TaintTracker:
    """Shadow one injected latch as it propagates through the machine."""

    def __init__(self, cores, seed_latch: Latch, *,
                 max_edges: int = 4096,
                 max_footprint: int = 4096,
                 max_masking: int = 512) -> None:
        self._cores = list(cores)
        self._multi = len(self._cores) > 1
        self._seed_latch = seed_latch
        self._max_edges = max_edges
        self._max_footprint = max_footprint
        self._max_masking = max_masking

        # Node keys: id(latch) for latches, ("a", id(array), index) for
        # array words, ("m", id(memory), word_index) for memory words.
        self._tainted: set = set()
        self._pending: set = set()
        self._index: dict = {}
        self._width: dict = {}
        self.nodes: list[dict] = []
        self.edges: dict[tuple[int, int], list[int]] = {}
        self.edges_dropped = 0
        self.footprint: list[list[int]] = []
        self.footprint_truncated = False
        self.peak_bits = 0
        self._bits = 0
        self.masking: list[dict] = []
        self.masking_counts: dict[str, int] = {}

        # Structure maps: display unit and name per storage object plus
        # the architected-state marker set, shared per core (see
        # ``_core_maps``).  Memory objects are replaced by every program
        # load, so their map is built per tracker (one entry per core).
        prefixes = [f"{core.name}." if self._multi else ""
                    for core in self._cores]
        parts = [_core_maps(core, prefix)
                 for core, prefix in zip(self._cores, prefixes)]
        (self._latch_unit, self._latch_name, self._arch, self._array_unit,
         self._array_name) = parts[0] if len(parts) == 1 else _merged(parts)
        self._mem_unit = {id(core.memory): prefix + "MEM"
                          for core, prefix in zip(self._cores, prefixes)}

        self._current = self._cores[0]
        self._unwrap: list = []
        self._installed = False

    # ------------------------------------------------------------------
    # Install / revert.

    def install(self) -> None:
        global _TAINT
        if _TAINT is not None:
            raise RuntimeError("a TaintTracker is already installed")
        self._attach()
        self._installed = True
        _TAINT = self
        # Node keys are id()s but never leave the process: payload()
        # maps every key to its stable latch/array name before emit.
        self._set_taint(id(self._seed_latch),  # repro-lint: allow[REPRO-D03]
                        self._seed_latch.width)
        self._sample(self._current.cycles)

    def uninstall(self) -> None:
        global _TAINT
        if not self._installed:
            return
        _TAINT = None
        self._installed = False
        self._detach()

    @contextmanager
    def suspended(self):
        """Take the tracker off the machine while the caller inspects or
        rewinds it.

        A digest probe, a snapshot or a golden rung replay reads and
        writes every latch, array and memory word and clocks the core;
        none of it is the trial's value flow.  Inside the window the
        latches and memory are their plain classes again, the arrays
        unwrapped and the ``taint_hook`` unset, so nothing reaches the
        tracker (and the window runs at untraced speed); its state
        (taint set, pending window, DAG, footprint) is exactly what it
        was on entry.
        """
        self._detach()
        try:
            yield
        finally:
            self._attach()

    def _attach(self) -> None:
        """Swap the traced classes, array wrappers and hook in."""
        for core in self._cores:
            for latch in core.all_latches():
                latch.__class__ = _TaintedLatch
            for array in core.arrays():
                self._wrap_array(array)
            core.memory.__class__ = _TaintedMemory
            core.taint_hook = self._on_cycle

    def _detach(self) -> None:
        """Revert everything :meth:`_attach` swapped in."""
        for core in self._cores:
            for latch in core.all_latches():
                latch.__class__ = Latch
            if type(core.memory) is _TaintedMemory:
                core.memory.__class__ = Memory
            core.taint_hook = None
        for array, names in self._unwrap:
            for name in names:
                delattr(array, name)
        self._unwrap.clear()

    def _wrap_array(self, array) -> None:
        aid = id(array)
        is_ecc = hasattr(array, "write_raw")
        orig_read, orig_write = array.read, array.write
        names = ["read", "write"]

        def read(index, _orig=orig_read, _aid=aid):
            result = _orig(index)
            self._on_array_read(_aid, index, result, is_ecc)
            return result

        def write(index, value, _orig=orig_write, _aid=aid):
            self._on_word_write(("a", _aid, index))
            _orig(index, value)

        array.read, array.write = read, write
        if is_ecc:
            orig_raw = array.write_raw

            def write_raw(index, value, check, _orig=orig_raw, _aid=aid):
                self._on_word_write(("a", _aid, index))
                _orig(index, value, check)

            array.write_raw = write_raw
            names.append("write_raw")
        self._unwrap.append((array, names))

    # ------------------------------------------------------------------
    # The per-cycle hook (installed as ``core.taint_hook``).

    def _on_cycle(self, core) -> None:
        self._current = core
        self._pending.clear()
        self._sample(core.cycles)

    def _sample(self, cycle: int) -> None:
        if self.footprint and self.footprint[-1][1] == self._bits:
            return
        if len(self.footprint) >= self._max_footprint:
            self.footprint_truncated = True
            return
        self.footprint.append([cycle, self._bits])

    # ------------------------------------------------------------------
    # Taint state transitions.

    def _node_id(self, key) -> int:
        nid = self._index.get(key)
        if nid is None:
            nid = len(self.nodes)
            self._index[key] = nid
            self.nodes.append(self._describe(key))
        return nid

    def _describe(self, key) -> dict:
        if isinstance(key, int):
            return {"name": self._latch_name[key],
                    "unit": self._latch_unit[key],
                    "kind": TaintNodeKind.LATCH.value,
                    "arch": key in self._arch}
        tag, oid, index = key
        if tag == "a":
            return {"name": f"{self._array_name[oid]}[{index}]",
                    "unit": self._array_unit[oid],
                    "kind": TaintNodeKind.ARRAY.value,
                    "arch": False}
        return {"name": f"mem[0x{index << 2:08x}]",
                "unit": self._mem_unit[oid],
                "kind": TaintNodeKind.MEMORY.value,
                "arch": True}

    def _set_taint(self, key, width: int | None = None) -> None:
        if key in self._tainted:
            return
        if width is None:
            width = _MEMORY_WIDTH if isinstance(key, tuple) else 1
        self._width[key] = width
        self._tainted.add(key)
        self._bits += width
        self._node_id(key)
        if self._bits > self.peak_bits:
            self.peak_bits = self._bits

    def _clear_taint(self, key, cause: str) -> None:
        self._tainted.discard(key)
        self._pending.discard(key)
        self._bits -= self._width.get(key, 1)
        if len(self.masking) < self._max_masking:
            self.masking.append({"cycle": self._current.cycles,
                                 "node": self._node_id(key),
                                 "cause": cause})
        self.masking_counts[cause] = self.masking_counts.get(cause, 0) + 1

    def _infect(self, dst_key, width: int) -> None:
        """A write consumed a non-empty pending window: propagate."""
        pending = self._pending
        if pending == {dst_key}:
            # Self-loop only: a sticky re-assert keeps the taint, but a
            # correction event this cycle means a checker-driven refill
            # just replaced the word from a clean source.
            cause = self._correction_cause()
            if cause is not None:
                self._clear_taint(dst_key, cause)
            pending.clear()
            return
        dst = self._node_id(dst_key)
        cycle = self._current.cycles
        for src_key in pending:
            src = self._node_id(src_key)
            if src == dst:
                continue
            record = self.edges.get((src, dst))
            if record is not None:
                record[1] += 1
            elif len(self.edges) < self._max_edges:
                self.edges[(src, dst)] = [cycle, 1]
            else:
                self.edges_dropped += 1
        pending.clear()
        self._set_taint(dst_key, width)

    def _correction_cause(self) -> str | None:
        """Masking cause when a correction/recovery context is active."""
        core = self._current
        if _VALUE.__get__(core.pervasive.rstate) != R_IDLE:
            return MaskingEvent.PARITY_SCRUBBED.value
        events = core.event_log.events
        if events:
            last = events[-1]
            if (last.cycle == core.cycles
                    and last.kind is EventKind.CORRECTED_LOCAL):
                return (MaskingEvent.ECC_CORRECTED.value
                        if "ECC" in last.detail
                        else MaskingEvent.PARITY_SCRUBBED.value)
        return None

    def _mask_cause(self) -> str:
        return self._correction_cause() or MaskingEvent.OVERWRITTEN.value

    # ------------------------------------------------------------------
    # Access callbacks (hot: one dict probe on the clean path).

    def _on_latch_read(self, latch) -> None:
        key = id(latch)
        if key in self._tainted:
            self._pending.add(key)

    def _on_latch_write(self, latch) -> None:
        key = id(latch)
        if self._pending:
            self._infect(key, latch.width)
        elif key in self._tainted:
            self._clear_taint(key, self._mask_cause())

    def _on_word_write(self, key) -> None:
        if self._pending:
            self._infect(key, _MEMORY_WIDTH)
        elif key in self._tainted:
            self._clear_taint(key, self._mask_cause())

    def _on_array_read(self, aid, index, result, is_ecc: bool) -> None:
        key = ("a", aid, index)
        if key not in self._tainted:
            return
        if is_ecc and result[1] is EccStatus.CORRECTED:
            # The read itself scrubbed the array word clean.
            self._clear_taint(key, MaskingEvent.ECC_CORRECTED.value)
            return
        self._pending.add(key)

    def _on_memory_read(self, memory, addr: int) -> None:
        key = ("m", id(memory), addr >> 2)
        if key in self._tainted:
            self._pending.add(key)

    def _on_par_read(self, latch) -> None:
        """A checker consulted the parity shadow (``Latch.parity_ok``).

        Provenance-wise a parity consult is just another read of the
        latch, so the default delegates; the structural extractor
        overrides this to record protection-coverage evidence (which
        protected latches actually have their shadow checked)."""
        self._on_latch_read(latch)

    def _on_memory_write(self, memory, addr: int) -> None:
        self._on_word_write(("m", id(memory), addr >> 2))

    def _reseed(self, latch) -> None:
        """A fault-model write re-asserted this latch: it is infected
        again even if functional logic cleansed it since (sticky holds
        run at every cycle boundary for the fault's lifetime)."""
        # Same identity-key discipline as install(): the id never
        # leaves the process, payload() resolves it to a stable name.
        self._set_taint(id(latch),  # repro-lint: allow[REPRO-D03]
                        latch.width)

    # ------------------------------------------------------------------
    # Result extraction.

    def residual_bits(self) -> int:
        return self._bits

    def tainted_latches(self) -> list[int] | None:
        """Identity keys (``id(latch)``) of the tainted latches, or None
        while any array or memory word is tainted."""
        keys = list(self._tainted)
        if not all(isinstance(key, int) for key in keys):
            return None
        return keys

    def settle_inert(self, cycle: int) -> None:
        """End tracking at ``cycle``, where the caller has proved the
        taint inert: nothing tainted is read or written again, so the
        payload is final except for the footprint sample the next
        cycle boundary's hook takes (a change made during ``cycle``
        shows up there).  Take that sample now, stamped ``cycle + 1``.
        """
        self._sample(cycle + 1)

    def payload(self) -> dict:
        """The per-injection provenance payload (plain JSON-ready dict)."""
        self._sample(self._current.cycles)
        cross = 0
        if self._multi:
            for (src, dst), (_cycle, count) in self.edges.items():
                src_core = self.nodes[src]["unit"].split(".", 1)[0]
                dst_core = self.nodes[dst]["unit"].split(".", 1)[0]
                if src_core != dst_core:
                    cross += count
        return {
            "nodes": list(self.nodes),
            "edges": sorted(
                [src, dst, cycle, count]
                for (src, dst), (cycle, count) in self.edges.items()),
            "edges_dropped": self.edges_dropped,
            "footprint": [list(point) for point in self.footprint],
            "footprint_truncated": self.footprint_truncated,
            "peak_bits": self.peak_bits,
            "masking": list(self.masking),
            "masking_counts": dict(sorted(self.masking_counts.items())),
            "residual_tainted": self._bits,
            "cross_core_edges": cross,
        }


class _TaintedLatch(Latch):
    """Layout-compatible :class:`Latch` with taint-tracked state access."""

    __slots__ = ()

    @property
    def value(self) -> int:
        tracker = _TAINT
        if tracker is not None:
            tracker._on_latch_read(self)
        return _VALUE.__get__(self)

    @value.setter
    def value(self, new: int) -> None:
        tracker = _TAINT
        if tracker is not None:
            tracker._on_latch_write(self)
        _VALUE.__set__(self, new)

    def flip(self, bit: int) -> None:
        # Fault-model accessor, not functional dataflow: mutate the slot
        # directly (no read/write callbacks — a flip is not a value flow)
        # and mark the latch infected.
        if not 0 <= bit < self.width:
            raise ValueError(f"latch {self.name!r}: bit {bit} out of range")
        _VALUE.__set__(self, _VALUE.__get__(self) ^ (1 << bit))
        tracker = _TAINT
        if tracker is not None:
            tracker._reseed(self)

    def force_bit(self, bit: int, level: int) -> None:
        # Sticky holds land here every cycle boundary: the fault keeps
        # the latch infected even after a functional overwrite cleansed
        # it, so re-seed the taint alongside the raw bit update.
        value = _VALUE.__get__(self)
        if level:
            value |= 1 << bit
        else:
            value &= ~(1 << bit) & self.mask
        _VALUE.__set__(self, value)
        tracker = _TAINT
        if tracker is not None:
            tracker._reseed(self)

    @property
    def par(self) -> int:
        tracker = _TAINT
        if tracker is not None:
            tracker._on_par_read(self)
        return _PAR.__get__(self)

    @par.setter
    def par(self, new: int) -> None:
        # ``Latch.write`` updates value then par; the value setter already
        # consumed the window, so the shadow update is deliberately inert
        # (a consume here would mis-attribute an "overwritten" untaint).
        _PAR.__set__(self, new)


class _TaintedMemory(Memory):
    """Layout-compatible :class:`Memory` with taint-tracked word access."""

    __slots__ = ()

    def load_word(self, addr: int) -> int:
        value = Memory.load_word(self, addr)
        tracker = _TAINT
        if tracker is not None:
            tracker._on_memory_read(self, addr)
        return value

    def store_word(self, addr: int, value: int) -> None:
        tracker = _TAINT
        if tracker is not None:
            tracker._on_memory_write(self, addr)
        Memory.store_word(self, addr, value)

    def load_byte(self, addr: int) -> int:
        value = Memory.load_byte(self, addr)
        tracker = _TAINT
        if tracker is not None:
            tracker._on_memory_read(self, addr)
        return value

    def store_byte(self, addr: int, value: int) -> None:
        tracker = _TAINT
        if tracker is not None:
            tracker._on_memory_write(self, addr)
        Memory.store_byte(self, addr, value)


@contextmanager
def taint_trace(core, seed_latch: Latch, **options):
    """Track ``seed_latch``'s taint through one core until exit.

    Install *after* the injection flip (so the flip itself is not traced)
    and exit before classification (so golden-state comparison reads are
    untracked).  Yields the :class:`TaintTracker`.
    """
    tracker = TaintTracker([core], seed_latch, **options)
    tracker.install()
    try:
        yield tracker
    finally:
        tracker.uninstall()


@contextmanager
def taint_trace_chip(chip, seed_latch: Latch, **options):
    """Track taint across every core of a chip (isolation edges show up
    as cross-core unit pairs, counted in ``cross_core_edges``)."""
    tracker = TaintTracker(list(chip.cores), seed_latch, **options)
    tracker.install()
    try:
        yield tracker
    finally:
        tracker.uninstall()
