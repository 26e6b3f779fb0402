"""Taint propagation tracing: the fault-provenance capture layer.

One injected bit flip either dies (overwritten, scrubbed, corrected,
architecturally dead) or travels — latch to latch, into an SRAM array,
out to memory, into architected state.  :class:`TaintTracker` shadows
that journey for one injection as a ``words`` recorder on the latch
access layer (:mod:`repro.cpu.access`): it sees every latch, SRAM array
and memory word access and every cycle boundary of the traced cores.

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
from typing import NamedTuple

from repro.obs.provenance import MaskingEvent, TaintNodeKind
from repro.rtl.latch import Latch, LatchKind
from repro.rtl.parity import EccStatus

from repro.cpu.access import Recorder, trace, watch
from repro.cpu.events import EventKind, first_detection
from repro.cpu.pervasive import R_IDLE

_VALUE = Latch.value  # the slot descriptor: storage behind the property

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
    """:func:`~repro.cpu.events.first_detection` as the payload dict
    ``{"cycle", "latency", "detector", "kind"}``, or None.  The detector
    is the leading token of the event detail (the checker name; recovery
    context in parentheses is dropped)."""
    event = first_detection(events)
    if event is None:
        return None
    return {"cycle": event.cycle,
            "latency": event.cycle - inject_cycle,
            "detector": (event.detail.split(" ")[0] if event.detail
                         else event.kind.value),
            "kind": event.kind.value}


class TaintTracker(Recorder):
    """Shadow one injected latch as it propagates through the machine.

    Trace it with :func:`repro.cpu.access.trace` (or :func:`taint_trace`)
    after the injection flip: the seed latch is tainted from
    construction on, and the flip itself is the DAG root, not an edge.
    The first footprint sample is stamped ``cycle`` (default: the first
    core's current cycle, the inject cycle when built at the flip).

    A read of a clean latch changes nothing, so the tracker watches the
    reads of exactly its tainted latches (:meth:`watched_reads`): taint
    and cleansing switch a latch's reads on and off
    (:func:`repro.cpu.access.watch`), and every other latch reads at
    plain-latch cost.
    """

    words = True

    def __init__(self, cores, seed_latch: Latch, *,
                 cycle: int | None = None,
                 max_edges: int = 4096,
                 max_footprint: int = 4096,
                 max_masking: int = 512) -> None:
        self._cores = list(cores)
        self._multi = len(self._cores) > 1
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
        # Node keys are id()s but never leave the process: payload()
        # maps every key to its stable latch/array name before emit.
        self._set_taint(id(seed_latch),  # repro-lint: allow[REPRO-D03]
                        seed_latch.width, seed_latch)
        self._sample(self._current.cycles if cycle is None else cycle)

    # ------------------------------------------------------------------
    # The per-cycle hook (installed as ``core.taint_hook``).

    def cycle(self, core) -> None:
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

    def watched_reads(self) -> set:
        """The tainted nodes' keys: the latch ones are the latches whose
        reads can move taint."""
        return self._tainted

    def _set_taint(self, key, width: int | None = None,
                   latch: Latch | None = None) -> None:
        """Taint ``key``; ``latch`` is the latch it names, if any, whose
        reads are watched from now on."""
        if key in self._tainted:
            return
        if width is None:
            width = _MEMORY_WIDTH if isinstance(key, tuple) else 1
        self._width[key] = width
        self._tainted.add(key)
        if latch is not None:
            watch(self, latch, True)
        self._bits += width
        self._node_id(key)
        if self._bits > self.peak_bits:
            self.peak_bits = self._bits

    def _clear_taint(self, key, cause: str,
                     latch: Latch | None = None) -> None:
        """Cleanse ``key``; ``latch`` is the latch it names, if any,
        whose reads are no longer watched."""
        self._tainted.discard(key)
        if latch is not None:
            watch(self, latch, False)
        self._pending.discard(key)
        self._bits -= self._width.get(key, 1)
        if len(self.masking) < self._max_masking:
            self.masking.append({"cycle": self._current.cycles,
                                 "node": self._node_id(key),
                                 "cause": cause})
        self.masking_counts[cause] = self.masking_counts.get(cause, 0) + 1

    def _infect(self, dst_key, width: int,
                latch: Latch | None = None) -> None:
        """A write consumed a non-empty pending window: propagate (into
        ``latch``, when the destination is one)."""
        pending = self._pending
        if pending == {dst_key}:
            # Self-loop only: a sticky re-assert keeps the taint, but a
            # correction event this cycle means a checker-driven refill
            # just replaced the word from a clean source.
            cause = self._correction_cause()
            if cause is not None:
                self._clear_taint(dst_key, cause, latch)
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
        self._set_taint(dst_key, width, latch)

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
    # Access events (hot: one set probe on the clean path).

    def read_value(self, latch: Latch) -> None:
        # Only tainted latches' reads are watched, so this one is.
        self._pending.add(id(latch))

    def write_value(self, latch: Latch, new: int) -> None:
        key = id(latch)
        if self._pending:
            self._infect(key, latch.width, latch)
        elif key in self._tainted:
            self._clear_taint(key, self._mask_cause(), latch)

    def read_par(self, latch: Latch) -> None:
        """A checker consulted the parity shadow (``Latch.parity_ok``).

        Provenance-wise a parity consult is just another read of the
        latch, so the default delegates; the structural extractor
        overrides this to record protection-coverage evidence (which
        protected latches actually have their shadow checked)."""
        self.read_value(latch)

    # ``write_par`` stays inert: ``Latch.write`` updates value then
    # par, and the value write already consumed the window, so a consume
    # here would mis-attribute an "overwritten" untaint.

    def flip(self, latch: Latch, bit: int) -> None:
        # Fault-model accessor, not functional dataflow: mutate the slot
        # directly (no read/write events: a flip is not a value flow)
        # and mark the latch infected.
        if not 0 <= bit < latch.width:
            raise ValueError(f"latch {latch.name!r}: bit {bit} out of range")
        _VALUE.__set__(latch, _VALUE.__get__(latch) ^ (1 << bit))
        self._reseed(latch)

    def force_bit(self, latch: Latch, bit: int, level: int) -> None:
        # Sticky holds land here every cycle boundary: the fault keeps
        # the latch infected even after a functional overwrite cleansed
        # it, so re-seed the taint alongside the raw bit update.
        value = _VALUE.__get__(latch)
        if level:
            value |= 1 << bit
        else:
            value &= ~(1 << bit) & latch.mask
        _VALUE.__set__(latch, value)
        self._reseed(latch)

    def read_array(self, array, index: int, result) -> None:
        key = ("a", id(array), index)
        if key not in self._tainted:
            return
        if result[1] is EccStatus.CORRECTED:
            # The ECC read itself scrubbed the array word clean.
            self._clear_taint(key, MaskingEvent.ECC_CORRECTED.value)
            return
        self._pending.add(key)

    def write_array(self, array, index: int) -> None:
        self._on_word_write(("a", id(array), index))

    def read_word(self, memory, addr: int) -> None:
        key = ("m", id(memory), addr >> 2)
        if key in self._tainted:
            self._pending.add(key)

    def write_word(self, memory, addr: int) -> None:
        self._on_word_write(("m", id(memory), addr >> 2))

    def _on_word_write(self, key) -> None:
        if self._pending:
            self._infect(key, _MEMORY_WIDTH)
        elif key in self._tainted:
            self._clear_taint(key, self._mask_cause())

    def _reseed(self, latch: Latch) -> None:
        """A fault-model write re-asserted this latch: it is infected
        again even if functional logic cleansed it since (sticky holds
        run at every cycle boundary for the fault's lifetime)."""
        # Same identity-key discipline as the seed in __init__: the id
        # never leaves the process, payload() resolves it to a name.
        self._set_taint(id(latch),  # repro-lint: allow[REPRO-D03]
                        latch.width, latch)

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


def taint_trace(core, seed_latch: Latch, **options):
    """Track ``seed_latch``'s taint through one core until exit.

    Enter *after* the injection flip (so the flip itself is not traced)
    and exit before classification (so golden-state comparison reads are
    untracked).  Yields the :class:`TaintTracker`.
    """
    return trace([core], TaintTracker([core], seed_latch, **options))
