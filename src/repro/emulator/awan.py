"""The Awan hardware-emulation engine (modelled).

Awan is IBM's programmable acceleration engine: the design's VHDL is
compiled onto a network of Boolean-function processors and evaluated in a
cycle-based paradigm.  This module models the engine's *interface and
throughput characteristics*: model load, flat latch addressability,
checkpoint save/reload, cycle-batched execution, sticky/toggle fault
forcing, and an accounting of engine time versus host-communication time
(the paper notes throughput is dominated by host interaction, which the
SFI methodology minimises).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.cpu.core import CoreSnapshot, Power6Core
from repro.cpu.events import EventKind
from repro.rtl.fault import FaultSite, InjectionMode

from repro.emulator.netlist import LatchMap

#: Modelled engine throughput (machine cycles per second of engine time).
#: Awan-class accelerators run in the 100k-1M cycle/s range.
AWAN_CYCLES_PER_SECOND = 500_000.0

#: Modelled cost of one host<->engine interaction, seconds.  Each batched
#: latch access or status poll pays this once.
HOST_INTERACTION_SECONDS = 0.002


@dataclass
class EngineStats:
    """Accounting of where emulation time goes."""

    cycles_run: int = 0
    host_interactions: int = 0
    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0
    injections: int = 0
    # Checkpoint-ladder accounting (the fast path's replay cache).
    rungs_saved: int = 0
    ladder_hits: int = 0
    ladder_misses: int = 0
    cycles_skipped: int = 0

    @property
    def engine_seconds(self) -> float:
        return self.cycles_run / AWAN_CYCLES_PER_SECOND

    @property
    def host_seconds(self) -> float:
        return self.host_interactions * HOST_INTERACTION_SECONDS

    @property
    def total_seconds(self) -> float:
        return self.engine_seconds + self.host_seconds


@dataclass
class _StickyFault:
    site: FaultSite
    level: int
    remaining: int


class AwanEmulator:
    """A loaded model plus the engine-side execution machinery."""

    def __init__(self, core: Power6Core) -> None:
        self.core = core
        self.latch_map = LatchMap(core)
        self.stats = EngineStats()
        self._checkpoints: dict[str, CoreSnapshot] = {}
        # Checkpoint ladder: each checkpoint's mid-execution snapshots by
        # cycle, and those cycles in ascending order for the bisect.
        # Every rung is kept: a campaign saves rungs only while it
        # prepares, so its stride, not a cap, bounds their memory.
        self._ladder: dict[str, dict[int, CoreSnapshot]] = {}
        self._rung_cycles: dict[str, list[int]] = {}
        self._sticky: list[_StickyFault] = []

    # ------------------------------------------------------------------
    # Model control.

    def checkpoint(self, name: str = "default") -> None:
        """Save the full model state under ``name``."""
        self._checkpoints[name] = self.core.snapshot()
        self.stats.checkpoints_saved += 1
        self.stats.host_interactions += 1

    def reload(self, name: str = "default") -> None:
        """Reload a previously saved checkpoint (between injections)."""
        self.core.restore(self._checkpoints[name])
        self._sticky.clear()
        self.stats.checkpoints_loaded += 1
        self.stats.host_interactions += 1

    def has_checkpoint(self, name: str = "default") -> bool:
        return name in self._checkpoints

    def saved_states(self) -> tuple[dict[str, CoreSnapshot],
                                    dict[str, dict[int, CoreSnapshot]]]:
        """Every saved model state: the checkpoints by name, and the
        ladder's rungs by checkpoint name and cycle."""
        return dict(self._checkpoints), {
            name: dict(rungs) for name, rungs in self._ladder.items()}

    def load_saved_states(self, checkpoints: dict[str, CoreSnapshot],
                          rungs: dict[str, dict[int, CoreSnapshot]]) -> None:
        """Replace every saved model state with ``checkpoints`` and
        ``rungs``, as :meth:`saved_states` returns them (possibly from
        another engine of the same model)."""
        self._checkpoints = dict(checkpoints)
        self._ladder = {name: dict(by_cycle)
                        for name, by_cycle in rungs.items()}
        self._rung_cycles = {name: sorted(by_cycle)
                             for name, by_cycle in rungs.items()}

    # ------------------------------------------------------------------
    # Checkpoint ladder (fast-path replay cache).

    @property
    def sticky_pending(self) -> bool:
        """True while a sticky fault is still being re-asserted."""
        return bool(self._sticky)

    def rung_count(self, name: str | None = None) -> int:
        if name is None:
            return sum(len(rungs) for rungs in self._ladder.values())
        return len(self._ladder.get(name, ()))

    def save_rung(self, name: str) -> None:
        """Snapshot the current (mid-execution) state as a ladder rung
        for checkpoint ``name`` at the current cycle."""
        cycle = self.core.cycles
        rungs = self._ladder.setdefault(name, {})
        if cycle not in rungs:
            insort(self._rung_cycles.setdefault(name, []), cycle)
        rungs[cycle] = self.core.snapshot()
        self.stats.rungs_saved += 1
        self.stats.host_interactions += 1

    def rung(self, name: str, cycle: int) -> CoreSnapshot | None:
        """The rung of ``name`` saved at exactly ``cycle``, or None.  A
        lookup for comparison, not a restore."""
        return self._ladder.get(name, {}).get(cycle)

    def restore_nearest(self, name: str, cycle: int) -> int:
        """Restore the highest rung of ``name`` at or below ``cycle``
        (falling back to the base checkpoint); returns the restored
        cycle so the caller fast-forwards only the remainder."""
        cycles = self._rung_cycles.get(name, ())
        index = bisect_right(cycles, cycle)
        if not index:
            self.stats.ladder_misses += 1
            self.reload(name)
            return self.core.cycles
        best = cycles[index - 1]
        self.core.restore(self._ladder[name][best])
        self._sticky.clear()
        self.stats.ladder_hits += 1
        self.stats.cycles_skipped += best
        self.stats.checkpoints_loaded += 1
        self.stats.host_interactions += 1
        return best

    # ------------------------------------------------------------------
    # Clocking.

    def clock(self, cycles: int) -> int:
        """Run the engine for up to ``cycles`` machine cycles.

        Stops early when the model quiesces (halt, hang or checkstop) so
        callers don't burn engine time on a dead machine.  Returns cycles
        actually run.
        """
        core = self.core
        run = 0
        if self._sticky:
            for _ in range(cycles):
                core.cycle()
                run += 1
                self._hold_sticky()
                if core.quiesced:
                    break
        else:
            for _ in range(cycles):
                core.cycle()
                run += 1
                if core.quiesced:
                    break
        self.stats.cycles_run += run
        return run

    def _hold_sticky(self) -> None:
        still_active = []
        for fault in self._sticky:
            fault.site.hold(fault.level)
            fault.remaining -= 1
            if fault.remaining > 0:
                still_active.append(fault)
        self._sticky = still_active

    # ------------------------------------------------------------------
    # Fault forcing.

    def inject(self, site_index: int, mode: InjectionMode = InjectionMode.TOGGLE,
               sticky_cycles: int = 16) -> FaultSite:
        """Flip one latch bit at the current cycle boundary.

        TOGGLE flips once; STICKY re-asserts the flipped level for
        ``sticky_cycles`` cycles even if functional logic rewrites it.
        """
        site = self.latch_map.site(site_index)
        level = site.inject()
        self.core.event_log.record(
            self.core.cycles, EventKind.INJECTION,
            f"{site.name} -> {level} ({mode.value})")
        if mode is InjectionMode.STICKY:
            self._sticky.append(_StickyFault(site, level, sticky_cycles))
        self.stats.injections += 1
        self.stats.host_interactions += 1
        return site

    # ------------------------------------------------------------------
    # Observability (each read is one host interaction).

    def read_status(self) -> dict:
        """Poll the system/processor status registers the paper monitors."""
        core = self.core
        perv = core.pervasive
        self.stats.host_interactions += 1
        return {
            "halted": core.halted,
            "quiesced": core.quiesced,
            "checkstop": bool(perv.xstop.value),
            "hang": bool(perv.hang.value),
            "fir_rec": perv.fir_rec.value,
            "fir_xstop": perv.fir_xstop.value,
            "fir_info": perv.fir_info.value,
            "recoveries": perv.rec_count.value,
            "corrected": perv.corrected_ctr.value,
            "cycles": core.cycles,
            "committed": core.committed,
        }

    def read_latch(self, name: str) -> int:
        """Read one latch by hierarchical name (scan access)."""
        self.stats.host_interactions += 1
        index = self.latch_map.index_of(name + ".0")
        return self.latch_map.latch_of(index).value
