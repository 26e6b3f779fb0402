"""The P6-lite core: unit wiring, the cycle loop, and state management.

``Power6Core`` glues the units together, provides the per-cycle evaluation
order (commit → execute → decode → fetch, the standard reverse-order trick
for synchronous designs), the error-reporting entry points the units call,
and full-state snapshot/restore used by the emulator's checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.iss import ArchState
from repro.isa.memory import Memory
from repro.isa.program import Program
from repro.rtl.latch import Latch
from repro.rtl.scanchain import ScanRing, build_rings

from repro.cpu.checkers import Checker
from repro.cpu.fpu import Fpu
from repro.cpu.fxu import Fxu
from repro.cpu.idu import Idu
from repro.cpu.ifu import Ifu
from repro.cpu.lsu import Lsu
from repro.cpu.params import CoreParams
from repro.cpu.pervasive import R_IDLE, Pervasive
from repro.cpu.events import EventKind, EventLog
from repro.cpu.nest import Nest
from repro.cpu.regfile import RegisterFile
from repro.cpu.rut import CKPT_CR, CKPT_CTR, CKPT_LR, CKPT_PC, Rut


@dataclass
class CoreSnapshot:
    """Complete machine state captured at a cycle boundary."""

    latches: list[tuple[int, int]]
    memory: dict[int, int]
    arrays: list
    cycles: int
    halted: bool
    commits_prev: int
    committed: int
    events: tuple = ((), 0)


class Power6Core:
    """One core of the modelled chip."""

    def __init__(self, params: CoreParams | None = None, name: str = "core0") -> None:
        self.params = params or CoreParams()
        self.name = name
        self.memory = Memory()
        self.cycles = 0
        self.halted = False
        self.commits_this_cycle = 0
        self.commits_prev = 0
        self.committed = 0
        self.event_log = EventLog()
        # Sampled observability hook: when set (repro.obs.CoreProfiler),
        # called every `profile_interval` cycles.  Costs one attribute
        # load + None check per cycle when unset.
        self.profile_hook = None
        self.profile_interval = 2048
        # Per-cycle provenance hook: set by repro.cpu.access.trace for a
        # recorder that traces words (the taint tracker), it marks the
        # cycle boundary for the taint pending window.  Unlike
        # profile_hook it must fire every cycle, so provenance-enabled
        # trials pay the call; unset it is the same load + None check.
        self.taint_hook = None

        self.pervasive = Pervasive(self, self.params)
        self.rut = Rut(self, self.params)
        self.ifu = Ifu(self, self.params)
        self.idu = Idu(self, self.params)
        self.fxu = Fxu(self, self.params)
        self.fpu = Fpu(self, self.params)
        self.lsu = Lsu(self, self.params)
        self.units = {
            "IFU": self.ifu, "IDU": self.idu, "FXU": self.fxu,
            "FPU": self.fpu, "LSU": self.lsu, "RUT": self.rut,
            "CORE": self.pervasive,
        }
        self.nest = None
        if self.params.include_nest:
            self.nest = Nest(self, self.params)
            self.units["NEST"] = self.nest
        # Architected register files span two physical copies each: the
        # execution-cluster copy and the load/store-cluster copy.
        self.gprs = RegisterFile([self.fxu.gpr_exec, self.lsu.gpr_ls])
        self.fprs = RegisterFile([self.fpu.fpr_exec, self.lsu.fpr_ls])
        self._all_latches: list[Latch] = []
        self._unit_of_latch: dict[int, str] = {}
        for unit_name, unit in self.units.items():
            for latch in unit.all_latches():
                self._all_latches.append(latch)
                self._unit_of_latch[id(latch)] = unit_name
        self._arrays = [self.ifu.icache.array, self.lsu.dcache.array,
                        self.rut.ckpt]

    # ------------------------------------------------------------------
    # Structure queries (used by the emulator and the SFI framework).

    def all_latches(self) -> list[Latch]:
        return list(self._all_latches)

    def unit_of(self, latch: Latch) -> str:
        return self._unit_of_latch[id(latch)]

    def latch_bits(self) -> int:
        return sum(latch.width for latch in self._all_latches)

    def scan_rings(self) -> dict[str, ScanRing]:
        return build_rings(self._all_latches)

    def arrays(self) -> list:
        return list(self._arrays)

    # ------------------------------------------------------------------
    # Error-reporting fabric (units call these).

    def raise_error(self, checker: Checker) -> bool:
        """Report a detected error; True means the caller aborts the op."""
        return self.pervasive.report_error(checker)

    def raise_corrected(self, checker: Checker) -> bool:
        """Report a locally corrected error (no recovery sequence)."""
        return self.pervasive.report_corrected(checker)

    def note_commit(self) -> None:
        self.commits_this_cycle += 1
        self.committed += 1
        self.pervasive.rec_since_commit.write(0)

    def halt(self) -> None:
        if not self.halted:
            self.event_log.record(self.cycles, EventKind.HALT,
                                  f"after {self.committed} instructions")
        self.halted = True

    # ------------------------------------------------------------------
    # Status queries for outcome classification.

    @property
    def checkstopped(self) -> bool:
        return bool(self.pervasive.xstop.value)

    @property
    def hung(self) -> bool:
        return bool(self.pervasive.hang.value)

    @property
    def recovery_count(self) -> int:
        return self.pervasive.rec_count.value

    @property
    def corrected_count(self) -> int:
        return self.pervasive.corrected_ctr.value

    def error_free(self) -> bool:
        """True when no checker has ever fired (for baseline validation)."""
        perv = self.pervasive
        return not (perv.fir_rec.value or perv.fir_xstop.value
                    or perv.fir_info.value or perv.xstop.value
                    or perv.hang.value)

    # ------------------------------------------------------------------
    # Program loading and execution.

    def load_program(self, program: Program) -> None:
        """Reset the machine and install a program image."""
        for unit in self.units.values():
            unit.reset_latches()
        for array in self._arrays:
            if hasattr(array, "clear"):
                array.clear()
        self.memory = Memory()
        self.memory.load_program(program.words, program.base)
        for addr, value in program.data.items():
            self.memory.store_word(addr, value)
        entry = program.entry if program.entry is not None else program.base
        self.ifu.redirect(entry)
        self.rut.init_checkpoint(entry)
        self.cycles = 0
        self.halted = False
        self.commits_this_cycle = 0
        self.commits_prev = 0
        self.committed = 0
        self.event_log.clear()

    def cycle(self) -> None:
        """Advance the machine by one clock."""
        self.cycles += 1
        self.commits_this_cycle = 0
        hook = self.profile_hook
        if hook is not None and self.cycles % self.profile_interval == 0:
            hook(self)
        hook = self.taint_hook
        if hook is not None:
            hook(self)
        perv = self.pervasive
        perv.cycle()
        if perv.xstop.value:
            self.commits_prev = 0
            return
        if perv.rstate.value != R_IDLE:
            # Pipeline frozen during recovery; committed stores still drain.
            self.lsu.drain()
            self.commits_prev = 0
            return
        if self.nest is not None:
            self.nest.cycle()
        self.rut.commit_cycle()
        if not self.halted:
            self.fxu.cycle()
            self.fpu.cycle()
            self.lsu.cycle()
            self.idu.cycle()
            self.ifu.cycle()
        self.lsu.drain()
        self.rut.scrub_cycle()
        self.commits_prev = self.commits_this_cycle

    @property
    def quiesced(self) -> bool:
        """Nothing further can happen: halted with all stores drained, or a
        terminal error state was reached."""
        # Polled after every cycle, so it reads the latches itself; traces
        # record this order: nest, xstop, hang, sq_valid, cmt_val.
        nest = self.nest
        nest_idle = nest.quiesced() if nest is not None else True
        perv = self.pervasive
        if perv.xstop.value or perv.hang.value:
            return True
        return bool(self.halted and not self.lsu.sq_valid.value
                    and nest_idle and not self.rut.cmt_val.value)

    def run(self, max_cycles: int = 100_000) -> int:
        """Run until the machine quiesces; returns cycles consumed."""
        start = self.cycles
        while not self.quiesced and self.cycles - start < max_cycles:
            self.cycle()
        return self.cycles - start

    # ------------------------------------------------------------------
    # Architected-state access.

    def arch_state(self) -> ArchState:
        state = ArchState(
            gprs=self.gprs.values(),
            fprs=self.fprs.values(),
            cr=self.idu.cr.value,
            lr=self.idu.lr.value,
            ctr=self.idu.ctr.value,
            pc=self.ifu.ifar.value,
            halted=self.halted,
        )
        return state

    def checkpoint_state(self) -> ArchState:
        """Architected state as recorded in the RUT checkpoint."""
        ckpt = self.rut.ckpt
        return ArchState(
            gprs=[ckpt.data[i] for i in range(32)],
            fprs=[ckpt.data[32 + i] for i in range(32)],
            cr=ckpt.data[CKPT_CR],
            lr=ckpt.data[CKPT_LR],
            ctr=ckpt.data[CKPT_CTR],
            pc=ckpt.data[CKPT_PC],
            halted=self.halted,
        )

    # ------------------------------------------------------------------
    # State fingerprint and exact comparison (the drain's rung check).

    def state_digest(self) -> int:
        """Order-stable digest of the complete *machine* state.

        Covers everything that determines future behaviour — every latch
        value and parity shadow, memory (the set of nonzero words, so
        write order and dead zero-stores cannot desynchronise equal
        states), SRAM array contents, cycle/halt/commit bookkeeping — and
        deliberately excludes the event log, which is observational: two
        runs whose digests match evolve identically from here even though
        their logs differ (the injected run carries an INJECTION event).

        The value is a built-in ``hash()`` over ints, bools, tuples and a
        frozenset of int pairs only, which every process of one
        interpreter build hashes alike (no ``str``, whose hash is salted
        per process, and no ``None``, whose hash is address-based on
        3.10 and 3.11); it is never persisted.  Its sections are read
        straight from the live state — no snapshot copies, no sort.  No
        campaign path calls it: a draining trial compares itself with a
        golden rung exactly (:meth:`same_state`).  It stays for the
        snapshot tests and for ``perfbench``, whose traced rounds wrap
        it by name.
        """
        latches = self._all_latches
        return hash((
            self.cycles, self.halted, self.commits_prev, self.committed,
            tuple([latch.value for latch in latches]),
            tuple([latch.par for latch in latches]),
            self.memory.nonzero_items(),
            tuple([tuple(part) for array in self._arrays
                   for part in array.contents()]),
        ))

    def same_state(self, snap: CoreSnapshot) -> bool:
        """Does the live machine equal ``snap`` on everything that
        determines its future (everything :meth:`state_digest` covers:
        the event log, which is observational, is left out)?  Exact,
        and it stops at the first differing field.  A fast-path drain
        compares the trial with a golden ladder rung this way at every
        rung boundary, and exits early on a match."""
        if (self.cycles, self.halted, self.commits_prev, self.committed) != \
                (snap.cycles, snap.halted, snap.commits_prev, snap.committed):
            return False
        for latch, saved in zip(self._all_latches, snap.latches):
            if (latch.value, latch.par) != saved:
                return False
        if self.memory.nonzero_words() != \
                {index: word for index, word in snap.memory.items() if word}:
            return False
        return all(tuple(array.contents()) == tuple(saved)
                   for array, saved in zip(self._arrays, snap.arrays))

    # ------------------------------------------------------------------
    # Snapshot/restore (the emulator's checkpoint mechanism).

    def snapshot(self) -> CoreSnapshot:
        return CoreSnapshot(
            latches=[(latch.value, latch.par) for latch in self._all_latches],
            memory=self.memory.snapshot(),
            arrays=[array.snapshot() for array in self._arrays],
            cycles=self.cycles,
            halted=self.halted,
            commits_prev=self.commits_prev,
            committed=self.committed,
            events=self.event_log.snapshot(),
        )

    def restore(self, snap: CoreSnapshot) -> None:
        for latch, (value, par) in zip(self._all_latches, snap.latches):
            latch.value = value
            latch.par = par
        self.memory.restore(snap.memory)
        for array, saved in zip(self._arrays, snap.arrays):
            array.restore(saved)
        self.cycles = snap.cycles
        self.halted = snap.halted
        self.commits_prev = snap.commits_prev
        self.committed = snap.committed
        self.commits_this_cycle = 0
        self.event_log.restore(snap.events)
