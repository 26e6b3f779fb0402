"""Instruction Fetch Unit.

Owns the instruction fetch address register (IFAR), the fetch state
machine, the L1 instruction cache and the fetch buffer.  Instruction words
and their fetch PCs travel through parity-protected latches whose parity is
carried along with the data (a flip in a buffered instruction is caught by
the decoder's point-of-use check, not at flip time).
"""

from __future__ import annotations

from repro.rtl.module import HwModule

from repro.cpu.cache import DirectMappedCache
from repro.cpu.checkers import Checker
from repro.cpu.debugblock import DebugBlock
from repro.cpu.erat import PAGE_BITS, Erat

# Fetch FSM states.
F_RUN = 0
F_MISS = 1
F_HOLD = 2
LEGAL_FETCH_STATES = (F_RUN, F_MISS, F_HOLD)


class Ifu(HwModule):
    """Fetch stage: keeps the fetch buffer supplied with instructions."""

    def __init__(self, core, params) -> None:
        super().__init__("ifu")
        self.core = core
        self.params = params
        ring = "IFU"
        self.ifar = self.add_latch("ifar", 32, protected=True, ring=ring)
        self.fstate = self.add_latch("fstate", 2, ring=ring)
        self.miss_ctr = self.add_latch("miss_ctr", 4, ring=ring)
        self.miss_addr = self.add_latch("miss_addr", 32, protected=True, ring=ring)
        n = params.fetch_buffer_entries
        self.fb_valid = self.add_latch("fb_valid", n, ring=ring)
        self.fb_instr = self.add_bank("fb_instr", n, 32, protected=True, ring=ring)
        self.fb_pc = self.add_bank("fb_pc", n, 32, protected=True, ring=ring)
        self.bht = self.add_latch("bht", 16, ring=ring)  # branch history (hint only)
        # pop()'s moves, entry i <- entry i+1: (dst instr, src instr,
        # dst pc, src pc).
        self._shifts = tuple(zip(self.fb_instr, self.fb_instr[1:],
                                 self.fb_pc, self.fb_pc[1:]))
        self.icache = self.add_child(DirectMappedCache(
            "ifu.icache", params.icache_lines, params.icache_words_per_line, ring))
        self.erat = self.add_child(Erat("ifu.ierat", params.ierat_entries, ring))
        self.debug = self.add_child(DebugBlock(
            "ifu.debug", params.scaled_debug_bits("IFU"), ring))

    # ------------------------------------------------------------------
    # Fetch-buffer interface used by the IDU.

    def head_valid(self) -> bool:
        return bool(self.fb_valid.value & 1)

    def head(self) -> tuple:
        """(instr_latch, pc_latch) of the oldest fetch-buffer entry."""
        return self.fb_instr[0], self.fb_pc[0]

    def pop(self) -> None:
        """Consume the head entry and shift the queue up.

        Parity travels with the shifted data: a latent flip in an entry
        survives the shift and is caught at decode.
        """
        valid = self.fb_valid.value >> 1  # entry i <- entry i+1
        for dst_i, src_i, dst_p, src_p in self._shifts:
            dst_i.value, dst_i.par = src_i.value, src_i.par
            dst_p.value, dst_p.par = src_p.value, src_p.par
        self.fb_valid.write(valid)

    def _translate(self, addr: int) -> int | None:
        """Translate a fetch address through the iERAT."""
        core = self.core
        status, result = self.erat.translate(addr)
        if status == "multihit":
            if core.raise_error(Checker.IFU_ERAT_MULTIHIT):
                return None
            self.erat.invalidate_all()  # masked: self-heals silently
            return None
        if status == "parity":
            if core.raise_corrected(Checker.IFU_ERAT_PARITY):
                self.erat.invalidate_entry(result)
                return None
            entry = result % self.erat.entries
            return ((self.erat.rpn[entry].value << PAGE_BITS)
                    | (addr & ((1 << PAGE_BITS) - 1)))
        return result

    def redirect(self, target: int) -> None:
        """Branch or recovery redirect: restart fetch at ``target``."""
        self.ifar.write(target & 0xFFFFFFFF & ~3)
        self.fb_valid.write(0)
        if self.fstate.value == F_MISS:
            self.fstate.write(F_RUN)

    def pipeline_reset(self) -> None:
        """Recovery: clear all fetch-path state (scan-only latches keep)."""
        self.fstate.reset()
        self.miss_ctr.reset()
        self.miss_addr.reset()
        self.fb_valid.reset()
        for latch in self.fb_instr + self.fb_pc:
            latch.reset()
        self.icache.invalidate_all()
        self.erat.invalidate_all()

    # ------------------------------------------------------------------

    def cycle(self) -> None:
        core = self.core
        state = self.fstate.value
        if state == F_HOLD:
            # Held by a GPTR clock-stop; nothing fetches until released.
            if not core.pervasive.fetch_held():
                self.fstate.write(F_RUN)
            return
        if core.pervasive.fetch_held():
            self.fstate.write(F_HOLD)
            return
        if state == F_MISS:
            ctr = self.miss_ctr.value
            if ctr > 1:
                self.miss_ctr.write(ctr - 1)
                return
            if not self.miss_addr.parity_ok():
                if core.raise_error(Checker.IFU_IFAR_PARITY):
                    return
            self.icache.fill(self.miss_addr.value, core.memory)
            self.fstate.write(F_RUN)
            return
        if state != F_RUN:
            # Illegal FSM encoding; the pervasive FSM checker reports it.
            return

        # Find a free fetch-buffer slot (entries fill oldest-first): the
        # lowest clear bit of the valid mask.
        n = self.params.fetch_buffer_entries
        valid = self.fb_valid.value & ((1 << n) - 1)
        slot = (~valid & (valid + 1)).bit_length() - 1
        if slot >= n:
            return
        if not self.ifar.parity_ok():
            if core.raise_error(Checker.IFU_IFAR_PARITY):
                return  # masked: fetch proceeds from the corrupt address
        addr = self.ifar.value & ~3
        paddr = self._translate(addr)
        if paddr is None:
            return  # retry after iERAT correction/refill
        if not core.pervasive.icache_enabled():
            # Cache disabled by MODE configuration: fetch straight from
            # memory (functionally equivalent, just slower on real HW).
            self.fb_instr[slot].write(core.memory.load_word(paddr & ~3))
            self.fb_pc[slot].write(addr)
            self.fb_valid.write(valid | (1 << slot))
            self.ifar.write(addr + 4)
            return
        status, word = self.icache.lookup(paddr & ~3)
        if status == "hit":
            self.fb_instr[slot].write(word)
            self.fb_pc[slot].write(addr)
            self.fb_valid.write(valid | (1 << slot))
            self.ifar.write(addr + 4)
        elif status == "miss":
            self.miss_addr.write(paddr)
            self.miss_ctr.write(self.params.icache_miss_penalty)
            self.fstate.write(F_MISS)
        else:  # tag or data parity error: invalidate and refetch (corrected)
            handled = core.raise_corrected(Checker.IFU_ICACHE_PARITY)
            if handled:
                self.icache.invalidate_line(paddr)
            elif status == "data_err":
                # Checker masked: the corrupt instruction word propagates.
                self.fb_instr[slot].write(word)
                self.fb_pc[slot].write(addr)
                self.fb_valid.write(valid | (1 << slot))
                self.ifar.write(addr + 4)
            else:
                self.miss_addr.write(paddr)
                self.miss_ctr.write(self.params.icache_miss_penalty)
                self.fstate.write(F_MISS)
