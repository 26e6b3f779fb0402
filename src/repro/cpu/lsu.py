"""Load Store Unit.

Owns the L1 data cache, the address-generation datapath and the store
queue.  Stores commit architecturally (past the recovery checkpoint) when
they enter the store queue; a parity error detected at drain time is
therefore unrecoverable and checkstops, just as a corrupted already-
committed store would on the real machine.
"""

from __future__ import annotations

from repro.isa import alu
from repro.isa.opcodes import Opcode
from repro.rtl.module import HwModule

from repro.cpu.cache import DirectMappedCache
from repro.cpu.checkers import Checker
from repro.cpu.debugblock import DebugBlock
from repro.cpu.erat import PAGE_BITS, Erat
from repro.cpu.regfile import RegisterBank

# LSU state machine.
L_AGEN = 0
L_ACCESS = 1
L_MISS = 2
LEGAL_LSU_STATES = (L_AGEN, L_ACCESS, L_MISS)

_BYTE_OPS = frozenset({int(Opcode.LBZ), int(Opcode.STB)})
_STORE_OPS = frozenset({int(Opcode.STW), int(Opcode.STB), int(Opcode.STFS)})
_LOAD_OPS = frozenset({int(Opcode.LWZ), int(Opcode.LBZ), int(Opcode.LFS)})


class Lsu(HwModule):
    """Load/store execution stage, D-cache and store queue."""

    def __init__(self, core, params) -> None:
        super().__init__("lsu")
        self.core = core
        self.params = params
        ring = "LSU"
        self.val = self.add_latch("val", 1, ring=ring)
        self.op = self.add_latch("op", 6, ring=ring)
        self.rt = self.add_latch("rt", 5, ring=ring)
        self.base = self.add_latch("base", 32, protected=True, ring=ring)
        self.disp = self.add_latch("disp", 16, ring=ring)
        self.ea = self.add_latch("ea", 32, protected=True, ring=ring)
        self.pa = self.add_latch("pa", 32, protected=True, ring=ring)
        self.st_data = self.add_latch("st_data", 32, protected=True, ring=ring)
        self.state = self.add_latch("state", 2, ring=ring)
        self.miss_ctr = self.add_latch("miss_ctr", 4, ring=ring)
        self.res = self.add_latch("res", 32, protected=True, ring=ring)
        self.done = self.add_latch("done", 1, ring=ring)
        self.npc = self.add_latch("npc", 32, protected=True, ring=ring)
        self.flags = self.add_latch("flags", 8, ring=ring)
        self.itag = self.add_latch("itag", 6, ring=ring)
        n = params.store_queue_entries
        self.sq_valid = self.add_latch("sq_valid", n, ring=ring)
        self.sq_byte = self.add_latch("sq_byte", n, ring=ring)
        self.sq_addr = self.add_bank("sq_addr", n, 32, protected=True, ring=ring)
        self.sq_data = self.add_bank("sq_data", n, 32, protected=True, ring=ring)
        self.drain_ctr = self.add_latch("drain_ctr", 2, ring=ring)
        self.dcache = self.add_child(DirectMappedCache(
            "lsu.dcache", params.dcache_lines, params.dcache_words_per_line, ring))
        self.erat = self.add_child(Erat("lsu.derat", params.derat_entries, ring))
        # LSU-side physical register-file copies: base-address and
        # store-data reads come through these.
        self.gpr_ls = self.add_child(RegisterBank("lsu.gprs", 32,
                                                  ring="REGFILE"))
        self.fpr_ls = self.add_child(RegisterBank("lsu.fprs", 32,
                                                  ring="REGFILE"))
        self.debug = self.add_child(DebugBlock(
            "lsu.debug", params.scaled_debug_bits("LSU"), ring))

    # ------------------------------------------------------------------

    def can_accept(self) -> bool:
        return not self.val.value and not self.core.pervasive.unit_held("LSU")

    def pipeline_reset(self) -> None:
        # The store queue holds architecturally committed stores and is NOT
        # flushed by recovery; it must drain before recovery proceeds.
        for latch in (self.val, self.op, self.rt, self.base, self.disp,
                      self.ea, self.pa, self.st_data, self.state, self.miss_ctr,
                      self.res, self.done, self.npc, self.flags, self.itag):
            latch.reset()
        self.dcache.invalidate_all()
        self.erat.invalidate_all()

    def dispatch(self, dec, operands, pc: int, next_pc: int,
                 itag: int = 0) -> None:
        op = dec.op
        self.val.write(1)
        self.done.write(0)
        self.op.write(op)
        self.rt.write(dec.rt)
        self.base.write(operands.get(("g", dec.ra), 0))
        self.disp.write(dec.imm & 0xFFFF)
        self.state.write(L_AGEN)
        self.npc.write(next_pc)
        if op is Opcode.STFS:
            self.st_data.write(operands.get(("f", dec.rt), 0))
        else:
            self.st_data.write(operands.get(("g", dec.rt), 0))
        self.flags.write(dec.commit_flags)
        self.itag.write(itag)

    # ------------------------------------------------------------------
    # Store queue (post-commit).

    def stq_empty(self) -> bool:
        return not self.sq_valid.value

    def stq_can_accept(self) -> bool:
        n = self.params.store_queue_entries
        return (self.sq_valid.value & ((1 << n) - 1)) != ((1 << n) - 1)

    def stq_push(self, addr_latch, data_latch, is_byte: bool) -> bool:
        """Enqueue a committed store, carrying parity along with the data."""
        n = self.params.store_queue_entries
        valid = self.sq_valid.value
        for i in range(n):
            if not (valid >> i) & 1:
                self.sq_addr[i].value, self.sq_addr[i].par = addr_latch.value, addr_latch.par
                self.sq_data[i].value, self.sq_data[i].par = data_latch.value, data_latch.par
                if is_byte:
                    self.sq_byte.write(self.sq_byte.value | (1 << i))
                else:
                    self.sq_byte.write(self.sq_byte.value & ~(1 << i))
                self.sq_valid.write(valid | (1 << i))
                return True
        return False

    def drain(self) -> None:
        """Retire one store-queue entry every other cycle (oldest first)."""
        valid = self.sq_valid.value
        if not valid:
            return
        ctr = self.drain_ctr.value
        if ctr:
            self.drain_ctr.write(ctr - 1)
            return
        self.drain_ctr.write(1)
        n = self.params.store_queue_entries
        slot = next(i for i in range(n) if (valid >> i) & 1)
        addr_latch, data_latch = self.sq_addr[slot], self.sq_data[slot]
        if not addr_latch.parity_ok() or not data_latch.parity_ok():
            # The store is already architecturally committed: unrecoverable.
            if self.core.raise_error(Checker.LSU_STQ_PARITY):
                self.sq_valid.write(valid & ~(1 << slot))
                return
        addr = addr_latch.value
        is_byte = bool((self.sq_byte.value >> slot) & 1)
        nest = self.core.nest
        if nest is not None:
            # The nest's memory controller buffers the write behind its
            # own parity-protected queue.
            if not nest.mc.can_accept():
                self.drain_ctr.write(0)  # retry next cycle
                return
            nest.mc.enqueue(addr_latch, data_latch, is_byte)
            if is_byte:
                self.dcache.invalidate_line(addr)
            else:
                self.dcache.write_through(addr & ~3, data_latch.value)
        elif is_byte:
            self.core.memory.store_byte(addr, data_latch.value & 0xFF)
            self.dcache.invalidate_line(addr)
        else:
            self.core.memory.store_word(addr & ~3, data_latch.value)
            self.dcache.write_through(addr & ~3, data_latch.value)
        self.sq_valid.write(valid & ~(1 << slot))

    # ------------------------------------------------------------------

    def cycle(self) -> None:
        core = self.core
        if not self.val.value or core.pervasive.unit_held("LSU"):
            return
        if self.done.value:
            if not self.res.parity_ok():
                if core.raise_error(Checker.LSU_EA_PARITY):
                    return
            if core.rut.accept(self.op, self.rt, self.res, self.flags,
                               self.ea, self.npc, self.itag):
                self.val.write(0)
                self.done.write(0)
            return

        state = self.state.value
        if state == L_AGEN:
            if not self.base.parity_ok():
                if core.raise_error(Checker.LSU_EA_PARITY):
                    return
            ea = alu.add32(self.base.value, self._sext_disp())
            if self.op.value in _STORE_OPS:
                # Stores translate at AGEN and carry the *physical* address
                # and data straight to commit.
                paddr = self._translate(ea)
                if paddr is None:
                    return  # retry after ERAT correction/refill
                self.ea.write(paddr)
                self.res.value, self.res.par = self.st_data.value, self.st_data.par
                self.done.write(1)
            else:
                self.ea.write(ea)
                self.state.write(L_ACCESS)
            return
        if state == L_ACCESS:
            self._access()
            return
        if state == L_MISS:
            ctr = self.miss_ctr.value
            if ctr > 1:
                self.miss_ctr.write(ctr - 1)
                return
            if not self.pa.parity_ok():
                if core.raise_error(Checker.LSU_EA_PARITY):
                    return
            self.dcache.fill(self.pa.value & ~3, core.memory)
            self.state.write(L_ACCESS)
            return
        # Illegal state: the pervasive FSM checker reports it.

    def _sext_disp(self) -> int:
        value = self.disp.value
        return value - 0x10000 if value & 0x8000 else value

    def _translate(self, addr: int) -> int | None:
        """Translate through the dERAT; None means retry next cycle."""
        core = self.core
        status, result = self.erat.translate(addr)
        if status == "multihit":
            if core.raise_error(Checker.LSU_ERAT_MULTIHIT):
                return None
            self.erat.invalidate_all()  # masked: self-heals silently
            return None
        if status == "parity":
            if core.raise_corrected(Checker.LSU_ERAT_PARITY):
                self.erat.invalidate_entry(result)
                return None
            # Masked checker: consume the possibly corrupt translation.
            entry = result % self.erat.entries
            return ((self.erat.rpn[entry].value << PAGE_BITS)
                    | (addr & ((1 << PAGE_BITS) - 1)))
        return result

    def _access(self) -> None:
        core = self.core
        # Total store ordering: loads wait for older stores to be visible.
        if not self.stq_empty() or core.rut.pending_store():
            return
        if not self.ea.parity_ok():
            if core.raise_error(Checker.LSU_EA_PARITY):
                return
        paddr = self._translate(self.ea.value)
        if paddr is None:
            return
        self.pa.write(paddr)
        if not core.pervasive.dcache_enabled():
            word = core.memory.load_word(paddr & ~3)
            self._finish_load(word, paddr)
            return
        status, word = self.dcache.lookup(paddr & ~3)
        if status == "hit":
            self._finish_load(word, paddr)
        elif status == "miss":
            self.miss_ctr.write(self.params.dcache_miss_penalty)
            self.state.write(L_MISS)
        else:
            handled = core.raise_corrected(Checker.LSU_DCACHE_PARITY)
            if handled:
                self.dcache.invalidate_line(paddr & ~3)
            elif status == "data_err":
                self._finish_load(word, paddr)  # checker masked: bad data flows
            else:
                self.miss_ctr.write(self.params.dcache_miss_penalty)
                self.state.write(L_MISS)

    def _finish_load(self, word: int, ea: int) -> None:
        if self.op.value in _BYTE_OPS:
            shift = (3 - (ea & 3)) * 8
            word = (word >> shift) & 0xFF
        self.res.write(word)
        self.done.write(1)
