"""Fixed Point Unit.

Executes integer ALU ops, compares, LR moves, resolved branches and system
ops (everything one-cycle except multiply/divide), and owns the GPR file.
Operands are parity-checked at the point of use; the result latch carries
its parity to the commit stage so a flip anywhere along the path is caught
by exactly one checker.
"""

from __future__ import annotations

from repro.isa import alu
from repro.isa.opcodes import Opcode
from repro.rtl.module import HwModule

from repro.cpu.checkers import Checker
from repro.cpu.debugblock import DebugBlock
from repro.cpu.regfile import RegisterBank

_ZEXT_IMM = frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI})

_COMPUTE = {
    Opcode.ADD: alu.add32, Opcode.ADDI: alu.add32,
    Opcode.SUB: alu.sub32,
    Opcode.MULLW: alu.mul32, Opcode.DIVW: alu.div32,
    Opcode.AND: alu.and32, Opcode.ANDI: alu.and32,
    Opcode.OR: alu.or32, Opcode.ORI: alu.or32,
    Opcode.XOR: alu.xor32, Opcode.XORI: alu.xor32,
    Opcode.SLW: alu.slw32, Opcode.SLWI: alu.slw32,
    Opcode.SRW: alu.srw32, Opcode.SRWI: alu.srw32,
    Opcode.SRAW: alu.sraw32,
    Opcode.CMPW: alu.cmp_signed, Opcode.CMPWI: alu.cmp_signed,
    Opcode.CMPLW: alu.cmp_unsigned,
}


class Fxu(HwModule):
    """Fixed-point execution stage plus the GPR file."""

    def __init__(self, core, params) -> None:
        super().__init__("fxu")
        self.core = core
        ring = "FXU"
        self.val = self.add_latch("val", 1, ring=ring)
        self.op = self.add_latch("op", 6, ring=ring)
        self.rt = self.add_latch("rt", 5, ring=ring)
        self.a = self.add_latch("a", 32, protected=True, ring=ring)
        self.b = self.add_latch("b", 32, protected=True, ring=ring)
        self.cnt = self.add_latch("cnt", 4, ring=ring)
        self.res = self.add_latch("res", 32, protected=True, ring=ring)
        self.done = self.add_latch("done", 1, ring=ring)
        self.npc = self.add_latch("npc", 32, protected=True, ring=ring)
        self.flags = self.add_latch("flags", 8, ring=ring)
        self.itag = self.add_latch("itag", 6, ring=ring)
        # FXU-side physical GPR copy (the LSU holds its own copy).
        self.gpr_exec = self.add_child(RegisterBank("fxu.gprs", 32,
                                                    ring="REGFILE"))
        # Special-purpose register file (SPRGs, timers, ...): architected
        # state the AVP never touches, idle under the workload.
        self.sprs = self.add_child(RegisterBank("fxu.sprs", 16,
                                                ring="REGFILE"))
        self.debug = self.add_child(DebugBlock(
            "fxu.debug", params.scaled_debug_bits("FXU"), ring))

    # Flag bit layout shared with the commit stage.
    (F_WGPR, F_WFPR, F_WCR, F_WLR, F_STORE, F_BYTE, F_HALT,
     F_WCTR) = (1 << i for i in range(8))

    def can_accept(self) -> bool:
        return not self.val.value and not self.core.pervasive.unit_held("FXU")

    def pipeline_reset(self) -> None:
        for latch in (self.val, self.op, self.rt, self.a, self.b, self.cnt,
                      self.res, self.done, self.npc, self.flags, self.itag):
            latch.reset()

    def dispatch(self, dec, operands, pc: int, next_pc: int,
                 itag: int = 0) -> None:
        op = dec.op
        if op is Opcode.MFLR:
            a = self.core.idu.lr.value
            b = 0
        elif op is Opcode.MFCTR:
            a = self.core.idu.ctr.value
            b = 0
        elif op is Opcode.BDNZ:
            a = alu.sub32(self.core.idu.ctr.value, 1)
            b = 0
        elif op is Opcode.BL:
            a = alu.add32(pc, 4)
            b = 0
        else:
            a = operands.get(("g", dec.ra), 0)
            if op in _ZEXT_IMM:
                b = dec.imm & 0xFFFF
            elif dec.has_imm:
                b = dec.imm & 0xFFFFFFFF
            else:
                b = operands.get(("g", dec.rb), 0)
        self.val.write(1)
        self.done.write(0)
        self.op.write(op)
        self.rt.write(dec.rt)
        self.a.write(a)
        self.b.write(b)
        self.npc.write(next_pc)
        self.flags.write(dec.commit_flags)
        self.cnt.write(max(0, dec.latency - 1))
        self.itag.write(itag)

    def cycle(self) -> None:
        if not self.val.value or self.core.pervasive.unit_held("FXU"):
            return
        if self.done.value:
            # Result staged; hand it to the commit stage when it is free.
            if not self.res.parity_ok():
                if self.core.raise_error(Checker.FXU_RESULT_PARITY):
                    return
            if self.core.rut.accept(self.op, self.rt, self.res, self.flags,
                                    None, self.npc, self.itag):
                self.val.write(0)
                self.done.write(0)
            return
        count = self.cnt.value
        if count:
            self.cnt.write(count - 1)
            return
        if not self.a.parity_ok() or not self.b.parity_ok():
            if self.core.raise_error(Checker.FXU_OPERAND_PARITY):
                return
        op_value = self.op.value
        compute = _COMPUTE.get(op_value)
        result = compute(self.a.value, self.b.value) if compute else self.a.value
        self.res.write(result)
        self.done.write(1)
