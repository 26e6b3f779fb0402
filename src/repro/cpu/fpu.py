"""Floating Point Unit.

A multi-cycle pipelined FP datapath (IEEE-754 single precision, values held
as bit patterns) plus the FPR file.  The AVP's instruction mix exercises it
lightly — as on the real machine, most FPU latches are architecturally
masked under an integer-dominated workload.
"""

from __future__ import annotations

from repro.isa import alu
from repro.isa.opcodes import Opcode
from repro.rtl.module import HwModule

from repro.cpu.checkers import Checker
from repro.cpu.debugblock import DebugBlock
from repro.cpu.regfile import RegisterBank

_COMPUTE = {
    Opcode.FADD: alu.fadd32,
    Opcode.FSUB: alu.fsub32,
    Opcode.FMUL: alu.fmul32,
    Opcode.FDIV: alu.fdiv32,
}


class Fpu(HwModule):
    """Floating-point execution stage plus the FPR file."""

    def __init__(self, core, params) -> None:
        super().__init__("fpu")
        self.core = core
        ring = "FPU"
        self.val = self.add_latch("val", 1, ring=ring)
        self.op = self.add_latch("op", 6, ring=ring)
        self.rt = self.add_latch("rt", 5, ring=ring)
        self.a = self.add_latch("a", 32, protected=True, ring=ring)
        self.b = self.add_latch("b", 32, protected=True, ring=ring)
        self.cnt = self.add_latch("cnt", 4, ring=ring)
        self.s1 = self.add_latch("s1", 32, ring=ring)  # unpack stage
        self.s2 = self.add_latch("s2", 32, ring=ring)  # align stage
        self.res = self.add_latch("res", 32, protected=True, ring=ring)
        self.done = self.add_latch("done", 1, ring=ring)
        self.npc = self.add_latch("npc", 32, protected=True, ring=ring)
        self.flags = self.add_latch("flags", 8, ring=ring)
        self.itag = self.add_latch("itag", 6, ring=ring)
        # FPU-side physical FPR copy (the LSU holds its own copy).
        self.fpr_exec = self.add_child(RegisterBank("fpu.fprs", 32,
                                                    ring="REGFILE"))
        self.debug = self.add_child(DebugBlock(
            "fpu.debug", params.scaled_debug_bits("FPU"), ring))

    def can_accept(self) -> bool:
        return not self.val.value and not self.core.pervasive.unit_held("FPU")

    def pipeline_reset(self) -> None:
        for latch in (self.val, self.op, self.rt, self.a, self.b, self.cnt,
                      self.s1, self.s2, self.res, self.done, self.npc,
                      self.flags, self.itag):
            latch.reset()

    def dispatch(self, dec, operands, pc: int, next_pc: int,
                 itag: int = 0) -> None:
        self.val.write(1)
        self.done.write(0)
        self.op.write(dec.op)
        self.rt.write(dec.rt)
        self.a.write(operands.get(("f", dec.ra), 0))
        self.b.write(operands.get(("f", dec.rb), 0))
        self.npc.write(next_pc)
        self.flags.write(dec.commit_flags)
        self.cnt.write(max(0, dec.latency - 1))
        self.itag.write(itag)

    def cycle(self) -> None:
        if not self.val.value or self.core.pervasive.unit_held("FPU"):
            return
        if self.done.value:
            if not self.res.parity_ok():
                if self.core.raise_error(Checker.FPU_RESULT_PARITY):
                    return
            if self.core.rut.accept(self.op, self.rt, self.res, self.flags,
                                    None, self.npc, self.itag):
                self.val.write(0)
                self.done.write(0)
            return
        count = self.cnt.value
        if count:
            # Staging latches toggle as the operands move down the pipe.
            self.s1.write(self.a.value)
            self.s2.write(self.b.value)
            self.cnt.write(count - 1)
            return
        if not self.a.parity_ok() or not self.b.parity_ok():
            if self.core.raise_error(Checker.FPU_OPERAND_PARITY):
                return
        compute = _COMPUTE.get(self.op.value)
        result = compute(self.a.value, self.b.value) if compute else self.a.value
        self.res.write(result)
        self.done.write(1)
