"""Instruction Decode/Dispatch Unit.

Decodes the head of the fetch buffer, performs hazard checks against the
busy scoreboard, reads operands (with point-of-use parity checks), resolves
branches, and dispatches one instruction per cycle to the FXU, FPU or LSU.
Owns the architected CR and LR latches and the busy scoreboard — a flipped
busy bit with no in-flight producer is a genuine hang source, caught by
the pervasive watchdog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import alu
from repro.isa.encoding import decode
from repro.isa.opcodes import FPR_WRITERS, GPR_WRITERS, Opcode, is_valid_opcode, op_info
from repro.rtl.module import HwModule

from repro.cpu.checkers import Checker
from repro.cpu.debugblock import DebugBlock
from repro.cpu.fxu import Fxu
from repro.cpu.regfile import COPY_EXEC, COPY_LS

_STORE_GPR = frozenset({Opcode.STW, Opcode.STB})
_LSU_OPS = frozenset({Opcode.LWZ, Opcode.LBZ, Opcode.STW, Opcode.STB,
                      Opcode.LFS, Opcode.STFS})
_FPU_OPS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV})
_XFORM_FXU = frozenset({Opcode.ADD, Opcode.SUB, Opcode.MULLW, Opcode.DIVW,
                        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLW,
                        Opcode.SRW, Opcode.SRAW, Opcode.CMPW, Opcode.CMPLW})
_IFORM_FXU = frozenset({Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
                        Opcode.SLWI, Opcode.SRWI, Opcode.CMPWI})
_ZEXT_IMM = frozenset({Opcode.ANDI, Opcode.ORI, Opcode.XORI})


@dataclass
class _Decoded:
    """Dispatch-relevant fields extracted from one instruction."""

    op: Opcode
    rt: int
    ra: int
    rb: int
    imm: int
    gpr_sources: tuple
    fpr_sources: tuple
    reads_cr: bool
    reads_lr: bool
    reads_ctr: bool
    writes_gpr: bool
    writes_fpr: bool
    writes_cr: bool
    writes_lr: bool
    writes_ctr: bool


class Idu(HwModule):
    """Decode/dispatch stage, plus architected CR/LR and the scoreboard."""

    def __init__(self, core, params) -> None:
        super().__init__("idu")
        self.core = core
        self.params = params
        ring = "IDU"
        self.cr = self.add_latch("cr", 4, protected=True, ring=ring)
        self.lr = self.add_latch("lr", 32, protected=True, ring=ring)
        self.ctr = self.add_latch("ctr", 32, protected=True, ring=ring)
        self.gpr_busy = self.add_latch("gpr_busy", 32, ring=ring)
        self.fpr_busy = self.add_latch("fpr_busy", 32, ring=ring)
        # bit0=CR, bit1=LR, bit2=CTR
        self.flag_busy = self.add_latch("flag_busy", 3, ring=ring)
        self.dec_ctrl = self.add_latch("dec_ctrl", 24, ring=ring)
        self.stall_reason = self.add_latch("stall_reason", 3, ring=ring)
        # Dispatch-order instruction tag: the commit stage retires strictly
        # in ITAG order, so execution units of different latencies cannot
        # commit out of order.
        self.itag = self.add_latch("itag", 6, ring=ring)
        self.debug = self.add_child(DebugBlock(
            "idu.debug", params.scaled_debug_bits("IDU"), ring))

    # ------------------------------------------------------------------

    def pipeline_reset(self) -> None:
        self.gpr_busy.reset()
        self.fpr_busy.reset()
        self.flag_busy.reset()
        self.dec_ctrl.reset()
        self.stall_reason.reset()
        self.itag.reset()

    def release_scoreboard(self, commit_flags: int, rt: int) -> None:
        """Commit-side scoreboard release, derived from the committed
        instruction's flags and target register (no side state)."""
        if commit_flags & Fxu.F_WGPR:
            self.gpr_busy.write_bit(rt & 31, 0)
        if commit_flags & Fxu.F_WFPR:
            self.fpr_busy.write_bit(rt & 31, 0)
        flags = self.flag_busy.value
        if commit_flags & Fxu.F_WCR:
            flags &= ~1
        if commit_flags & Fxu.F_WLR:
            flags &= ~2
        if commit_flags & Fxu.F_WCTR:
            flags &= ~4
        self.flag_busy.write(flags)

    # ------------------------------------------------------------------

    @staticmethod
    def _decode_fields(instr) -> _Decoded:
        op = Opcode(instr.op)
        gpr_sources: tuple = ()
        fpr_sources: tuple = ()
        reads_cr = reads_lr = reads_ctr = False
        if op in _XFORM_FXU:
            gpr_sources = (instr.ra, instr.rb)
        elif op in _IFORM_FXU:
            gpr_sources = (instr.ra,)
        elif op in _LSU_OPS:
            gpr_sources = (instr.ra,)
            if op in _STORE_GPR:
                gpr_sources = (instr.ra, instr.rt)
            elif op is Opcode.STFS:
                fpr_sources = (instr.rt,)
        elif op in _FPU_OPS:
            fpr_sources = (instr.ra, instr.rb)
        elif op is Opcode.BC:
            reads_cr = True
        elif op is Opcode.BLR or op is Opcode.MFLR:
            reads_lr = True
        elif op is Opcode.MTLR or op is Opcode.MTCTR:
            gpr_sources = (instr.ra,)
        elif op is Opcode.MFCTR or op is Opcode.BDNZ:
            reads_ctr = True
        return _Decoded(
            op=op, rt=instr.rt, ra=instr.ra, rb=instr.rb, imm=instr.imm,
            gpr_sources=gpr_sources, fpr_sources=fpr_sources,
            reads_cr=reads_cr, reads_lr=reads_lr, reads_ctr=reads_ctr,
            writes_gpr=op in GPR_WRITERS, writes_fpr=op in FPR_WRITERS,
            writes_cr=op in (Opcode.CMPW, Opcode.CMPWI, Opcode.CMPLW),
            writes_lr=op in (Opcode.BL, Opcode.MTLR),
            writes_ctr=op in (Opcode.MTCTR, Opcode.BDNZ),
        )

    def _hazard(self, dec: _Decoded) -> bool:
        # Per-bit scoreboard probes: only the registers an instruction
        # names are consulted, so an upset busy bit for a register the
        # program never touches is dead state, not a hazard.
        for reg in dec.gpr_sources:
            if self.gpr_busy.bit(reg):
                return True
        if dec.writes_gpr and self.gpr_busy.bit(dec.rt):
            return True
        for reg in dec.fpr_sources:
            if self.fpr_busy.bit(reg):
                return True
        if dec.writes_fpr and self.fpr_busy.bit(dec.rt):
            return True
        flags = self.flag_busy.value
        if (dec.reads_cr or dec.writes_cr) and flags & 1:
            return True
        if (dec.reads_lr or dec.writes_lr) and flags & 2:
            return True
        if (dec.reads_ctr or dec.writes_ctr) and flags & 4:
            return True
        return False

    def cycle(self) -> None:
        core = self.core
        ifu = core.ifu
        if core.pervasive.dispatch_held():
            return
        if not ifu.head_valid():
            return
        instr_latch, pc_latch = ifu.head()
        if not instr_latch.parity_ok() or not pc_latch.parity_ok():
            if core.raise_error(Checker.IFU_FBUF_PARITY):
                return  # masked checker: the corrupt word decodes below
        word = instr_latch.value
        pc = pc_latch.value
        instr = decode(word)
        if not is_valid_opcode(instr.op) or instr.op == Opcode.ATTN:
            if core.raise_error(Checker.IDU_ILLEGAL_OPCODE):
                return
            # Checker masked: the undefined word executes as a no-op.
            ifu.pop()
            return
        dec = self._decode_fields(instr)
        if self._hazard(dec):
            self.stall_reason.write(1)
            return

        # Structural hazard: the target execution unit must be free.
        info = op_info(dec.op)
        unit = {"FXU": core.fxu, "BRU": core.fxu, "SYS": core.fxu,
                "LSU": core.lsu, "FPU": core.fpu}[info.unit]
        if not unit.can_accept():
            self.stall_reason.write(2)
            return

        # Operand reads, with point-of-use parity checks.  Reads route
        # through the physical register-file copy that feeds the consuming
        # cluster (LSU reads the load/store-side copy).
        copy = COPY_LS if info.unit == "LSU" else COPY_EXEC
        operands = {}
        for reg in dec.gpr_sources:
            value, ok = core.gprs.read(reg, copy)
            if not ok and core.raise_error(Checker.IDU_REGREAD_PARITY):
                return
            operands[("g", reg)] = value
        for reg in dec.fpr_sources:
            value, ok = core.fprs.read(reg, copy)
            if not ok and core.raise_error(Checker.IDU_REGREAD_PARITY):
                return
            operands[("f", reg)] = value
        if dec.reads_cr and not self.cr.parity_ok():
            if core.raise_error(Checker.IDU_CR_LR_PARITY):
                return
        if dec.reads_lr and not self.lr.parity_ok():
            if core.raise_error(Checker.IDU_CR_LR_PARITY):
                return
        if dec.reads_ctr and not self.ctr.parity_ok():
            if core.raise_error(Checker.IDU_CR_LR_PARITY):
                return

        # Branch resolution (at decode); every instruction still flows to
        # the commit stage so the recovery checkpoint tracks PC/LR.
        next_pc = alu.add32(pc, 4)
        op = dec.op
        redirect = None
        if op is Opcode.B:
            redirect = next_pc = alu.add32(pc, 4 * dec.imm)
        elif op is Opcode.BC:
            if ((self.cr.value >> dec.rt) & 1) == dec.ra:
                redirect = next_pc = alu.add32(pc, 4 * dec.imm)
        elif op is Opcode.BL:
            redirect = next_pc = alu.add32(pc, 4 * dec.imm)
        elif op is Opcode.BLR:
            redirect = next_pc = self.lr.value & ~3 & 0xFFFFFFFF
        elif op is Opcode.BDNZ:
            if alu.sub32(self.ctr.value, 1) != 0:
                redirect = next_pc = alu.add32(pc, 4 * dec.imm)

        self.dec_ctrl.write((int(op) << 10) | (dec.rt << 5) | dec.ra)
        ifu.pop()
        if redirect is not None:
            ifu.redirect(redirect)

        # Scoreboard reservations; commit releases them from its flags.
        if dec.writes_gpr:
            self.gpr_busy.write_bit(dec.rt, 1)
        if dec.writes_fpr:
            self.fpr_busy.write_bit(dec.rt, 1)
        flags = self.flag_busy.value
        if dec.writes_cr:
            flags |= 1
        if dec.writes_lr:
            flags |= 2
        if dec.writes_ctr:
            flags |= 4
        self.flag_busy.write(flags)

        itag = self.itag.value
        self.itag.write((itag + 1) & 0x3F)
        unit.dispatch(dec, operands, pc, next_pc, itag)
        self.stall_reason.write(0)
