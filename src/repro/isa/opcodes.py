"""Opcode definitions for the P6-lite ISA.

The reproduction models a POWER-like 32-bit RISC machine.  The instruction
classes mirror the categories used in Table 1 of the paper (Load, Store,
Fixed Point, Floating Point, Comparison, Branch); every opcode carries the
class it is accounted under plus the execution latency used by the pipeline
model and the CPI estimation tool.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InstrClass(enum.Enum):
    """Instruction classes, matching the rows of Table 1."""

    LOAD = "Load"
    STORE = "Store"
    FIXED_POINT = "Fixed Point"
    FLOATING_POINT = "Floating Point"
    COMPARISON = "Comparison"
    BRANCH = "Branch"
    SYSTEM = "System"


class Opcode(enum.IntEnum):
    """Primary opcodes (bits 31:26 of the instruction word)."""

    HALT = 0
    ADDI = 1
    LWZ = 2
    STW = 3
    LBZ = 4
    STB = 5
    ADD = 6
    SUB = 7
    MULLW = 8
    DIVW = 9
    AND = 10
    OR = 11
    XOR = 12
    ANDI = 13
    ORI = 14
    XORI = 15
    SLW = 16
    SRW = 17
    SRAW = 18
    SLWI = 19
    SRWI = 20
    CMPW = 21
    CMPWI = 22
    CMPLW = 23
    B = 24
    BC = 25
    BL = 26
    BLR = 27
    FADD = 28
    FSUB = 29
    FMUL = 30
    FDIV = 31
    LFS = 32
    STFS = 33
    MTLR = 34
    MFLR = 35
    MTCTR = 36
    MFCTR = 37
    BDNZ = 38
    NOP = 62
    ATTN = 63


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    opcode: Opcode
    mnemonic: str
    iclass: InstrClass
    latency: int
    has_imm: bool
    unit: str  # "FXU", "FPU", "LSU", "BRU", or "SYS"


_OP_TABLE = {
    Opcode.HALT: OpInfo(Opcode.HALT, "halt", InstrClass.SYSTEM, 1, False, "SYS"),
    Opcode.ADDI: OpInfo(Opcode.ADDI, "addi", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.LWZ: OpInfo(Opcode.LWZ, "lwz", InstrClass.LOAD, 2, True, "LSU"),
    Opcode.STW: OpInfo(Opcode.STW, "stw", InstrClass.STORE, 1, True, "LSU"),
    Opcode.LBZ: OpInfo(Opcode.LBZ, "lbz", InstrClass.LOAD, 2, True, "LSU"),
    Opcode.STB: OpInfo(Opcode.STB, "stb", InstrClass.STORE, 1, True, "LSU"),
    Opcode.ADD: OpInfo(Opcode.ADD, "add", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.SUB: OpInfo(Opcode.SUB, "sub", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.MULLW: OpInfo(Opcode.MULLW, "mullw", InstrClass.FIXED_POINT, 2, False, "FXU"),
    Opcode.DIVW: OpInfo(Opcode.DIVW, "divw", InstrClass.FIXED_POINT, 8, False, "FXU"),
    Opcode.AND: OpInfo(Opcode.AND, "and", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.OR: OpInfo(Opcode.OR, "or", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.XOR: OpInfo(Opcode.XOR, "xor", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.ANDI: OpInfo(Opcode.ANDI, "andi", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.ORI: OpInfo(Opcode.ORI, "ori", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.XORI: OpInfo(Opcode.XORI, "xori", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.SLW: OpInfo(Opcode.SLW, "slw", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.SRW: OpInfo(Opcode.SRW, "srw", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.SRAW: OpInfo(Opcode.SRAW, "sraw", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.SLWI: OpInfo(Opcode.SLWI, "slwi", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.SRWI: OpInfo(Opcode.SRWI, "srwi", InstrClass.FIXED_POINT, 1, True, "FXU"),
    Opcode.CMPW: OpInfo(Opcode.CMPW, "cmpw", InstrClass.COMPARISON, 1, False, "FXU"),
    Opcode.CMPWI: OpInfo(Opcode.CMPWI, "cmpwi", InstrClass.COMPARISON, 1, True, "FXU"),
    Opcode.CMPLW: OpInfo(Opcode.CMPLW, "cmplw", InstrClass.COMPARISON, 1, False, "FXU"),
    Opcode.B: OpInfo(Opcode.B, "b", InstrClass.BRANCH, 1, True, "BRU"),
    Opcode.BC: OpInfo(Opcode.BC, "bc", InstrClass.BRANCH, 1, True, "BRU"),
    Opcode.BL: OpInfo(Opcode.BL, "bl", InstrClass.BRANCH, 1, True, "BRU"),
    Opcode.BLR: OpInfo(Opcode.BLR, "blr", InstrClass.BRANCH, 1, False, "BRU"),
    Opcode.FADD: OpInfo(Opcode.FADD, "fadd", InstrClass.FLOATING_POINT, 3, False, "FPU"),
    Opcode.FSUB: OpInfo(Opcode.FSUB, "fsub", InstrClass.FLOATING_POINT, 3, False, "FPU"),
    Opcode.FMUL: OpInfo(Opcode.FMUL, "fmul", InstrClass.FLOATING_POINT, 4, False, "FPU"),
    Opcode.FDIV: OpInfo(Opcode.FDIV, "fdiv", InstrClass.FLOATING_POINT, 12, False, "FPU"),
    Opcode.LFS: OpInfo(Opcode.LFS, "lfs", InstrClass.LOAD, 2, True, "LSU"),
    Opcode.STFS: OpInfo(Opcode.STFS, "stfs", InstrClass.STORE, 1, True, "LSU"),
    Opcode.MTLR: OpInfo(Opcode.MTLR, "mtlr", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.MFLR: OpInfo(Opcode.MFLR, "mflr", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.MTCTR: OpInfo(Opcode.MTCTR, "mtctr", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.MFCTR: OpInfo(Opcode.MFCTR, "mfctr", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.BDNZ: OpInfo(Opcode.BDNZ, "bdnz", InstrClass.BRANCH, 1, True, "BRU"),
    Opcode.NOP: OpInfo(Opcode.NOP, "nop", InstrClass.FIXED_POINT, 1, False, "FXU"),
    Opcode.ATTN: OpInfo(Opcode.ATTN, "attn", InstrClass.SYSTEM, 1, False, "SYS"),
}

_MNEMONIC_TABLE = {info.mnemonic: info for info in _OP_TABLE.values()}

#: Opcodes whose numeric value does not decode to a defined instruction.
VALID_OPCODES = frozenset(int(op) for op in _OP_TABLE)

#: Floating-point register operand opcodes (operands index the FPR file).
FPR_OPCODES = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.LFS, Opcode.STFS}
)

#: Opcodes that write a GPR result.
GPR_WRITERS = frozenset(
    {
        Opcode.ADDI, Opcode.LWZ, Opcode.LBZ, Opcode.ADD, Opcode.SUB,
        Opcode.MULLW, Opcode.DIVW, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLW, Opcode.SRW,
        Opcode.SRAW, Opcode.SLWI, Opcode.SRWI, Opcode.MFLR, Opcode.MFCTR,
    }
)

#: Opcodes that write an FPR result.
FPR_WRITERS = frozenset({Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.LFS})

#: Branch opcodes.
BRANCH_OPCODES = frozenset({Opcode.B, Opcode.BC, Opcode.BL, Opcode.BLR, Opcode.BDNZ})


def op_info(opcode: int) -> OpInfo:
    """Return the :class:`OpInfo` for ``opcode``.

    Raises:
        KeyError: if ``opcode`` is not a defined instruction.
    """
    # An ``Opcode`` key hashes and compares as its number, so a plain
    # int looks it up without constructing the enum member.
    return _OP_TABLE[opcode]


def is_valid_opcode(opcode: int) -> bool:
    """True when ``opcode`` decodes to a defined instruction."""
    return opcode in VALID_OPCODES


def info_for_mnemonic(mnemonic: str) -> OpInfo:
    """Look up opcode metadata by assembler mnemonic."""
    return _MNEMONIC_TABLE[mnemonic.lower()]


def all_opinfo() -> list[OpInfo]:
    """All defined opcodes, in opcode order."""
    return [_OP_TABLE[op] for op in sorted(_OP_TABLE)]
