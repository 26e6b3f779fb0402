"""Latch-level RTL modelling framework: typed latches with parity shadows,
module hierarchy, scan rings, SEC-DED ECC, and fault-site addressing."""

from repro.rtl.fault import FaultSite, InjectionMode
from repro.rtl.latch import Latch, LatchKind, make_bank
from repro.rtl.module import HwModule
from repro.rtl.parity import EccStatus, ecc_decode, ecc_encode, parity
from repro.rtl.scanchain import ScanRing, build_rings

__all__ = [
    "EccStatus",
    "FaultSite",
    "HwModule",
    "InjectionMode",
    "Latch",
    "LatchKind",
    "ScanRing",
    "build_rings",
    "ecc_decode",
    "ecc_encode",
    "make_bank",
    "parity",
]
