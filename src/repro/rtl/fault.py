"""Fault-site addressing and injection modes.

A *fault site* is one bit of one latch — the granularity at which the paper
flips state ("fault injection into arbitrary latches ... the fault may
exist for the duration of a cycle (toggle mode) or for a larger number of
cycles (sticky mode)").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.rtl.latch import Latch


class InjectionMode(enum.Enum):
    """How long the injected fault is driven.

    TOGGLE flips the bit once and lets the logic evolve it; STICKY forces
    the flipped level for a number of cycles (modelling e.g. a stuck node),
    re-asserting it even if functional logic rewrites the latch.
    """

    TOGGLE = "toggle"
    STICKY = "sticky"


@dataclass(frozen=True)
class FaultSite:
    """One injectable bit: ``latch`` plus a bit index within it.

    ``bit == latch.width`` addresses the latch's *parity bit* (protected
    latches physically carry one more storage bit; it upsets like any
    other, producing a detected-but-harmless error when consumed).
    """

    latch: Latch
    bit: int

    def __post_init__(self) -> None:
        limit = self.latch.width + (1 if self.latch.protected else 0)
        if not 0 <= self.bit < limit:
            raise ValueError(
                f"bit {self.bit} out of range for latch {self.latch.name!r}")

    @property
    def is_parity_bit(self) -> bool:
        return self.bit == self.latch.width

    @property
    def name(self) -> str:
        suffix = "p" if self.is_parity_bit else str(self.bit)
        return f"{self.latch.name}.{suffix}"

    def inject(self) -> int:
        """Flip the bit; returns the *new* level (used to hold sticky faults)."""
        if self.is_parity_bit:
            self.latch.par ^= 1
            return self.latch.par
        self.latch.flip(self.bit)
        return self.latch.bit(self.bit)

    def hold(self, level: int) -> None:
        """Re-assert ``level`` on the bit (sticky mode)."""
        if self.is_parity_bit:
            self.latch.par = level
        else:
            self.latch.force_bit(self.bit, level)

    def current(self) -> int:
        if self.is_parity_bit:
            return self.latch.par
        return self.latch.bit(self.bit)

