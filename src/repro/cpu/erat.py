"""Effective-to-real address translation (ERAT) arrays.

POWER-class cores translate every fetch and every data access through
small, fully-associative ERAT caches whose entries are parity-protected
latches.  They are among the hottest latch populations in the LSU/IFU:

* an entry parity error is correctable (invalidate + refill);
* a VPN corruption that makes two entries match the same page is a
  *multi-hit* — detected by dedicated compare logic and fatal (checkstop);
* an RPN corruption with clean parity silently translates to the wrong
  physical page — a genuine silent-data-corruption path.

The modelled translation is identity (RPN is refilled with the VPN), so
the machine is functionally transparent while keeping every one of those
failure modes live.
"""

from __future__ import annotations

from repro.rtl.module import HwModule

PAGE_BITS = 8  # 256-byte pages keep several entries hot under the AVP
VPN_WIDTH = 20
RPN_WIDTH = 20


class Erat(HwModule):
    """A small fully-associative translation cache."""

    def __init__(self, name: str, entries: int, ring: str) -> None:
        super().__init__(name)
        self.entries = entries
        self.vpn = self.add_bank("vpn", entries, VPN_WIDTH, protected=True,
                                 ring=ring)
        self.rpn = self.add_bank("rpn", entries, RPN_WIDTH, protected=True,
                                 ring=ring)
        self.valid = self.add_latch("valid", entries, ring=ring)
        self.victim = self.add_latch("victim", max(1, (entries - 1).bit_length()),
                                     ring=ring)

    def translate(self, addr: int) -> tuple[str, int]:
        """Translate ``addr``.

        Returns ``(status, physical_addr)`` with status one of ``"ok"``,
        ``"parity"`` (matching entry has a parity error — caller treats it
        as a correctable event and retries) or ``"multihit"`` (fatal).
        A miss refills an entry (identity mapping) and translates.
        """
        vpn = (addr >> PAGE_BITS) & ((1 << VPN_WIDTH) - 1)
        offset = addr & ((1 << PAGE_BITS) - 1)
        valid = self.valid.value
        # Every valid entry's VPN is read, in entry order, even after a
        # hit: a second match is a multi-hit.
        hits = 0
        entry = 0
        for i, vpn_latch in enumerate(self.vpn):
            if (valid >> i) & 1 and vpn_latch.value == vpn:
                if not hits:
                    entry = i
                hits += 1
        if hits > 1:
            return "multihit", 0
        if hits:
            if not self.vpn[entry].parity_ok() or not self.rpn[entry].parity_ok():
                return "parity", entry
            return "ok", (self.rpn[entry].value << PAGE_BITS) | offset
        # Miss: allocate round-robin with an identity mapping.
        victim = self.victim.value % self.entries
        self.vpn[victim].write(vpn)
        self.rpn[victim].write(vpn)
        self.valid.write(valid | (1 << victim))
        self.victim.write((victim + 1) % self.entries)
        return "ok", (vpn << PAGE_BITS) | offset

    def invalidate_entry(self, entry: int) -> None:
        self.valid.write(self.valid.value & ~(1 << (entry % self.entries)))

    def invalidate_all(self) -> None:
        self.valid.write(0)
