"""Fault sites, injection modes, module hierarchy and scan rings."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import (
    FaultSite,
    HwModule,
    Latch,
    LatchKind,
    ScanRing,
    build_rings,
)


class TestFaultSite:
    def test_inject_flips_once(self):
        latch = Latch("t", 8)
        site = FaultSite(latch, 3)
        level = site.inject()
        assert level == 1 and latch.value == 8
        site.inject()
        assert latch.value == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FaultSite(Latch("t", 4), 4)  # unprotected: no parity site

    def test_parity_site_on_protected(self):
        latch = Latch("t", 4, protected=True)
        site = FaultSite(latch, 4)
        assert site.is_parity_bit
        site.inject()
        assert not latch.parity_ok()
        assert latch.value == 0  # data untouched

    def test_parity_site_name(self):
        latch = Latch("t", 4, protected=True)
        assert FaultSite(latch, 4).name == "t.p"

    def test_hold_reasserts(self):
        latch = Latch("t", 8)
        site = FaultSite(latch, 0)
        level = site.inject()
        latch.write(0)  # logic rewrites
        site.hold(level)
        assert site.current() == level


class TestHwModule:
    def test_hierarchy_and_counts(self):
        parent = HwModule("p")
        parent.add_latch("x", 8)
        child = parent.add_child(HwModule("c"))
        child.add_latch("y", 4)
        child.add_bank("z", 2, 2)
        assert parent.latch_bits() == 8 + 4 + 4
        names = [latch.name for latch in parent.all_latches()]
        assert names == ["p.x", "c.y", "c.z[0]", "c.z[1]"]

    def test_reset_latches_subtree(self):
        parent = HwModule("p")
        a = parent.add_latch("a", 8, reset_value=7)
        child = parent.add_child(HwModule("c"))
        b = child.add_latch("b", 8)
        a.write(0)
        b.write(1)
        parent.reset_latches()
        assert a.value == 7 and b.value == 0

    def test_local_vs_all(self):
        parent = HwModule("p")
        parent.add_latch("a", 1)
        child = parent.add_child(HwModule("c"))
        child.add_latch("b", 1)
        assert len(parent.local_latches()) == 1
        assert len(parent.all_latches()) == 2


class TestScanRing:
    @given(st.lists(st.integers(0, 0xFF), min_size=1, max_size=8))
    def test_shift_roundtrip(self, values):
        latches = [Latch(f"l{i}", 8, protected=True) for i in range(len(values))]
        for latch, value in zip(latches, values):
            latch.write(value)
        ring = ScanRing("r", latches)
        bits = ring.shift_out()
        for latch in latches:
            latch.write(0)
        ring.shift_in(bits)
        assert [latch.value for latch in latches] == values
        assert all(latch.parity_ok() for latch in latches)

    def test_shift_in_length_checked(self):
        ring = ScanRing("r", [Latch("a", 4)])
        with pytest.raises(ValueError):
            ring.shift_in([0, 1])

    def test_build_rings_groups_by_ring_name(self):
        latches = [Latch("a", 1, ring="X"), Latch("b", 1, ring="Y"),
                   Latch("c", 1, ring="X")]
        rings = build_rings(latches)
        assert sorted(rings) == ["X", "Y"]
        assert rings["X"].bit_count() == 2

    def test_mode_latches_group_into_mode_ring(self):
        latches = [Latch("m", 4, kind=LatchKind.MODE)]
        rings = build_rings(latches)
        assert "MODE" in rings
