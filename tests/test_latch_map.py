"""LatchMap's per-latch addressing equals a per-bit reference.

The reference enumerates the fault space the way the map once stored
it: one :class:`FaultSite` per injectable bit (value bits, then the
parity bit of a protected latch, latch by latch), a name dict and
per-unit, per-ring and per-kind index lists.  The map must answer every
query as the reference does, and raise ``IndexError`` / ``KeyError``
where the reference has no answer.
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Power6Core
from repro.emulator import LatchMap
from repro.rtl import FaultSite, LatchKind

from tests.conftest import SMALL_PARAMS

CORES = {"default": None, "small": SMALL_PARAMS}


class BitReference:
    """The per-bit enumeration of a core's injectable bits."""

    def __init__(self, core) -> None:
        self.core = core
        self.latches = core.all_latches()
        self.sites: list[FaultSite] = []
        self.by_unit: dict[str, list[int]] = {}
        self.by_ring: dict[str, list[int]] = {}
        self.by_kind: dict[LatchKind, list[int]] = {}
        self.by_name: dict[str, int] = {}
        # Each latch's first bit, last value bit and parity bit.
        self.edges: list[int] = []
        for latch in self.latches:
            unit = core.unit_of(latch)
            first = len(self.sites)
            self.edges += [first, first + latch.width - 1]
            if latch.protected:
                self.edges.append(first + latch.width)
            for bit in range(latch.width + (1 if latch.protected else 0)):
                index = len(self.sites)
                site = FaultSite(latch, bit)
                self.sites.append(site)
                self.by_unit.setdefault(unit, []).append(index)
                self.by_ring.setdefault(latch.ring, []).append(index)
                self.by_kind.setdefault(latch.kind, []).append(index)
                self.by_name[site.name] = index

    def site(self, index: int) -> FaultSite | None:
        return self.sites[index] if 0 <= index < len(self.sites) else None


@cache
def _pair(which: str) -> tuple[LatchMap, BitReference]:
    core = Power6Core(CORES[which])
    return LatchMap(core), BitReference(core)


@st.composite
def _indices(draw, reference: BitReference) -> int:
    total = len(reference.sites)
    return draw(st.one_of(st.integers(-3, total + 2),
                          st.sampled_from(reference.edges)))


@st.composite
def _names(draw, reference: BitReference) -> str:
    latch = draw(st.sampled_from(reference.latches))
    suffix = draw(st.one_of(
        st.integers(0, latch.width - 1).map(str),          # a value bit
        st.just("p"),                                      # parity
        st.integers(latch.width, latch.width + 3).map(str),  # too high
        st.integers(-3, -1).map(str),
        st.integers(0, latch.width - 1).map(lambda bit: f"0{bit}"),
        st.text(max_size=4),                               # garbage
    ))
    return f"{latch.name}.{suffix}"


@pytest.mark.parametrize("which", sorted(CORES))
def test_sites_by_index_match_reference(which):
    latch_map, reference = _pair(which)
    assert len(latch_map) == len(reference.sites)
    assert latch_map.all_indices() == range(len(reference.sites))

    @settings(max_examples=300, deadline=None)
    @given(_indices(reference))
    def check(index):
        expected = reference.site(index)
        if expected is None:
            for query in (latch_map.site, latch_map.unit_of,
                          latch_map.kind_of, latch_map.latch_of):
                with pytest.raises(IndexError):
                    query(index)
            return
        site = latch_map.site(index)
        assert site == expected
        assert site.name == expected.name
        assert latch_map.index_of(site.name) == reference.by_name[site.name]
        assert latch_map.unit_of(index) == reference.core.unit_of(
            expected.latch)
        assert latch_map.kind_of(index) is expected.latch.kind
        assert latch_map.latch_of(index) is expected.latch

    check()


@pytest.mark.parametrize("which", sorted(CORES))
def test_names_match_reference(which):
    latch_map, reference = _pair(which)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_names(reference), st.text(max_size=12)))
    def check(name):
        expected = reference.by_name.get(name)
        if expected is None:
            with pytest.raises(KeyError):
                latch_map.index_of(name)
        else:
            assert latch_map.index_of(name) == expected

    check()


@pytest.mark.parametrize("which", sorted(CORES))
def test_views_match_reference(which):
    latch_map, reference = _pair(which)
    for unit, indices in reference.by_unit.items():
        assert latch_map.indices_for_unit(unit) == indices
    for ring, indices in reference.by_ring.items():
        assert latch_map.indices_for_ring(ring) == indices
    for kind in LatchKind:
        assert latch_map.indices_for_kind(kind) == \
            reference.by_kind.get(kind, [])
    assert latch_map.units() == sorted(reference.by_unit)
    assert latch_map.rings() == sorted(reference.by_ring)
    assert list(latch_map.unit_bit_counts().items()) == [
        (unit, len(indices)) for unit, indices in reference.by_unit.items()]
    with pytest.raises(KeyError):
        latch_map.indices_for_unit("NOPE")
    with pytest.raises(KeyError):
        latch_map.indices_for_ring("NOPE")
    # Each call hands out a fresh list.
    unit = latch_map.units()[0]
    latch_map.indices_for_unit(unit).clear()
    assert latch_map.indices_for_unit(unit) == reference.by_unit[unit]

