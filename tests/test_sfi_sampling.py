"""Latch-bit sampling strategies."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rtl import LatchKind
from repro.sfi import (
    kind_sample,
    random_sample,
    ring_fraction_sample,
    stratified_sample,
    unit_sample,
)


@pytest.fixture(scope="module")
def latch_map(request):
    from repro.cpu import Power6Core
    from repro.emulator import LatchMap
    from tests.conftest import SMALL_PARAMS
    return LatchMap(Power6Core(SMALL_PARAMS))


class TestRandomSample:
    @settings(max_examples=20, deadline=None)
    @given(count=st.integers(1, 500), seed=st.integers(0, 1000))
    def test_in_range(self, count, seed, latch_map):
        sample = random_sample(latch_map, count, random.Random(seed))
        assert len(sample) == count
        assert all(0 <= index < len(latch_map) for index in sample)

    def test_without_replacement_distinct(self, latch_map):
        sample = random_sample(latch_map, 300, random.Random(1),
                               with_replacement=False)
        assert len(set(sample)) == 300

    def test_without_replacement_bounded(self, latch_map):
        with pytest.raises(ValueError):
            random_sample(latch_map, len(latch_map) + 1, random.Random(1),
                          with_replacement=False)

    def test_deterministic_given_seed(self, latch_map):
        a = random_sample(latch_map, 50, random.Random(9))
        b = random_sample(latch_map, 50, random.Random(9))
        assert a == b


class TestTargetedSamples:
    def test_unit_sample_stays_in_unit(self, latch_map):
        for unit in latch_map.units():
            sample = unit_sample(latch_map, unit, 40, random.Random(3))
            assert all(latch_map.unit_of(index) == unit for index in sample)

    def test_kind_sample_stays_in_kind(self, latch_map):
        for kind in LatchKind:
            sample = kind_sample(latch_map, kind, 40, random.Random(3))
            assert all(latch_map.kind_of(index) is kind for index in sample)

    def test_ring_fraction_size(self, latch_map):
        ring = "MODE"
        population = len(latch_map.indices_for_ring(ring))
        sample = ring_fraction_sample(latch_map, ring, 0.10, random.Random(3))
        assert len(sample) == max(1, round(population * 0.10))
        assert len(set(sample)) == len(sample)  # distinct

    def test_ring_fraction_bounds(self, latch_map):
        with pytest.raises(ValueError):
            ring_fraction_sample(latch_map, "MODE", 0.0, random.Random(1))
        with pytest.raises(ValueError):
            ring_fraction_sample(latch_map, "MODE", 1.5, random.Random(1))

    def test_stratified_covers_all_units(self, latch_map):
        sample = stratified_sample(latch_map, 10, random.Random(2))
        units = {latch_map.unit_of(index) for index in sample}
        assert units == set(latch_map.units())
        assert len(sample) == 10 * len(latch_map.units())


class TestEmptyPopulation:
    """Empty selections raise the named error, not ``randrange(0)``'s
    opaque ``ValueError`` (and the error says which selector was empty)."""

    @pytest.fixture()
    def empty_map(self):
        class _BareCore:
            def all_latches(self):
                return []

            def unit_of(self, latch):  # pragma: no cover - never reached
                raise KeyError(latch)

        from repro.emulator import LatchMap
        return LatchMap(_BareCore())

    def test_random_sample_empty_map(self, empty_map):
        from repro.sfi import EmptyPopulationError
        with pytest.raises(EmptyPopulationError, match="whole-core"):
            random_sample(empty_map, 5, random.Random(1))

    def test_kind_sample_empty_kind(self, latch_map, empty_map):
        from repro.sfi import EmptyPopulationError
        with pytest.raises(EmptyPopulationError, match="FUNC"):
            kind_sample(empty_map, LatchKind.FUNC, 5, random.Random(1))

    def test_unit_sample_empty_unit(self, empty_map):
        # An unknown unit still raises KeyError (wrong name vs. empty
        # population are different mistakes); an empty *known* unit is
        # the EmptyPopulationError path.
        with pytest.raises(KeyError):
            unit_sample(empty_map, "IFU", 5, random.Random(1))
        empty_map._unit_spans["IFU"] = []
        from repro.sfi import EmptyPopulationError
        with pytest.raises(EmptyPopulationError, match="IFU"):
            unit_sample(empty_map, "IFU", 5, random.Random(1))

    def test_ring_fraction_empty_ring(self, empty_map):
        from repro.sfi import EmptyPopulationError
        empty_map._ring_spans["MODE"] = []
        with pytest.raises(EmptyPopulationError, match="MODE"):
            ring_fraction_sample(empty_map, "MODE", 0.1, random.Random(1))

    def test_error_is_a_value_error(self):
        from repro.sfi import EmptyPopulationError
        assert issubclass(EmptyPopulationError, ValueError)
        err = EmptyPopulationError("unit 'IFU'")
        assert err.selector == "unit 'IFU'"
        assert "no latch bits" in str(err)
