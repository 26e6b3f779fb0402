"""Latch-bit sampling strategies.

The paper's methodology is *statistical*: a core holds hundreds of
thousands of latch bits, so campaigns sample.  Random whole-core sampling
reproduces the beam-calibration experiment (Table 2); per-unit and
per-scan-ring sampling are the targeted modes of §3.1 and §3.2.

Every drawing function takes an explicit ``random.Random``, or seeds
its own (:func:`campaign_sites`) — campaign reproducibility (and the
REPRO-D01 lint rule) forbids the implicitly seeded module singleton.
Sampling an empty population raises :class:`EmptyPopulationError`
naming the selector, instead of the opaque ``ValueError``
``rng.randrange(0)`` would surface.
"""

from __future__ import annotations

import random

from repro.emulator.netlist import LatchMap
from repro.rtl.latch import LatchKind


class EmptyPopulationError(ValueError):
    """A sampling request targeted a population with no latch bits.

    Raised instead of the bare ``ValueError`` that ``randrange(0)`` /
    ``sample()`` would produce, so a campaign misconfiguration (a unit
    with no latches, a kind absent from this model, an empty netlist)
    fails with the selector spelled out.
    """

    def __init__(self, selector: str) -> None:
        super().__init__(
            f"cannot sample from {selector}: it contains no latch bits "
            "(the fault space for this selection is empty)")
        self.selector = selector


def random_sample(latch_map: LatchMap, count: int, rng: random.Random,
                  with_replacement: bool = True) -> list[int]:
    """Uniform random site sample over the entire latch population.

    With replacement by default (a beam does not remember where it already
    struck); pass ``with_replacement=False`` for a distinct-site sample.
    """
    population = len(latch_map)
    if population == 0:
        raise EmptyPopulationError("the whole-core latch map")
    if with_replacement:
        return [rng.randrange(population) for _ in range(count)]
    if count > population:
        raise ValueError(f"cannot draw {count} distinct sites from {population}")
    return rng.sample(range(population), count)


def campaign_sites(latch_map: LatchMap, flips: int, seed: int) -> list[int]:
    """The ``flips`` sites of the whole-core random campaign ``seed``.

    A pure function of ``(seed, flips)``: a resumed, explained or served
    campaign regenerates exactly the plan its journal was written
    against.
    """
    return random_sample(latch_map, flips, random.Random(seed ^ 0x5F1))


def unit_sample(latch_map: LatchMap, unit: str, count: int,
                rng: random.Random) -> list[int]:
    """Uniform random sites within one micro-architectural unit."""
    indices = latch_map.indices_for_unit(unit)
    if not indices:
        raise EmptyPopulationError(f"unit {unit!r}")
    return [indices[rng.randrange(len(indices))] for _ in range(count)]


def ring_fraction_sample(latch_map: LatchMap, ring: str, fraction: float,
                         rng: random.Random) -> list[int]:
    """Sample ``fraction`` of a scan ring's bits (distinct), Figure 5 style
    ("approximately 10% of the latches in each scan chain")."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    indices = latch_map.indices_for_ring(ring)
    if not indices:
        raise EmptyPopulationError(f"scan ring {ring!r}")
    count = max(1, round(len(indices) * fraction))
    return rng.sample(indices, count)


def kind_sample(latch_map: LatchMap, kind: LatchKind, count: int,
                rng: random.Random) -> list[int]:
    """Uniform random sites of one latch type (MODE/GPTR/REGFILE/FUNC)."""
    indices = latch_map.indices_for_kind(kind)
    if not indices:
        raise EmptyPopulationError(f"latch kind {kind.value!r}")
    return [indices[rng.randrange(len(indices))] for _ in range(count)]


def stratified_sample(latch_map: LatchMap, per_unit: int,
                      rng: random.Random) -> list[int]:
    """Equal-count sample from every unit (for unit-vs-unit comparisons)."""
    sample: list[int] = []
    for unit in latch_map.units():
        sample.extend(unit_sample(latch_map, unit, per_unit, rng))
    return sample


def static_prior_allocation(latch_map: LatchMap, unit_bounds: dict,
                            total: int, *,
                            min_per_unit: int = 1) -> dict[str, int]:
    """Per-unit trial counts weighted by the static masking bounds.

    ``unit_bounds`` is ``StaticBounds.unit_bounds`` from
    :mod:`repro.analysis.static_bounds` (only each unit's ``bound`` is
    consulted; units the analysis never saw get bound 0).  Each unit is
    weighted by ``population_bits * (1 - bound)`` — the bits the
    analyzer could *not* prove masked, which are the only ones whose
    outcome a trial can still inform.  Equal-variance sampling over
    provably-VANISHED bits is wasted simulation; this skews trials
    toward the undecided fault space while keeping every unit at
    ``min_per_unit`` so the reconciliation gate retains a measurement
    to compare each bound against.

    Deterministic largest-remainder apportionment: the counts sum to
    ``max(total, units * min_per_unit)`` and depend only on the inputs.
    """
    units = latch_map.units()
    if not units:
        raise EmptyPopulationError("the whole-core latch map")
    weights = {}
    for unit in units:
        bits = len(latch_map.indices_for_unit(unit))
        bound = float(unit_bounds.get(unit, {}).get("bound", 0.0))
        weights[unit] = bits * max(0.0, 1.0 - bound)
    floor_total = sum(min_per_unit for _ in units)
    spread = max(total, floor_total) - floor_total
    mass = sum(weights.values())
    allocation = {unit: min_per_unit for unit in units}
    if spread and mass:
        quotas = {unit: spread * weights[unit] / mass for unit in units}
        for unit in units:
            allocation[unit] += int(quotas[unit])
        leftover = spread - sum(int(quotas[unit]) for unit in units)
        by_remainder = sorted(units,
                              key=lambda u: (-(quotas[u] - int(quotas[u])),
                                             u))
        for unit in by_remainder[:leftover]:
            allocation[unit] += 1
    return allocation


def prior_weighted_sample(latch_map: LatchMap, unit_bounds: dict,
                          total: int, rng: random.Random, *,
                          min_per_unit: int = 1) -> list[int]:
    """Stratified sample with strata sized by :func:`static_prior_allocation`.

    The draw order is the latch map's unit order, so one seeded
    ``random.Random`` reproduces the same sites across runs.
    """
    allocation = static_prior_allocation(latch_map, unit_bounds, total,
                                         min_per_unit=min_per_unit)
    sample: list[int] = []
    for unit in latch_map.units():
        sample.extend(unit_sample(latch_map, unit, allocation[unit], rng))
    return sample
