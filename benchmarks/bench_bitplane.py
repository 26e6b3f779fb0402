"""Bit-plane backend speedup — in-plane waves and scalar peels.

PR 9's bit-plane backend claims a >=5x reduction in *campaign* cycles
simulated per trial over the PR-4 fast path on the seed campaign, while
staying bit-identical to it (and the fast path is bit-identical to the
slow path by its own suite).  This bench runs the same mini-campaign
both ways on prepared machines, compares campaign-only cycle deltas
(both sides prepare identically-sized golden instrumentation; the
bit-plane side additionally compiles each golden's schedule), checks
record equality, and publishes ``benchmarks/results/BENCH_bitplane.json``.

Wall-clock figures sit beside the cycle counts: each side is prepared
and run :data:`_REPEATS` times from scratch (the schedule cache is
cleared, so every bit-plane repetition pays its compile), campaign and
prepare seconds are reported as the minimum with the max−min spread,
and the bit-plane's own prepare — the schedule compile — is timed
separately, because a backend's speedup is only real once the set-up
it needs is counted.

The trial count is pinned, not ``scaled()``: the speedup is a property
of the seed campaign's lane-fate mix (how many lanes converge or
survive in-plane, how many peel), and shrinking or growing the sample
changes the mix being measured, not the measurement's cost-accuracy
trade-off.
"""

import random
import time

from repro.cpu import CoreParams
from repro.emulator import bitplane
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

from benchmarks.conftest import publish, write_bench_json

_SEED = 2008
_TRIALS = 120
_REPEATS = 3
_PARAMS = CoreParams(scale=0.15, icache_lines=32, dcache_lines=32)

#: The bit-plane-only prepare phase: the schedule compile.
_BITPLANE_PHASES = ("_compile_schedule",)


def _campaign(backend: str):
    bitplane._SCHEDULE_CACHE.clear()
    config = CampaignConfig(suite_size=2, suite_seed=99,
                            core_params=_PARAMS, backend=backend)
    experiment = SfiExperiment(config)
    sites = random_sample(experiment.latch_map, _TRIALS,
                          random.Random(_SEED ^ 0x5F1))
    prepared = experiment.emulator.stats.cycles_run
    start = time.perf_counter()
    result = experiment.run_campaign(sites, seed=_SEED)
    wall = time.perf_counter() - start
    campaign_cycles = experiment.emulator.stats.cycles_run - prepared
    return experiment, result, campaign_cycles, wall


def _timed_phases(monkeypatch, spent: list) -> None:
    """Add the time spent in the bit-plane prepare phases to ``spent``."""
    def timed(original):
        def method(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[-1] += time.perf_counter() - start
        return method

    for name in _BITPLANE_PHASES:
        monkeypatch.setattr(SfiExperiment, name,
                            timed(getattr(SfiExperiment, name)))


def _seconds(samples: list) -> dict:
    return {"min": round(min(samples), 4),
            "spread": round(max(samples) - min(samples), 4)}


def _side(campaign_cycles: int, walls: list, prepares: list) -> dict:
    wall = min(walls)
    return {
        "wall_seconds": round(wall, 4),
        "wall_spread": round(max(walls) - wall, 4),
        "trials_per_second": round(_TRIALS / wall, 2),
        "campaign_cycles": campaign_cycles,
        "cycles_per_trial": round(campaign_cycles / _TRIALS, 1),
        "prepare_seconds": _seconds(prepares),
    }


def test_bitplane_speedup(benchmark, monkeypatch):
    phase_seconds: list = []
    _timed_phases(monkeypatch, phase_seconds)

    def run():
        sides = {"scalar": [], "bitplane": []}
        for _ in range(_REPEATS):
            for backend, runs in sides.items():
                phase_seconds.append(0.0)
                runs.append(_campaign(backend))
        return sides

    sides = benchmark.pedantic(run, rounds=1, iterations=1)
    (_, fast_result, fast_cycles, _) = sides["scalar"][0]
    (_, bp_result, bp_cycles, _) = sides["bitplane"][0]
    walls = {backend: [wall for *_, wall in runs]
             for backend, runs in sides.items()}
    prepares = {backend: [run[0].prepare_seconds for run in runs]
                for backend, runs in sides.items()}
    assert all(cycles == fast_cycles for _, _, cycles, _ in sides["scalar"])
    assert all(cycles == bp_cycles for _, _, cycles, _ in sides["bitplane"])

    fast = _side(fast_cycles, walls["scalar"], prepares["scalar"])
    bitplane_side = _side(bp_cycles, walls["bitplane"],
                          prepares["bitplane"])
    bitplane_side["compile_seconds"] = _seconds(phase_seconds[1::2])
    cycles_speedup = fast_cycles / bp_cycles
    wall_speedup = min(walls["scalar"]) / min(walls["bitplane"])
    with_prepare = ((min(walls["scalar"]) + min(prepares["scalar"]))
                    / (min(walls["bitplane"]) + min(prepares["bitplane"])))
    detail = {
        "workload": "AVP suite (Table-1 mix)",
        "trials": _TRIALS,
        "suite_size": 2,
        "repeats": _REPEATS,
        "fastpath": fast,
        "bitplane": bitplane_side,
        "speedup_cycles": round(cycles_speedup, 2),
        "speedup_wall": round(wall_speedup, 2),
        "speedup_wall_with_prepare": round(with_prepare, 2),
        "records_bit_identical": fast_result.records == bp_result.records,
    }
    write_bench_json(
        "bitplane", "speedup_cycles", detail["speedup_cycles"], 5.0,
        cycles_speedup >= 5.0 and detail["records_bit_identical"],
        detail=detail)

    bp_compile = bitplane_side["compile_seconds"]
    lines = [
        "Bit-plane backend speedup (in-plane waves + scalar peels)",
        f"  trials:                    {_TRIALS}  (AVP suite, Table-1 mix,"
        " pinned)",
        f"  fast-path cycles/trial:    {fast['cycles_per_trial']:10.1f}"
        f"   ({fast['trials_per_second']:.1f} trials/s)",
        f"  bit-plane cycles/trial:    "
        f"{bitplane_side['cycles_per_trial']:10.1f}"
        f"   ({bitplane_side['trials_per_second']:.1f} trials/s)",
        f"  campaign-cycles speedup:   {cycles_speedup:10.2f} x"
        "   (acceptance floor: 5x over the fast path)",
        f"  campaign wall, min of {_REPEATS}:  "
        f"fast path {fast['wall_seconds']:.3f} s "
        f"(spread {fast['wall_spread']:.3f}), "
        f"bit-plane {bitplane_side['wall_seconds']:.3f} s "
        f"(spread {bitplane_side['wall_spread']:.3f})",
        f"  wall-clock speedup:        {detail['speedup_wall']:10.2f} x",
        f"  prepare, min of {_REPEATS}:        "
        f"fast path {fast['prepare_seconds']['min']:.3f} s "
        f"(spread {fast['prepare_seconds']['spread']:.3f}), "
        f"bit-plane {bitplane_side['prepare_seconds']['min']:.3f} s "
        f"(spread {bitplane_side['prepare_seconds']['spread']:.3f})",
        f"  bit-plane schedule compile: {bp_compile['min']:.3f} s "
        f"(spread {bp_compile['spread']:.3f})",
        f"  wall speedup with prepare: "
        f"{detail['speedup_wall_with_prepare']:10.2f} x",
        f"  records bit-identical:     {detail['records_bit_identical']}",
    ]
    publish("bitplane", "\n".join(lines))

    # The claim, stated three ways: same answers, strictly fewer
    # campaign cycles, and at least the acceptance-floor reduction.
    assert fast_result.records == bp_result.records
    assert bp_cycles < fast_cycles
    assert cycles_speedup >= 5.0, \
        f"bit-plane only {cycles_speedup:.2f}x below the 5x floor"
