"""Fast-path speedup — checkpoint ladder + early exits.

PR 4's campaign fast path claims a >=3x reduction in cycles simulated
per trial on the Table-1 workload mix (the AVP suite every campaign
runs) at the default ``--ckpt-stride``, while staying bit-identical to
the slow path.  This bench runs the same mini-campaign both ways on one
prepared machine, checks record equality, and publishes the numbers as
``benchmarks/results/BENCH_fastpath.json`` (plus a rendered text table),
with the fast side's early exits by reason as its instrumented registry
counts them (``sfi_early_exits_total``).  Every cycle count is the
campaign's own: prepare's golden reference runs are the same on both
sides and are left out.  Each side also records its prepare seconds
and its host speed, ``sim_cycles_per_s``: the cycles its campaign
simulated over the campaign's wall time.

CI runs this as the fast-path smoke: the strict-inequality assertion
(fast simulates *fewer* cycles) and the 3x floor gate regressions.
"""

import random
import time

from repro.cpu import CoreParams
from repro.obs.metrics import MetricsRegistry
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

from benchmarks.conftest import publish, scaled, write_bench_json

_SEED = 2008
_PARAMS = CoreParams(scale=0.15, icache_lines=32, dcache_lines=32)


def _campaign(fastpath: bool, flips: int):
    """One side: ``(experiment, result, campaign wall, prepare seconds,
    cycles the campaign itself simulated)``."""
    config = CampaignConfig(suite_size=2, suite_seed=99,
                            core_params=_PARAMS, fastpath=fastpath)
    start = time.perf_counter()
    experiment = SfiExperiment(config, metrics=MetricsRegistry())
    prepare = time.perf_counter() - start
    sites = random_sample(experiment.latch_map, flips,
                          random.Random(_SEED ^ 0x5F1))
    prepared_cycles = experiment.emulator.stats.cycles_run
    start = time.perf_counter()
    result = experiment.run_campaign(sites, seed=_SEED)
    wall = time.perf_counter() - start
    campaign_cycles = experiment.emulator.stats.cycles_run - prepared_cycles
    return experiment, result, wall, prepare, campaign_cycles


def _side(wall: float, flips: int, prepare: float,
          campaign_cycles: int) -> dict:
    """One side's figures, all over the campaign alone: the cycles it
    simulated, per trial and over its wall time (host speed)."""
    return {
        "wall_seconds": round(wall, 4),
        "trials_per_second": round(flips / wall, 2),
        "cycles_simulated": campaign_cycles,
        "cycles_per_trial": round(campaign_cycles / flips, 1),
        "sim_cycles_per_s": round(campaign_cycles / wall),
        "prepare_seconds": round(prepare, 4),
    }


def test_fastpath_speedup(benchmark):
    flips = scaled(120, minimum=40)

    def run():
        return _campaign(False, flips), _campaign(True, flips)

    slow_side, fast_side = benchmark.pedantic(run, rounds=1, iterations=1)
    _, slow_result, slow_wall = slow_side[:3]
    fast_exp, fast_result, fast_wall = fast_side[:3]

    slow = _side(slow_wall, flips, *slow_side[3:])
    fast = _side(fast_wall, flips, *fast_side[3:])
    cycles_speedup = slow["cycles_simulated"] / fast["cycles_simulated"]
    detail = {
        "workload": "AVP suite (Table-1 mix)",
        "trials": flips,
        "suite_size": 2,
        "ckpt_stride": CampaignConfig().ckpt_stride,
        "slow": slow,
        "fast": fast,
        "speedup_cycles": round(cycles_speedup, 2),
        "speedup_wall": round(slow_wall / fast_wall, 2),
        "records_bit_identical": slow_result.records == fast_result.records,
        "early_exits": {
            reason: int(count) for (reason,), count in sorted(
                fast_exp.metrics.get("sfi_early_exits_total")
                .series().items())},
        "ladder": {"hits": fast_exp.emulator.stats.ladder_hits,
                   "misses": fast_exp.emulator.stats.ladder_misses},
    }
    write_bench_json(
        "fastpath", "speedup_cycles", detail["speedup_cycles"], 3.0,
        cycles_speedup >= 3.0 and detail["records_bit_identical"],
        detail=detail)

    lines = [
        "Fast-path speedup (checkpoint ladder + early exits)",
        f"  trials:                    {flips}  (AVP suite, Table-1 mix)",
        f"  default ckpt stride:       {detail['ckpt_stride']}",
        f"  slow  cycles/trial:        {slow['cycles_per_trial']:10.1f}"
        f"   ({slow['trials_per_second']:.1f} trials/s)",
        f"  fast  cycles/trial:        {fast['cycles_per_trial']:10.1f}"
        f"   ({fast['trials_per_second']:.1f} trials/s)",
        f"  cycles-simulated speedup:  {cycles_speedup:10.2f} x"
        "   (acceptance floor: 3x)",
        f"  wall-clock speedup:        {detail['speedup_wall']:10.2f} x",
        f"  slow  host cycles/s:       {slow['sim_cycles_per_s']:10d}"
        f"   (prepare {slow['prepare_seconds']:.3f} s)",
        f"  fast  host cycles/s:       {fast['sim_cycles_per_s']:10d}"
        f"   (prepare {fast['prepare_seconds']:.3f} s)",
        "  early exits:               " + ", ".join(
            f"{reason} {count}"
            for reason, count in detail["early_exits"].items()),
        f"  records bit-identical:     {detail['records_bit_identical']}",
    ]
    publish("fastpath", "\n".join(lines))

    # The whole point, stated three ways: same answers, strictly less
    # engine time, and at least the acceptance-floor reduction.
    assert slow_result.records == fast_result.records
    assert fast["cycles_simulated"] < slow["cycles_simulated"]
    assert cycles_speedup >= 3.0, \
        f"fast path only {cycles_speedup:.2f}x below the 3x floor"
