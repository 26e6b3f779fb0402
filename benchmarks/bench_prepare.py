"""Prepared-machine footprint — O(latches), not O(bits).

The paper's case for SFI is that "multiple concurrent copies of the
simulation environment can be run relatively easily" (§2.2), so what
one copy's prepared machine costs decides how many copies fit on a host
and how soon a pool worker joins.  This bench prepares the CLI-default
machine (suite of 4 AVP testcases, default ``CoreParams``) and records,
in ``benchmarks/results/BENCH_prepare.json`` and ``prepare.txt``:

* prepare seconds (``SfiExperiment(config)``), min of 5 with spread;
* install seconds of a shipped state (``SfiExperiment(config,
  prepared=state)``, what a spawned pool worker runs), min of 5 with
  spread, and the shipment's unpickle seconds;
* the bytes one prepared machine retains (tracemalloc);
* the shipment bytes (``pickle.dumps(machine.prepared,
  HIGHEST_PROTOCOL)``, what a local pool writes for its workers).

Only the two byte counts are gated; the timings depend on the host.  A
latch map with one object per bit (+~6 MB retained) or snapshots that
do not share their ``(value, par)`` pairs (+~3 MB retained, a
712,147-byte shipment) fails the gates.
"""

import gc
import pickle
import statistics
import time
import tracemalloc

from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi import campaign

from benchmarks.conftest import publish, write_bench_json

#: Measured 2,765,026 retained bytes and a 490,873-byte shipment
#: (Python 3.11, x86-64); each bound adds a margin for other builds.
_RETAINED_BUDGET_BYTES = 4_000_000
_SHIPMENT_BUDGET_BYTES = 560_000

_REPEATS = 5


def _spread(samples: list[float]) -> dict:
    return {"min": round(min(samples), 4),
            "median": round(statistics.median(samples), 4),
            "max": round(max(samples), 4)}


def _timed(make, repeats: int = _REPEATS) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        make()
        samples.append(time.perf_counter() - start)
    return samples


def _retained_bytes(config: CampaignConfig) -> int:
    """Bytes one prepared machine holds once built (tracemalloc).

    Imports and process caches are warm from the earlier prepares, and
    the process's prepared-machine slot is emptied first, so the
    machine it held is not freed inside the measurement."""
    campaign._PREPARED = None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        machine = SfiExperiment(config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del machine
    return retained


def test_prepared_machine_footprint():
    config = CampaignConfig(suite_size=4)
    machine = SfiExperiment(config)
    prepare = _timed(lambda: SfiExperiment(config))
    shipment = pickle.dumps(machine.prepared, pickle.HIGHEST_PROTOCOL)
    unpickle = _timed(lambda: pickle.loads(shipment))
    state = pickle.loads(shipment)
    install = _timed(lambda: SfiExperiment(config, prepared=state))
    sites = len(machine.latch_map)
    del machine, state
    retained = _retained_bytes(config)

    passed = (retained <= _RETAINED_BUDGET_BYTES
              and len(shipment) <= _SHIPMENT_BUDGET_BYTES)
    detail = {
        "config": "CampaignConfig(suite_size=4)",
        "sites": sites,
        "prepare_seconds": _spread(prepare),
        "install_seconds": _spread(install),
        "unpickle_seconds": _spread(unpickle),
        "retained_bytes": retained,
        "retained_budget_bytes": _RETAINED_BUDGET_BYTES,
        "shipment_bytes": len(shipment),
        "shipment_budget_bytes": _SHIPMENT_BUDGET_BYTES,
    }
    write_bench_json("prepare", "retained_bytes", retained,
                     _RETAINED_BUDGET_BYTES, passed, detail=detail)

    lines = [
        "Prepared-machine footprint (CLI default: suite 4, default core)",
        f"  prepare:          {min(prepare):>10.3f} s"
        f"   (min of {_REPEATS}; max {max(prepare):.3f} s)",
        f"  install shipped:  {min(install) * 1e3:>10.1f} ms"
        f"  (min of {_REPEATS}; max {max(install) * 1e3:.1f} ms)",
        f"  unpickle:         {min(unpickle) * 1e3:>10.1f} ms"
        f"  (min of {_REPEATS}; max {max(unpickle) * 1e3:.1f} ms)",
        f"  retained:         {retained:>10,} B"
        f"  (budget: <={_RETAINED_BUDGET_BYTES:,} B)",
        f"  shipment:         {len(shipment):>10,} B"
        f"  (budget: <={_SHIPMENT_BUDGET_BYTES:,} B)",
    ]
    publish("prepare", "\n".join(lines))

    assert retained <= _RETAINED_BUDGET_BYTES, \
        (f"one prepared machine retains {retained:,} bytes against the "
         f"{_RETAINED_BUDGET_BYTES:,}-byte budget")
    assert len(shipment) <= _SHIPMENT_BUDGET_BYTES, \
        (f"the pool shipment pickles to {len(shipment):,} bytes against "
         f"the {_SHIPMENT_BUDGET_BYTES:,}-byte budget")
