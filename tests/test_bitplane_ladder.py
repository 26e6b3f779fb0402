"""The bit-plane prepare fits its dense rungs into the ladder bound.

A peeled wave lane re-enters the scalar path from the nearest ladder
rung at or below its first-read cycle, so the bit-plane prepare lays a
dense rung every ``dense_rung_stride`` cycles on top of the fast path's
``ckpt_stride`` rungs.  The ladder is an LRU capped at
``ladder_max_rungs``: rungs it evicts during prepare are rungs the
campaign can never use, so the stride is derived — the smallest one at
or above ``BITPLANE_RUNG_STRIDE`` at which every testcase's rungs fit.
"""

from __future__ import annotations

import pytest

from repro.emulator.bitplane import BITPLANE_RUNG_STRIDE
from repro.sfi import CampaignConfig, SfiExperiment

from tests.difftools import run_campaign


@pytest.fixture(scope="module")
def cli_default():
    """``repro-sfi campaign --backend bitplane``'s experiment."""
    return SfiExperiment(CampaignConfig(suite_size=4, backend="bitplane"))


def _rungs_needed(experiment, stride: int) -> int:
    """Distinct rungs the suite needs at a dense ``stride``: the
    reference run's ``ckpt_stride`` rungs below the golden end, plus a
    dense rung at every multiple of ``stride`` up to the end."""
    ckpt = experiment.config.ckpt_stride
    needed = 0
    for golden in experiment.goldens:
        end = golden.end_cycle
        needed += len(set(range(ckpt, end, ckpt))
                      | set(range(stride, end + 1, stride)))
    return needed


def test_every_testcase_holds_its_dense_rungs(cli_default):
    experiment = cli_default
    stride = experiment.dense_rung_stride
    assert stride is not None and stride >= BITPLANE_RUNG_STRIDE
    ckpt = experiment.config.ckpt_stride
    for index, golden in enumerate(experiment.goldens):
        held = set(experiment.emulator.rung_cycles(f"tc{index}"))
        end = golden.end_cycle
        assert set(range(stride, end + 1, stride)) <= held, index
        assert set(range(ckpt, end, ckpt)) <= held, index


def test_ladder_holds_its_bound_and_evicted_nothing(cli_default):
    emulator = cli_default.emulator
    assert emulator.rung_count() <= cli_default.config.ladder_max_rungs
    assert emulator.stats.rung_evictions == 0
    assert emulator.rung_count() == _rungs_needed(
        cli_default, cli_default.dense_rung_stride)


def test_stride_is_the_smallest_that_fits(cli_default):
    stride = cli_default.dense_rung_stride
    bound = cli_default.config.ladder_max_rungs
    assert _rungs_needed(cli_default, stride) <= bound
    for narrower in range(BITPLANE_RUNG_STRIDE, stride):
        assert _rungs_needed(cli_default, narrower) > bound, narrower


def test_no_dense_rungs_when_none_fit():
    """With a ladder too small for even one dense rung per testcase the
    prepare lays none (rather than evicting), and peeled lanes still
    write the slow path's records."""
    seed, flips = 4, 24
    experiment, result = run_campaign({}, seed, flips, backend="bitplane",
                                      ladder_max_rungs=0)
    assert experiment.dense_rung_stride is None
    assert experiment.emulator.rung_count() == 0
    sites = [record.site_index for record in result.records]
    slow = run_campaign({}, seed, flips, sites=sites, fastpath=False)[1]
    assert result.records == slow.records
