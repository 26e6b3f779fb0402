"""Differential equivalence suite for the fast-path campaign layer.

The fast path (checkpoint ladder + early exits, see
``repro/sfi/campaign.py``) claims to be *bit-identical* to the seed slow
path: same outcome, same inject cycle, same event trace, for every
(site, cycle, testcase, stride).  This suite enforces the claim over
randomized mini-campaigns whose slow-path outcomes span every class —
vanished, corrected, hang, checkstop and SDC — across ladder strides
K in {1, 7, 64, inf}, and searches with hypothesis the frozen exit's
boundary (inject cycles around the injected latch's last golden touch)
and the rung boundary where a drain takes the ``golden`` exit.

Campaign plumbing and failing-seed reporting live in
``tests/difftools.py`` (shared with the bit-plane suite).
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.rtl.fault import InjectionMode
from repro.sfi import CampaignConfig, ClassifyOptions, SfiExperiment
from repro.sfi.outcomes import Outcome

from tests.difftools import (BASE_CONFIG, report_mismatches, run_campaign,
                             sample_sites)

pytestmark = pytest.mark.differential

#: name -> (config overrides, campaign seed, flips).  Seeds are chosen so
#: the slow-path outcomes of these mini-campaigns jointly cover every
#: outcome class (asserted below, so drift is loud).
CASES = {
    "toggle": (dict(), 4, 40),
    "sticky-checkstop": (dict(injection_mode=InjectionMode.STICKY,
                              sticky_cycles=64), 7, 60),
    "sticky-sdc": (dict(injection_mode=InjectionMode.STICKY,
                        sticky_cycles=64), 8, 60),
    "raw-hang": (dict(checker_mask=0,
                      classify_options=ClassifyOptions(
                          latent_as_vanished=True)), 1, 60),
}

#: Ladder strides under test; None is the K = inf case (no mid-execution
#: rungs: every injection falls back to the cycle-0 checkpoint, and with
#: no rung to compare against no drain exits early; only the frozen exit
#: is left, and records stay bit-identical).
STRIDES = {"K1": 1, "K7": 7, "K64": 64, "Kinf": None}


def _campaign(case: str, *, fastpath: bool, ckpt_stride=64):
    overrides, seed, flips = CASES[case]
    return run_campaign(overrides, seed, flips, fastpath=fastpath,
                        ckpt_stride=ckpt_stride)


@pytest.fixture(scope="module")
def slow_records():
    """Slow-path reference records, computed once per case."""
    cache = {}

    def get(case: str):
        if case not in cache:
            cache[case] = _campaign(case, fastpath=False)[1].records
        return cache[case]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("stride_name", sorted(STRIDES))
def test_fast_path_records_bit_identical(case, stride_name, slow_records):
    slow = slow_records(case)
    experiment, result = _campaign(case, fastpath=True,
                                   ckpt_stride=STRIDES[stride_name])
    mismatches = report_mismatches(f"{case}/{stride_name}", CASES[case][1],
                                   slow, result.records)
    assert not mismatches, \
        "fast path diverged from slow path:\n" + "\n".join(mismatches)
    assert len(slow) == len(result.records)


def test_cases_cover_every_outcome_class(slow_records):
    """The mini-campaigns exercise all five outcome destinies, so the
    bit-identical assertions above cover every classification path."""
    seen = {record.outcome
            for case in CASES for record in slow_records(case)}
    assert seen == set(Outcome)


def test_fast_path_simulates_fewer_cycles(slow_records):
    """The point of the ladder + early exits: strictly less engine time."""
    slow_exp, _ = _campaign("toggle", fastpath=False)
    fast_exp, _ = _campaign("toggle", fastpath=True)
    assert fast_exp.emulator.stats.cycles_run \
        < slow_exp.emulator.stats.cycles_run


def test_trace_ring_truncation_under_pressure(slow_records):
    """PR 2's 512-event ring bound, shrunk to 4: an early-exited trial
    splices the golden event tail through the same ring machinery a full
    drain records through, so truncation (which events survive, and the
    dropped count baked into the trace) is bit-identical."""
    overrides, seed, flips = CASES["toggle"]
    for fastpath in (False, True):
        config = CampaignConfig(**BASE_CONFIG, **overrides,
                                fastpath=fastpath, trace_max_events=4)
        experiment = SfiExperiment(config)
        sites = sample_sites(experiment, flips, seed)
        result = experiment.run_campaign(sites, seed)
        if not fastpath:
            slow = result.records
    assert [r.trace for r in slow] == [r.trace for r in result.records]
    assert slow == result.records
    assert all(len(r.trace) <= 4 for r in slow)


# ----------------------------------------------------------------------
# Property: the frozen exit's boundary.

@pytest.fixture(scope="module")
def boundary_experiments():
    """Mini-suite experiments per (injection mode, fastpath)."""
    return {(mode, fastpath): SfiExperiment(CampaignConfig(
                **BASE_CONFIG, injection_mode=mode, fastpath=fastpath))
            for mode in InjectionMode for fastpath in (False, True)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_frozen_exit_boundary(boundary_experiments, data):
    """A trial of either injection mode takes the frozen exit exactly
    when golden's last touch of the injected latch is at or before the
    inject cycle, and its record and final state equal the slow path's,
    within two cycles of that touch and after the last rung boundary
    (where no rung is left to exit at)."""
    fast = boundary_experiments[(InjectionMode.TOGGLE, True)]
    latch_map = fast.latch_map
    testcase = data.draw(st.integers(0, len(fast.suite) - 1),
                         label="testcase")
    golden = fast.goldens[testcase]
    assert golden.usable
    end = golden.end_cycle

    def last_touch(site: int) -> int:
        position = fast._latch_index[id(latch_map.site(site).latch)]
        return golden.last_touch.get(position, -1)

    offset = data.draw(st.sampled_from((-2, -1, 0, 1, 2, "tail")),
                       label="offset")
    if offset == "tail":
        site = data.draw(st.integers(0, len(latch_map) - 1), label="site")
        stride = fast.config.ckpt_stride
        cycle = data.draw(st.integers((end - 1) // stride * stride, end - 1),
                          label="inject_cycle")
    else:
        touched = [site for site in range(len(latch_map))
                   if 2 <= last_touch(site) <= end - 3]
        site = data.draw(st.sampled_from(touched), label="site")
        cycle = last_touch(site) + offset
    for mode in InjectionMode:
        slow = boundary_experiments[(mode, False)]
        quick = boundary_experiments[(mode, True)]
        expected = slow.run_one(site, testcase, cycle)
        record = quick.run_one(site, testcase, cycle)
        mismatches = report_mismatches(f"frozen-boundary/{mode.value}",
                                       None, [expected], [record])
        assert not mismatches, "\n".join(mismatches)
        assert quick.core.snapshot() == slow.core.snapshot(), (
            f"final state differs: mode={mode.value} site={site} "
            f"testcase={testcase} cycle={cycle}")
        frozen = quick.last_fastpath.get("exit") == "frozen"
        assert frozen == (last_touch(site) <= cycle), (
            f"frozen={frozen}: mode={mode.value} site={site} "
            f"testcase={testcase} cycle={cycle}")


# ----------------------------------------------------------------------
# Property: a drain exits at exactly the first rung its machine equals.

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_golden_exit_at_first_matching_rung(boundary_experiments, data):
    """An untracked trial that drains (its flip is not frozen) exits
    ``golden`` at exactly the first rung boundary after the flip where
    the slow path's machine equals that rung and no sticky fault is
    held, and drains in full when there is no such boundary.  Its record
    equals the slow path's either way."""
    mode = data.draw(st.sampled_from(list(InjectionMode)), label="mode")
    slow = boundary_experiments[(mode, False)]
    fast = boundary_experiments[(mode, True)]
    latch_map = fast.latch_map
    testcase = data.draw(st.integers(0, len(fast.suite) - 1),
                         label="testcase")
    golden = fast.goldens[testcase]
    assert golden.usable
    end = golden.end_cycle
    stride = fast.config.ckpt_stride
    # Half the draws flip within a sticky window before a rung boundary,
    # where a STICKY trial may equal the rung while its fault still holds.
    near = st.builds(lambda boundary, back: boundary * stride - back,
                     st.integers(1, (end - 1) // stride),
                     st.integers(1, fast.config.sticky_cycles))
    cycle = data.draw(st.integers(0, end - 1) | near, label="inject_cycle")
    drained = [site for site in range(len(latch_map))
               if golden.last_touch.get(fast._latch_index[
                   id(latch_map.site(site).latch)], -1) > cycle]
    site = data.draw(st.sampled_from(drained), label="site")
    name = fast._ckpt_name(testcase)
    ladder = fast.emulator

    # The slow path's trial, paused at every rung boundary after the flip.
    emulator, core = slow.emulator, slow.core
    emulator.reload(name)
    emulator.clock(cycle)
    emulator.inject(site, mode, slow.config.sticky_cycles)
    expected = None
    for boundary in range((cycle // stride + 1) * stride, end, stride):
        step = boundary - core.cycles
        if emulator.clock(step) < step or core.quiesced:
            break
        rung = ladder.rung(name, boundary)
        if rung is not None and not emulator.sticky_pending \
                and core.same_state(rung):
            expected = boundary
            break

    record = fast.run_one(site, testcase, cycle)
    where = f"mode={mode.value} site={site} testcase={testcase} cycle={cycle}"
    assert record == slow.run_one(site, testcase, cycle), where
    extras = fast.last_fastpath
    event("full drain" if expected is None else "golden exit")
    if expected is None:
        assert "exit" not in extras, f"{extras}: {where}"
        return
    assert extras.get("exit") == "golden", f"{extras}: {where}"
    entry = next((c for c in range(cycle // stride * stride, 0, -stride)
                  if ladder.rung(name, c) is not None), 0)
    # saved_cycles = entry rung's cycle + the golden cycles after the exit.
    assert entry + end - extras["saved_cycles"] == expected, where
