"""Differential equivalence suite for the bit-plane backend.

``backend="bitplane"`` packs up to 63 trials into one plane word and
reconstructs most records without simulating a single trial cycle; the
claim, exactly like the fast path's, is records *bit-identical* to the
seed slow path — same outcome, same inject cycle, same event trace —
for every lane fate: in-plane converge/survive reconstructions, and
peeled lanes and the non-TOGGLE fallback, both of which run the scalar
trial.

The suite runs the fixed mini-campaigns of the fast-path suite (their
slow-path outcomes jointly span every class) across wave sizes
{1, 2, 63}, plus seed-randomized campaigns whose failures are shrunk to
a 1-minimal site list before reporting.  Campaign plumbing, repro-line
reporting (``FASTPATH_REPRO_FILE``) and the shrinker live in
``tests/difftools.py``.
"""

from __future__ import annotations

import pytest

from repro.rtl.fault import InjectionMode
from repro.sfi import ClassifyOptions
from repro.sfi.outcomes import Outcome

from tests.difftools import (report_mismatches, run_campaign,
                             shrink_failing_sites)

pytestmark = pytest.mark.differential

#: Same shape as the fast-path suite's table: name -> (config
#: overrides, campaign seed, flips), jointly covering all five outcome
#: classes (asserted below).  The sticky cases exercise the scalar
#: fallback (non-TOGGLE modes cannot be resolved in-plane), the toggle
#: and raw-hang cases the in-plane fates and peels.
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

#: Wave sizes under test: degenerate single-lane waves, the smallest
#: plane that can pair trials, and the full 63-trial word.
WAVES = {"W1": 1, "W2": 2, "W63": 63}


def _slow(case: str, *, sites=None):
    overrides, seed, flips = CASES[case]
    return run_campaign(overrides, seed, flips, sites=sites,
                        fastpath=False)


def _bitplane(case: str, *, wave_lanes: int = 63, sites=None, **kwargs):
    overrides, seed, flips = CASES[case]
    return run_campaign(overrides, seed, flips, sites=sites,
                        backend="bitplane", wave_lanes=wave_lanes,
                        **kwargs)


@pytest.fixture(scope="module")
def slow_records():
    """Slow-path reference records, computed once per case."""
    cache = {}

    def get(case: str):
        if case not in cache:
            cache[case] = _slow(case)[1].records
        return cache[case]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("wave_name", sorted(WAVES))
def test_bitplane_records_bit_identical(case, wave_name, slow_records):
    slow = slow_records(case)
    experiment, result = _bitplane(case, wave_lanes=WAVES[wave_name])
    mismatches = report_mismatches(f"bitplane/{case}/{wave_name}",
                                   CASES[case][1], slow, result.records)
    assert not mismatches, \
        "bit-plane backend diverged from slow path:\n" + \
        "\n".join(mismatches)
    assert len(slow) == len(result.records)


def test_cases_cover_every_outcome_class(slow_records):
    """The mini-campaigns exercise all five outcome destinies, so the
    bit-identical assertions above cover every classification path."""
    seen = {record.outcome
            for case in CASES for record in slow_records(case)}
    assert seen == set(Outcome)


def test_seed_randomized_campaigns_with_shrinking(slow_records):
    """Randomized seeds beyond the fixed table; a failure shrinks to a
    1-minimal failing site list before reporting, so the repro line
    names the smallest campaign that still diverges."""
    for seed in (11, 23, 47):
        def both(sites, seed=seed):
            slow = run_campaign({}, seed, 30, sites=sites,
                                fastpath=False)[1].records
            fast = run_campaign({}, seed, 30, sites=sites,
                                backend="bitplane")[1].records
            return slow, fast

        _, slow_result = run_campaign({}, seed, 30, fastpath=False)
        _, fast_result = run_campaign({}, seed, 30, backend="bitplane")
        if slow_result.records != fast_result.records:
            sites = [record.site_index for record in slow_result.records]
            def failing(subset):
                slow, fast = both(subset)
                return slow != fast

            minimal = shrink_failing_sites(sites, failing)
            slow, fast = both(minimal)
            lines = report_mismatches(f"bitplane/shrunk-{len(minimal)}",
                                      seed, slow, fast)
            pytest.fail(f"seed {seed} diverged; 1-minimal repro "
                        f"({len(minimal)} sites):\n" + "\n".join(lines))


def test_mid_wave_peels_alongside_plane_fates(slow_records):
    """A full-width wave mixes reconstructed lanes with peeled ones.

    The toggle campaign resolves some lanes in-plane (converge/survive,
    record reconstructed host-side) while peeling others of the *same
    wave* to the scalar trial; both kinds must coexist and still match
    the slow path record-for-record."""
    fates = {}
    _overrides, seed, _flips = CASES["toggle"]
    experiment, result = _bitplane("toggle", wave_lanes=63)
    # Re-run on the prepared experiment with a hook capturing each
    # position's fast-path diagnostics (records are rerun-stable).
    experiment.fastpath_hook = \
        lambda position, extras: fates.__setitem__(position, extras)
    sites = [record.site_index for record in result.records]
    result = experiment.run_campaign(sites, seed)
    wave_fates = {p for p, e in fates.items()
                  if str(e.get("exit", "")).startswith("wave-")}
    peeled = {p for p, e in fates.items()
              if not str(e.get("exit", "")).startswith("wave-")}
    assert wave_fates, "no lane resolved in-plane"
    assert peeled, "no lane peeled to the scalar path"
    # Lanes of one testcase share a wave (flips < 63): mixed fates for
    # the same testcase seed mean a genuine mid-wave peel.
    by_tc = {}
    for position, record in enumerate(result.records):
        kind = "wave" if position in wave_fates else "peel"
        by_tc.setdefault(record.testcase_seed, set()).add(kind)
    assert any(kinds == {"wave", "peel"} for kinds in by_tc.values())
    assert result.records == slow_records("toggle")


def test_trace_ring_truncation_under_pressure(slow_records):
    """The reconstructed records splice golden event tails through the
    same bounded ring a full drain records through — with the ring
    shrunk to 4 events, truncation must stay bit-identical."""
    overrides, seed, flips = CASES["toggle"]
    slow = run_campaign(overrides, seed, flips, fastpath=False,
                        trace_max_events=4)[1].records
    fast = run_campaign(overrides, seed, flips, backend="bitplane",
                        trace_max_events=4)[1].records
    assert [r.trace for r in slow] == [r.trace for r in fast]
    assert slow == fast
    assert all(len(r.trace) <= 4 for r in slow)


def test_bitplane_simulates_fewer_cycles(slow_records):
    """The point of the plane: strictly less engine time than even the
    scalar fast path on the same campaign."""
    overrides, seed, flips = CASES["toggle"]
    fast_exp, fast_result = run_campaign(overrides, seed, flips,
                                         fastpath=True)
    bp_exp, bp_result = _bitplane("toggle")
    assert bp_result.records == fast_result.records
    assert bp_exp.emulator.stats.cycles_run \
        < fast_exp.emulator.stats.cycles_run


def test_records_identical_without_ladder_rungs():
    """With ``ckpt_stride=None`` the ladder holds no rung, so every
    peeled lane replays from its testcase's cycle-0 checkpoint, and the
    records are still the slow path's."""
    seed, flips = 4, 24
    experiment, result = run_campaign({}, seed, flips, backend="bitplane",
                                      ckpt_stride=None)
    assert experiment.emulator.rung_count() == 0
    sites = [record.site_index for record in result.records]
    slow = run_campaign({}, seed, flips, sites=sites, fastpath=False)[1]
    assert result.records == slow.records
