"""Differential equivalence suite for fault-provenance tracking.

Provenance (taint DAG capture, see ``repro/cpu/tainttrace.py`` and
``repro/sfi/campaign.py``) claims to be a pure *observer*: enabling it
must not change a single outcome record, event trace, or journal byte —
only side-channel payloads appear.  This suite enforces the claim over
the same mini-campaigns the fast-path differential suite uses, whose
slow-path outcomes jointly span every outcome class.

On the fast path a tracked flip (TOGGLE or STICKY) into a latch golden
never touches again takes the frozen exit: it is not simulated, and its
payload is that of a tracker seeded at the flip.  Any other tracked
trial enters from a ladder rung and ends at the first rung boundary
where its taint is inert (it equals the rung outside the tainted
latches), reconstructing the rest from the golden run.  So records are
asserted equal against both a ``fastpath=False`` and a ``fastpath=True``
untracked baseline, and the tracked fast path is held to the tracked
slow path (the oracle) on every payload and every final machine state
as well: on the mini-campaigns, on CLI-default campaigns (where both
exits are shown to be taken), over a hypothesis search of (site,
testcase, inject cycle, injection mode, tracked or not) and around the
frozen exit's boundary.  The tracker watches the reads of its tainted
latches only; a hypothesis search holds it to a tracker that sees every
read.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.access import trace
from repro.cpu.tainttrace import TaintTracker
from repro.obs.metrics import MetricsRegistry
from repro.rtl.fault import InjectionMode
from repro.sfi import CampaignConfig, SfiExperiment, campaign
from repro.sfi.outcomes import Outcome
from repro.sfi.sampling import random_sample
from repro.sfi.supervisor import CampaignSupervisor

from tests.difftools import BASE_CONFIG as _BASE, report_mismatches
from tests.test_fastpath_differential import CASES

pytestmark = pytest.mark.differential


def _campaign(case: str, *, provenance: bool, fastpath: bool):
    overrides, seed, flips = CASES[case]
    config = CampaignConfig(**_BASE, **overrides, fastpath=fastpath,
                            provenance=provenance)
    experiment = SfiExperiment(config)
    sites = random_sample(experiment.latch_map, flips,
                          random.Random(seed ^ 0x5F1))
    result = experiment.run_campaign(sites, seed)
    return experiment, result


def _tracked_trials(experiment: SfiExperiment, seed: int, flips: int):
    """Run a tracked campaign; returns per-position ``(record, payload,
    final core snapshot)`` in plan order."""
    payloads, finals = {}, {}
    experiment.provenance_hook = payloads.__setitem__
    sites = random_sample(experiment.latch_map, flips,
                          random.Random(seed ^ 0x5F1))

    def record_hook(position, record):
        finals[position] = experiment.core.snapshot()

    result = experiment.run_campaign(sites, seed, record_hook=record_hook)
    return [(record, payloads[position], finals[position])
            for position, record in enumerate(result.records)]


def _differences(label: str, oracle, fast) -> list[str]:
    """Positions where the tracked fast path's record, payload or final
    state differs from the slow path's."""
    assert len(oracle) == len(fast)
    lines = []
    for position, (slow, quick) in enumerate(zip(oracle, fast)):
        parts = [part for part, a, b in zip(("record", "payload", "final"),
                                            slow, quick) if a != b]
        if parts:
            lines.append(f"{label} position={position} "
                         f"site={slow[0].site_index} "
                         f"cycle={slow[0].inject_cycle} differs in "
                         + ", ".join(parts))
    return lines


@pytest.fixture(scope="module")
def tracked():
    """Tracked (provenance-on) trials, computed once per (case,
    fastpath)."""
    cache = {}

    def get(case: str, fastpath: bool):
        key = (case, fastpath)
        if key not in cache:
            overrides, seed, flips = CASES[case]
            experiment = SfiExperiment(CampaignConfig(
                **_BASE, **overrides, fastpath=fastpath, provenance=True))
            cache[key] = _tracked_trials(experiment, seed, flips)
        return cache[key]

    return get


@pytest.fixture(scope="module")
def baseline_records():
    """Provenance-off reference records, computed once per (case, fastpath)."""
    cache = {}

    def get(case: str, fastpath: bool):
        key = (case, fastpath)
        if key not in cache:
            cache[key] = _campaign(case, provenance=False,
                                   fastpath=fastpath)[1].records
        return cache[key]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["slowpath", "fastpath"])
def test_provenance_records_bit_identical(case, fastpath, baseline_records,
                                         tracked):
    baseline = baseline_records(case, fastpath)
    records = [record for record, _, _ in tracked(case, fastpath)]
    assert len(baseline) == len(records)
    for index, (off, on) in enumerate(zip(baseline, records)):
        assert off == on, (
            f"case={case} fastpath={fastpath} record={index} "
            f"site={off.site_index} cycle={off.inject_cycle} "
            f"off={off.outcome.value} on={on.outcome.value} "
            f"trace_equal={off.trace == on.trace}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracked_fast_path_matches_slow_path(case, tracked):
    """The tracked fast path writes the slow path's payloads (and
    records, and final machine states) position for position."""
    mismatches = _differences(case, tracked(case, False),
                              tracked(case, True))
    assert not mismatches, "\n".join(mismatches)


def test_cases_cover_every_outcome_class(baseline_records):
    """The bit-identical assertions above cover every classification
    path: the mini-campaigns jointly hit all five outcome destinies."""
    seen = {record.outcome
            for case in CASES for record in baseline_records(case, False)}
    assert seen == set(Outcome)


def test_provenance_payloads_cover_campaign(baseline_records):
    """Provenance-on runs yield one payload per injection, with the
    identity fields matching the (bit-identical) record stream."""
    overrides, seed, flips = CASES["toggle"]
    config = CampaignConfig(**_BASE, **overrides, fastpath=False,
                            provenance=True)
    experiment = SfiExperiment(config)
    payloads: dict[int, dict] = {}
    experiment.provenance_hook = \
        lambda pos, payload: payloads.setdefault(pos, payload)
    sites = random_sample(experiment.latch_map, flips,
                          random.Random(seed ^ 0x5F1))
    result = experiment.run_campaign(sites, seed)
    assert sorted(payloads) == list(range(len(result.records)))
    for position, record in enumerate(result.records):
        payload = payloads[position]
        assert payload["outcome"] == record.outcome.value
        assert payload["inject_cycle"] == record.inject_cycle
        assert payload["testcase_seed"] == record.testcase_seed


def test_journal_bytes_identical(tmp_path):
    """Supervised journals are byte-identical with provenance on or off:
    payloads travel a sidecar queue, never the journal stream."""
    overrides, seed, flips = CASES["toggle"]
    journals = {}
    for provenance in (False, True):
        config = CampaignConfig(**_BASE, **overrides, fastpath=False,
                                provenance=provenance)
        path = tmp_path / f"journal-{provenance}.jsonl"
        supervisor = CampaignSupervisor(config, workers=2, journal=path)
        experiment = SfiExperiment(config)
        sites = random_sample(experiment.latch_map, flips,
                              random.Random(seed ^ 0x5F1))
        supervisor.run(sites, seed)
        lines = path.read_text().splitlines()
        # Record arrival order across workers is scheduling-dependent;
        # byte-identity is asserted on header + the sorted line set.
        journals[provenance] = (lines[0], sorted(lines[1:]))
    assert journals[False] == journals[True]


def test_provenance_report_worker_count_invariant():
    """The merged cross-shard report is a pure function of the campaign,
    not of how the supervisor sharded it."""
    overrides, seed, flips = CASES["sticky-sdc"]
    reports = []
    for workers in (1, 3):
        config = CampaignConfig(**_BASE, **overrides, fastpath=False,
                                provenance=True)
        supervisor = CampaignSupervisor(config, workers=workers)
        experiment = SfiExperiment(config)
        sites = random_sample(experiment.latch_map, flips,
                              random.Random(seed ^ 0x5F1))
        supervisor.run(sites, seed)
        assert supervisor.provenance_report is not None
        reports.append(supervisor.provenance_report)
    assert reports[0] == reports[1]
    assert reports[0].injections == flips


# ----------------------------------------------------------------------
# The CLI-default campaign (``repro-sfi propagation``): default core,
# four testcases.  Its trials reach exits the mini-campaigns do not,
# e.g. a footprint change in the very cycle the taint turns inert.

#: (seed, flips) of the CLI-default campaigns compared.
CLI_CAMPAIGNS = ((1003, 200), (2001, 150))


@pytest.fixture(scope="module")
def cli_default():
    """Tracked CLI-default trials per (seed, fastpath), and the fast
    path's ``sfi_early_exits_total`` per seed."""
    experiments = {
        fastpath: SfiExperiment(CampaignConfig(
            suite_size=4, fastpath=fastpath, provenance=True))
        for fastpath in (False, True)}
    trials, exits = {}, {}
    for seed, flips in CLI_CAMPAIGNS:
        registry = MetricsRegistry()
        experiments[True].instrument(registry)
        for fastpath, experiment in experiments.items():
            trials[(seed, fastpath)] = _tracked_trials(experiment, seed,
                                                       flips)
        exits[seed] = registry.get("sfi_early_exits_total")
    return trials, exits


def test_cli_default_payloads_identical(cli_default):
    """Seed 1003, 200 flips: every payload as on the slow path.  A
    tracked exit must also take the footprint sample the next cycle's
    hook would take (stamped one cycle after the exit)."""
    trials, _ = cli_default
    slow, fast = trials[(1003, False)], trials[(1003, True)]
    differ = [position for position, (a, b) in enumerate(zip(slow, fast))
              if a[:2] != b[:2]]
    assert not differ, f"records or payloads differ at {differ}"


def test_cli_default_final_states_identical(cli_default):
    """Seeds 1003 and 2001, 150 flips each: the machine state a tracked
    trial leaves behind equals the slow path's.  An exit that restored
    golden-final and re-applied only the injected latch would keep
    records and payloads but fail here: every tainted latch it holds
    must be re-applied."""
    trials, _ = cli_default
    for seed, _ in CLI_CAMPAIGNS:
        slow = trials[(seed, False)][:150]
        fast = trials[(seed, True)][:150]
        mismatches = _differences(f"cli-default/{seed}", slow, fast)
        assert not mismatches, "\n".join(mismatches)


def test_cli_default_takes_both_tracked_exits(cli_default):
    """Seed 1003's fast trials take both tracked-trial exits, so the
    two identity tests above hold each of them to the slow path: a
    change that silently stopped taking either would still pass
    them."""
    _, exits = cli_default
    assert exits[1003].value(reason="frozen") > 0
    assert exits[1003].value(reason="tracked") > 0


# ----------------------------------------------------------------------
# Property: any (site, testcase, inject cycle, injection mode, tracked).

@pytest.fixture(scope="module")
def mode_experiments():
    """Tracked experiments per (injection mode, fastpath); the fast
    ones count their early exits.  ``run_one(..., provenance=False)``
    runs an untracked trial on them."""
    return {(mode, fastpath): SfiExperiment(
                CampaignConfig(**_BASE, injection_mode=mode,
                               fastpath=fastpath, provenance=True),
                metrics=MetricsRegistry() if fastpath else None)
            for mode in InjectionMode for fastpath in (False, True)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracked_trial_property(mode_experiments, data):
    """Any trial, tracked or not, in either injection mode: the fast
    path's record, final machine state and (tracked) payload equal the
    slow path's.  A tracked trial leaves no fast-path extra for the
    journal; an untracked one always does."""
    mode = data.draw(st.sampled_from(list(InjectionMode)), label="mode")
    tracked = data.draw(st.booleans(), label="tracked")
    slow = mode_experiments[(mode, False)]
    fast = mode_experiments[(mode, True)]
    site = data.draw(st.integers(0, len(slow.latch_map) - 1), label="site")
    testcase = data.draw(st.integers(0, len(slow.suite) - 1),
                         label="testcase")
    cycle = data.draw(st.integers(
        0, slow.references[testcase].cycles - 1), label="inject_cycle")
    record = slow.run_one(site, testcase, cycle, provenance=tracked)
    assert fast.run_one(site, testcase, cycle, provenance=tracked) == record
    assert fast.last_provenance == slow.last_provenance
    assert (fast.last_provenance is None) == (not tracked)
    assert fast.core.snapshot() == slow.core.snapshot()
    assert (fast.last_fastpath is None) == tracked


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracked_frozen_exit_boundary(mode_experiments, data):
    """A tracked trial of either injection mode takes the frozen exit
    exactly when golden's last touch of the injected latch is at or
    before the inject cycle, and its record, payload and final state
    equal the slow path's, within two cycles of that touch and after the
    last rung boundary (where no rung is left to exit at)."""
    fast = mode_experiments[(InjectionMode.TOGGLE, True)]
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
        slow = mode_experiments[(mode, False)]
        quick = mode_experiments[(mode, True)]
        exits = quick.metrics.get("sfi_early_exits_total")
        before = exits.value(reason="frozen")
        expected = slow.run_one(site, testcase, cycle)
        record = quick.run_one(site, testcase, cycle)
        where = (f"mode={mode.value} site={site} testcase={testcase} "
                 f"cycle={cycle}")
        mismatches = report_mismatches(
            f"tracked-frozen-boundary/{mode.value}", None, [expected],
            [record])
        assert not mismatches, "\n".join(mismatches)
        assert quick.last_provenance == slow.last_provenance, \
            f"payload differs: {where}"
        assert quick.core.snapshot() == slow.core.snapshot(), \
            f"final state differs: {where}"
        assert quick.last_fastpath is None
        frozen = exits.value(reason="frozen") - before
        assert frozen == (last_touch(site) <= cycle), \
            f"frozen exits {frozen:g}: {where}"


# ----------------------------------------------------------------------
# Property: watching only the tainted latches' reads loses nothing.

class _WatchEveryRead(TaintTracker):
    """Reference tracker: every latch read reaches it (every latch stays
    hooked, none is ever switched) and it drops the reads of clean
    latches itself."""

    def watched_reads(self):
        return None

    def read_value(self, latch):
        if id(latch) in self._tainted:
            super().read_value(latch)


@contextmanager
def _every_read_watched():
    """Tracked trials inside the block run under :class:`_WatchEveryRead`."""
    taint_trace = campaign.taint_trace
    campaign.taint_trace = lambda core, seed_latch, **options: trace(
        [core], _WatchEveryRead([core], seed_latch, **options))
    try:
        yield
    finally:
        campaign.taint_trace = taint_trace


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_reads_are_exact(mode_experiments, data):
    """On the slow and the fast path, a tracked trial's record, payload
    and final state equal those of the same trial under a tracker that
    watches every read."""
    mode = data.draw(st.sampled_from(list(InjectionMode)), label="mode")
    experiments = [mode_experiments[(mode, fastpath)]
                   for fastpath in (False, True)]
    site = data.draw(st.integers(0, len(experiments[0].latch_map) - 1),
                     label="site")
    testcase = data.draw(st.integers(0, len(experiments[0].suite) - 1),
                         label="testcase")
    cycle = data.draw(st.integers(
        0, experiments[0].references[testcase].cycles - 1),
        label="inject_cycle")
    for experiment in experiments:
        where = (f"fastpath={experiment.fastpath} mode={mode.value} "
                 f"site={site} testcase={testcase} cycle={cycle}")
        with _every_read_watched():
            expected = experiment.run_one(site, testcase, cycle)
        payload = experiment.last_provenance
        final = experiment.core.snapshot()
        assert experiment.run_one(site, testcase, cycle) == expected, where
        assert experiment.last_provenance == payload, \
            f"payload differs: {where}"
        assert experiment.core.snapshot() == final, \
            f"final state differs: {where}"
