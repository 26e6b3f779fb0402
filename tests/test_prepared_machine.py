"""One prepared machine per process.

Every ``SfiExperiment`` built on the default emulator becomes its
process's prepared machine for its config, and ``run_shard`` runs on it,
so a serial supervised campaign runs on the probe its caller already
prepared instead of preparing a second machine.  These tests pin who
fills the slot, who reuses it, that a borrowed machine runs with only
its shard's sinks, and that reuse cannot change a record: a machine
that already ran campaigns answers exactly like a fresh one.

Every config here uses a suite seed no other test builds, so the slot
can only hold a machine this module made.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import AwanEmulator, SoftwareSimulator
from repro.obs import MetricsRegistry
from repro.sfi import CampaignConfig, CampaignSupervisor, SfiExperiment
from repro.sfi.campaign import plan_injections, prepared_machine
from repro.sfi.supervisor import run_shard

from tests.conftest import SMALL_PARAMS
from tests.difftools import sample_sites


def _config(suite_seed: int, **overrides) -> CampaignConfig:
    return CampaignConfig(suite_size=2, suite_seed=suite_seed,
                          core_params=SMALL_PARAMS, **overrides)


def _injections(registry: MetricsRegistry) -> float:
    metric = registry.get("sfi_injections_total")
    return sum(metric.series().values()) if metric is not None else 0.0


@pytest.fixture()
def machines(monkeypatch):
    """``(prepared, ran)``: each experiment ``_prepare`` ran for, and
    each machine ``run_plan`` ran on, in call order."""
    prepared, ran = [], []
    prepare, run_plan = SfiExperiment._prepare, SfiExperiment.run_plan

    def spy_prepare(self):
        prepared.append(self)
        prepare(self)

    def spy_run_plan(self, *args, **kwargs):
        ran.append(self)
        return run_plan(self, *args, **kwargs)

    monkeypatch.setattr(SfiExperiment, "_prepare", spy_prepare)
    monkeypatch.setattr(SfiExperiment, "run_plan", spy_run_plan)
    return prepared, ran


# ----------------------------------------------------------------------
# Who fills the slot, who reuses it.

@pytest.mark.parametrize("backend", ["scalar", "bitplane"])
def test_journaled_serial_campaign_runs_on_the_probe(tmp_path, machines,
                                                     backend):
    prepared, ran = machines
    config = _config(1601, backend=backend)
    probe = SfiExperiment(config)
    sites = sample_sites(probe, 12, 5)
    result = CampaignSupervisor(config, workers=1,
                                journal=tmp_path / "run.jsonl").run(
        sites, seed=5)
    assert result.total == len(sites)
    assert prepared == [probe]
    assert ran == [probe]


def test_supervisor_of_another_config_builds_its_own_machine(tmp_path,
                                                             machines):
    prepared, ran = machines
    probe = SfiExperiment(_config(1602))
    other = _config(1602, ckpt_stride=32)
    CampaignSupervisor(other, workers=1, journal=tmp_path / "run.jsonl") \
        .run(sample_sites(probe, 8, 6), seed=6)
    assert len(prepared) == 2 and prepared[0] is probe
    assert ran == [prepared[1]]
    assert ran[0].config == other
    assert prepared_machine(other) is ran[0]


def test_foreign_emulator_machine_never_reaches_run_shard(machines):
    prepared, ran = machines
    config = _config(1603)
    simulated = SfiExperiment(config, emulator_cls=SoftwareSimulator)
    CampaignSupervisor(config, workers=1).run(
        sample_sites(simulated, 6, 7), seed=7)
    assert len(prepared) == 2 and prepared[0] is simulated
    assert ran == [prepared[1]]
    assert type(ran[0].emulator) is AwanEmulator


# ----------------------------------------------------------------------
# A borrowed machine runs with exactly its shard's sinks.

@pytest.mark.parametrize("provenance", [False, True],
                         ids=["fastpath", "provenance"])
def test_caller_hooks_are_kept_and_never_called(tmp_path, machines,
                                                provenance):
    _, ran = machines
    config = _config(1604, provenance=provenance)
    probe = SfiExperiment(config)
    called = []

    def fastpath_hook(position, payload):
        called.append(("fast", position))

    def provenance_hook(position, payload):
        called.append(("prov", position))

    probe.fastpath_hook = fastpath_hook
    probe.provenance_hook = provenance_hook
    sites = sample_sites(probe, 10, 8)
    journal = tmp_path / "run.jsonl"
    supervisor = CampaignSupervisor(config, workers=1, journal=journal)
    supervisor.run(sites, seed=8)
    assert ran == [probe]
    assert probe.fastpath_hook is fastpath_hook
    assert probe.provenance_hook is provenance_hook
    assert called == []
    # The shard's own sinks got the payloads instead.
    if provenance:
        assert sorted(supervisor.provenance_payloads) == \
            list(range(len(sites)))
    else:
        assert '"fastpath"' in journal.read_text()


def test_caller_registry_counts_each_trial_once(machines):
    _, ran = machines
    registry = MetricsRegistry()
    config = _config(1605)
    probe = SfiExperiment(config, metrics=registry)
    CampaignSupervisor(config, workers=1, metrics=registry).run(
        sample_sites(probe, 10, 9), seed=9)
    assert ran == [probe]
    assert _injections(registry) == 10
    assert probe.metrics is registry


def test_shard_registry_rides_the_emit_and_is_handed_back(machines):
    _, ran = machines
    mine, shard = MetricsRegistry(), MetricsRegistry()
    config = _config(1606)
    probe = SfiExperiment(config, metrics=mine)
    profiler = probe.core.profile_hook
    plan = plan_injections(sample_sites(probe, 6, 10), config.suite_size)
    records = {}

    def emit(position, record):
        records[position] = record

    emit.metrics = shard
    assert run_shard(config, plan, 10, emit) == len(probe.latch_map)
    assert ran == [probe]
    assert sorted(records) == list(range(len(plan)))
    assert _injections(shard) == len(plan)
    assert _injections(mine) == 0
    assert probe.metrics is mine
    assert probe.core.profile_hook is profiler is not None


# ----------------------------------------------------------------------
# Reuse is history-independent.

#: Machine kinds the reuse property covers: config overrides.
REUSE_KINDS = {
    "scalar": {},
    "bitplane": {"backend": "bitplane"},
    "provenance": {"provenance": True},
}


@pytest.fixture(scope="module")
def machine_pairs():
    """Two machines of one config per kind: the first one runs an extra
    campaign before every comparison, the second does not."""
    return {kind: tuple(SfiExperiment(_config(1610, **overrides))
                        for _ in range(2))
            for kind, overrides in REUSE_KINDS.items()}


def _outputs(machine: SfiExperiment, sites: list[int], seed: int):
    """A campaign's records, fast-path extras and provenance payloads."""
    extras: dict = {}
    payloads: dict = {}
    with machine.sinks(fastpath_hook=extras.__setitem__,
                       provenance_hook=payloads.__setitem__):
        records = machine.run_campaign(sites, seed).records
    return records, extras, payloads, machine.last_fastpath


@pytest.mark.differential
@pytest.mark.parametrize("kind", sorted(REUSE_KINDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_reused_machine_answers_like_a_fresh_one(machine_pairs, kind, data):
    used, twin = machine_pairs[kind]
    sites = data.draw(st.lists(st.integers(0, len(used.latch_map) - 1),
                               min_size=1, max_size=8), label="sites")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    used.run_campaign(sites, seed)
    assert _outputs(used, sites, seed) == _outputs(twin, sites, seed)


@pytest.mark.differential
@pytest.mark.parametrize("backend", ["scalar", "bitplane"])
def test_reused_machine_journals_byte_identically(tmp_path, machines,
                                                  backend):
    _, ran = machines
    config = _config(1611, backend=backend)
    used = SfiExperiment(config)
    used.run_campaign(sample_sites(used, 30, 21), seed=21)
    sites = sample_sites(used, 30, 22)

    def journal_bytes(name: str) -> bytes:
        journal = tmp_path / f"{name}.jsonl"
        CampaignSupervisor(config, workers=1, journal=journal).run(
            sites, seed=22)
        return journal.read_bytes()

    reused = journal_bytes("used")
    fresh = SfiExperiment(config)
    assert journal_bytes("fresh") == reused
    assert ran == [used, used, fresh]
    assert b'"fastpath"' in reused
