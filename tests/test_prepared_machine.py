"""One prepared machine per process, prepared once per campaign.

Every ``SfiExperiment`` built on the default emulator becomes its
process's prepared machine for its config, and ``run_shard`` runs on it,
so a serial supervised campaign runs on the probe its caller already
prepared instead of preparing a second machine.  These tests pin who
fills the slot, who reuses it, that a borrowed machine runs with only
its shard's sinks, and that reuse cannot change a record: a machine
that already ran campaigns answers exactly like a fresh one.

A local pool ships its parent's machine to every worker, which loads it
instead of preparing.  The tests below hold a loaded machine to a fresh
one on everything ``_prepare`` builds and on every output, check that
no pool worker prepares and that the pool's exits and payloads equal a
serial run's, that digests computed in another interpreter equal the
parent's, and that no shipment outlives its pool run.

Every config here uses a suite seed no other test builds, so the slot
can only hold a machine this module made.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import AwanEmulator, SoftwareSimulator
from repro.emulator.bitplane import CompiledSchedule
from repro.obs import MetricsRegistry
from repro.sfi import CampaignConfig, CampaignSupervisor, SfiExperiment
from repro.sfi import campaign, supervisor
from repro.sfi.campaign import PreparedState, plan_injections, prepared_machine
from repro.sfi.supervisor import run_shard

from tests.conftest import SMALL_PARAMS
from tests.difftools import sample_sites
from tests.test_lease_engine import plain_runner


# A spawned pool worker imports this module to unpickle its runner
# (``reporting_runner``) before it loads its machine, so from then on it
# counts every ``_prepare`` call of its process.  The test process is
# the main process; a spawned child carries its own name from the start
# of its interpreter, while ``parent_process()`` is still None during
# that import (the child sets it afterwards, in its bootstrap).
_WORKER_PREPARES: list[SfiExperiment] = []
if multiprocessing.current_process().name != "MainProcess":
    _real_prepare = SfiExperiment._prepare

    def _counted_prepare(self):
        _WORKER_PREPARES.append(self)
        return _real_prepare(self)

    SfiExperiment._prepare = _counted_prepare


def reporting_runner(report_dir: str, config, items, seed, emit) -> int:
    """Shard runner (bind ``report_dir`` with ``partial``): run the
    shard, then report how often this process prepared and whether the
    shard ran on the machine the slot held when the runner started."""
    slot = campaign._PREPARED
    population = run_shard(config, items, seed, emit)
    report = {"prepares": len(_WORKER_PREPARES),
              "ran_on_slot": slot is not None
              and campaign._PREPARED is slot}
    Path(report_dir, f"worker-{os.getpid()}.json").write_text(
        json.dumps(report))
    return population


#: ``_prepare`` calls of a spawned worker since its first lease began.
_LEASE_PREPARES: list[SfiExperiment] | None = None


def _count_prepares() -> list[SfiExperiment]:
    """In a spawned worker, count every ``_prepare`` call from now on."""
    global _LEASE_PREPARES
    assert multiprocessing.parent_process() is not None
    if _LEASE_PREPARES is None:
        _LEASE_PREPARES = []
        prepare = SfiExperiment._prepare

        def counted_prepare(self):
            _LEASE_PREPARES.append(self)
            return prepare(self)

        SfiExperiment._prepare = counted_prepare
    return _LEASE_PREPARES


def lease_logging_runner(report_dir: str, config, items, seed,
                         emit) -> int:
    """Shard runner (bind ``report_dir`` with ``partial``) for spawned
    workers: run the lease, then append a line to this process's log:
    how often it prepared since its first lease began, the identity of
    the machine the slot held when the lease began (the loaded one) and
    whether the lease ran on it."""
    prepares = _count_prepares()
    machine = campaign._PREPARED
    population = run_shard(config, items, seed, emit)
    line = {"prepares": len(prepares),
            "machine": id(machine) if machine is not None else None,
            "ran_on_it": campaign._PREPARED is machine}
    with Path(report_dir, f"leases-{os.getpid()}.jsonl").open("a") as log:
        log.write(json.dumps(line) + "\n")
    return population


def worker_raising_runner(config, items, seed, emit) -> int:
    """Fails in every pool worker; runs normally in-process."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("injected worker fault")
    return run_shard(config, items, seed, emit)


def _worker_reports(report_dir: Path) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(report_dir.glob("worker-*.json"))]


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
        return prepare(self)

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

#: Machine kinds the reuse and shipping properties cover: config
#: overrides (``provenance``: every trial taint-tracked).
MACHINE_KINDS = {
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
            for kind, overrides in MACHINE_KINDS.items()}


def _outputs(machine: SfiExperiment, sites: list[int], seed: int):
    """A campaign's records, fast-path extras and provenance payloads."""
    extras: dict = {}
    payloads: dict = {}
    with machine.sinks(fastpath_hook=extras.__setitem__,
                       provenance_hook=payloads.__setitem__):
        records = machine.run_campaign(sites, seed).records
    return records, extras, payloads, machine.last_fastpath


@pytest.mark.differential
@pytest.mark.parametrize("kind", sorted(MACHINE_KINDS))
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


# ----------------------------------------------------------------------
# A shipped machine is the machine its parent prepared.

#: What a machine holds that belongs to its process, not to what
#: ``_prepare`` builds, and so is left out of the comparison: the live
#: model (core, engine, host, latch map and the latch lookups keyed by
#: ``id()``), the sinks a shard attaches, and how long the prepare or
#: load took.  The engine's saved states are compared on their own.
PER_PROCESS = frozenset({
    "core", "emulator", "host", "latch_map", "_latches", "_latch_index",
    "metrics", "_instruments", "_profiler", "fastpath_hook",
    "provenance_hook", "prepare_seconds",
})


def _shipped(machine: SfiExperiment) -> SfiExperiment:
    """The machine a pool worker loads from ``machine``'s shipment."""
    path = supervisor._ship_prepared(machine)
    try:
        supervisor._load_prepared(machine.config, path)
    finally:
        os.unlink(path)
    return prepared_machine(machine.config)


def _comparable(value):
    """``value`` with compiled schedules, which define no equality,
    replaced by the tables they ship."""
    if isinstance(value, CompiledSchedule):
        return value.__getstate__()
    if isinstance(value, list):
        return [_comparable(item) for item in value]
    if isinstance(value, PreparedState):
        return replace(value, schedules=_comparable(value.schedules))
    return value


def _built(machine: SfiExperiment) -> dict:
    """Everything ``_prepare`` built into ``machine``: its attributes
    but the per-process ones, plus its engine's checkpoints and rungs
    (keys, order and snapshots).  Golden ``last_touch`` maps are keyed
    by latch position, so they compare as they are."""
    built = {name: _comparable(value)
             for name, value in vars(machine).items()
             if name not in PER_PROCESS}
    built["emulator.saved_states"] = machine.emulator.saved_states()
    return built


@pytest.mark.parametrize("kind", sorted(MACHINE_KINDS))
def test_shipped_machine_equals_a_fresh_one(kind):
    fresh = SfiExperiment(_config(1612, **MACHINE_KINDS[kind]))
    loaded = _shipped(fresh)
    assert loaded is not fresh
    assert campaign._PREPARED is loaded
    assert _built(loaded) == _built(fresh)
    assert loaded.goldens and loaded.emulator.rung_count()
    if kind == "bitplane":
        assert loaded.schedules and loaded._bp_lagmap


def test_a_field_prepare_does_not_ship_is_caught(monkeypatch):
    prepare = SfiExperiment._prepare

    def stray_prepare(self):
        self.stray = "built outside the prepared state"
        return prepare(self)

    monkeypatch.setattr(SfiExperiment, "_prepare", stray_prepare)
    fresh = SfiExperiment(_config(1613))
    assert _built(_shipped(fresh)) != _built(fresh)


@pytest.fixture(scope="module")
def shipped_pairs():
    """Per kind, a fresh machine and the copy a worker would load."""
    pairs = {}
    for kind, overrides in MACHINE_KINDS.items():
        fresh = SfiExperiment(_config(1614, **overrides))
        pairs[kind] = (fresh, _shipped(fresh))
    return pairs


@pytest.mark.differential
@pytest.mark.parametrize("kind", sorted(MACHINE_KINDS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shipped_machine_answers_like_a_fresh_one(shipped_pairs, kind,
                                                  data):
    fresh, loaded = shipped_pairs[kind]
    sites = data.draw(st.lists(st.integers(0, len(fresh.latch_map) - 1),
                               min_size=1, max_size=8), label="sites")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    assert _outputs(loaded, sites, seed) == _outputs(fresh, sites, seed)


# ----------------------------------------------------------------------
# Pool workers load the parent's machine and never prepare.

def _pool_run(config, sites, seed, report_dir: Path) -> list[dict]:
    """Run a 3-process pool campaign (this one and two spawned workers,
    one lease each); return the spawned workers' reports."""
    report_dir.mkdir()
    result = CampaignSupervisor(
        config, workers=3,
        runner=partial(reporting_runner, str(report_dir))).run(
        sites, seed=seed)
    assert result.total == len(sites)
    return _worker_reports(report_dir)


@pytest.mark.slow
def test_pool_workers_load_the_callers_probe(tmp_path, machines):
    prepared, ran = machines
    config = _config(1620)
    probe = SfiExperiment(config)
    reports = _pool_run(config, sample_sites(probe, 12, 31), 31,
                        tmp_path / "reports")
    assert reports == [{"prepares": 0, "ran_on_slot": True}] * 2
    assert prepared == [probe]
    assert ran == [probe]  # the parent's share runs on the caller's probe


@pytest.mark.slow
def test_pool_without_a_probe_prepares_once_in_the_parent(tmp_path,
                                                          machines):
    prepared, ran = machines
    config = _config(1621)
    reports = _pool_run(config, list(range(0, 1200, 100)), 32,
                        tmp_path / "reports")
    assert reports == [{"prepares": 0, "ran_on_slot": True}] * 2
    assert len(prepared) == 1 and prepared[0].config == config
    assert prepared_machine(config) is prepared[0]
    assert ran == [prepared[0]]


@pytest.mark.slow
def test_a_spawned_worker_runs_several_leases_on_one_load(tmp_path,
                                                          monkeypatch):
    """A spawned worker keeps the machine it loaded across leases: it
    asks for the next lease when it reports one done.  The parent's own
    leases are slowed here so that the worker runs most of them."""
    config = _config(1625)
    probe = SfiExperiment(config)
    run_now = supervisor.run_shard

    def slow_run_shard(*args):
        time.sleep(0.5)
        return run_now(*args)

    monkeypatch.setattr(supervisor, "run_shard", slow_run_shard)
    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    sites = sample_sites(probe, 64, 34)
    result = CampaignSupervisor(
        config, workers=2,
        runner=partial(lease_logging_runner, str(report_dir))).run(
        sites, seed=34)
    assert result.total == len(sites)
    logs = sorted(report_dir.glob("leases-*.jsonl"))
    assert len(logs) == 1
    lines = [json.loads(line) for line in logs[0].read_text().splitlines()]
    assert len(lines) >= 2
    assert {(line["prepares"], line["ran_on_it"]) for line in lines} \
        == {(0, True)}
    machines = {line["machine"] for line in lines}
    assert len(machines) == 1 and None not in machines


def _journal_body(path: Path) -> list[dict]:
    """A journal's lines after the header, in position order."""
    lines = [json.loads(line)
             for line in path.read_text().splitlines()[1:]]
    return sorted(lines, key=lambda line: line["pos"])


#: Per kind, the sites seed and the fast-path exits a pool campaign
#: must take: golden digests (scalar) and lag maps (``rejoin``) are what
#: a worker compares its own digests against.
POOL_PARITY = {
    "scalar": (41, {"golden", "frozen"}),
    "provenance": (42, set()),
    "bitplane": (43, {"rejoin"}),
}


@pytest.mark.slow
@pytest.mark.parametrize("kind", sorted(MACHINE_KINDS))
def test_pool_exits_and_payloads_equal_the_serial_run(tmp_path, kind):
    config = _config(1622, **MACHINE_KINDS[kind])
    seed, exits = POOL_PARITY[kind]
    probe = SfiExperiment(config)
    sites = sample_sites(probe, 120, seed)
    runs = {}
    for workers in (1, 2):
        journal = tmp_path / f"workers{workers}.jsonl"
        run = CampaignSupervisor(config, workers=workers, journal=journal)
        run.run(sites, seed=seed)
        runs[workers] = (_journal_body(journal), run.provenance_payloads)
    assert runs[2] == runs[1]
    body, payloads = runs[2]
    taken = {line["fastpath"].get("exit") for line in body
             if "fastpath" in line}
    assert exits <= taken, taken
    assert bool(payloads) == (kind == "provenance")


# ----------------------------------------------------------------------
# Digests compare across the processes of one interpreter build.

def _digests(machine: SfiExperiment, mask: frozenset) -> list[tuple]:
    """``(state, full, masked, lag-free digest)`` of every golden-final
    state and of a few rung states of the first testcase, all masked
    with ``mask``."""
    _, rungs = machine.emulator.saved_states()
    first = [(key, snapshot) for key, snapshot in rungs
             if key[0] == "tc0"]
    states = [(("final", tc), golden.final)
              for tc, golden in enumerate(machine.goldens)]
    states += [(("tc0", key[1]), snapshot)
               for key, snapshot in first[::max(1, len(first) // 6)]]
    core = machine.core
    digests = []
    for label, state in states:
        core.restore(state)
        digests.append((label, core.state_digest(),
                        core.state_digest(exclude=mask),
                        core.state_digest(exclude=mask,
                                          include_cycle=False)))
    return digests


def _digests_in_child(config: CampaignConfig, path: str,
                      mask: frozenset) -> list[tuple]:
    """In a spawned interpreter: load the shipped machine, digest it."""
    supervisor._load_prepared(config, path)
    return _digests(prepared_machine(config), mask)


def test_digests_of_a_shipped_machine_match_in_another_interpreter():
    machine = SfiExperiment(_config(1623, backend="bitplane"))
    mask = machine.schedules[0].mask_indices
    assert mask
    path = supervisor._ship_prepared(machine)
    try:
        with ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("spawn")) as pool:
            child = pool.submit(_digests_in_child, machine.config, path,
                                mask).result()
    finally:
        os.unlink(path)
    assert child == _digests(machine, mask)
    # What a worker's drain compares them with: the parent's golden
    # digests, masked trail and lag map of the same testcase.
    golden = machine.goldens[0]
    rungs = [(label[1], full, masked, lag)
             for label, full, masked, lag in child if label[0] == "tc0"]
    assert len(rungs) >= 3
    for cycle, full, masked, lag in rungs:
        assert golden.digests.get(cycle, full) == full
        assert machine._bp_masked[0].get(cycle, masked) == masked
        if cycle < golden.end_cycle:
            assert machine._bp_lagmap[0][lag] <= cycle
    assert any(cycle in golden.digests for cycle, *_ in rungs)
    assert any(cycle in machine._bp_masked[0] for cycle, *_ in rungs)


# ----------------------------------------------------------------------
# No shipment outlives its pool run.

def _fail_pool_run(self):
    raise RuntimeError("pool run interrupted")


def _broken_spawn(self, lease, seed, out_queue):
    raise OSError("fork: resource temporarily unavailable")


@pytest.mark.slow
@pytest.mark.parametrize("ending", ["normal", "worker-raises", "degraded",
                                    "pool-raises"])
def test_no_shipment_outlives_its_pool_run(tmp_path, monkeypatch, ending):
    config = _config(1624)
    probe = SfiExperiment(config)
    shipped = []
    ship = supervisor._ship_prepared

    def recording_ship(machine):
        shipped.append(ship(machine))
        return shipped[-1]

    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(temp))
    monkeypatch.setattr(supervisor, "_ship_prepared", recording_ship)
    options = {}
    if ending == "worker-raises":
        options = {"runner": worker_raising_runner, "max_retries": 0}
    elif ending == "degraded":
        monkeypatch.setattr(CampaignSupervisor, "_spawn", _broken_spawn)
    elif ending == "pool-raises":
        monkeypatch.setattr(supervisor._ProcessPool, "run", _fail_pool_run)
    journals = tmp_path / "journals"
    journals.mkdir()
    run = CampaignSupervisor(config, workers=2, backoff_base=0.0,
                             journal=journals / "run.jsonl", **options)
    sites = sample_sites(probe, 2, 33)
    if ending == "pool-raises":
        with pytest.raises(RuntimeError, match="pool run interrupted"):
            run.run(sites, seed=33)
    else:
        assert run.run(sites, seed=33).total == len(sites)
    assert len(shipped) == 1
    assert Path(shipped[0]).parent == temp
    assert list(temp.glob("repro-sfi-*")) == []
    assert os.listdir(journals) == ["run.jsonl"]
    assert run._machine_file is None


class _Interrupt(BaseException):
    """Stands for a KeyboardInterrupt in the parent's share of a pool."""


@pytest.mark.slow
def test_no_shipment_outlives_an_interrupted_parent_lease(tmp_path,
                                                          monkeypatch):
    config = _config(1624)
    probe = SfiExperiment(config)

    def interrupted(config, items, seed, emit):
        raise _Interrupt

    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(temp))
    monkeypatch.setattr(supervisor, "run_shard", interrupted)
    run = CampaignSupervisor(config, workers=2, runner=plain_runner)
    with pytest.raises(_Interrupt):
        run.run(sample_sites(probe, 4, 35), seed=35)
    assert list(temp.glob("repro-sfi-*")) == []
    assert run._machine_file is None
