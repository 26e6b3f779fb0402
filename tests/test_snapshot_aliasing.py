"""Snapshot/restore aliasing and digest-sensitivity suite.

The fast path leans on two invariants of the core state machinery:

* ``CoreSnapshot`` is a *deep* capture — mutating the live core after a
  snapshot (or a ladder rung) must never reach into the stored copy, and
  restoring must round-trip every mutable field exactly.
* ``state_digest()`` changes iff machine state changed: it is sensitive
  to every architectural field (latch values *and* parity shadows, SRAM
  arrays, ECC check bits, memory, cycle/halt bookkeeping) and is
  deliberately insensitive to the event log, which is observational
  (the injected run carries an INJECTION event the golden run lacks);
  ``same_state()``, the exact check a digest hit stands for, sees every
  field the digest sees.

Each mutation below flips exactly one mutable field class; the suite
asserts digest sensitivity per field and full restore round-trips, then
drives the same checks through the ``AwanEmulator`` checkpoint ladder to
prove rungs don't alias the live core or each other.
"""

from __future__ import annotations

import pytest

from repro.cpu.events import EventKind
from repro.emulator.awan import AwanEmulator

# ----------------------------------------------------------------------
# One mutation per mutable field class.  Each returns nothing; the
# digest/restore assertions around them do the checking.

def _mut_latch_value(core):
    core.rut.cmt_res.value ^= 1


def _mut_latch_parity(core):
    # Parity shadow only — the value stays put, the digest must not.
    core.rut.cmt_res.par ^= 1


def _mut_store_queue_valid(core):
    core.lsu.sq_valid.value ^= 1


def _mut_store_queue_bank(core):
    core.lsu.sq_addr[0].value ^= 1


def _mut_fir(core):
    core.pervasive.fir_rec.value ^= 1


def _mut_icache_sram(core):
    core.ifu.icache.array.data[0] ^= 1


def _mut_icache_sram_parity(core):
    core.ifu.icache.array.par[0] ^= 1


def _mut_dcache_sram(core):
    core.lsu.dcache.array.data[3] ^= 1


def _mut_ckpt_ecc_data(core):
    core.rut.ckpt.data[0] ^= 1


def _mut_ckpt_ecc_check(core):
    core.rut.ckpt.check[0] ^= 1


def _mut_memory(core):
    word = core.memory.load_word(64)
    core.memory.store_word(64, (word ^ 0xDEADBEEF) or 1)


def _mut_cycles(core):
    core.cycles += 1


def _mut_halted(core):
    core.halted = not core.halted


def _mut_committed(core):
    core.committed += 1


MUTATIONS = {
    "latch-value": _mut_latch_value,
    "latch-parity": _mut_latch_parity,
    "store-queue-valid": _mut_store_queue_valid,
    "store-queue-bank": _mut_store_queue_bank,
    "fir": _mut_fir,
    "icache-sram": _mut_icache_sram,
    "icache-sram-parity": _mut_icache_sram_parity,
    "dcache-sram": _mut_dcache_sram,
    "ckpt-ecc-data": _mut_ckpt_ecc_data,
    "ckpt-ecc-check": _mut_ckpt_ecc_check,
    "memory": _mut_memory,
    "cycles": _mut_cycles,
    "halted": _mut_halted,
    "committed": _mut_committed,
}


@pytest.fixture()
def running_core(core, testcase):
    """A core a few hundred cycles into a real testcase, so caches, the
    store queue and the event log hold non-reset state."""
    core.load_program(testcase.program)
    for _ in range(300):
        core.cycle()
    assert not core.halted
    return core


# ----------------------------------------------------------------------
# Digest sensitivity: changes iff state changed.

def test_digest_stable_without_mutation(running_core):
    assert running_core.state_digest() == running_core.state_digest()


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_digest_changes_for_each_architectural_mutation(running_core, field):
    before = running_core.state_digest()
    MUTATIONS[field](running_core)
    assert running_core.state_digest() != before, \
        f"digest blind to {field} mutation"


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_same_state_sees_each_architectural_mutation(running_core, field):
    """``same_state`` is the exact check behind every confirmed digest
    hit, so it must see every field the digest sees."""
    snap = running_core.snapshot()
    assert running_core.same_state(snap)
    MUTATIONS[field](running_core)
    assert not running_core.same_state(snap), \
        f"same_state blind to {field} mutation"


def test_digest_ignores_event_log(running_core):
    """Documented exclusion: the log is observational, not architectural."""
    before = running_core.state_digest()
    running_core.event_log.record(running_core.cycles,
                                  EventKind.INJECTION, "digest-probe")
    assert running_core.state_digest() == before


# ----------------------------------------------------------------------
# Snapshot round-trip and aliasing.

@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_restore_round_trips_each_mutation(running_core, field):
    reference = running_core.state_digest()
    snap = running_core.snapshot()
    MUTATIONS[field](running_core)
    running_core.restore(snap)
    assert running_core.state_digest() == reference


def test_snapshot_is_not_aliased_to_live_state(running_core):
    """Mutating every field class after a snapshot leaves the stored
    copy intact — restore still reproduces the original digest."""
    reference = running_core.state_digest()
    snap = running_core.snapshot()
    for mutate in MUTATIONS.values():
        mutate(running_core)
    running_core.event_log.record(running_core.cycles,
                                  EventKind.CHECKSTOP, "alias-probe")
    assert running_core.state_digest() != reference
    running_core.restore(snap)
    assert running_core.state_digest() == reference
    # And a second trip through the same snapshot still works: restore
    # must not have handed the snapshot's internals to the live core.
    for mutate in MUTATIONS.values():
        mutate(running_core)
    running_core.restore(snap)
    assert running_core.state_digest() == reference


def test_restore_round_trips_event_log(running_core):
    snap = running_core.snapshot()
    events_before = running_core.event_log.snapshot()
    running_core.event_log.record(running_core.cycles,
                                  EventKind.HANG_DETECTED, "transient")
    running_core.restore(snap)
    assert running_core.event_log.snapshot() == events_before


# ----------------------------------------------------------------------
# Ladder rungs: no aliasing between rungs or with the live core.

def test_ladder_rungs_do_not_alias(running_core):
    emulator = AwanEmulator(running_core)
    emulator.checkpoint("tc")
    digests = {}
    for _ in range(3):
        emulator.save_rung("tc")
        digests[running_core.cycles] = running_core.state_digest()
        for _ in range(50):
            running_core.cycle()
    assert emulator.rung_count("tc") == 3

    # Trash the live core: stored rungs must be unaffected.
    for mutate in MUTATIONS.values():
        mutate(running_core)
    rungs = sorted(digests)
    for cycle in rungs:
        assert emulator.restore_nearest("tc", cycle) == cycle
        assert running_core.state_digest() == digests[cycle]

    # Restoring one rung and corrupting the core must not leak into a
    # *different* rung (or back into the one just restored).
    assert emulator.restore_nearest("tc", rungs[1]) == rungs[1]
    for mutate in MUTATIONS.values():
        mutate(running_core)
    assert emulator.restore_nearest("tc", rungs[0]) == rungs[0]
    assert running_core.state_digest() == digests[rungs[0]]
    assert emulator.restore_nearest("tc", rungs[1]) == rungs[1]
    assert running_core.state_digest() == digests[rungs[1]]


# ----------------------------------------------------------------------
# Bit-plane state: wave reconstructions restore golden snapshots and
# splice event tails dozens of times per campaign — none of it may leak
# back into the stored goldens or the compiled schedule.

def test_wave_reconstruction_does_not_alias_golden_state():
    """Re-running a bit-plane campaign on the same prepared experiment
    must reproduce every record — the golden finals, event tails and
    compiled schedules it reconstructs from are never mutated."""
    import copy

    from tests.difftools import run_campaign

    experiment, result = run_campaign({}, 4, 40, backend="bitplane")
    finals = [copy.deepcopy(golden.final) for golden in experiment.goldens]
    tails = [tuple(golden.events) for golden in experiment.goldens]
    digests = [schedule.model_digest for schedule in experiment.schedules]
    sites = [record.site_index for record in result.records]
    again = experiment.run_campaign(sites, 4)
    assert again.records == result.records
    for golden, final, tail in zip(experiment.goldens, finals, tails):
        assert golden.final == final
        assert tuple(golden.events) == tail
    assert [s.model_digest for s in experiment.schedules] == digests


def test_compiled_schedule_cache_shares_frozen_schedules():
    """Two experiments with identical config hit the schedule cache —
    same object — which is only sound because nothing downstream
    mutates it: resolving the same wave twice is bit-stable."""
    from tests.difftools import run_campaign, sample_sites

    exp1, result1 = run_campaign({}, 4, 40, backend="bitplane")
    exp2, result2 = run_campaign({}, 4, 40, backend="bitplane")
    assert [id(s) for s in exp1.schedules] == [id(s) for s in exp2.schedules]
    assert result1.records == result2.records
    schedule = exp1.schedules[0]
    site = exp1.latch_map.site(sample_sites(exp1, 1, 4)[0])
    descriptor = (exp1._latch_index[id(site.latch)], site.bit,
                  site.is_parity_bit, 10)
    assert schedule.resolve_wave([descriptor]) \
        == schedule.resolve_wave([descriptor])


def test_rung_restore_matches_replay_from_base(running_core):
    """A restored rung is bit-identical to replaying from the base
    checkpoint for the same number of cycles (the fast path's core
    soundness claim, stated directly against the digest)."""
    emulator = AwanEmulator(running_core)
    emulator.checkpoint("tc")
    for _ in range(120):
        running_core.cycle()
    emulator.save_rung("tc")
    rung_cycle = running_core.cycles
    rung_digest = running_core.state_digest()

    emulator.reload("tc")
    while running_core.cycles < rung_cycle:
        running_core.cycle()
    assert running_core.state_digest() == rung_digest

    emulator.restore_nearest("tc", rung_cycle)
    assert running_core.state_digest() == rung_digest


def test_traced_digests_equal_untraced_digests(running_core):
    """Golden trails are digested inside ``suspended()`` windows of a
    traced run and compared against untraced drains: neither the hooked
    classes nor a suspension may change a digest."""
    from repro.cpu.access import suspended, trace
    from tests.test_access import RECORDERS

    core = running_core
    expected = core.state_digest()
    for make in RECORDERS.values():
        with trace([core], make(core)):
            assert core.state_digest() == expected
            with suspended():
                assert core.state_digest() == expected
    assert core.state_digest() == expected
