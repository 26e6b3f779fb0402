"""Awan emulator, communication host and software-sim baseline."""

import pytest

from repro.cpu import Power6Core
from repro.emulator import AwanEmulator, CommHost, LatchMap, SoftwareSimulator
from repro.rtl import InjectionMode, LatchKind

from tests.conftest import SMALL_PARAMS


@pytest.fixture()
def emulator(testcase):
    core = Power6Core(SMALL_PARAMS)
    core.load_program(testcase.program)
    return AwanEmulator(core)


class TestLatchMap:
    def test_indexable_and_total(self, emulator):
        latch_map = emulator.latch_map
        assert len(latch_map) > 0
        site = latch_map.site(0)
        assert latch_map.index_of(site.name) == 0

    def test_units_and_rings_enumerated(self, emulator):
        latch_map = emulator.latch_map
        assert set(latch_map.units()) == {"IFU", "IDU", "FXU", "FPU", "LSU",
                                          "RUT", "CORE"}
        for ring in ("MODE", "GPTR", "REGFILE", "FUNC" if False else "IFU"):
            assert ring in latch_map.rings()

    def test_unit_indices_attribute_correctly(self, emulator):
        latch_map = emulator.latch_map
        for index in latch_map.indices_for_unit("RUT")[:50]:
            assert latch_map.unit_of(index) == "RUT"

    def test_kind_indices(self, emulator):
        latch_map = emulator.latch_map
        for index in latch_map.indices_for_kind(LatchKind.MODE)[:50]:
            assert latch_map.kind_of(index) is LatchKind.MODE

    def test_unit_bit_counts_sum(self, emulator):
        latch_map = emulator.latch_map
        assert sum(latch_map.unit_bit_counts().values()) == len(latch_map)

    def test_unknown_unit_raises(self, emulator):
        with pytest.raises(KeyError):
            emulator.latch_map.indices_for_unit("NOPE")

    def test_parity_sites_present(self, emulator):
        latch_map = emulator.latch_map
        assert any(latch_map.site(i).is_parity_bit
                   for i in range(len(latch_map)))


class TestAwan:
    def test_clock_stops_at_quiesce(self, emulator):
        run = emulator.clock(1_000_000)
        assert emulator.core.quiesced
        assert run < 1_000_000
        assert emulator.stats.cycles_run == run

    def test_checkpoint_reload(self, emulator):
        emulator.checkpoint("t0")
        emulator.clock(50)
        cycles = emulator.core.cycles
        emulator.reload("t0")
        assert emulator.core.cycles == cycles - 50
        assert emulator.stats.checkpoints_loaded == 1

    def test_toggle_injection_flips_bit(self, emulator):
        site = emulator.inject(123, InjectionMode.TOGGLE)
        assert site.current() in (0, 1)
        assert emulator.stats.injections == 1

    def test_sticky_injection_persists(self, emulator):
        # Pick a hot latch (the IFAR) that functional logic rewrites.
        index = emulator.latch_map.index_of("ifu.ifar.2")
        site = emulator.inject(index, InjectionMode.STICKY, sticky_cycles=10)
        level = site.current()
        emulator.clock(5)
        assert site.current() == level  # still forced

    def test_reload_clears_sticky(self, emulator):
        emulator.checkpoint("t0")
        emulator.inject(5, InjectionMode.STICKY, sticky_cycles=1000)
        emulator.reload("t0")
        assert not emulator._sticky

    def test_read_status_fields(self, emulator):
        status = emulator.read_status()
        for key in ("halted", "checkstop", "hang", "fir_rec", "recoveries",
                    "corrected", "cycles", "committed", "quiesced"):
            assert key in status

    def test_read_latch_by_name(self, emulator):
        value = emulator.read_latch("ifu.ifar")
        assert value == emulator.core.ifu.ifar.value

    def test_stats_time_model(self, emulator):
        emulator.clock(1000)
        emulator.read_status()
        stats = emulator.stats
        assert stats.engine_seconds > 0
        assert stats.host_seconds > 0
        assert stats.total_seconds == pytest.approx(
            stats.engine_seconds + stats.host_seconds)


class TestCommHost:
    def test_poll_interval_bounds_interactions(self, testcase):
        core = Power6Core(SMALL_PARAMS)
        core.load_program(testcase.program)
        emulator = AwanEmulator(core)
        fine = CommHost(emulator, poll_interval=10)
        fine.run_until_quiesce(5_000)
        fine_polls = emulator.stats.host_interactions

        core2 = Power6Core(SMALL_PARAMS)
        core2.load_program(testcase.program)
        emulator2 = AwanEmulator(core2)
        coarse = CommHost(emulator2, poll_interval=500)
        coarse.run_until_quiesce(5_000)
        assert emulator2.stats.host_interactions < fine_polls

    def test_returns_final_status(self, emulator):
        host = CommHost(emulator, poll_interval=100)
        status = host.run_until_quiesce(100_000)
        assert status["halted"] and status["quiesced"]

    def test_bad_interval_rejected(self, emulator):
        with pytest.raises(ValueError):
            CommHost(emulator, poll_interval=0)


class TestSoftwareSimulator:
    def test_functionally_identical(self, testcase):
        awan_core = Power6Core(SMALL_PARAMS)
        awan_core.load_program(testcase.program)
        AwanEmulator(awan_core).clock(1_000_000)

        soft_core = Power6Core(SMALL_PARAMS)
        soft_core.load_program(testcase.program)
        SoftwareSimulator(soft_core).clock(1_000_000)

        assert awan_core.memory.nonzero_words() == soft_core.memory.nonzero_words()
        assert awan_core.cycles == soft_core.cycles

    def test_software_sim_is_slower(self, testcase):
        import time

        def timed(emulator_cls):
            core = Power6Core(SMALL_PARAMS)
            core.load_program(testcase.program)
            emulator = emulator_cls(core)
            start = time.perf_counter()
            emulator.clock(400)
            return time.perf_counter() - start

        awan = min(timed(AwanEmulator) for _ in range(2))
        soft = min(timed(SoftwareSimulator) for _ in range(2))
        assert soft > awan


class TestCheckpointLadder:
    """Fast-path replay cache: rungs, nearest-rung restore, sticky
    hygiene."""

    def _climb(self, emulator, rungs, step=40):
        """Checkpoint, then save `rungs` ladder rungs `step` cycles apart.
        Returns the saved cycles."""
        emulator.checkpoint("tc")
        cycles = []
        for _ in range(rungs):
            emulator.clock(step)
            emulator.save_rung("tc")
            cycles.append(emulator.core.cycles)
        return cycles

    def test_restore_nearest_picks_highest_rung_at_or_below(self, emulator):
        cycles = self._climb(emulator, 3)
        assert emulator.rung_count("tc") == 3
        assert emulator.stats.rungs_saved == 3
        emulator.clock(200)
        assert emulator.restore_nearest("tc", cycles[1] + 5) == cycles[1]
        assert emulator.core.cycles == cycles[1]
        assert emulator.restore_nearest("tc", cycles[2]) == cycles[2]
        assert emulator.stats.ladder_hits == 2
        assert emulator.stats.cycles_skipped == cycles[1] + cycles[2]

    def test_restore_below_lowest_rung_reloads_base(self, emulator):
        cycles = self._climb(emulator, 2)
        base_cycle = cycles[0] - 40
        assert emulator.restore_nearest("tc", cycles[0] - 1) == base_cycle
        assert emulator.core.cycles == base_cycle
        assert emulator.stats.ladder_misses == 1

    def test_restore_clears_sticky_faults(self, emulator):
        cycles = self._climb(emulator, 1)
        emulator.inject(0, InjectionMode.STICKY, sticky_cycles=1_000)
        assert emulator.sticky_pending
        emulator.restore_nearest("tc", cycles[0])
        assert not emulator.sticky_pending

    def test_reload_clears_sticky_faults(self, emulator):
        emulator.checkpoint("tc")
        emulator.inject(0, InjectionMode.STICKY, sticky_cycles=1_000)
        assert emulator.sticky_pending
        emulator.reload("tc")
        assert not emulator.sticky_pending
