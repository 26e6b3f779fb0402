"""Two-core chip model and chip-level fault-isolation campaigns."""

import pytest

from repro.avp import make_suite
from repro.cpu.chip import Power6Chip
from repro.sfi.chip_campaign import ChipExperiment
from repro.sfi import CampaignStorageError, Outcome

from tests.conftest import SMALL_PARAMS


@pytest.fixture(scope="module")
def chip_experiment():
    return ChipExperiment(core_params=SMALL_PARAMS, suite_seed=99)


class TestChipBasics:
    def test_needs_a_core(self):
        with pytest.raises(ValueError):
            Power6Chip(SMALL_PARAMS, core_count=0)

    def test_latch_population_is_sum(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        assert chip.latch_bits() == 2 * chip.cores[0].latch_bits()

    def test_owner_of_resolves_both_cores(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        index0, unit0 = chip.owner_of(chip.cores[0].ifu.ifar)
        index1, unit1 = chip.owner_of(chip.cores[1].lsu.ea)
        assert (index0, unit0) == (0, "IFU")
        assert (index1, unit1) == (1, "LSU")

    def test_program_count_checked(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        testcase = make_suite(1, seed=99)[0]
        with pytest.raises(ValueError):
            chip.load_programs([testcase.program])

    def test_both_cores_run_to_golden(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        testcases = make_suite(2, seed=99)
        chip.load_programs([t.program for t in testcases])
        chip.run()
        assert chip.quiesced and not chip.chip_checkstop
        for core, testcase in zip(chip.cores, testcases):
            assert core.halted
            assert core.memory.nonzero_words() == testcase.golden_memory

    def test_snapshot_restore_roundtrip(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        testcases = make_suite(2, seed=99)
        chip.load_programs([t.program for t in testcases])
        snap = chip.snapshot()
        chip.run()
        results = [core.memory.nonzero_words() for core in chip.cores]
        chip.restore(snap)
        chip.run()
        assert [core.memory.nonzero_words() for core in chip.cores] == results

    def test_checkstop_fans_in(self):
        chip = Power6Chip(SMALL_PARAMS, core_count=2)
        testcases = make_suite(2, seed=99)
        chip.load_programs([t.program for t in testcases])
        for _ in range(10):
            chip.cycle()
        chip.cores[1].pervasive.mode_clkcfg.flip(3)  # core1 config corrupt
        chip.run()
        assert chip.cores[1].checkstopped
        assert chip.chip_checkstop


class TestChipCampaign:
    def test_references_established(self, chip_experiment):
        assert chip_experiment.reference_cycles > 0
        assert chip_experiment.site_count(0) > 1000
        assert chip_experiment.site_count(1) == chip_experiment.site_count(0)

    def test_ladder_keeps_a_rung_at_every_stride_boundary(self):
        """At a short stride the chip ladder outgrows 64 rungs and still
        holds one at every stride boundary before the reference end:
        none is thinned away."""
        stride = 4
        experiment = ChipExperiment(core_params=SMALL_PARAMS, suite_seed=99,
                                    ckpt_stride=stride)
        boundaries = range(stride, experiment.reference_cycles, stride)
        assert experiment.rung_count() == len(boundaries) > 64
        assert [cycle for cycle, _snap in experiment._rungs] == \
            list(boundaries)

    def test_run_one_isolation(self, chip_experiment):
        record = chip_experiment.run_one(0, 123, inject_cycle=15)
        assert record.core_index == 0
        assert record.outcome in Outcome
        assert record.site_name.startswith("core0.")

    def test_campaign_mostly_isolated_and_masked(self, chip_experiment):
        result = chip_experiment.run_campaign(30, seed=5)
        assert result.total == 30
        # Cross-core isolation: flips in one core never corrupt the other.
        assert result.isolation_rate() == 1.0
        assert result.fractions()[Outcome.VANISHED] > 0.7

    def test_targeted_core_campaign(self, chip_experiment):
        result = chip_experiment.run_campaign(10, seed=6, core_index=1)
        assert all(record.core_index == 1 for record in result.records)

    def test_per_trial_streams_are_deterministic(self, chip_experiment):
        a = chip_experiment.run_campaign(8, seed=9)
        b = chip_experiment.run_campaign(8, seed=9)
        assert [r.site_name for r in a.records] == \
            [r.site_name for r in b.records]
        assert [r.outcome for r in a.records] == \
            [r.outcome for r in b.records]

    def test_journal_resume_roundtrip(self, chip_experiment, tmp_path):
        """A chip campaign resumed from a half-written journal replays
        the missing trials and matches the uninterrupted run."""
        journal = tmp_path / "chip.journal"
        full = chip_experiment.run_campaign(8, seed=7, journal=journal)
        # Keep header + 4 trials, as if the campaign was killed mid-run.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:5]))
        resumed = chip_experiment.run_campaign(8, seed=7, journal=journal,
                                               resume=True)
        assert [r.site_name for r in resumed.records] == \
            [r.site_name for r in full.records]
        assert [r.outcome for r in resumed.records] == \
            [r.outcome for r in full.records]
        assert resumed.isolation_rate() == full.isolation_rate()

    def test_resume_rejects_mismatched_campaign(self, chip_experiment,
                                                tmp_path):
        """A chip journal of another seed is refused, and left as it
        is, rather than resumed as if it were this campaign's."""
        journal = tmp_path / "chip.journal"
        chip_experiment.run_campaign(3, seed=7, journal=journal)
        before = journal.read_text()
        with pytest.raises(CampaignStorageError, match="different"):
            chip_experiment.run_campaign(3, seed=8, journal=journal,
                                         resume=True)
        assert journal.read_text() == before
