"""Campaign orchestration on the shared prepared experiment."""

import pytest

from repro.rtl import InjectionMode
from repro.sfi import CampaignConfig, Outcome, SfiExperiment
from repro.sfi.outcomes import OUTCOME_ORDER

from tests.conftest import SMALL_PARAMS


class TestPreparation:
    def test_references_established(self, experiment):
        assert len(experiment.references) == len(experiment.suite)
        for reference in experiment.references:
            assert reference.cycles > 0
            assert reference.committed == reference.testcase.instructions_retired

    def test_checkpoints_exist(self, experiment):
        for index in range(len(experiment.suite)):
            assert experiment.emulator.has_checkpoint(f"tc{index}")

    def test_mode_override_applied_in_checkpoint(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=1, suite_seed=7, core_params=SMALL_PARAMS,
            checker_mask=0))
        experiment.emulator.reload("tc0")
        assert experiment.core.pervasive.mode_chk_en.value == 0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown pervasive mode latch"):
            SfiExperiment(CampaignConfig(
                suite_size=1, core_params=SMALL_PARAMS,
                mode_overrides={"mode_bogus": 1}))

    def test_prepare_keeps_every_ladder_rung(self):
        """However many rungs the suite needs (here more than 256), every
        testcase holds one at each stride boundary before its golden
        end, the first testcase's included, so no trial falls back to
        cycle 0 or loses a drain exit."""
        stride = 4
        experiment = SfiExperiment(CampaignConfig(
            suite_size=2, suite_seed=99, core_params=SMALL_PARAMS,
            ckpt_stride=stride))
        emulator = experiment.emulator
        assert emulator.rung_count() > 256
        for index, golden in enumerate(experiment.goldens):
            name = f"tc{index}"
            boundaries = range(stride, golden.end_cycle, stride)
            assert emulator.rung_count(name) == len(boundaries)
            for cycle in boundaries:
                assert emulator.rung(name, cycle) is not None, (name, cycle)
            assert emulator.restore_nearest(name, stride) == stride


class TestRunOne:
    def test_record_fields(self, experiment):
        record = experiment.run_one(100, 0, 10)
        assert record.site_index == 100
        assert record.unit in experiment.latch_map.units()
        assert record.outcome in OUTCOME_ORDER
        assert record.testcase_seed == experiment.suite[0].seed
        assert record.inject_cycle == 10

    def test_machine_state_isolated_between_injections(self, experiment):
        first = experiment.run_one(50, 0, 5)
        second = experiment.run_one(50, 0, 5)
        assert first.outcome == second.outcome  # full reload between runs


class TestCampaign:
    def test_deterministic_with_seed(self, experiment):
        a = experiment.run_random_campaign(30, seed=4)
        b = experiment.run_random_campaign(30, seed=4)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
        assert [r.site_name for r in a.records] == [r.site_name for r in b.records]

    def test_different_seeds_differ(self, experiment):
        a = experiment.run_random_campaign(30, seed=4)
        b = experiment.run_random_campaign(30, seed=5)
        assert [r.site_name for r in a.records] != [r.site_name for r in b.records]

    def test_counts_sum_to_total(self, experiment):
        result = experiment.run_random_campaign(40, seed=1)
        assert sum(result.counts().values()) == result.total == 40
        assert abs(sum(result.fractions().values()) - 1.0) < 1e-9

    def test_cycles_through_suite(self, experiment):
        result = experiment.run_campaign([0, 1, 2, 3], seed=0)
        seeds = [record.testcase_seed for record in result.records]
        assert seeds[0] == seeds[2] and seeds[1] == seeds[3]
        assert seeds[0] != seeds[1]

    def test_mostly_vanished(self, experiment):
        """The paper's headline: ~95% of flips are masked."""
        result = experiment.run_random_campaign(150, seed=8)
        assert result.fractions()[Outcome.VANISHED] > 0.80

    def test_by_unit_partition(self, experiment):
        result = experiment.run_random_campaign(60, seed=2)
        grouped = result.by_unit()
        assert sum(r.total for r in grouped.values()) == result.total

    def test_sticky_mode_campaign_runs(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=1, suite_seed=31, core_params=SMALL_PARAMS,
            injection_mode=InjectionMode.STICKY, sticky_cycles=8))
        result = experiment.run_random_campaign(25, seed=0)
        assert result.total == 25


class TestRawMode:
    def test_raw_mode_has_no_corrections(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=2, suite_seed=77, core_params=SMALL_PARAMS,
            checker_mask=0))
        result = experiment.run_random_campaign(80, seed=3)
        # With every checker masked nothing can be *detected and corrected*;
        # (the hardwired checkstop network — e.g. a flipped checkstop-FIR
        # bit — is not a checker and can still fire).
        assert result.counts()[Outcome.CORRECTED] == 0
