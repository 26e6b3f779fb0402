"""Parallel campaign sharding and execution under the supervisor."""

import random

import pytest

from repro.sfi import CampaignConfig, CampaignSupervisor
from repro.sfi.campaign import partition_plan

from tests.conftest import SMALL_PARAMS


class TestSharding:
    def test_balanced_split(self):
        shards = partition_plan(list(range(10)), 3)
        assert [len(s) for s in shards] == [4, 3, 3]
        assert sum(shards, []) == list(range(10))

    def test_more_shards_than_sites(self):
        shards = partition_plan([1, 2], 5)
        assert shards == [[1], [2]]

    def test_single_shard(self):
        assert partition_plan([1, 2, 3], 1) == [[1, 2, 3]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_plan([1], 0)


class TestParallelExecution:
    @pytest.fixture(scope="class")
    def config(self):
        return CampaignConfig(suite_size=2, suite_seed=99,
                              core_params=SMALL_PARAMS)

    def test_single_worker_falls_back_to_serial(self, config):
        result = CampaignSupervisor(config, workers=1).run([10, 20, 30], 1)
        assert result.total == 3

    def test_single_shard_keeps_population_bits(self, config):
        """The serial fallback must report the same coverage denominator
        as a parallel run (regression: it used to drop population_bits)."""
        explicit = CampaignSupervisor(config, workers=1,
                                      population_bits=5000).run(
            [10, 20, 30], 1)
        assert explicit.population_bits == 5000
        implicit = CampaignSupervisor(config, workers=1).run([10, 20, 30], 1)
        assert implicit.population_bits > 0  # workers' own latch count

    @pytest.mark.slow
    def test_two_workers_merge_all_records(self, config):
        rng = random.Random(3)
        sites = [rng.randrange(5000) for _ in range(24)]
        result = CampaignSupervisor(config, workers=2,
                                    population_bits=5000).run(sites, 1)
        assert result.total == 24
        assert result.population_bits == 5000
        assert sum(result.counts().values()) == 24

    @pytest.mark.slow
    def test_parallel_is_deterministic(self, config):
        sites = list(range(100, 112))
        a = CampaignSupervisor(config, workers=2).run(sites, 7)
        b = CampaignSupervisor(config, workers=2).run(sites, 7)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]

    @pytest.mark.slow
    def test_worker_count_does_not_change_results(self, config):
        """Per-site RNG streams are keyed by (seed, site, occurrence),
        so the merged campaign is bit-identical for any ``workers``."""
        sites = list(range(200, 212)) + [205, 205]  # repeats included
        serial = CampaignSupervisor(config, workers=1).run(sites, 9)
        parallel = CampaignSupervisor(config, workers=3).run(sites, 9)
        assert [r.site_name for r in serial.records] == \
            [r.site_name for r in parallel.records]
        assert [r.inject_cycle for r in serial.records] == \
            [r.inject_cycle for r in parallel.records]
        assert [r.outcome for r in serial.records] == \
            [r.outcome for r in parallel.records]
