"""Shared helpers for the differential equivalence suites.

Both differential suites (fast path and bit-plane backend) make the
same claim — records bit-identical to the seed slow path over
randomized mini-campaigns — so they share the campaign runner, the
failing-seed reporting, and the hand-rolled shrinker here.

On a mismatch, a repro line per differing record is appended to the
file named by ``FASTPATH_REPRO_FILE`` (default
``fastpath-failing-seeds.txt`` in the working directory); CI uploads it
as an artifact.
"""

from __future__ import annotations

import os
import random

from repro.cpu import CoreParams
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

SMALL_PARAMS = CoreParams(scale=0.15, icache_lines=32, dcache_lines=32)

BASE_CONFIG = dict(suite_size=2, suite_seed=99, core_params=SMALL_PARAMS)


def sample_sites(experiment: SfiExperiment, flips: int, seed: int):
    """The shared site-sampling convention of the differential suites."""
    return random_sample(experiment.latch_map, flips,
                         random.Random(seed ^ 0x5F1))


def run_campaign(overrides: dict, seed: int, flips: int, *,
                 sites=None, **config_kwargs):
    """One mini-campaign: build, sample (or take) sites, run.

    Returns ``(experiment, result)``; records land in plan order, so
    two runs over the same sites/seed are positionally comparable.
    """
    config = CampaignConfig(**BASE_CONFIG, **overrides, **config_kwargs)
    experiment = SfiExperiment(config)
    if sites is None:
        sites = sample_sites(experiment, flips, seed)
    result = experiment.run_campaign(sites, seed)
    return experiment, result


def report_mismatches(label: str, seed: int | None, slow,
                      fast) -> list[str]:
    """Describe record mismatches and append them as repro lines
    (``seed`` None: single trials, not a campaign)."""
    lines = []
    for index, (a, b) in enumerate(zip(slow, fast)):
        if a != b:
            lines.append(
                f"case={label} seed={seed} "
                f"record={index} site={a.site_index} "
                f"testcase_seed={a.testcase_seed} cycle={a.inject_cycle} "
                f"slow={a.outcome.value} fast={b.outcome.value} "
                f"trace_equal={a.trace == b.trace}")
    if len(slow) != len(fast):
        lines.append(f"case={label} seed={seed} "
                     f"record_counts={len(slow)}/{len(fast)}")
    if lines:
        path = os.environ.get("FASTPATH_REPRO_FILE",
                              "fastpath-failing-seeds.txt")
        with open(path, "a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    return lines


def shrink_failing_sites(sites, failing) -> list:
    """Hand-rolled delta-debugging shrink of a failing site list.

    ``failing(subset)`` decides whether the mismatch reproduces on a
    subset.  Every record is self-contained (its inject cycle comes
    from its own RNG stream), so any subset of a failing campaign is a
    valid smaller campaign; greedily drop halves, then single sites,
    until no single removal still fails.  Returns the 1-minimal list.
    """
    current = list(sites)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        shrunk = True
        while shrunk and len(current) > 1:
            shrunk = False
            for start in range(0, len(current), chunk):
                candidate = current[:start] + current[start + chunk:]
                if candidate and failing(candidate):
                    current = candidate
                    shrunk = True
                    break
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return current
