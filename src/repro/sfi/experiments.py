"""Higher-level statistical experiments built on campaigns.

``sample_size_experiment`` reproduces the methodology of the paper's §2.1
(Figure 2): for each sample size X, draw several independent random
samples of X bit flips, run each as a campaign, and report the standard
deviation of each outcome category's count as a fraction of its mean —
the estimation-error curve that justifies the 10k-flip operating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.sfi.campaign import SfiExperiment
from repro.sfi.outcomes import OUTCOME_ORDER, Outcome
from repro.sfi.results import CampaignResult
from repro.sfi.sampling import random_sample
from repro.stats.descriptive import mean_std


@dataclass
class SampleSizePoint:
    """Statistics for one sample size X."""

    flips: int
    samples: int
    means: dict[Outcome, float] = field(default_factory=dict)
    stdev_over_mean: dict[Outcome, float] = field(default_factory=dict)
    results: list[CampaignResult] = field(default_factory=list)


def sample_size_experiment(experiment: SfiExperiment,
                           sizes: list[int],
                           samples_per_size: int = 10,
                           seed: int = 0) -> list[SampleSizePoint]:
    """Run the Figure 2 experiment over ``sizes``.

    Every sample campaign runs serially on ``experiment``
    (:meth:`~repro.sfi.campaign.SfiExperiment.run_campaign`), with
    whatever metrics it is instrumented with.
    """
    points: list[SampleSizePoint] = []
    for size in sizes:
        point = SampleSizePoint(flips=size, samples=samples_per_size)
        per_outcome_counts: dict[Outcome, list[int]] = {
            outcome: [] for outcome in OUTCOME_ORDER}
        for sample_idx in range(samples_per_size):
            rng = random.Random(f"{seed}:{size}:{sample_idx}")
            sites = random_sample(experiment.latch_map, size, rng)
            campaign_seed = rng.randrange(1 << 30)
            result = experiment.run_campaign(sites, seed=campaign_seed)
            point.results.append(result)
            counts = result.counts()
            for outcome in OUTCOME_ORDER:
                per_outcome_counts[outcome].append(counts[outcome])
        for outcome, values in per_outcome_counts.items():
            mean, std = mean_std(values)
            point.means[outcome] = mean
            point.stdev_over_mean[outcome] = (std / mean) if mean else 0.0
        points.append(point)
    return points
