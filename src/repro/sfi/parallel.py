"""Parallel campaign execution.

"Multiple concurrent copies of the simulation environment can be run
relatively easily, which is not the case with the beam experiments"
(§2.2).  This module shards a campaign across worker processes, each of
which builds its own copy of the prepared machine from the (picklable)
campaign configuration and runs its slice; the shards merge into one
:class:`~repro.sfi.results.CampaignResult`.  A serial run
(``workers <= 1``) builds no copy: it runs on this process's prepared
machine (:func:`~repro.sfi.campaign.prepared_machine`), which is the
caller's own probe when one of the same config was built first.

Execution is delegated to :class:`~repro.sfi.supervisor.CampaignSupervisor`,
so each worker's slice is a lease with a timeout, retries and
incremental journaling — see that module for the failure policy.  Because
every injection's RNG stream is keyed by ``(seed, site, occurrence)``
(never the shard index), the merged result is bit-identical for any
``workers`` value, including the serial fallback.
"""

from __future__ import annotations

from repro.sfi.campaign import CampaignConfig
from repro.sfi.results import CampaignResult
from repro.sfi.supervisor import CampaignSupervisor


def run_parallel_campaign(config: CampaignConfig, sites: list[int],
                          seed: int = 0, workers: int | None = None,
                          population_bits: int = 0,
                          **supervisor_options) -> CampaignResult:
    """Run ``sites`` as a supervised campaign across ``workers`` processes.

    Each pool worker prepares an identical machine (same config, same
    AVP suite, same checkpoints) and runs its shard of the injection
    plan; at ``workers <= 1`` the shard runs in this process, on the
    machine the caller already prepared for ``config`` if there is one.
    Results are bit-identical for any ``workers`` value.  When
    ``population_bits`` is 0 the workers' own latch population is used,
    so serial and parallel runs report the same coverage fractions.
    Extra keyword arguments (``journal``, ``resume``, ``shard_timeout``,
    ``max_retries``, ``progress``, ...) configure the supervisor.
    """
    supervisor = CampaignSupervisor(config, workers=workers,
                                    population_bits=population_bits,
                                    **supervisor_options)
    return supervisor.run(sites, seed)
