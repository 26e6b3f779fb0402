"""Parallel campaign execution.

"Multiple concurrent copies of the simulation environment can be run
relatively easily, which is not the case with the beam experiments"
(§2.2).  This module runs a campaign on ``workers`` processes, this one
included: this process runs its share on its prepared machine
(:func:`~repro.sfi.campaign.prepared_machine`, the caller's own probe
when one of the same config was built first), and each of the other
``workers - 1`` loads a copy of that machine once and runs lease after
lease; the leases merge into one
:class:`~repro.sfi.results.CampaignResult`.  A serial run
(``workers <= 1``) makes no copy.

Execution is delegated to :class:`~repro.sfi.supervisor.CampaignSupervisor`,
so each slice of the plan is a lease with retries and incremental
journaling (and, in a spawned worker, a timeout) — see that module for
the failure policy.  Because
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
    """Run ``sites`` as a supervised campaign on ``workers`` processes,
    this one included.

    The machine is prepared once, in this process: the one the caller
    already prepared for ``config`` if there is one.  This process runs
    its leases on it; each spawned worker loads a copy of it (same AVP
    suite, references, checkpoints and ladder) once instead of
    preparing, and runs leases of the injection plan until none is
    left; at ``workers <= 1`` the whole plan runs here.
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
