"""The shard-execution seam between supervisor and back ends.

:class:`~repro.sfi.supervisor.CampaignSupervisor` plans, journals,
resumes and aggregates; *how* pending plan items actually execute is a
:class:`ShardTransport`.  The in-process pool (PR 1's supervised
workers) is the default implementation; the TCP coordinator
(:class:`~repro.sfi.service.coordinator.SocketTransport`) is the
distributed one.  A transport may return items it could not execute —
the supervisor degrades those to the in-process pool, so losing every
remote worker mid-campaign costs throughput, never records.
"""

from __future__ import annotations

from repro.sfi.campaign import InjectionPlan


class ShardTransport:
    """Strategy interface for executing pending plan items.

    ``execute`` streams every completed injection through
    ``collect(position, record)`` (whose ``extra`` attribute is the
    sidecar channel, exactly as the shard workers see it) and returns
    the items it could **not** execute; the supervisor runs those on the
    in-process pool.  Implementations must preserve the determinism
    contract: records depend only on ``(seed, site, occurrence)``,
    never on transport topology, retries or arrival order.
    """

    #: Human-readable name (degradation messages, lease logs).
    name = "transport"

    def execute(self, supervisor, pending: list[InjectionPlan], seed: int,
                collect) -> list[InjectionPlan]:
        raise NotImplementedError

    def close(self) -> None:
        """Release sockets/files; idempotent.  The supervisor calls this
        once the campaign (including any fallback) finished."""


class PoolTransport(ShardTransport):
    """The local worker pool, behind the seam.

    Delegates to the supervisor's serial path at ``workers <= 1`` and
    otherwise to its multiprocessing pool, which runs one lease per
    worker process on the same lease engine as the socket transport.
    """

    name = "pool"

    def execute(self, supervisor, pending: list[InjectionPlan], seed: int,
                collect) -> list[InjectionPlan]:
        supervisor.run_pool(pending, seed, collect)
        return []
