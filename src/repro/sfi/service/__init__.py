"""Distributed campaign service: lease-based multi-host execution.

The paper's statistical argument needs trial counts past what one
machine's process pool delivers; this package generalizes shard
execution behind a :class:`~repro.sfi.service.transport.ShardTransport`
seam so the same supervised campaign runs on the in-process pool
(:class:`~repro.sfi.service.transport.PoolTransport`, the default) or
across TCP worker processes
(:class:`~repro.sfi.service.coordinator.SocketTransport` +
``repro-sfi worker``).

Robustness lives in one engine both transports drive: work is handed
out as *leases* with monotonically increasing fencing tokens
(:mod:`repro.sfi.service.leases`), reclaimed when a worker is lost —
a missed heartbeat or dropped connection remotely, a dead, erroring or
timed-out process locally — and retried, split or poisoned under one
policy, with exponential backoff and deterministic seeded jitter
(:mod:`repro.sfi.service.backoff`).  Stale results are rejected
instead of double-journaled, and loss of every remote worker degrades
to the in-process pool mid-campaign.  A
:class:`~repro.sfi.service.queue.CampaignQueue` (``repro-sfi serve`` /
``submit``) layers many queued campaigns on top, with the campaign
journal as the single durable source of truth.

``coordinator``, ``worker`` and ``queue`` are imported by module path
(they pull in the supervisor); this front re-exports only the
dependency-light seam.
"""

from repro.sfi.service.backoff import backoff_delay
from repro.sfi.service.messages import (
    Message,
    config_from_dict,
    config_to_dict,
    plan_item_from_dict,
    plan_item_to_dict,
)
from repro.sfi.service.transport import PoolTransport, ShardTransport
from repro.sfi.service.wire import (
    FrameError,
    FrameReader,
    recv_message,
    send_message,
)

__all__ = [
    "FrameError",
    "FrameReader",
    "Message",
    "PoolTransport",
    "ShardTransport",
    "backoff_delay",
    "config_from_dict",
    "config_to_dict",
    "plan_item_from_dict",
    "plan_item_to_dict",
    "recv_message",
    "send_message",
]
