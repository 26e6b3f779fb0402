"""Lease bookkeeping: deadlines, fencing tokens, retry/split policy.

A *lease* is one slice of plan items handed to one worker — a process of
the local pool or a TCP worker of the coordinator — and reclaimable the
moment that worker fails.  Both transports drive the same
:class:`LeaseManager`, so the retry → split → poison policy exists once.
Every issue of a lease carries a fencing token drawn from one
monotonically increasing counter; when a lease is reclaimed and
re-issued, the old token is dead forever, so a worker returning from a
network partition (or a killed pool worker whose last records were
still queued) streaming results under a stale token is *fenced* — its
records rejected, never double-journaled — while the reissued lease's
records flow normally.

The manager is transport-agnostic and purely event-driven (the
transport tells it about grants, results, completions and losses), so
its state machine is testable without sockets or processes.  An
optional :class:`LeaseLog` journals every grant/reclaim/fence event as
JSONL next to the campaign journal; ``repro-sfi journal verify``
replays it and flags token regressions.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.sfi.campaign import InjectionPlan, partition_plan
from repro.sfi.service.backoff import DEFAULT_CAP, backoff_delay
from repro.sfi.storage import FencedAppendError


@dataclass
class Lease:
    """One issued (or queued) slice of the campaign plan."""

    shard_id: int
    items: list[InjectionPlan]
    token: int = -1            # fencing token of the current issue
    attempt: int = 0           # completed issue attempts so far
    worker: str | None = None  # holder of the current issue
    not_before: float = 0.0    # earliest re-grant time (backoff)
    queued_at: float = 0.0     # when this issue (re)entered the queue
    accepted: set[int] = field(default_factory=set)
    # Positions of ``items``: accept() checks membership once per record,
    # and a pool lease holds a whole worker's share of the plan.
    positions: frozenset[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.positions = frozenset(item.position for item in self.items)

    def remaining(self) -> list[InjectionPlan]:
        return [item for item in self.items
                if item.position not in self.accepted]


@dataclass(frozen=True)
class Requeue:
    """The failure-policy branch one failed lease issue took."""

    action: str         # "retry", "split" or "poison"
    shard_id: int
    attempt: int        # failed issues of this shard so far
    reason: str
    items: int          # plan items still to run
    delay: float = 0.0  # backoff before a retry may be granted


class LeaseLog:
    """Append-only JSONL sidecar of lease lifecycle events.

    Lives next to the campaign journal (``<journal>.leases``); the
    record journal itself stays byte-identical to a single-process run,
    so fencing history gets its own file instead of extra record keys.
    """

    def __init__(self, path: str | os.PathLike,
                 fresh: bool = False) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w" if fresh else "a")
        # Fencing tokens are per-coordinator-incarnation (a dead
        # coordinator's leases die with it; the record journal is the
        # durable truth), so each opening marks a session boundary and
        # token monotonicity is verified within sessions.
        self.write("session")

    def write(self, event: str, **fields) -> None:
        if self._handle is None:
            return
        payload = {"event": event}
        payload.update(fields)
        self._handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


#: Plan items per lease unless a transport asks for another size (the
#: local pool also caps its leases at this).
LEASE_ITEMS = 8


class LeaseManager:
    """Hands out leases, fences stale issues, retries and splits.

    This is the campaign's one failure policy: a reclaimed or failed
    lease is re-queued with exponential backoff (deterministic jitter
    keyed by ``(seed, shard_id, attempt)``); after ``max_retries`` it is
    split in half; a single item that still cannot complete lands in
    ``poisoned`` for the caller to run in-process — loud, never dropped.
    ``on_requeue`` (optional) receives a :class:`Requeue` naming the
    branch each failure took, so transports report it without knowing
    the policy.

    ``fence`` (optional) is called with a token *before* its issue is
    reclaimed or drained — the caller revokes it at the journal, so no
    window exists in which a stale issue could append after its work
    was re-queued.  Tokens start at ``first_token``: a manager that takes
    over from another transport's must start above every token that one
    revoked.  ``clock`` is injectable (monotonic seconds) so backoff
    windows are testable without sleeping.
    """

    def __init__(self, plan: list[InjectionPlan], *, seed: int,
                 lease_items: int = LEASE_ITEMS, max_retries: int = 2,
                 backoff_base: float = 0.25,
                 backoff_cap: float = DEFAULT_CAP,
                 log: LeaseLog | None = None,
                 clock=None, first_token: int = 1,
                 fence=None, on_requeue=None) -> None:
        if lease_items < 1:
            raise ValueError("lease_items must be >= 1")
        self.seed = seed
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.log = log
        self._clock = clock or _monotonic
        self._fence = fence
        self._on_requeue = on_requeue
        self._tokens = itertools.count(first_token)
        self._shard_ids = itertools.count()
        shards = partition_plan(plan, max(1, -(-len(plan) // lease_items))) \
            if plan else []
        now = self._clock()
        self.queued: list[Lease] = [
            Lease(shard_id=next(self._shard_ids), items=shard,
                  queued_at=now)
            for shard in shards]
        self.active: dict[int, Lease] = {}   # token -> lease
        self.poisoned: list[InjectionPlan] = []
        self.reissues = 0
        self.fenced = 0

    # -- queries -------------------------------------------------------

    def outstanding(self) -> bool:
        """Any work not yet accepted (queued, active or poisoned)?"""
        return bool(self.queued or self.active or self.poisoned)

    def grantable(self) -> bool:
        now = self._clock()
        return any(lease.not_before <= now for lease in self.queued)

    def next_ready_at(self) -> float | None:
        """Earliest ``not_before`` among queued leases (None if empty)."""
        if not self.queued:
            return None
        return min(lease.not_before for lease in self.queued)

    # -- lifecycle -----------------------------------------------------

    def grant(self, worker: str) -> Lease | None:
        """Issue the next ready lease to ``worker`` (None if nothing is
        ready — queued-but-backing-off leases are not granted early)."""
        now = self._clock()
        for index, lease in enumerate(self.queued):
            if lease.not_before <= now:
                del self.queued[index]
                lease.token = next(self._tokens)
                lease.worker = worker
                self.active[lease.token] = lease
                if self.log is not None:
                    self.log.write("grant", token=lease.token,
                                   shard=lease.shard_id, worker=worker,
                                   attempt=lease.attempt,
                                   items=len(lease.remaining()))
                return lease
        return None

    def accept(self, token: int, position: int) -> Lease | None:
        """Validate one record against the fencing token.

        Returns the holding lease when ``token`` is a live issue and
        ``position`` belongs to it and was not already accepted; None
        means the record is stale (fenced) or alien and must not reach
        the journal.
        """
        lease = self.active.get(token)
        if lease is None or position in lease.accepted \
                or position not in lease.positions:
            self.fenced += 1
            if self.log is not None:
                self.log.write("fenced", token=token, pos=position)
            return None
        lease.accepted.add(position)
        return lease

    def deliver(self, token: int, position: int, record, collect) -> bool:
        """Accept one record and hand it to ``collect`` under its fencing
        token; False when it was fenced here or, as a second line of
        defence, by the journal (:class:`FencedAppendError`)."""
        if self.accept(token, position) is None:
            return False
        try:
            collect(position, record, fence=token)
        except FencedAppendError:
            self.fenced += 1
            return False
        return True

    def complete(self, token: int) -> Lease | None:
        """The worker reported the lease's shard done."""
        lease = self.active.pop(token, None)
        if lease is None:
            self.fenced += 1
            if self.log is not None:
                self.log.write("fenced", token=token, pos=-1)
            return None
        if self.log is not None:
            self.log.write("done", token=token, shard=lease.shard_id)
        remaining = lease.remaining()
        if remaining:
            # "done" without every record (lost frames mid-partition):
            # treat like a failure so the tail re-runs.
            self._requeue(lease, "done with missing records")
        return lease

    def reclaim(self, token: int, reason: str) -> Lease | None:
        """Take a lease back from a lost/failed worker and re-queue it:
        fence first, so the old issue is dead before its work is."""
        if token not in self.active:
            return None
        if self._fence is not None:
            self._fence(token)
        lease = self.active.pop(token)
        if self.log is not None:
            self.log.write("reclaim", token=token, shard=lease.shard_id,
                           worker=lease.worker, reason=reason)
        if lease.remaining():
            self._requeue(lease, reason)
        return lease

    def drain(self) -> list[InjectionPlan]:
        """Give up on leased execution: every unaccepted item (poisoned
        ones included), for the caller's in-process fallback; issued
        tokens are fenced and the manager empties."""
        items: list[InjectionPlan] = list(self.poisoned)
        self.poisoned = []
        for lease in self.queued:
            items.extend(lease.remaining())
        self.queued = []
        for token in sorted(self.active):
            if self._fence is not None:
                self._fence(token)
            lease = self.active.pop(token)
            if self.log is not None:
                self.log.write("reclaim", token=token, shard=lease.shard_id,
                               worker=lease.worker, reason="drain")
            items.extend(lease.remaining())
        items.sort(key=lambda item: item.position)
        return items

    # -- failure policy ------------------------------------------------

    def _requeue(self, lease: Lease, reason: str) -> None:
        lease.worker = None
        lease.token = -1
        lease.attempt += 1
        remaining = lease.remaining()
        self.reissues += 1
        delay = 0.0
        if lease.attempt <= self.max_retries:
            action = "retry"
            delay = backoff_delay(self.backoff_base, lease.attempt,
                                  cap=self.backoff_cap, seed=self.seed,
                                  stream=lease.shard_id)
            now = self._clock()
            lease.not_before = now + delay
            lease.queued_at = now
            self.queued.append(lease)
        elif len(remaining) > 1:
            action = "split"
            half = len(remaining) // 2
            for piece in (remaining[:half], remaining[half:]):
                self.queued.append(Lease(shard_id=next(self._shard_ids),
                                         items=piece,
                                         queued_at=self._clock()))
            if self.log is not None:
                self.log.write("split", shard=lease.shard_id,
                               remaining=len(remaining))
        else:
            action = "poison"
            self.poisoned.extend(remaining)
        if self._on_requeue is not None:
            self._on_requeue(Requeue(action, lease.shard_id, lease.attempt,
                                     reason, len(remaining), delay))


def _monotonic() -> float:
    import time
    return time.monotonic()
