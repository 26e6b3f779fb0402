"""The one lease engine under both transports.

The local process pool runs on the same :class:`LeaseManager` as the
TCP coordinator, so fencing guards pool workers as it guards TCP ones
and both transports report failures the same way.  These tests cover
that: a record from a reclaimed pool lease is fenced instead of
journaled twice; a lost TCP worker's leases are reported with their
real shard ids; a pool taking over from a transport that revoked
tokens issues its own above them; every faulty pool campaign journals
exactly the serial run's records; and a stateful property test
searches the lease state machine for token or accounting bugs.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs import MetricsRegistry
from repro.sfi import CampaignSupervisor, supervisor as supervisor_module
from repro.sfi import verify_journal
from repro.sfi.service.coordinator import SocketTransport, _WorkerConn
from repro.sfi.service.leases import LeaseManager
from repro.sfi.service.transport import ShardTransport
from repro.sfi.storage import CampaignJournal
from repro.sfi.supervisor import _ProcessPool, run_shard

from tests.test_service_protocol import FakeClock, _fake_record, _plan
from tests.test_supervisor import (
    _MARKER_ENV,
    CONFIG,
    SITES,
    RecordingProgress,
    _trip_marker,
    hanging_runner,
    oversized_shard_runner,
    raising_runner,
    sigkill_runner,
)

SEED = 11


def half_then_sigkill_runner(config, items, seed, emit):
    """Report half the lease's records (sidecars included), then die
    like a SIGKILLed worker; the retry re-runs the rest."""
    if not _trip_marker():
        return run_shard(config, items, seed, emit)
    done = 0

    def gated(position, record):
        nonlocal done
        emit(position, record)
        done += 1
        if done >= max(1, len(items) // 2):
            time.sleep(0.3)  # let the queue feeder flush
            os.kill(os.getpid(), signal.SIGKILL)

    gated.extra = emit.extra
    return run_shard(config, items, seed, gated)


def plain_runner(config, items, seed, emit):
    """``run_shard`` under a name of this module, so a supervisor still
    pickles its runner while a test patches ``supervisor.run_shard``."""
    return run_shard(config, items, seed, emit)


def _journal_body(path) -> list[str]:
    lines = Path(path).read_text().splitlines()
    return sorted(line for line in lines[1:] if line.strip())


@pytest.fixture(scope="module")
def serial_body(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "campaign.journal"
    CampaignSupervisor(CONFIG, workers=1, journal=path).run(SITES, seed=SEED)
    return _journal_body(path)


class TestPoolFencing:
    def test_stale_pool_record_is_fenced(self, tmp_path):
        """A killed worker's record surfacing after its lease was
        reclaimed (and re-issued) must not reach the journal."""
        path = tmp_path / "pool.journal"
        journal = CampaignJournal.create(path, seed=SEED, total_sites=4)
        supervisor = CampaignSupervisor(CONFIG, workers=2, backoff_base=0.0)
        supervisor._journal = journal

        def collect(position, record, fence=None):
            journal.append(position, record, fence=fence)

        collect.extra = lambda kind, position, payload: None
        leases = supervisor.lease_manager(_plan(4), SEED, lease_items=2)
        pool = _ProcessPool(supervisor, leases, SEED, collect)
        record = _fake_record()
        stale = leases.grant("pool")
        pool.handle(("record", stale.token, 0, record))
        pool.handle(("error", stale.token, "RuntimeError: killed"))
        retried = leases.grant("pool")
        assert retried.token > stale.token
        pool.handle(("record", stale.token, 1, record))  # the late one
        assert leases.fenced == 1
        other = leases.grant("pool")
        for lease in (retried, other):
            for item in lease.remaining():
                pool.handle(("record", lease.token, item.position, record))
            pool.handle(("done", lease.token, 100))
        assert not leases.outstanding()
        journal.close()
        report = verify_journal(path)
        assert report.ok, report.issues
        positions = [json.loads(line)["pos"] for line in _journal_body(path)]
        assert sorted(positions) == [0, 1, 2, 3]


class _FinishedWorker:
    """Stands for a spawned worker, and its inbox, that ran its lease the
    moment it was spawned: ``_spawn`` queues the lease's records and
    ``done`` itself."""

    exitcode = None

    def is_alive(self):
        return True

    def kill(self):
        pass

    def join(self, timeout=None):
        pass

    def send(self, message):
        pass

    def close(self):
        pass


class TestPoolRun:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_run_ends_when_the_last_lease_ends_while_serving(
            self, monkeypatch, workers):
        """Every lease is a spawned worker's, and the last one's ``done``
        is absorbed while the parent serves its workers rather than while
        it waits on them: the pool run ends there."""
        record = _fake_record()

        def finished_spawn(self, lease, seed, out_queue):
            for item in lease.remaining():
                out_queue.put(("record", lease.token, item.position, record))
            out_queue.put(("done", lease.token, 100))
            worker = _FinishedWorker()
            return worker, worker

        monkeypatch.setattr(CampaignSupervisor, "_spawn", finished_spawn)
        for _ in range(3):
            result = CampaignSupervisor(CONFIG, workers=workers).run(
                SITES[:workers - 1], seed=SEED)
            assert result.total == workers - 1


class TestSocketReports:
    def test_lost_worker_reports_each_lease(self):
        """A lost TCP worker's leases are reported one by one, with
        their real shard ids and attempts, and a split is reported."""
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(CONFIG, workers=1, max_retries=1,
                                        backoff_base=0.0, progress=progress)
        transport = SocketTransport()
        leases = supervisor.lease_manager(_plan(4), SEED, lease_items=2)
        try:
            for worker in ("w1", "w2"):
                ours, peer = socket.socketpair()
                peer.close()
                conn = _WorkerConn(ours, "peer", time.monotonic)
                conn.name = worker
                transport._workers[ours] = conn
                held = [leases.grant(worker), leases.grant(worker)]
                transport._lose(conn, leases, "connection closed")
                assert ours not in transport._workers
            reason = "worker 'w1' lost (connection closed)"
            assert progress.retries == [(held[0].shard_id, 1, reason),
                                        (held[1].shard_id, 1, reason)]
            assert progress.splits == [(held[0].shard_id, 2),
                                       (held[1].shard_id, 2)]
        finally:
            transport.close()


class _RevokingTransport(ShardTransport):
    """Revokes tokens 1..3 at the journal, then hands every item back
    (what a socket transport does when it loses its whole fleet)."""

    name = "revoking"

    def execute(self, supervisor, pending, seed, collect):
        for token in (1, 2, 3):
            supervisor.raise_fence(token)
        return list(pending)


@pytest.fixture()
def marker(tmp_path, monkeypatch):
    monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "fault.marker"))


class TestPoolJournals:
    """Every faulty pool campaign journals the serial run's records,
    each exactly once."""

    @pytest.mark.slow
    def test_fallback_after_revoked_tokens(self, tmp_path, serial_body):
        journal = tmp_path / "fallback.journal"
        CampaignSupervisor(CONFIG, workers=2, journal=journal,
                           transport=_RevokingTransport()).run(
            SITES, seed=SEED)
        assert _journal_body(journal) == serial_body
        assert verify_journal(journal).ok

    @pytest.mark.slow
    def test_raising_parent_lease_is_fenced_and_retried(
            self, tmp_path, serial_body, monkeypatch):
        """The parent's own share fails like a worker's: its first lease
        journals one record and raises; the lease is fenced, reclaimed
        and retried, and every position is journaled once."""
        calls = []

        def failing_once(config, items, seed, emit):
            calls.append(len(items))
            if len(calls) > 1:
                return run_shard(config, items, seed, emit)

            def gated(position, record):
                emit(position, record)
                raise RuntimeError("injected parent fault")

            gated.extra = emit.extra
            return run_shard(config, items, seed, gated)

        monkeypatch.setattr(supervisor_module, "run_shard", failing_once)
        journal = tmp_path / "pool.journal"
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, journal=journal, backoff_base=0.0,
            progress=progress, runner=plain_runner)
        supervisor.run(SITES, seed=SEED)
        assert calls[0] == len(SITES) // 2
        assert [reason for _, _, reason in progress.retries] == \
            ["RuntimeError: injected parent fault"]
        assert supervisor._fence_floor > 0
        report = verify_journal(journal)
        assert report.ok, report.issues
        assert _journal_body(journal) == serial_body

    @pytest.mark.slow
    def test_failed_respawn_degrades_to_serial(
            self, marker, tmp_path, serial_body, monkeypatch):
        """A worker dies and its replacement cannot be spawned: the pool
        stops and what it left runs in-process, counted once."""
        spawn = CampaignSupervisor._spawn
        spawned = []

        def spawn_once(self, lease, seed, out_queue):
            spawned.append(lease.token)
            if len(spawned) > 1:
                raise OSError("fork: resource temporarily unavailable")
            return spawn(self, lease, seed, out_queue)

        monkeypatch.setattr(CampaignSupervisor, "_spawn", spawn_once)
        journal = tmp_path / "pool.journal"
        registry = MetricsRegistry()
        progress = RecordingProgress()
        CampaignSupervisor(CONFIG, workers=2, journal=journal,
                           backoff_base=0.0, metrics=registry,
                           progress=progress, runner=sigkill_runner).run(
            SITES, seed=SEED)
        assert len(spawned) == 2
        assert registry.get("sfi_degrades_total").value() == 1
        assert any("cannot spawn" in reason for reason in progress.degrades)
        assert verify_journal(journal).ok
        assert _journal_body(journal) == serial_body

    @pytest.mark.slow
    @pytest.mark.parametrize("runner, options", [
        (raising_runner, {}),
        (sigkill_runner, {}),
        (half_then_sigkill_runner, {}),
        (hanging_runner, {"shard_timeout": 6.0}),
        (oversized_shard_runner, {"max_retries": 0}),
    ], ids=["error", "sigkill", "partial-sigkill", "timeout", "split"])
    def test_faulty_pool_journal_equals_serial(
            self, marker, tmp_path, serial_body, runner, options):
        journal = tmp_path / "pool.journal"
        CampaignSupervisor(CONFIG, workers=2, journal=journal,
                           backoff_base=0.0, runner=runner,
                           **options).run(SITES, seed=SEED)
        report = verify_journal(journal)
        assert report.ok, report.issues
        assert _journal_body(journal) == serial_body
        assert not os.path.exists(f"{journal}.leases")


class LeaseMachine(RuleBasedStateMachine):
    """Random grant / accept / complete / reclaim / clock traffic."""

    @initialize(size=st.integers(0, 10), lease_items=st.integers(1, 4),
                max_retries=st.integers(0, 2))
    def setup(self, size, lease_items, max_retries):
        self.clock = FakeClock()
        self.size = size
        self.revoked: list[int] = []
        self.manager = LeaseManager(
            _plan(size), seed=5, lease_items=lease_items,
            max_retries=max_retries, backoff_base=1.0, clock=self.clock,
            fence=self.revoked.append)
        self.last_token = 0
        self.dead: set[int] = set()
        self.accepted: list[int] = []
        self.returned: list[int] = []

    @rule()
    def grant(self):
        lease = self.manager.grant("w")
        if lease is not None:
            assert lease.token > self.last_token
            self.last_token = lease.token

    @precondition(lambda self: self.manager.active or self.dead)
    @rule(data=st.data())
    def accept(self, data):
        tokens = sorted(set(self.manager.active) | self.dead)
        token = data.draw(st.sampled_from(tokens))
        position = data.draw(st.integers(-1, self.size))
        if self.manager.accept(token, position) is not None:
            assert token not in self.dead
            assert position not in self.accepted
            self.accepted.append(position)

    @precondition(lambda self: self.manager.active)
    @rule(data=st.data())
    def complete(self, data):
        token = data.draw(st.sampled_from(sorted(self.manager.active)))
        assert self.manager.complete(token) is not None
        self.dead.add(token)

    @precondition(lambda self: self.manager.active)
    @rule(data=st.data())
    def reclaim(self, data):
        token = data.draw(st.sampled_from(sorted(self.manager.active)))
        assert self.manager.reclaim(token, "lost") is not None
        assert self.revoked[-1] == token
        self.dead.add(token)

    @rule(seconds=st.floats(0.0, 4.0))
    def advance(self, seconds):
        self.clock.now += seconds

    @rule()
    def take_poisoned(self):
        if not (self.manager.queued or self.manager.active):
            self.returned.extend(item.position
                                 for item in self.manager.drain())

    @invariant()
    def accounted_once_nothing_is_outstanding(self):
        if hasattr(self, "manager") and not self.manager.outstanding():
            assert sorted(self.accepted + self.returned) == \
                list(range(self.size))

    def teardown(self):
        if not hasattr(self, "manager"):
            return
        active = set(self.manager.active)
        rest = [item.position for item in self.manager.drain()]
        assert active <= set(self.revoked)  # drained issues are fenced
        assert sorted(self.accepted + self.returned + rest) == \
            list(range(self.size))


LeaseMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestLeaseStateMachine = LeaseMachine.TestCase

