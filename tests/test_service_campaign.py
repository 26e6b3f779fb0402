"""Distributed campaign service: end-to-end socket transport tests.

The scenarios here are the tentpole's acceptance criteria: a campaign
run across TCP workers journals byte-identically to a single-process
run; a SIGKILLed worker's lease is reclaimed and re-run without
double-journaling; a stale worker surfacing after reclaim is fenced;
losing every worker degrades to the in-process pool mid-campaign; a
SIGKILLed coordinator resumes exactly from its journal; and the queue
service recovers interrupted campaigns across restarts.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cpu import Power6Core
from repro.emulator import LatchMap
from repro.obs import MetricsRegistry
from repro.sfi import (
    CampaignConfig,
    CampaignSupervisor,
    verify_journal,
)
from repro.sfi.service.coordinator import SocketTransport
from repro.sfi.service.messages import RecordMessage, config_to_dict
from repro.sfi.service.queue import (
    CampaignQueue,
    ServerConfig,
    ServiceServer,
    control_request,
)
from repro.sfi.service.transport import ShardTransport
from repro.sfi.service.wire import recv_message, send_message
from repro.sfi.service.worker import run_worker

from tests.conftest import SMALL_PARAMS
from tests.test_supervisor import RecordingProgress

CONFIG = CampaignConfig(suite_size=2, suite_seed=99, core_params=SMALL_PARAMS)
SITES = [110, 220, 330, 440, 550, 660, 770, 880]
SEED = 11

_REPO_ROOT = Path(__file__).resolve().parent.parent

_WORKER_SCRIPT = """
import sys
from repro.sfi.service.worker import run_worker
run_worker("127.0.0.1", int(sys.argv[1]), name=sys.argv[2],
           max_campaigns=1, max_connect_attempts=200, backoff_base=0.05)
"""


def _outcomes(result):
    return [record.outcome for record in result.records]


def _journal_body(path) -> list[str]:
    """Sorted record lines (the header carries no execution history)."""
    lines = Path(path).read_text().splitlines()
    return sorted(line for line in lines[1:] if line.strip())


def _start_worker_thread(port: int, name: str) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker, args=("127.0.0.1", port),
        kwargs=dict(name=name, max_campaigns=1, max_connect_attempts=200,
                    backoff_base=0.05),
        daemon=True)
    thread.start()
    return thread


def _start_worker_process(port: int, name: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER_SCRIPT, str(port), name],
        cwd=_REPO_ROOT, env=env)


def _run_in_thread(supervisor, sites, seed):
    box: dict = {}

    def target():
        try:
            box["result"] = supervisor.run(sites, seed=seed)
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _wait_for_journal_lines(journal: Path, minimum: int,
                            timeout: float = 180.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if journal.exists() and \
                len(journal.read_text().splitlines()) >= minimum:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"{journal} never reached {minimum} lines within {timeout}s")


@pytest.fixture(scope="module")
def serial_journal(tmp_path_factory):
    """The single-process reference: result plus its journal bytes."""
    path = tmp_path_factory.mktemp("serial") / "campaign.journal"
    result = CampaignSupervisor(CONFIG, workers=1, journal=path).run(
        SITES, seed=SEED)
    return result, _journal_body(path)


class TestDistributedExecution:
    @pytest.mark.slow
    def test_socket_campaign_matches_serial_byte_for_byte(
            self, tmp_path, serial_journal):
        serial_result, serial_body = serial_journal
        journal = tmp_path / "dist.journal"
        registry = MetricsRegistry()
        transport = SocketTransport(
            heartbeat_interval=0.2, lease_items=2, worker_wait=60.0,
            metrics=registry)
        # Real worker processes: `run_shard` caches one experiment per
        # process, so concurrent workers must not share an interpreter.
        workers = [_start_worker_process(transport.port, f"w{index}")
                   for index in range(2)]
        try:
            result = CampaignSupervisor(
                CONFIG, workers=1, journal=journal,
                transport=transport).run(SITES, seed=SEED)
        finally:
            for process in workers:
                process.kill()
                process.wait()
        assert _outcomes(result) == _outcomes(serial_result)
        assert result.population_bits == serial_result.population_bits
        assert _journal_body(journal) == serial_body
        report = verify_journal(journal)
        assert report.ok, report.issues
        assert report.lease_events > 0, "lease sidecar must be written"
        assert sum(registry.get("sfi_worker_pool_size")
                   .series().values()) >= 0  # series exists

    @pytest.mark.slow
    def test_worker_sigkill_reclaims_lease_and_stays_identical(
            self, tmp_path, serial_journal):
        """Chaos: SIGKILL one of two workers mid-campaign.  The lease is
        reclaimed, re-run elsewhere, and the journal stays byte-identical
        — no injection lost, none double-journaled."""
        serial_result, serial_body = serial_journal
        journal = tmp_path / "chaos.journal"
        registry = MetricsRegistry()
        transport = SocketTransport(
            heartbeat_interval=0.1, lease_items=1,
            worker_wait=120.0, metrics=registry)
        victim = _start_worker_process(transport.port, "victim")
        survivor = _start_worker_process(transport.port, "survivor")
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, journal=journal, transport=transport,
            backoff_base=0.0)
        thread, box = _run_in_thread(supervisor, SITES, SEED)
        try:
            # Strike once the campaign is demonstrably mid-flight.
            _wait_for_journal_lines(journal, 2)
            victim.send_signal(signal.SIGKILL)
            thread.join(timeout=300)
            assert not thread.is_alive(), "campaign never finished"
        finally:
            for process in (victim, survivor):
                process.kill()
                process.wait()
        assert "error" not in box, box.get("error")
        result = box["result"]
        assert _outcomes(result) == _outcomes(serial_result)
        assert _journal_body(journal) == serial_body
        assert registry.get("sfi_lease_reissues_total").value() >= 1
        report = verify_journal(journal)
        assert report.ok, report.issues

    @pytest.mark.slow
    def test_stale_worker_after_reclaim_is_fenced(self, tmp_path,
                                                  serial_journal):
        """A worker that vanishes mid-lease and then streams results for
        its reclaimed (fenced) token must be rejected, not journaled."""
        serial_result, serial_body = serial_journal
        journal = tmp_path / "fenced.journal"
        registry = MetricsRegistry()
        transport = SocketTransport(
            heartbeat_interval=0.2, heartbeat_grace=100.0, lease_items=4,
            worker_wait=120.0, metrics=registry)
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, journal=journal, transport=transport,
            max_retries=5, backoff_base=0.0)
        thread, box = _run_in_thread(supervisor, SITES, SEED)
        stale_token = None
        try:
            # Pose as a worker, take a lease, and vanish without a word:
            # an abrupt close reclaims (and fences) our token at once.
            with socket.create_connection(
                    ("127.0.0.1", transport.port), timeout=10) as evil:
                evil.settimeout(30)
                send_message(evil, {"type": "hello", "worker": "evil",
                                    "protocol": 1})
                welcome = recv_message(evil)
                assert welcome["type"] == "welcome"
                lease = recv_message(evil)
                assert lease["type"] == "lease"
                stale_token = lease["token"]
            # A real worker finishes the campaign (our shard re-issued).
            _start_worker_thread(transport.port, "honest")
            _wait_for_journal_lines(journal, 2)
            # Surface from the "partition" and replay under the dead
            # token (no hello: this connection never becomes grantable).
            with socket.create_connection(
                    ("127.0.0.1", transport.port), timeout=10) as ghost:
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    send_message(ghost, RecordMessage(
                        token=stale_token, pos=0,
                        record={"bogus": True}).to_wire())
                    if registry.get(
                            "sfi_fenced_records_total").value() >= 1:
                        break
                    if not thread.is_alive():
                        break
                    time.sleep(0.05)
            thread.join(timeout=300)
            assert not thread.is_alive(), "campaign never finished"
        finally:
            pass
        assert "error" not in box, box.get("error")
        assert registry.get("sfi_fenced_records_total").value() >= 1
        # The bogus replay never reached the journal: bytes identical.
        assert _outcomes(box["result"]) == _outcomes(serial_result)
        assert _journal_body(journal) == serial_body
        report = verify_journal(journal)
        assert report.ok, report.issues


class TestDegradeToPool:
    def test_no_workers_degrades_to_in_process_pool(self, serial_journal):
        """Worker starvation: nobody connects within ``worker_wait``, so
        the supervisor runs the leftover in-process — same result, loud
        degrade, metrics recorded (the satellite-3 scenario)."""
        serial_result, _ = serial_journal
        registry = MetricsRegistry()
        progress = RecordingProgress()
        transport = SocketTransport(worker_wait=0.3)
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, metrics=registry, progress=progress,
            transport=transport)
        result = supervisor.run(SITES, seed=SEED)
        assert _outcomes(result) == _outcomes(serial_result)
        assert registry.get("sfi_degrades_total").value() == 1
        assert progress.degrades and "socket" in progress.degrades[0]
        assert sum(registry.get("sfi_injections_total")
                   .series().values()) == len(SITES)

    def test_failing_transport_falls_back_without_losing_items(
            self, serial_journal):
        """The transport seam itself: any transport handing every item
        back sends the whole plan through the in-process pool."""
        serial_result, _ = serial_journal

        class RefusingTransport(ShardTransport):
            name = "refusing"

            def execute(self, supervisor, pending, seed, collect):
                return list(pending)

        registry = MetricsRegistry()
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=1, metrics=registry, progress=progress,
            transport=RefusingTransport())
        result = supervisor.run(SITES, seed=SEED)
        assert _outcomes(result) == _outcomes(serial_result)
        assert registry.get("sfi_degrades_total").value() == 1
        assert progress.degrades and "refusing" in progress.degrades[0]


class TestCoordinatorDeath:
    @pytest.mark.slow
    def test_coordinator_sigkill_then_resume_matches_serial(
            self, tmp_path, serial_journal):
        """SIGKILL the whole coordinator process mid-campaign; resuming
        from its journal (even in-process) completes identically — the
        journal is the single durable source of truth."""
        serial_result, serial_body = serial_journal
        journal = tmp_path / "coord.journal"
        driver = tmp_path / "driver.py"
        driver.write_text(f"""
import threading
import tests.test_service_campaign as mod
from repro.sfi import CampaignSupervisor
from repro.sfi.service.coordinator import SocketTransport
from repro.sfi.service.worker import run_worker

transport = SocketTransport(heartbeat_interval=0.2, lease_items=2,
                            worker_wait=60.0)
threading.Thread(
    target=run_worker, args=("127.0.0.1", transport.port),
    kwargs=dict(name="w0", max_campaigns=1, max_connect_attempts=200,
                backoff_base=0.05),
    daemon=True).start()
CampaignSupervisor(mod.CONFIG, workers=1, journal={str(journal)!r},
                   transport=transport).run(mod.SITES, seed=mod.SEED)
""")
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + ".")
        process = subprocess.Popen([sys.executable, str(driver)],
                                   cwd=_REPO_ROOT, env=env)
        try:
            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 3:
                    break
                if process.poll() is not None:
                    break
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait()
        assert journal.exists(), "coordinator never journaled a record"
        resumed = CampaignSupervisor(CONFIG, workers=1, journal=journal,
                                     resume=True).run(SITES, seed=SEED)
        assert _outcomes(resumed) == _outcomes(serial_result)
        assert _journal_body(journal) == serial_body
        report = verify_journal(journal)
        assert report.ok, report.issues


class TestCampaignQueue:
    def test_recover_requeues_running_specs(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        first = queue.submit(SITES[:2], SEED, CONFIG)
        queue.submit(SITES[2:4], SEED, CONFIG)
        claimed = queue.claim_next()
        assert claimed.id == first.id and claimed.state == "running"
        # A new process over the same spool sees the interrupted run.
        reborn = CampaignQueue(tmp_path)
        assert reborn.recover() == [first.id]
        states = {row["id"]: row["state"] for row in reborn.status()}
        assert states[first.id] == "queued"

    def test_cancel_only_stops_queued_specs(self, tmp_path):
        queue = CampaignQueue(tmp_path)
        spec = queue.submit(SITES[:2], SEED, CONFIG)
        assert queue.cancel(spec.id) == "cancelled"
        assert queue.cancel("sfi-999999") is None
        assert queue.claim_next() is None

    @pytest.mark.slow
    def test_serve_submit_status_cancel_roundtrip(self, tmp_path):
        """The full scheduler: submit over the control port, watch the
        campaign run to completion, cancel a queued one, shut down."""
        server = ServiceServer(
            tmp_path, ServerConfig(worker_wait=0.2, workers_local=1))
        thread = threading.Thread(target=server.run_forever, daemon=True)
        thread.start()
        try:
            reply = control_request(
                "127.0.0.1", server.control_port,
                {"op": "submit", "sites": SITES[:2], "seed": SEED,
                 "config": config_to_dict(CONFIG)})
            assert reply["ok"], reply
            first = reply["id"]
            second = control_request(
                "127.0.0.1", server.control_port,
                {"op": "submit", "sites": SITES[2:4], "seed": SEED,
                 "config": config_to_dict(CONFIG)})["id"]
            cancel = control_request("127.0.0.1", server.control_port,
                                     {"op": "cancel", "id": second})
            assert cancel["ok"]
            deadline = time.monotonic() + 180
            states: dict = {}
            while time.monotonic() < deadline:
                status = control_request("127.0.0.1", server.control_port,
                                         {"op": "status"})
                states = {row["id"]: row for row in status["campaigns"]}
                if states[first]["state"] in ("done", "failed") and \
                        states[second]["state"] in ("cancelled", "done"):
                    break
                time.sleep(0.1)
            assert states[first]["state"] == "done", states
            assert states[first]["records"] == 2
            assert states[second]["state"] == "cancelled", states
            journal = server.queue.journal_path(first)
            assert verify_journal(journal).ok
        finally:
            control_request("127.0.0.1", server.control_port,
                            {"op": "shutdown"})
            thread.join(timeout=30)

    def test_unknown_op_and_bad_submit_are_refused(self, tmp_path):
        server = ServiceServer(tmp_path, ServerConfig())
        try:
            assert not server._handle({"op": "warp"})["ok"]
            refused = server._handle(
                {"op": "submit", "config": config_to_dict(CONFIG)})
            assert not refused["ok"] and "sites or flips" in refused["error"]
        finally:
            server._control.close()

    def test_malformed_control_requests_get_error_replies(
            self, tmp_path, monkeypatch):
        """A cancel or status whose id is not a string, and a request
        that raises inside the handler, each get an error reply; the
        listener keeps serving the next request."""
        server = ServiceServer(tmp_path, ServerConfig())

        def broken_cancel(campaign_id):
            raise RuntimeError("spool unreadable")

        thread = threading.Thread(target=server.run_forever, daemon=True)
        thread.start()
        try:
            for request in ({"op": "cancel", "id": []},
                            {"op": "cancel", "id": {}},
                            {"op": "status", "id": 5}):
                reply = control_request("127.0.0.1", server.control_port,
                                        request, timeout=5.0)
                assert reply["ok"] is False and "must be a string" in \
                    reply["error"], (request, reply)
            monkeypatch.setattr(server.queue, "cancel", broken_cancel)
            reply = control_request("127.0.0.1", server.control_port,
                                    {"op": "cancel", "id": "sfi-000001"},
                                    timeout=5.0)
            assert reply == {"ok": False,
                             "error": "RuntimeError: spool unreadable"}
            status = control_request("127.0.0.1", server.control_port,
                                     {"op": "status"}, timeout=5.0)
            assert status["ok"] and status["campaigns"] == []
        finally:
            server.shutdown()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_bad_sites_flips_and_seed_are_refused_at_submit(self, tmp_path):
        """A site list is checked against the config's population before
        it is spooled: a -1 would inject the last bit, and an index at
        or past the population, a string or a bool names no site.  A
        flips or seed that is not a number is refused too, rather than
        raising out of the control loop, which would stop it."""
        population = len(LatchMap(Power6Core(CONFIG.core_params)))
        server = ServiceServer(tmp_path, ServerConfig())
        try:
            for bad in (-1, population, "7", True):
                reply = server._handle(
                    {"op": "submit", "sites": [3, bad], "seed": SEED,
                     "config": config_to_dict(CONFIG)})
                assert not reply["ok"], bad
                assert f"sites[1] = {bad!r}" in reply["error"]
            for field in ("flips", "seed"):
                reply = server._handle(
                    {"op": "submit", "sites": [3], field: "x",
                     "config": config_to_dict(CONFIG)})
                assert not reply["ok"] and "bad flips or seed" in \
                    reply["error"], reply
            assert server.queue.status() == []
            reply = server._handle(
                {"op": "submit", "sites": [0, population - 1],
                 "seed": SEED, "config": config_to_dict(CONFIG)})
            assert reply["ok"], reply
            assert [row["sites"] for row in server.queue.status()] == [2]
        finally:
            server._control.close()

    def test_flips_submission_samples_at_execute_time(self, tmp_path):
        """A flips-based spec stores no site list; the server samples
        deterministically from ``(seed, flips)`` when it runs."""
        queue = CampaignQueue(tmp_path)
        spec = queue.submit([], SEED, CONFIG, flips=3)
        raw = json.loads(
            (tmp_path / f"{spec.id}.json").read_text())
        assert raw["sites"] == [] and raw["flips"] == 3
