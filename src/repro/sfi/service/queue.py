"""Campaign queue: a durable scheduler on top of the lease coordinator.

``repro-sfi serve`` runs a :class:`ServiceServer`: one control port for
``submit``/``status``/``cancel`` clients and one worker port that shard
workers join.  Campaign specs live as JSON files in a spool directory
(:class:`CampaignQueue`); every state transition rewrites the spec file
atomically, and each campaign journals to its own file in the spool —
the journal stays the single durable source of truth, so a SIGKILLed
server restarts, re-queues whatever was ``running``, and resumes it
from its journal without re-running a single journaled injection.

Control connections speak the same length-prefixed JSON frames as the
worker protocol, but with plain ``{"op": ...}`` requests — the clients
are one-shot (connect, ask, read reply, close), so no message-class
ceremony is needed.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.cpu.core import Power6Core
from repro.emulator.netlist import LatchMap
from repro.sfi.campaign import CampaignConfig, plan_injections
from repro.sfi.service.coordinator import SocketTransport
from repro.sfi.service.messages import config_from_dict, config_to_dict
from repro.sfi.service.wire import FrameError, recv_message, send_message
from repro.sfi.supervisor import CampaignSupervisor


@dataclass
class CampaignSpec:
    """One spooled campaign: identity, inputs, and lifecycle state.

    Either ``sites`` is explicit, or ``flips`` asks the server to sample
    that many sites at execute time — the sample is a pure function of
    ``(seed, flips)`` (the campaign CLI's
    :func:`~repro.sfi.sampling.campaign_sites`), so a resumed or re-run
    spec regenerates its exact plan.
    """

    id: str
    seq: int
    sites: list[int]
    seed: int
    config: dict                      # config_to_dict payload
    flips: int = 0
    state: str = "queued"
    detail: str = ""                  # human-readable outcome/err
    records: int = 0                  # journaled records at last update

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


class CampaignQueue:
    """Spool-directory persistence for campaign specs.

    Not thread-safe by itself; :class:`ServiceServer` serializes access
    behind one lock.  Every mutation rewrites the spec file via rename,
    so a crash leaves either the old or the new state, never a torn one.
    """

    def __init__(self, spool: str | os.PathLike) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self._specs: dict[str, CampaignSpec] = {}
        for path in sorted(self.spool.glob("sfi-*.json")):
            try:
                payload = json.loads(path.read_text())
                spec = CampaignSpec(**payload)
            except (json.JSONDecodeError, TypeError):
                continue  # foreign or torn file; leave it alone
            self._specs[spec.id] = spec

    def recover(self) -> list[str]:
        """Re-queue campaigns that were ``running`` when the previous
        server died; their journals make the re-run a resume."""
        requeued = []
        for spec in self._ordered():
            if spec.state == "running":
                spec.state = "queued"
                spec.detail = "re-queued after server restart"
                self._persist(spec)
                requeued.append(spec.id)
        return requeued

    def submit(self, sites: list[int], seed: int,
               config: CampaignConfig, flips: int = 0) -> CampaignSpec:
        seq = 1 + max((spec.seq for spec in self._specs.values()),
                      default=0)
        spec = CampaignSpec(id=f"sfi-{seq:06d}", seq=seq,
                            sites=list(sites), seed=seed,
                            config=config_to_dict(config), flips=flips)
        self._specs[spec.id] = spec
        self._persist(spec)
        return spec

    def status(self, campaign_id: str | None = None) -> list[dict]:
        specs = self._ordered() if campaign_id is None else \
            [spec for spec in self._ordered() if spec.id == campaign_id]
        return [{"id": spec.id, "state": spec.state,
                 "sites": len(spec.sites) or spec.flips,
                 "seed": spec.seed,
                 "records": spec.records, "detail": spec.detail}
                for spec in specs]

    def cancel(self, campaign_id: str) -> str | None:
        """Cancel a queued campaign; returns its new state (None if the
        id is unknown).  A running campaign is the server's to stop."""
        spec = self._specs.get(campaign_id)
        if spec is None:
            return None
        if spec.state == "queued":
            spec.state = "cancelled"
            spec.detail = "cancelled before start"
            self._persist(spec)
        return spec.state

    def claim_next(self) -> CampaignSpec | None:
        for spec in self._ordered():
            if spec.state == "queued":
                spec.state = "running"
                spec.detail = ""
                self._persist(spec)
                return spec
        return None

    def finish(self, campaign_id: str, state: str, detail: str = "",
               records: int | None = None) -> None:
        spec = self._specs[campaign_id]
        spec.state = state
        spec.detail = detail
        if records is not None:
            spec.records = records
        self._persist(spec)

    def journal_path(self, campaign_id: str) -> Path:
        return self.spool / f"{campaign_id}.journal"

    def _ordered(self) -> list[CampaignSpec]:
        return sorted(self._specs.values(), key=lambda spec: spec.seq)

    def _persist(self, spec: CampaignSpec) -> None:
        path = self.spool / f"{spec.id}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(spec.to_json() + "\n")
        os.replace(tmp, path)


class _Cancelled(Exception):
    """Raised inside the running campaign to abort it cooperatively."""


@dataclass
class ServerConfig:
    """Knobs for :class:`ServiceServer` (mirrors the CLI flags)."""

    host: str = "127.0.0.1"
    control_port: int = 0
    worker_port: int = 0
    workers_local: int = 0            # in-process pool size when no
                                      # remote workers join (0 = serial)
    heartbeat_interval: float = 0.5
    heartbeat_grace: float = 4.0
    lease_items: int = 8
    worker_wait: float = 5.0
    min_workers: int = 0
    warehouse: str | None = None      # SQLite path; completed campaigns
                                      # auto-ingest there (None = off)


class ServiceServer:
    """The `repro-sfi serve` process: queue + executor + control plane.

    One executor thread drains the queue (one campaign at a time — the
    worker fleet is shared, and SFI campaigns saturate it); a listener
    thread answers control requests.  ``run_forever`` blocks until
    :meth:`shutdown`.
    """

    def __init__(self, spool: str | os.PathLike,
                 config: ServerConfig | None = None,
                 metrics=None) -> None:
        self.config = config or ServerConfig()
        self.queue = CampaignQueue(spool)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._cancel_running = threading.Event()
        self._running_id: str | None = None
        self._control = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._control.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._control.bind((self.config.host, self.config.control_port))
        self._control.listen(8)
        self._control.settimeout(0.2)
        self.control_port = self._control.getsockname()[1]
        # The worker port must be stable across campaigns (workers
        # reconnect between them), so reserve it up front if unset.
        if self.config.worker_port == 0:
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((self.config.host, 0))
            self.config.worker_port = probe.getsockname()[1]
            probe.close()
        self.worker_port = self.config.worker_port
        requeued = self.queue.recover()
        self.recovered = requeued

    # -- lifecycle -----------------------------------------------------

    def run_forever(self) -> None:
        listener = threading.Thread(target=self._serve_control,
                                    daemon=True)
        listener.start()
        try:
            while not self._stop.is_set():
                spec = None
                with self._lock:
                    spec = self.queue.claim_next()
                if spec is None:
                    self._wake.wait(timeout=0.2)
                    self._wake.clear()
                    continue
                self._execute(spec)
        finally:
            self._control.close()

    def shutdown(self) -> None:
        self._stop.set()
        self._cancel_running.set()
        self._wake.set()

    # -- executor ------------------------------------------------------

    def _execute(self, spec: CampaignSpec) -> None:
        self._cancel_running.clear()
        self._running_id = spec.id
        journal = self.queue.journal_path(spec.id)
        config = config_from_dict(spec.config)
        transport = SocketTransport(
            host=self.config.host, port=self.config.worker_port,
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_grace=self.config.heartbeat_grace,
            lease_items=self.config.lease_items,
            worker_wait=self.config.worker_wait,
            min_workers=self.config.min_workers,
            metrics=self.metrics)
        supervisor = CampaignSupervisor(
            config,
            workers=self.config.workers_local or 1,
            journal=journal, resume=journal.exists(),
            transport=transport, metrics=self.metrics)

        def cancel_probe(position: int, record) -> None:
            # Checked per record: a cancel lands within one injection's
            # latency, and the journal keeps everything so far.
            if self._cancel_running.is_set():
                raise _Cancelled

        try:
            sites = spec.sites
            if not sites and spec.flips > 0:
                from repro.sfi.campaign import SfiExperiment
                from repro.sfi.sampling import campaign_sites
                probe = SfiExperiment(config)
                sites = campaign_sites(probe.latch_map, spec.flips,
                                       spec.seed)
                supervisor.population_bits = len(probe.latch_map)
            plan = plan_injections(sites, config.suite_size)
            result = supervisor.run_plan(plan, spec.seed,
                                         record_hook=cancel_probe)
        except _Cancelled:
            with self._lock:
                self.queue.finish(spec.id, "cancelled",
                                  "cancelled while running")
        except Exception as exc:  # noqa: BLE001 - spec records outcome
            with self._lock:
                self.queue.finish(spec.id, "failed",
                                  f"{type(exc).__name__}: {exc}")
        else:
            with self._lock:
                self.queue.finish(spec.id, "done",
                                  f"{result.total} records",
                                  records=result.total)
            self._ingest(spec.id, journal)
        finally:
            self._running_id = None

    def _ingest(self, campaign_id: str, journal) -> None:
        """Auto-ingest a finished campaign into the warehouse (if one is
        configured).  Best-effort: the journal stays the source of truth
        and an ingest failure must not fail the campaign."""
        if not self.config.warehouse:
            return
        try:
            from repro.warehouse import Warehouse
            with Warehouse(self.config.warehouse,
                           metrics=self.metrics) as warehouse:
                warehouse.ingest_journal(journal, name=campaign_id)
        except Exception as exc:  # noqa: BLE001 - observability side-path
            print(f"[serve] warehouse ingest of {campaign_id} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)

    # -- control plane -------------------------------------------------

    def _serve_control(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self._control.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                sock.settimeout(5.0)
                request = recv_message(sock)
                if request is not None:
                    try:
                        reply = self._handle(request)
                    except Exception as exc:  # noqa: BLE001 - keep serving
                        traceback.print_exc()
                        reply = {"ok": False,
                                 "error": f"{type(exc).__name__}: {exc}"}
                    send_message(sock, reply)
            except (OSError, FrameError):
                pass
            finally:
                try:
                    sock.close()
                except OSError:
                    pass

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        with self._lock:
            if op == "submit":
                try:
                    config = config_from_dict(request.get("config") or {})
                except (KeyError, ValueError, TypeError) as exc:
                    return {"ok": False, "error": f"bad config: {exc}"}
                sites = request.get("sites") or []
                try:
                    flips = int(request.get("flips", 0))
                    seed = int(request.get("seed", 0))
                except (ValueError, TypeError) as exc:
                    return {"ok": False, "error": f"bad flips or seed: {exc}"}
                if (not isinstance(sites, list) or not sites) \
                        and flips <= 0:
                    return {"ok": False,
                            "error": "submit needs sites or flips"}
                refused = _bad_sites(sites, config)
                if refused is not None:
                    return {"ok": False, "error": refused}
                spec = self.queue.submit(sites, seed, config, flips=flips)
                self._wake.set()
                return {"ok": True, "id": spec.id}
            if op == "status":
                target = request.get("id")
                if target is not None and not isinstance(target, str):
                    return {"ok": False, "error": "status id must be a "
                            f"string, not {type(target).__name__}"}
                return {"ok": True,
                        "campaigns": self.queue.status(target),
                        "running": self._running_id,
                        "worker_port": self.worker_port}
            if op == "cancel":
                target = request.get("id")
                if not isinstance(target, str):
                    return {"ok": False, "error": "cancel id must be a "
                            f"string, not {type(target).__name__}"}
                state = self.queue.cancel(target)
                if state is None:
                    return {"ok": False, "error": f"unknown id {target!r}"}
                if state == "running" and target == self._running_id:
                    self._cancel_running.set()
                    return {"ok": True, "state": "cancelling"}
                return {"ok": True, "state": state}
            if op == "shutdown":
                self.shutdown()
                return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def _bad_sites(sites, config: CampaignConfig) -> str | None:
    """Why a submitted site list cannot run, or None when it can: every
    entry must be an int (not a bool) in ``[0, population)`` of the
    config's core, since a trial injects whatever index it is given."""
    if not isinstance(sites, list):
        return f"sites must be a list, not {type(sites).__name__}"
    if not sites:
        return None
    population = len(LatchMap(Power6Core(config.core_params)))
    for position, site in enumerate(sites):
        if type(site) is not int or not 0 <= site < population:
            return (f"sites[{position}] = {site!r} is not a site index in "
                    f"[0, {population})")
    return None


def control_request(host: str, port: int, request: dict,
                    timeout: float = 10.0) -> dict:
    """One-shot control client: connect, send ``request``, return the
    reply (used by ``repro-sfi submit``/``status``/``cancel``)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        send_message(sock, request)
        reply = recv_message(sock)
    if reply is None:
        raise ConnectionError(f"{host}:{port}: server closed without reply")
    return reply
