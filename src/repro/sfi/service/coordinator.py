"""The TCP lease coordinator: distributed shard execution.

:class:`SocketTransport` is the distributed :class:`ShardTransport`.
It listens on a TCP port; ``repro-sfi worker`` processes connect, say
hello, receive the campaign config, and are then fed shard leases.  All
robustness lives here, on the coordinator side, so workers stay dumb
and restartable:

* every lease carries a fencing token from one monotonic counter
  (:class:`~repro.sfi.service.leases.LeaseManager`, the same engine and
  failure policy the local process pool runs on); a worker returning
  from a partition with results for a reclaimed lease is *fenced* — its
  records rejected at receive, never double-journaled;
* workers heartbeat on an interval; a missed deadline reclaims every
  lease the worker held and re-queues it under the supervisor's
  retry → split → poison policy;
* records stream back incrementally and go straight to the supervisor's
  ``collect`` (journal included), so a coordinator SIGKILL resumes from
  the journal exactly like the in-process pool;
* when every worker is gone and none arrives within ``worker_wait``,
  ``execute`` returns the unfinished items — the supervisor degrades to
  the in-process pool mid-campaign instead of stalling.

The event loop is a single-threaded ``selectors`` reactor over stdlib
sockets: no new dependencies, no locks, and every timing decision uses
``time.monotonic`` (wall clock never steers execution — REPRO-D02).
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import replace

from repro.obs.fleet import FleetRegistry, FleetSpanPhase, pack_payload
from repro.sfi.campaign import InjectionPlan
from repro.sfi.service.leases import LeaseLog, LeaseManager
from repro.sfi.service.messages import (
    PROTOCOL_VERSION,
    ExtraMessage,
    FleetSnapshotMessage,
    HeartbeatMessage,
    HelloMessage,
    LeaseMessage,
    Message,
    MonitorHelloMessage,
    RecordMessage,
    ShardDoneMessage,
    ShardErrorMessage,
    ShutdownMessage,
    TelemetryMessage,
    WelcomeMessage,
    config_to_dict,
    decode_message,
    plan_item_to_dict,
)
from repro.sfi.service.transport import ShardTransport
from repro.sfi.service.wire import FrameError, FrameReader, encode_frame
from repro.sfi.storage import _record_from_dict


class _ServiceInstruments:
    """Coordinator-side series (repro.obs registry)."""

    def __init__(self, registry) -> None:
        self.lease_reissues = registry.counter(
            "sfi_lease_reissues_total",
            "lease re-grants after reclaim, retry or split")
        self.heartbeat_misses = registry.counter(
            "sfi_heartbeat_miss_total",
            "workers declared dead after a missed heartbeat deadline")
        self.pool_size = registry.gauge(
            "sfi_worker_pool_size", "connected remote workers")
        self.fenced = registry.counter(
            "sfi_fenced_records_total",
            "stale-lease results rejected by fencing")


class _WorkerConn:
    """One connected worker: socket, frame decoder, liveness state."""

    def __init__(self, sock: socket.socket, address, clock) -> None:
        self.sock = sock
        self.address = address
        self.reader = FrameReader()
        self.name: str | None = None       # set by hello
        self.ready = False                 # hello/welcome done
        self.monitor = False               # read-only fleet viewer
        self.last_seen = clock()
        self.outbox = b""                  # unsent bytes (non-blocking)

    def queue(self, message: Message) -> None:
        self.outbox += encode_frame(message.to_wire())


class SocketTransport(ShardTransport):
    """Length-prefixed JSON-over-TCP lease coordinator.

    Parameters: ``host``/``port`` to bind (port 0 picks a free port,
    readable afterwards as ``.port``); ``heartbeat_interval`` is the
    contract advertised to workers and ``heartbeat_grace`` multiples of
    it without traffic declare a worker dead; ``lease_items`` bounds a
    lease's size; ``worker_wait`` is how long ``execute`` keeps waiting
    with work outstanding but zero connected workers before giving the
    remainder back to the supervisor (``None`` waits forever);
    ``min_workers`` makes ``execute`` wait for that many connections
    before granting the first lease, so a fixed fleet gets a stable
    partition.  ``metrics`` is a repro.obs registry (optional).  The
    retry/backoff policy is the supervisor's (``max_retries``,
    ``backoff_base``, ``backoff_cap``), shared with the local pool.
    """

    name = "socket"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 heartbeat_interval: float = 0.5,
                 heartbeat_grace: float = 4.0,
                 lease_items: int = 8,
                 worker_wait: float | None = 10.0,
                 min_workers: int = 0,
                 metrics=None,
                 lease_log: str | None = None,
                 telemetry_interval: float = 0.0,
                 campaign: str = "",
                 convergence=None) -> None:
        self.host = host
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_grace = heartbeat_grace
        self.lease_items = lease_items
        self.worker_wait = worker_wait
        self.min_workers = min_workers
        self._inst = (_ServiceInstruments(metrics)
                      if metrics is not None else None)
        self._metrics = metrics
        self._lease_log_path = lease_log
        # Fleet telemetry (all observational; 0.0 turns streaming off
        # and the protocol degrades to exactly the PR 6 wire traffic).
        self.telemetry_interval = telemetry_interval
        self.campaign = campaign
        self.fleet = (FleetRegistry(metrics)
                      if telemetry_interval > 0 else None)
        self.worker_spans: list = []       # rebased, re-parented spans
        self._lease_spans: dict[int, str] = {}  # token -> lease span id
        self._convergence = convergence
        self._last_push = 0.0
        self._trace = None
        self._trace_root = None
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                ("listener", None))
        self._workers: dict[socket.socket, _WorkerConn] = {}
        self._names = 0          # fallback worker naming counter
        self._closed = False

    # -- ShardTransport -----------------------------------------------

    def execute(self, supervisor, pending: list[InjectionPlan], seed: int,
                collect) -> list[InjectionPlan]:
        journal_path = supervisor.journal_path
        # A fresh journal (no --resume) truncates its lease sidecar too,
        # so `journal verify` never replays a previous campaign's grants.
        fresh = not getattr(supervisor, "resume", False)
        log = None
        if self._lease_log_path is not None:
            log = LeaseLog(self._lease_log_path, fresh=fresh)
        elif journal_path is not None:
            log = LeaseLog(str(journal_path) + ".leases", fresh=fresh)
        leases = supervisor.lease_manager(
            pending, seed, lease_items=self.lease_items, log=log)
        config_payload = config_to_dict(supervisor.config)
        self._config_payload = config_payload
        # Coordinator-side spans share the supervisor's recorder (same
        # thread, same monotonic domain); absent a trace, every span
        # call below is a no-op.
        self._trace = getattr(supervisor, "trace", None)
        self._trace_root = getattr(supervisor, "trace_root", None)
        starved_since: float | None = None
        reissues_seen = 0
        fenced_seen = 0
        waiting_for_fleet = self.min_workers > 0
        fleet_wait_span = None
        if waiting_for_fleet and self._trace is not None:
            fleet_wait_span = self._trace.begin(
                FleetSpanPhase.WORKER_WAIT, parent_id=self._trace_root)
        try:
            while leases.outstanding():
                if leases.poisoned and not leases.queued \
                        and not leases.active:
                    break  # only poisoned work left: in-process fallback
                self._pump(supervisor, leases, collect, seed,
                           config_payload,
                           grant_ok=not waiting_for_fleet)
                if waiting_for_fleet and \
                        self._ready_count() >= self.min_workers:
                    waiting_for_fleet = False
                    if fleet_wait_span is not None:
                        self._trace.finish(fleet_wait_span)
                        fleet_wait_span = None
                # Metrics: fold the managers' counters incrementally.
                if self._inst is not None:
                    if leases.reissues > reissues_seen:
                        self._inst.lease_reissues.inc(
                            leases.reissues - reissues_seen)
                        reissues_seen = leases.reissues
                    if leases.fenced > fenced_seen:
                        self._inst.fenced.inc(leases.fenced - fenced_seen)
                        fenced_seen = leases.fenced
                    self._inst.pool_size.set(self._ready_count())
                # Starvation: work outstanding, nobody to run it.
                if self._workers or not leases.outstanding():
                    starved_since = None
                elif self.worker_wait is not None:
                    now = time.monotonic()
                    if starved_since is None:
                        starved_since = now
                    elif now - starved_since >= self.worker_wait:
                        break
            if fleet_wait_span is not None:
                self._trace.finish(fleet_wait_span)
                fleet_wait_span = None
            drain_span = None
            if self._trace is not None:
                drain_span = self._trace.begin(
                    FleetSpanPhase.DRAIN, parent_id=self._trace_root)
            for token in leases.active:
                self._finish_lease_span(token)
            # Fences whatever is still issued, so a worker surfacing
            # after the fallback cannot double-journal.
            leftover = leases.drain()
            if drain_span is not None:
                self._trace.finish(drain_span)
            if self._inst is not None:
                if leases.reissues > reissues_seen:
                    self._inst.lease_reissues.inc(
                        leases.reissues - reissues_seen)
                if leases.fenced > fenced_seen:
                    self._inst.fenced.inc(leases.fenced - fenced_seen)
            return leftover
        finally:
            self._broadcast_shutdown()
            if self._inst is not None:
                self._inst.pool_size.set(self._ready_count())
            if log is not None:
                log.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._broadcast_shutdown()
        for sock in list(self._workers):
            self._drop(sock, notify=False)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._selector.close()
        self._listener.close()

    # -- reactor -------------------------------------------------------

    def _pump(self, supervisor, leases: LeaseManager, collect, seed: int,
              config_payload: dict, grant_ok: bool = True) -> None:
        """One reactor turn: poll sockets, absorb messages, enforce
        heartbeat deadlines, grant ready leases, flush outboxes."""
        timeout = self._poll_timeout(leases)
        for key, events in self._selector.select(timeout):
            kind, _ = key.data
            if kind == "listener":
                self._accept()
            else:
                conn = self._workers.get(key.fileobj)
                if conn is None:
                    continue
                if events & selectors.EVENT_READ:
                    self._read(conn, supervisor, leases, collect)
                if key.fileobj in self._workers \
                        and events & selectors.EVENT_WRITE:
                    self._flush(conn)
        self._check_heartbeats(leases)
        if grant_ok:
            self._grant_ready(supervisor, leases, seed, config_payload)
        self._push_monitors()
        self._update_write_interest()

    def _poll_timeout(self, leases: LeaseManager) -> float:
        timeout = self.heartbeat_interval / 2
        ready_at = leases.next_ready_at()
        if ready_at is not None:
            timeout = min(timeout, max(0.0, ready_at - time.monotonic()))
        return max(0.01, min(timeout, 0.5))

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(sock, address, time.monotonic)
            self._workers[sock] = conn
            self._selector.register(sock, selectors.EVENT_READ,
                                    ("worker", conn))

    def _read(self, conn: _WorkerConn, supervisor, leases: LeaseManager,
              collect) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._lose(conn, leases, "read error")
            return
        if not data:
            self._lose(conn, leases, "connection closed")
            return
        conn.last_seen = time.monotonic()
        try:
            frames = conn.reader.feed(data)
        except FrameError as exc:
            self._lose(conn, leases, f"bad frame: {exc}")
            return
        for payload in frames:
            try:
                message = decode_message(payload)
            except ValueError as exc:
                self._lose(conn, leases, str(exc))
                return
            self._dispatch(conn, message, supervisor, leases, collect)
            if conn.sock not in self._workers:
                return  # dispatch dropped the connection

    def _dispatch(self, conn: _WorkerConn, message: Message, supervisor,
                  leases: LeaseManager, collect) -> None:
        if isinstance(message, HelloMessage):
            if message.protocol != PROTOCOL_VERSION:
                conn.queue(ShutdownMessage(
                    reason=f"protocol {message.protocol} != "
                           f"{PROTOCOL_VERSION}"))
                self._flush(conn)
                self._drop(conn.sock, notify=False)
                return
            self._names += 1
            base = message.worker or f"worker-{self._names}"
            taken = {other.name for other in self._workers.values()
                     if other is not conn}
            conn.name = base if base not in taken \
                else f"{base}#{self._names}"
            conn.ready = True
            conn.queue(WelcomeMessage(
                config=self._config_payload,
                heartbeat_interval=self.heartbeat_interval,
                telemetry_interval=self.telemetry_interval,
                campaign=self.campaign))
        elif isinstance(message, MonitorHelloMessage):
            if message.protocol != PROTOCOL_VERSION:
                conn.queue(ShutdownMessage(
                    reason=f"protocol {message.protocol} != "
                           f"{PROTOCOL_VERSION}"))
                self._flush(conn)
                self._drop(conn.sock, notify=False)
                return
            # Monitors are read-only: never granted leases, never
            # heartbeat-reaped (ready stays False), just pushed at.
            conn.monitor = True
            conn.queue(FleetSnapshotMessage(
                snapshot=pack_payload(self._fleet_snapshot())))
        elif isinstance(message, HeartbeatMessage):
            pass  # last_seen already refreshed on read
        elif isinstance(message, TelemetryMessage):
            if self.fleet is not None and conn.name is not None:
                frame = message.to_wire()
                frame["worker"] = conn.name  # coordinator-side identity
                self._absorb_worker_spans(self.fleet.absorb(frame))
        elif isinstance(message, RecordMessage):
            try:
                record = _record_from_dict(message.record)
            except Exception as exc:  # noqa: BLE001 - corrupt payload
                if message.token in leases.active:
                    self._lose(conn, leases,
                               f"undecodable record: {exc}")
                    return
                record = None  # stale as well: deliver() fences it
            if leases.deliver(message.token, message.pos, record, collect) \
                    and self._convergence is not None:
                self._convergence.fold(record.unit, record.outcome.value)
        elif isinstance(message, ExtraMessage):
            lease = leases.active.get(message.token)
            if lease is not None and getattr(collect, "extra", None):
                collect.extra(message.kind, message.pos, message.payload)
        elif isinstance(message, ShardDoneMessage):
            supervisor.lease_done(leases, message.token, message.population)
            self._finish_lease_span(message.token)
        elif isinstance(message, ShardErrorMessage):
            leases.reclaim(message.token, f"worker error: {message.message}")
            self._finish_lease_span(message.token)

    def _lose(self, conn: _WorkerConn, leases: LeaseManager,
              reason: str) -> None:
        """Connection-level loss: reclaim the worker's leases (each
        fenced at the journal first), drop the socket."""
        if conn.name is not None:  # monitors hold no leases
            tokens = [token for token, lease
                      in sorted(leases.active.items())
                      if lease.worker == conn.name]
            for token in tokens:
                leases.reclaim(token,
                               f"worker {conn.name!r} lost ({reason})")
                self._finish_lease_span(token)
        self._drop(conn.sock, notify=False)

    def _drop(self, sock: socket.socket, notify: bool = True) -> None:
        conn = self._workers.pop(sock, None)
        if conn is None:
            return
        if notify and conn.outbox:
            self._flush(conn)
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _check_heartbeats(self, leases: LeaseManager) -> None:
        deadline = self.heartbeat_interval * self.heartbeat_grace
        now = time.monotonic()
        for sock, conn in list(self._workers.items()):
            if not conn.ready:
                continue
            if now - conn.last_seen > deadline:
                if self._inst is not None:
                    self._inst.heartbeat_misses.inc()
                self._lose(conn, leases,
                           f"heartbeat missed for "
                           f"{now - conn.last_seen:.2f}s")

    def _grant_ready(self, supervisor, leases: LeaseManager, seed: int,
                     config_payload: dict) -> None:
        idle = [conn for conn in self._workers.values()
                if conn.ready and not any(
                    lease.worker == conn.name
                    for lease in leases.active.values())]
        idle.sort(key=lambda conn: conn.name or "")
        for conn in idle:
            if not leases.grantable():
                return
            lease = leases.grant(conn.name)
            if lease is None:
                return
            if self._trace is not None:
                now = self._trace.clock()
                self._trace.record(
                    FleetSpanPhase.QUEUE_WAIT, lease.queued_at, now,
                    parent_id=self._trace_root, shard_id=lease.shard_id)
                self._lease_spans[lease.token] = self._trace.begin(
                    FleetSpanPhase.LEASE_HELD, parent_id=self._trace_root,
                    worker=conn.name or "", shard_id=lease.shard_id,
                    token=lease.token)
            conn.queue(LeaseMessage(
                token=lease.token, shard_id=lease.shard_id, seed=seed,
                items=[plan_item_to_dict(item)
                       for item in lease.remaining()]))

    def _update_write_interest(self) -> None:
        for sock, conn in list(self._workers.items()):
            if conn.outbox:
                self._flush(conn)
            events = selectors.EVENT_READ
            if conn.outbox:
                events |= selectors.EVENT_WRITE
            try:
                self._selector.modify(sock, events, ("worker", conn))
            except (KeyError, ValueError):
                pass

    def _flush(self, conn: _WorkerConn) -> None:
        while conn.outbox:
            try:
                sent = conn.sock.send(conn.outbox)
            except BlockingIOError:
                return
            except OSError:
                conn.outbox = b""
                return
            if sent <= 0:
                return
            conn.outbox = conn.outbox[sent:]

    # -- fleet telemetry ----------------------------------------------

    def _finish_lease_span(self, token: int) -> None:
        span_id = self._lease_spans.get(token)
        if span_id is not None and self._trace is not None:
            self._trace.finish(span_id)

    def _absorb_worker_spans(self, spans: list) -> None:
        """Hang rebased worker spans off their lease-held span.

        A worker's top-level (parentless) span carries the fencing
        token of the lease it executed; the grant opened a lease-held
        span under the campaign root for that token, which becomes the
        parent — one merged tree across hosts."""
        for span in spans:
            if span.parent_id is None and span.token in self._lease_spans:
                span = replace(span,
                               parent_id=self._lease_spans[span.token])
            self.worker_spans.append(span)

    def _fleet_snapshot(self) -> dict:
        """The live fleet view pushed at monitor connections."""
        snapshot = {"campaign": self.campaign, "workers": {},
                    "fleet": [], "service": [], "convergence": {}}
        if self.fleet is not None:
            for name in self.fleet.worker_names():
                info = dict(self.fleet.worker_info(name))
                info["snapshot"] = self.fleet.worker_snapshot(name)
                snapshot["workers"][name] = info
            snapshot["fleet"] = self.fleet.fleet.snapshot()
        if self._metrics is not None:
            snapshot["service"] = self._metrics.snapshot()
        if self._convergence is not None:
            snapshot["convergence"] = self._convergence.snapshot()
        return snapshot

    def _push_monitors(self) -> None:
        monitors = [conn for conn in self._workers.values()
                    if conn.monitor]
        if not monitors:
            return
        now = time.monotonic()
        if now - self._last_push < 1.0:
            return
        self._last_push = now
        packed = pack_payload(self._fleet_snapshot())
        for conn in monitors:
            conn.queue(FleetSnapshotMessage(snapshot=packed))

    def _broadcast_shutdown(self) -> None:
        for conn in list(self._workers.values()):
            try:
                conn.queue(ShutdownMessage())
                self._flush(conn)
            except OSError:
                pass

    def _ready_count(self) -> int:
        return sum(1 for conn in self._workers.values() if conn.ready)

    # Set by execute(); hello replies that arrive mid-campaign
    # (late-joining workers) get the active campaign's config.
    _config_payload: dict = {}
