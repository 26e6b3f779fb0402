"""Supervised, fault-tolerant campaign execution.

The paper's case for SFI over beam testing is that "multiple concurrent
copies of the simulation environment can be run relatively easily"
(§2.2) — which is only true if one wedged or crashed copy cannot take
hours of accumulated injections with it.  This module supervises a
campaign the way a RAS design supervises a core:

* pending work is handed out as *leases*
  (:class:`~repro.sfi.service.leases.LeaseManager`) of a few plan items,
  each under its own fencing token.  A local pool of ``workers`` is
  this process plus ``workers - 1`` spawned ones, and every one of them
  runs leases: the spawned workers one after another on the machine
  they loaded once, this process on its own machine between handing
  them out.  A lease that errors, here or in a worker, and a worker
  that dies or outlives ``shard_timeout`` lose the lease exactly as a
  remote worker that drops its connection or misses heartbeats does;
* a reclaimed lease is fenced at the journal, then retried with
  exponential backoff and, once its retry budget is exhausted, *split*
  and requeued — a straggler costs its own retries, never the campaign;
  a single injection that still fails runs in-process;
* completed injections stream back to the parent and are journaled
  incrementally (:class:`~repro.sfi.storage.CampaignJournal`), so a
  campaign killed at any point — worker or parent, SIGKILL included —
  resumes from the journal and produces the same merged result as an
  uninterrupted run;
* if worker processes cannot be spawned at all, the supervisor degrades
  to in-process serial execution rather than aborting.

Determinism holds across all of this because every injection is a
self-contained :class:`~repro.sfi.campaign.InjectionPlan` item whose RNG
stream is keyed by ``(seed, site, occurrence)`` — never by shard shape,
retry count or resume point.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import tempfile
import time
from functools import partial

from repro.obs.provenance import ProvenanceReport
from repro.sfi.campaign import (
    _CYCLES_SAVED_BUCKETS,
    CampaignConfig,
    InjectionPlan,
    SfiExperiment,
    injection_rng,
    plan_injections,
    prepared_machine,
)
from repro.sfi.results import CampaignResult
from repro.sfi.service.backoff import DEFAULT_CAP
from repro.sfi.service.leases import LEASE_ITEMS, Lease, LeaseManager, Requeue
from repro.sfi.service.transport import PoolTransport, ShardTransport
from repro.sfi.storage import CampaignJournal


class CampaignExecutionError(RuntimeError):
    """A campaign could not complete without dropping injections."""


# ----------------------------------------------------------------------
# Progress observation.

class CampaignProgress:
    """Observer hook for supervised campaigns.

    Every method is a no-op; subclass and override the events you care
    about.  The supervisor guarantees that every abnormal path — retry,
    split, degradation — is reported here, so nothing fails silently.
    """

    def on_start(self, total: int, pending: int) -> None:
        """Campaign begins: ``total`` planned injections, ``pending`` of
        them still to run (the rest were recovered from a journal)."""

    def on_resume(self, recovered: int) -> None:
        """``recovered`` injections were loaded from the journal."""

    def on_record(self, position: int, record) -> None:
        """One injection completed (any execution path)."""

    def on_shard_complete(self, shard_id: int, size: int, attempt: int) -> None:
        """A shard finished all its injections."""

    def on_shard_retry(self, shard_id: int, attempt: int, reason: str,
                       delay: float) -> None:
        """A shard failed (``reason``) and will re-run after ``delay``."""

    def on_shard_split(self, shard_id: int, remaining: int) -> None:
        """A shard exhausted its retries and was split into halves."""

    def on_degrade(self, reason: str) -> None:
        """Execution fell back to in-process serial mode."""


class PrintProgress(CampaignProgress):
    """Progress observer that narrates to stdout (the CLI's default).

    Narration is rate-limited: at most one progress line per
    ``min_interval`` seconds (default 0.5s) regardless of ``every``, so
    a large fast campaign cannot flood stdout; the final line always
    prints.  Each line carries the running injections/sec and an ETA
    derived from it.
    """

    def __init__(self, every: int = 50, min_interval: float = 0.5,
                 clock=time.monotonic) -> None:
        self.every = max(1, every)
        self.min_interval = min_interval
        self._clock = clock
        self._done = 0
        self._total = 0
        self._started_at: float | None = None
        self._start_done = 0
        self._last_line = float("-inf")

    def on_start(self, total: int, pending: int) -> None:
        self._total = total
        self._done = total - pending
        self._started_at = self._clock()
        self._start_done = self._done
        if total != pending:
            print(f"[supervisor] resuming: {self._done}/{total} injections "
                  f"already journaled")

    @staticmethod
    def _format_eta(seconds: float) -> str:
        seconds = max(0, int(round(seconds)))
        if seconds < 60:
            return f"{seconds}s"
        minutes, secs = divmod(seconds, 60)
        if minutes < 60:
            return f"{minutes}m{secs:02d}s"
        hours, minutes = divmod(minutes, 60)
        return f"{hours}h{minutes:02d}m"

    def on_record(self, position: int, record) -> None:
        self._done += 1
        final = self._done == self._total
        if not final and self._done % self.every:
            return
        now = self._clock()
        if not final and now - self._last_line < self.min_interval:
            return
        self._last_line = now
        line = f"[supervisor] {self._done}/{self._total} injections"
        executed = self._done - self._start_done
        elapsed = (now - self._started_at
                   if self._started_at is not None else 0.0)
        if executed > 0 and elapsed > 0:
            rate = executed / elapsed
            line += f" ({rate:.1f} inj/s"
            if not final and rate > 0:
                remaining = (self._total - self._done) / rate
                line += f", ETA {self._format_eta(remaining)}"
            line += ")"
        print(line)

    def on_shard_retry(self, shard_id: int, attempt: int, reason: str,
                       delay: float) -> None:
        print(f"[supervisor] shard {shard_id} attempt {attempt} failed "
              f"({reason}); retrying in {delay:.2f}s")

    def on_shard_split(self, shard_id: int, remaining: int) -> None:
        print(f"[supervisor] shard {shard_id} exhausted retries; "
              f"splitting {remaining} remaining injections")

    def on_degrade(self, reason: str) -> None:
        print(f"[supervisor] degraded to serial execution: {reason}")


class TeeProgress(CampaignProgress):
    """Forward every progress event to several observers (narration and
    trace/metric sinks compose without knowing about each other)."""

    def __init__(self, *observers: CampaignProgress) -> None:
        self.observers = [obs for obs in observers if obs is not None]

    def on_start(self, total: int, pending: int) -> None:
        for observer in self.observers:
            observer.on_start(total, pending)

    def on_resume(self, recovered: int) -> None:
        for observer in self.observers:
            observer.on_resume(recovered)

    def on_record(self, position: int, record) -> None:
        for observer in self.observers:
            observer.on_record(position, record)

    def on_shard_complete(self, shard_id: int, size: int, attempt: int) -> None:
        for observer in self.observers:
            observer.on_shard_complete(shard_id, size, attempt)

    def on_shard_retry(self, shard_id: int, attempt: int, reason: str,
                       delay: float) -> None:
        for observer in self.observers:
            observer.on_shard_retry(shard_id, attempt, reason, delay)

    def on_shard_split(self, shard_id: int, remaining: int) -> None:
        for observer in self.observers:
            observer.on_shard_split(shard_id, remaining)

    def on_degrade(self, reason: str) -> None:
        for observer in self.observers:
            observer.on_degrade(reason)


# ----------------------------------------------------------------------
# Metrics instrumentation (series consumed by `repro-sfi stats`/`monitor`
# and the Prometheus/JSONL exporters in repro.obs).

_SHARD_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
                  60.0, 120.0, 300.0, float("inf"))
_QUEUE_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0,
                  60.0, float("inf"))

# Cycles from flip to first checker fire / FIR set / recovery start.
_DETECTION_LATENCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                              256.0, 512.0, 1024.0, 4096.0, float("inf"))

# Peak simultaneously tainted storage bits of one injection.
_PEAK_BITS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                      512.0, 1024.0, float("inf"))


def _outcome_value(record) -> str:
    outcome = getattr(record, "outcome", None)
    return getattr(outcome, "value", None) or str(outcome)


class _SupervisorInstruments:
    """Supervisor-side series: shard lifecycle, failure policy,
    throughput, the fast-path extras every shard reports, and the only
    series a campaign's provenance payloads feed."""

    def __init__(self, registry) -> None:
        self.injections = registry.counter(
            "sfi_injections_total", "completed injections by outcome",
            ("outcome",))
        self.recovered = registry.counter(
            "sfi_injections_recovered_total",
            "injections recovered from a journal on resume")
        self.rate = registry.gauge(
            "sfi_injections_per_second", "campaign injection throughput")
        self.campaign_seconds = registry.gauge(
            "sfi_campaign_seconds", "wall time of the last campaign run")
        self.shard_wall = registry.histogram(
            "sfi_shard_wall_seconds", "shard wall time by completion status",
            ("status",), buckets=_SHARD_BUCKETS)
        self.queue_wait = registry.histogram(
            "sfi_shard_queue_wait_seconds",
            "time shards spent queued (backoff included) before a worker",
            buckets=_QUEUE_BUCKETS)
        self.retries = registry.counter(
            "sfi_shard_retries_total", "shard retry attempts")
        self.splits = registry.counter(
            "sfi_shard_splits_total", "shards split after exhausted retries")
        self.degrades = registry.counter(
            "sfi_degrades_total", "fallbacks to in-process serial execution")
        self.workers_running = registry.gauge(
            "sfi_workers_running", "live worker processes")
        # Same names/shapes as the experiment-level series in
        # repro.sfi.campaign: workers run uninstrumented, so the parent
        # folds their sidecar reports into the one dashboard a serial
        # instrumented run would feed.  The provenance series exist only
        # here (observe_provenance_metrics).
        self.early_exits = registry.counter(
            "sfi_early_exits_total",
            "fast-path trials ended before a full drain, by exit reason",
            ("reason",))
        self.cycles_saved = registry.histogram(
            "sfi_fastpath_saved_cycles",
            "simulation cycles avoided per injection by the fast path",
            buckets=_CYCLES_SAVED_BUCKETS)
        self.detection_latency = registry.histogram(
            "sfi_detection_latency_cycles",
            "cycles from injection to first detection event",
            buckets=_DETECTION_LATENCY_BUCKETS)
        self.infection_peak = registry.histogram(
            "sfi_infection_peak_bits",
            "peak simultaneously tainted storage bits per injection",
            buckets=_PEAK_BITS_BUCKETS)
        self.taint_edges = registry.counter(
            "sfi_taint_edges_total",
            "taint propagation DAG edge traversals by unit pair",
            ("src_unit", "dst_unit"))


def observe_provenance_metrics(inst: _SupervisorInstruments,
                               payload: dict) -> None:
    """Fold one provenance payload into the provenance metric series."""
    detection = payload.get("detection")
    if detection is not None:
        inst.detection_latency.observe(detection["latency"])
    inst.infection_peak.observe(payload.get("peak_bits", 0))
    nodes = payload.get("nodes", [])
    for src, dst, _cycle, count in payload.get("edges", []):
        inst.taint_edges.inc(count, src_unit=nodes[src]["unit"],
                             dst_unit=nodes[dst]["unit"])


# ----------------------------------------------------------------------
# Worker side.

def run_shard(config: CampaignConfig, items: list[InjectionPlan], seed: int,
              emit) -> int:
    """Default shard runner: execute the plan items on this process's
    prepared machine for ``config``, emitting each record as it
    completes.  Returns the latch population size so the parent can
    report coverage fractions.

    The machine is :func:`~repro.sfi.campaign.prepared_machine`'s: a
    serial shard (``workers <= 1``, which every CLI campaign at its
    default takes, and every transport's in-process fallback) and the
    pool parent's own leases run on the machine its caller already
    prepared for ``config``, such as the CLI's probe; a spawned pool
    worker runs on the copy of that machine it loaded before its first
    lease (:func:`_shard_worker`), and a remote worker prepares once and
    keeps its machine across leases.  Since the
    machine may be the caller's, it runs with exactly the sinks ``emit``
    supplies (:meth:`~repro.sfi.campaign.SfiExperiment.sinks`), and the
    caller's hooks and registry are back, untouched, on exit.  When
    ``emit`` carries an ``extra(kind, position, payload)`` attribute
    (the supervisor's sidecar channel), the fast-path and provenance
    payloads go through it — out of band, so the record stream itself
    stays bit-identical to a hookless run — and the supervisor alone
    journals the extras and folds the payloads; when it carries a
    ``metrics`` registry, the experiment series accrue there.
    """
    experiment = prepared_machine(config)
    extra = getattr(emit, "extra", None)
    sinks = {"metrics": getattr(emit, "metrics", None)}
    if extra is not None:
        sinks.update(fastpath_hook=partial(extra, "fast"),
                     provenance_hook=partial(extra, "prov"))
    with experiment.sinks(**sinks):
        experiment.run_plan(items, seed=seed, record_hook=emit)
    return len(experiment.latch_map)


def _ship_prepared(machine: SfiExperiment) -> str:
    """Write ``machine``'s prepared state once, for every worker of a
    pool run to load, into a new private file (created exclusively,
    mode 0600); returns its path, which the caller removes."""
    fd, path = tempfile.mkstemp(prefix="repro-sfi-", suffix=".prepared")
    try:
        with os.fdopen(fd, "wb") as file:
            pickle.dump(machine.prepared, file,
                        protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException:
        os.unlink(path)
        raise
    return path


def _load_prepared(config: CampaignConfig, path: str) -> None:
    """Make the machine shipped to ``path`` this process's prepared
    machine for ``config``.  Loading a pickle can run code, so a file
    another user owns, or could have written, is refused."""
    with open(path, "rb") as file:
        status = os.fstat(file.fileno())
        if status.st_uid != os.getuid() or status.st_mode & 0o077:
            raise PermissionError(
                f"{path}: prepared machine is not a private file of "
                "this user")
        state = pickle.load(file)
    SfiExperiment(config, prepared=state)


def _run_lease(runner, config: CampaignConfig, token: int,
               items: list[InjectionPlan], seed: int, out_queue) -> None:
    """Run one lease through ``runner``, streaming its records, sidecar
    payloads and ``done`` back keyed by its fencing token."""

    def emit(pos, rec):
        out_queue.put(("record", token, pos, rec))

    # Sidecar channel: fast-path / provenance payloads ride the same
    # queue with their own kinds ("fast", "prov").  Per-process FIFO
    # ordering guarantees they arrive before their position's record.
    emit.extra = lambda kind, pos, payload: out_queue.put(
        (kind, token, pos, payload))
    population = runner(config, items, seed, emit)
    out_queue.put(("done", token, population))


def _shard_worker(runner, config: CampaignConfig, token: int,
                  items: list[InjectionPlan], seed: int, out_queue,
                  inbox, machine_file: str) -> None:
    """Process entry point: load the parent's prepared machine from
    ``machine_file`` (so ``run_shard`` finds it and nothing here
    prepares), then run leases until the parent is done with this
    worker: first the one granted at spawn, then each ``(token, items)``
    the parent sends through ``inbox`` once this worker reported its
    last lease's end.  The parent's end of ``inbox`` closing stops the
    worker (the parent kills idle workers when its pool run ends)."""
    try:
        _load_prepared(config, machine_file)
        while True:
            try:
                _run_lease(runner, config, token, items, seed, out_queue)
            except Exception as exc:  # the lease failed; serve the next
                out_queue.put(("error", token,
                               f"{type(exc).__name__}: {exc}"))
            try:
                token, items = inbox.recv()
            except EOFError:
                return
    except BaseException as exc:  # report, don't crash silently
        out_queue.put(("error", token, f"{type(exc).__name__}: {exc}"))
        raise


# ----------------------------------------------------------------------
# Parent side.

class _ProcessPool:
    """One run of the local pool: this process and ``workers - 1``
    spawned ones run the leases of ``leases``.

    A spawned worker starts on the lease granted when it is spawned and
    is handed its next one after it reports the last one's end; this
    process runs every other lease itself (:meth:`_run_own`), on its
    prepared machine and under the lease's own fencing token, and serves
    the workers between its trials.  Failure handling is the lease
    manager's — a lease that raises (here or in a worker), a dead
    worker or one that outlives ``shard_timeout`` on a lease (the
    lease's deadline) reclaims the lease, and the manager retries,
    splits or poisons it exactly as it does for the TCP coordinator.
    A dead or killed worker is replaced by a new spawn."""

    def __init__(self, supervisor: "CampaignSupervisor", leases: LeaseManager,
                 seed: int, collect) -> None:
        self.supervisor = supervisor
        self.leases = leases
        self.seed = seed
        self.collect = collect
        self.queue = multiprocessing.get_context("spawn").Queue()
        #: Every live spawned worker -> the sending end of its inbox.
        self.inboxes: dict = {}
        #: token -> (worker process, monotonic hand-over time) of each
        #: lease a spawned worker holds.
        self.running: dict[int, tuple] = {}
        #: Spawned workers waiting for their next lease.
        self.idle: list = []

    def run(self) -> str | None:
        """Drive every lease to completion (or poison); returns why the
        pool broke down when workers could not be spawned."""
        leases = self.leases
        while leases.queued or leases.active:
            self._serve()
            reason = self._staff()
            if reason is not None:
                return reason
            lease = leases.grant("parent")
            if lease is not None:
                self._observe_grant(lease)
                self._run_own(lease)
                continue
            if not self.running:
                # Nothing is out with a worker: either the last lease just
                # ended (serving the workers above) or everything pending
                # is backing off; sleep that out.
                if leases.queued:
                    wait = leases.next_ready_at() - time.monotonic()
                    time.sleep(max(0.0, min(wait, 0.2)))
                continue
            # Every lease is out with a worker: wait for its messages.
            try:
                self.handle(self.queue.get(timeout=0.05))
            except queue_module.Empty:
                pass
        return None

    def handle(self, message) -> None:
        """Absorb one worker message; a stale token's are fenced."""
        kind, token = message[0], message[1]
        if kind == "record":
            self.leases.deliver(token, message[2], message[3], self.collect)
        elif kind in ("fast", "prov"):
            if token in self.leases.active:
                self.collect.extra(kind, message[2], message[3])
        elif kind == "done":
            lease = self.supervisor.lease_done(self.leases, token, message[2])
            self._release(token, "ok" if lease is not None else None)
        elif kind == "error":
            failed = token in self.leases.active
            self._release(token, "failed" if failed else None)
            if failed:
                self.leases.reclaim(token, message[2])

    # -- this process's share ------------------------------------------

    def _run_own(self, lease: Lease) -> None:
        """Run ``lease`` here through :func:`run_shard`, never through
        the supervisor's ``runner``; right after each record is
        delivered, serve the workers.  A lease that raises is reclaimed
        like a worker's; an error of the pool itself (a worker's record
        failing to journal) ends the pool run."""
        leases, token = self.leases, lease.token
        pool_error = None

        def emit(position, record):
            nonlocal pool_error
            try:
                leases.deliver(token, position, record, self.collect)
                self._serve()
            except BaseException as exc:
                pool_error = exc
                raise

        def extra(kind, position, payload):
            if token in leases.active:
                self.collect.extra(kind, position, payload)

        emit.extra = extra
        inst = self.supervisor._inst
        started = time.monotonic()
        try:
            population = run_shard(self.supervisor.config, lease.remaining(),
                                   self.seed, emit)
        except Exception as exc:
            if exc is pool_error:
                raise
            if inst is not None:
                inst.shard_wall.observe(time.monotonic() - started,
                                        status="failed")
            leases.reclaim(token, f"{type(exc).__name__}: {exc}")
            return
        if self.supervisor.lease_done(leases, token, population) is not None \
                and inst is not None:
            inst.shard_wall.observe(time.monotonic() - started, status="ok")

    # -- the spawned workers -------------------------------------------

    def _serve(self) -> None:
        """Absorb every queued worker message, hand each idle worker its
        next lease and reclaim the leases of workers that died or ran
        out of time."""
        while True:
            try:
                message = self.queue.get_nowait()
            except queue_module.Empty:
                break
            self.handle(message)
        while self.idle:
            lease = self.leases.grant("pool")
            if lease is None:
                break
            process = self.idle.pop()
            self._hold(process, lease)
            try:
                self.inboxes[process].send((lease.token, lease.remaining()))
            except OSError:
                self._fail(lease.token, "worker lost its inbox", 0.0)
        self._check()

    def _staff(self) -> str | None:
        """Spawn workers, each on a lease granted for it, until
        ``workers - 1`` are alive or no lease is ready; the reason the
        pool broke down when one cannot be spawned."""
        while len(self.inboxes) < self.supervisor.workers - 1:
            lease = self.leases.grant("pool")
            if lease is None:
                break
            try:
                process, inbox = self.supervisor._spawn(lease, self.seed,
                                                        self.queue)
            except OSError as exc:
                # The pool itself is broken (fork/spawn failure): stop
                # every worker and keep what they reported.
                self.stop()
                self._settle(0.5)
                return f"cannot spawn workers ({exc})"
            self.inboxes[process] = inbox
            self._hold(process, lease)
        if self.supervisor._inst is not None:
            self.supervisor._inst.workers_running.set(len(self.inboxes))
        return None

    def _observe_grant(self, lease: Lease) -> None:
        if self.supervisor._inst is not None:
            self.supervisor._inst.queue_wait.observe(
                time.monotonic() - lease.queued_at)

    def _hold(self, process, lease: Lease) -> None:
        """``process`` now runs ``lease``."""
        self._observe_grant(lease)
        self.running[lease.token] = (process, time.monotonic())

    def _check(self) -> None:
        """Reclaim the lease of a worker past ``shard_timeout`` (killed)
        or found dead; forget idle workers that died."""
        timeout = self.supervisor.shard_timeout
        now = time.monotonic()
        for token, (process, started) in list(self.running.items()):
            if token not in self.running:
                continue  # settled while handling another worker
            if timeout and now - started > timeout:
                process.kill()
                process.join()
                self._fail(token, f"timed out after {timeout:.1f}s", 0.2)
            elif not process.is_alive():
                # Died without an error message (e.g. SIGKILL, OOM).
                process.join()
                self._fail(token, f"worker died (exit "
                           f"{process.exitcode})", 0.5)
        for process in [process for process in self.idle
                        if not process.is_alive()]:
            self.idle.remove(process)
            self._forget(process)

    def _fail(self, token: int, reason: str, grace: float) -> None:
        """Reclaim a dead or killed worker's lease, unless its queued
        messages show it finished after all, and forget the worker."""
        process = self.running[token][0]
        self._settle(grace, token)
        if token in self.leases.active:
            self._release(token, "failed")
            self.leases.reclaim(token, reason)
        self.running.pop(token, None)
        if process in self.idle:
            self.idle.remove(process)
        self._forget(process)

    def _settle(self, grace: float, token: int | None = None) -> None:
        """Handle queued messages for up to ``grace`` seconds, until the
        queue runs dry or ``token``'s lease has ended."""
        deadline = time.monotonic() + grace
        while (token is None or token in self.leases.active) \
                and time.monotonic() < deadline:
            try:
                self.handle(self.queue.get(timeout=0.05))
            except queue_module.Empty:
                return

    def _release(self, token: int, status: str | None) -> None:
        """The worker holding ``token`` ended that lease (``status`` is
        its shard-wall label; None for a stale token): it waits for its
        next one."""
        entry = self.running.pop(token, None)
        if entry is None:
            return
        process, started = entry
        inst = self.supervisor._inst
        if inst is not None and status is not None:
            inst.shard_wall.observe(time.monotonic() - started, status=status)
        self.idle.append(process)

    def _forget(self, process) -> None:
        """Kill ``process`` if it still runs, reap it and drop it (while
        leases remain, :meth:`_staff` spawns its replacement)."""
        inbox = self.inboxes.pop(process, None)
        if inbox is not None:
            inbox.close()
        if process.is_alive():
            process.kill()
        process.join()

    def stop(self) -> None:
        """Kill every worker still running (idempotent).  Once every
        lease has ended, each worker is idle and has delivered all it
        will: nothing is lost."""
        for process in list(self.inboxes):
            self._forget(process)
        self.running.clear()
        self.idle.clear()


class CampaignSupervisor:
    """Dispatch a campaign plan across supervised worker processes.

    Parameters mirror the failure policy, which every transport applies
    through :meth:`lease_manager`: ``shard_timeout`` (seconds a spawned
    pool worker may hold a lease before it is killed; the parent's own
    leases have no deadline; ``None`` disables),
    ``max_retries`` (re-runs of a lease before it is split),
    ``backoff_base`` (first retry delay; doubles per attempt) and
    ``backoff_cap``.  ``journal`` names a JSONL journal file;
    with ``resume=True`` an existing journal is recovered and its
    positions skipped.  ``runner`` is the shard execution function
    (top-level, picklable) of serial runs and spawned pool workers (a
    pool parent runs its own leases through :func:`run_shard`); tests
    substitute fault-injecting runners.

    ``reference_cycles`` (fault-free cycle count per testcase, e.g. from
    a probe experiment) lets the parent pre-sort the pending plan by
    (testcase, injection cycle) before sharding, so each fast-path
    worker sees a narrow monotone cycle band and restores neighbouring
    ladder rungs in turn.  The sort is purely a scheduling hint: every
    plan item is self-contained, so the merged result is bit-identical
    with or without it.
    """

    def __init__(self, config: CampaignConfig, *,
                 workers: int | None = None,
                 shard_timeout: float | None = None,
                 max_retries: int = 2,
                 backoff_base: float = 0.25,
                 backoff_cap: float = DEFAULT_CAP,
                 journal: str | os.PathLike | None = None,
                 resume: bool = False,
                 population_bits: int = 0,
                 progress: CampaignProgress | None = None,
                 runner=run_shard,
                 metrics=None,
                 reference_cycles: list[int] | None = None,
                 transport: ShardTransport | None = None,
                 trace=None) -> None:
        self.config = config
        self.workers = workers if workers is not None \
            else min(4, os.cpu_count() or 1)
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.journal_path = journal
        self.resume = resume
        self.population_bits = population_bits
        self.progress = progress or CampaignProgress()
        self.runner = runner
        self.metrics = metrics
        self._inst = (_SupervisorInstruments(metrics)
                      if metrics is not None else None)
        self.reference_cycles = reference_cycles
        #: Shard execution back end (see repro.sfi.service.transport):
        #: the in-process pool by default, the TCP lease coordinator for
        #: multi-host campaigns.  Items a transport cannot run fall back
        #: to the pool.
        self.transport = transport if transport is not None \
            else PoolTransport()
        #: Optional fleet span recorder (repro.obs.fleet.SpanRecorder).
        #: Purely observational: the campaign root span opens in
        #: run_plan, the transport hangs queue-wait/lease spans off it,
        #: and merged worker spans land in ``transport.worker_spans``.
        self.trace = trace
        self.trace_root: str | None = None
        self._journal: CampaignJournal | None = None
        # The prepared machine a pool run shipped to its workers (path
        # of the private file ``_run_leased`` writes; None between runs).
        self._machine_file: str | None = None
        # Highest fencing token revoked so far: a lease manager taking
        # over from another transport issues tokens above it.
        self._fence_floor = 0
        #: Provenance aggregate of the last run (None unless
        #: ``config.provenance``): the one fold of the campaign's
        #: payloads, each absorbed once as it arrives from any shard;
        #: per-position payloads in ``provenance_payloads``.  Folding is
        #: commutative, so both are identical across worker counts and
        #: arrival orders.
        self.provenance_report: ProvenanceReport | None = None
        self.provenance_payloads: dict[int, dict] = {}

    # -- public entry points ------------------------------------------

    def run(self, sites: list[int], seed: int = 0) -> CampaignResult:
        """Run ``sites`` as a supervised campaign (see module docstring)."""
        plan = plan_injections(sites, self.config.suite_size)
        return self.run_plan(plan, seed)

    def run_plan(self, plan: list[InjectionPlan],
                 seed: int = 0) -> CampaignResult:
        journal, records = self._open_journal(plan, seed)
        self._journal = journal
        inst = self._inst
        if self.trace is not None:
            from repro.obs.fleet import FleetSpanPhase
            self.trace_root = self.trace.begin(FleetSpanPhase.CAMPAIGN)
        started = time.perf_counter()
        executed = 0
        report = self.provenance_report = (
            ProvenanceReport() if self.config.provenance else None)
        self.provenance_payloads = {}
        pending_fastpath: dict[int, dict] = {}
        if inst is not None and records:
            inst.recovered.inc(len(records))
        try:
            pending = [item for item in plan if item.position not in records]
            pending = self._cycle_sorted(pending, seed)
            self.progress.on_start(len(plan), len(pending))

            def collect(position: int, record, fence: int | None = None) -> None:
                nonlocal executed
                records[position] = record
                sidecar = pending_fastpath.pop(position, None)
                if journal is not None:
                    journal.append(
                        position, record,
                        extra={"fastpath": sidecar} if sidecar else None,
                        fence=fence)
                if inst is not None:
                    executed += 1
                    inst.injections.inc(outcome=_outcome_value(record))
                    if sidecar is not None:
                        inst.cycles_saved.observe(sidecar["saved_cycles"])
                        if "exit" in sidecar:
                            inst.early_exits.inc(reason=sidecar["exit"])
                    elapsed = time.perf_counter() - started
                    if elapsed > 0:
                        inst.rate.set(executed / elapsed)
                self.progress.on_record(position, record)

            def absorb_extra(kind: str, position: int,
                             payload: dict) -> None:
                if kind == "fast":
                    pending_fastpath[position] = payload
                elif kind == "prov" \
                        and position not in self.provenance_payloads:
                    # First arrival wins: a retried shard re-reports the
                    # same deterministic payload, and folding it twice
                    # would double-count the aggregate.
                    self.provenance_payloads[position] = payload
                    if report is not None:
                        report.absorb(payload)
                    if inst is not None:
                        observe_provenance_metrics(inst, payload)

            # The serial/degraded path hands `collect` straight to the
            # runner as its emit, so the sidecar channel rides the same
            # attribute the worker-side emit exposes.
            collect.extra = absorb_extra

            if pending:
                leftover = self.transport.execute(self, pending, seed,
                                                  collect)
                if leftover:
                    # The transport gave work back (e.g. every remote
                    # worker was lost): degrade to the in-process pool
                    # mid-campaign rather than dropping records.
                    leftover = [item for item in leftover
                                if item.position not in records]
                    leftover.sort(key=lambda item: item.position)
                if leftover:
                    if inst is not None:
                        inst.degrades.inc()
                    self.progress.on_degrade(
                        f"transport {self.transport.name!r} returned "
                        f"{len(leftover)} injections; running in-process")
                    self.run_pool(leftover, seed, collect)

            missing = [item.position for item in plan
                       if item.position not in records]
            if missing:
                raise CampaignExecutionError(
                    f"campaign dropped {len(missing)} injections "
                    f"(positions {missing[:5]}...)")
            result = CampaignResult(population_bits=self.population_bits)
            for position in sorted(records):
                result.add(records[position])
            return result
        finally:
            self.transport.close()
            if self.trace is not None and self.trace_root is not None:
                self.trace.finish(self.trace_root)
                self.trace.finish_all()  # no span outlives the campaign
            if inst is not None:
                inst.campaign_seconds.set(time.perf_counter() - started)
                inst.workers_running.set(0)
            if journal is not None:
                journal.close()
            self._journal = None

    def _cycle_sorted(self, pending: list[InjectionPlan],
                      seed: int) -> list[InjectionPlan]:
        """Order pending items by (testcase, injection cycle) when the
        fast path is on and per-testcase reference lengths are known, so
        contiguous shards carry monotone cycle bands (neighbouring ladder
        rungs in every worker).  Records are order-independent (each
        item's RNG stream is self-contained), so this never changes
        results."""
        cycles = self.reference_cycles
        if not cycles or not self.config.fastpath:
            return pending

        def key(item: InjectionPlan) -> tuple[int, int, int]:
            length = cycles[item.testcase_index % len(cycles)]
            inject = injection_rng(seed, item.site_index, item.occurrence) \
                .randrange(0, length) if length > 0 else 0
            return (item.testcase_index, inject, item.position)

        return sorted(pending, key=key)

    # -- journal ------------------------------------------------------

    def _open_journal(self, plan: list[InjectionPlan],
                      seed: int) -> tuple[CampaignJournal | None, dict]:
        if self.journal_path is None:
            return None, {}
        if self.resume and os.path.exists(self.journal_path):
            journal, covered = CampaignJournal.recover(
                self.journal_path, seed=seed, total=len(plan))
            self.population_bits = self.population_bits or \
                journal.header.get("population_bits", 0)
            self.progress.on_resume(len(covered))
            return journal, covered
        journal = CampaignJournal.create(
            self.journal_path, seed=seed, total_sites=len(plan),
            population_bits=self.population_bits,
            meta={"suite_size": self.config.suite_size})
        return journal, {}

    # -- in-process pool (PoolTransport's back end) --------------------

    def run_pool(self, items: list[InjectionPlan], seed: int,
                 collect) -> None:
        """Execute ``items`` on the in-process engine: serial below two
        workers, the supervised multiprocessing pool otherwise.  Also
        the fallback for items a remote transport hands back."""
        if not items:
            return
        span = None
        if self.trace is not None:
            from repro.obs.fleet import FleetSpanPhase
            span = self.trace.begin(FleetSpanPhase.POOL_EXECUTE,
                                    parent_id=self.trace_root)
        try:
            if self.workers <= 1:
                self._run_serial(items, seed, collect)
            else:
                self._run_leased(items, seed, collect)
        finally:
            if span is not None:
                self.trace.finish(span)

    def raise_fence(self, token: int) -> None:
        """Revoke a lease issue's fencing token at the journal (every
        lease manager calls this before it reclaims a lease, so a stale
        writer surfacing later cannot double-journal its records)."""
        self._fence_floor = max(self._fence_floor, token)
        if self._journal is not None:
            self._journal.raise_fence(token)

    # -- the lease engine every transport drives ------------------------

    def lease_manager(self, items: list[InjectionPlan], seed: int, *,
                      lease_items: int, log=None) -> LeaseManager:
        """A :class:`LeaseManager` under this campaign's failure policy:
        it fences reclaimed tokens at the journal, reports each requeue
        to progress and metrics, and issues tokens above any revoked
        earlier in the campaign (e.g. by a transport that gave up)."""
        return LeaseManager(
            items, seed=seed, lease_items=lease_items,
            max_retries=self.max_retries, backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap, log=log,
            first_token=self._fence_floor + 1, fence=self.raise_fence,
            on_requeue=self._report_requeue)

    def _report_requeue(self, requeue: Requeue) -> None:
        if requeue.action == "retry":
            if self._inst is not None:
                self._inst.retries.inc()
            self.progress.on_shard_retry(requeue.shard_id, requeue.attempt,
                                         requeue.reason, requeue.delay)
        elif requeue.action == "split":
            if self._inst is not None:
                self._inst.splits.inc()
            self.progress.on_shard_split(requeue.shard_id, requeue.items)
        else:
            self.progress.on_degrade(
                f"shard {requeue.shard_id} ({requeue.items} injection) "
                f"exhausted {self.max_retries} retries ({requeue.reason}); "
                f"running in-process")

    def lease_done(self, leases: LeaseManager, token: int,
                   population) -> Lease | None:
        """A worker reported lease ``token`` finished: complete it, adopt
        the worker's latch population and report the shard.  None when
        the token was stale."""
        lease = leases.complete(token)
        if lease is None:
            return None
        if not self.population_bits and isinstance(population, int) \
                and population > 0:
            self.population_bits = population
        if not lease.remaining():
            self.progress.on_shard_complete(
                lease.shard_id, len(lease.items), lease.attempt + 1)
        return lease

    # -- serial / degraded path ---------------------------------------

    def _run_serial(self, items: list[InjectionPlan], seed: int,
                    collect) -> None:
        """Run ``items`` as one in-process shard (with the default
        runner, on this process's prepared machine for the config)."""
        start = time.monotonic()
        population = self.runner(self.config, items, seed, collect)
        if self._inst is not None:
            self._inst.shard_wall.observe(time.monotonic() - start,
                                          status="serial")
        if not self.population_bits and isinstance(population, int):
            self.population_bits = population

    def _run_leased(self, items: list[InjectionPlan], seed: int,
                    collect) -> None:
        """The multiprocessing pool: ``workers`` processes run the
        leases, this one included (:class:`_ProcessPool`).

        A lease holds ``min(LEASE_ITEMS, ceil(len(items) / workers))``
        items, so a small campaign is one lease per process and a large
        one balances its few expensive drains.  This process's prepared
        machine for the config (the caller's probe, or one prepared here
        when the slot holds another config) runs this process's share,
        and is shipped once per pool run for every spawned worker to load
        instead of preparing; the shipment is removed when the run ends,
        however it ends.  Whatever the leases cannot finish — poisoned
        items, or everything left when workers cannot be spawned — runs
        once in-process, on that same machine."""
        leases = self.lease_manager(
            items, seed,
            lease_items=min(LEASE_ITEMS, -(-len(items) // self.workers)))
        self._machine_file = _ship_prepared(prepared_machine(self.config))
        pool = _ProcessPool(self, leases, seed, collect)
        try:
            reason = pool.run()
        finally:
            pool.stop()
            os.unlink(self._machine_file)
            self._machine_file = None
        leftover = leases.drain()
        if leftover:
            if self._inst is not None:
                self._inst.degrades.inc()
            if reason is not None:
                self.progress.on_degrade(reason)
            self._run_serial(leftover, seed, collect)

    def _spawn(self, lease: Lease, seed: int, out_queue):
        """Start one worker process on ``lease`` (patchable in tests);
        returns it with the sending end of its inbox, which carries its
        later leases.

        Always a fresh interpreter (spawn), never a fork, which loads the
        machine this pool run shipped before it runs the lease.  Only the
        shipment's path rides the spawn arguments: ``start`` writes them
        into a pipe the child reads only after its interpreter starts, so
        a large argument would hold up the next worker's start."""
        context = multiprocessing.get_context("spawn")
        inbox, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_shard_worker,
            args=(self.runner, self.config, lease.token, lease.remaining(),
                  seed, out_queue, inbox, self._machine_file),
            daemon=True)
        try:
            process.start()
        except BaseException:
            sender.close()
            raise
        finally:
            inbox.close()  # the worker holds its own end
        return process, sender
