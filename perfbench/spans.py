"""Layer spans for the traced benchmark run.

Spans are recorded from this file only: :func:`install` wraps public
functions of each layer of ``repro`` (the emulator, the core's digest
and snapshot primitives, the bit-plane compiler, the trial loop, the
journal, the supervisor's pool) so that every call records
``(name, start, end, parent)``.  The spans stay in memory while the
campaign runs and are written out once it has finished.

Pool workers are traced through the supervisor's public ``runner=``
hook: :func:`traced_shard` installs the same wrappers in the worker,
runs :func:`repro.sfi.supervisor.run_shard` under a ``supervisor.shard``
span and dumps its spans and metric series to the round directory when
the shard ends.  A worker's start-up (interpreter, imports, wrappers),
from the parent's ``Process.start`` to its shard span, is a
``supervisor.worker_start`` span of the worker.  :func:`measured_shard` is the untraced runner: it only
records the worker's peak RSS, so untraced and traced rounds run the
same code apart from the spans.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, which every process on
the host shares, so worker spans line up with the parent's timeline.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import resource
import time
from collections import Counter
from multiprocessing.process import BaseProcess
from pathlib import Path

#: Environment variables naming the directory a round's workers report
#: to and the round process itself (spawned workers inherit both).
ROUND_DIR_ENV = "PERFBENCH_ROUND_DIR"
ROUND_PID_ENV = "PERFBENCH_ROUND_PID"
#: ``perf_counter`` at which the parent started a traced worker.
SPAWN_ENV = "PERFBENCH_SPAWNED_AT"

#: Root span of a campaign: supervisor start to journal close.
CAMPAIGN = "campaign"
#: The supervisor's in-process pool leg.  Time on this span with no
#: deeper span active anywhere is pool spawn and idle time.
POOL = "supervisor.pool"


class Tracer:
    """In-memory span store for one process.

    ``spans[i]`` is ``(name, start, end, parent_index)``; a parent index
    of -1 marks a root.  Calls nest (one thread), so the open spans form
    a stack and every span's parent is the innermost open one.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.first_record: float | None = None
        #: Reports of shards run inside this process (serial campaigns).
        self.shard_reports: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(counts, args, result)`` runs after each call and folds
        counts (cycles clocked, ladder hits, wave fates) into
        :attr:`counts`.
        """
        static = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(counts, args, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


class NullTracer:
    """Stand-in for untraced rounds: spans cost one no-op context."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _count_clock(counts, args, cycles) -> None:
    counts["emulator.clock_cycles"] += cycles


def _count_restore(counts, args, start_cycle) -> None:
    counts["emulator.restore_nearest_calls"] += 1
    if start_cycle > 0:
        counts["emulator.ladder_hits"] += 1


def _count_wave(counts, args, fates) -> None:
    counts["bitplane.waves"] += 1
    counts["bitplane.lanes"] += len(fates)
    counts["bitplane.peels"] += sum(1 for fate, _ in fates if fate == "peel")


def _count_call(key: str):
    def observe(counts, args, result) -> None:
        counts[key] += 1
    return observe


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of ``repro`` in this process."""
    from repro.cpu.core import Power6Core
    from repro.emulator.awan import AwanEmulator
    from repro.emulator.bitplane import CompiledSchedule
    from repro.sfi import campaign
    from repro.sfi.storage import CampaignJournal
    from repro.sfi.supervisor import CampaignSupervisor
    from repro.warehouse.store import Warehouse

    wrap = tracer.wrap
    # Module globals the experiment calls by name.
    wrap(campaign, "make_suite", "avp.make_suite")
    wrap(campaign, "compile_netlist", "bitplane.compile")
    wrap(campaign, "classify", "sfi.classify")
    wrap(campaign.SfiExperiment, "__init__", "sfi.prepare")
    wrap(campaign.SfiExperiment, "run_plan", "sfi.run_plan")
    wrap(campaign.SfiExperiment, "run_one", "sfi.run_one")
    wrap(AwanEmulator, "clock", "emulator.clock", _count_clock)
    wrap(AwanEmulator, "restore_nearest", "emulator.restore_nearest",
         _count_restore)
    wrap(AwanEmulator, "inject", "emulator.inject")
    wrap(AwanEmulator, "save_rung", "emulator.save_rung",
         _count_call("emulator.rungs"))
    wrap(AwanEmulator, "reload", "emulator.reload")
    wrap(AwanEmulator, "checkpoint", "emulator.checkpoint")
    wrap(Power6Core, "state_digest", "cpu.state_digest",
         _count_call("cpu.state_digest_calls"))
    wrap(Power6Core, "restore", "cpu.restore")
    wrap(Power6Core, "snapshot", "cpu.snapshot")
    wrap(CompiledSchedule, "resolve_wave", "bitplane.resolve_wave",
         _count_wave)
    wrap(CampaignJournal, "create", "storage.journal_open")
    wrap(CampaignJournal, "append", "storage.journal_append")
    wrap(CampaignJournal, "close", "storage.journal_close")
    wrap(Warehouse, "ingest_journal", "warehouse.ingest")
    _wrap_run_pool(tracer, CampaignSupervisor)
    _wrap_process_start(tracer)


def _wrap_run_pool(tracer: Tracer, supervisor_cls) -> None:
    """Span the pool leg and each record the parent collects.

    ``collect`` is the supervisor's per-record sink (journal append,
    counters, progress); it reaches :meth:`run_pool` as an argument, so
    the wrapper times it there and keeps its ``extra`` sidecar channel.
    """
    original = supervisor_cls.run_pool
    span = tracer.span

    def run_pool(self, items, seed, collect):
        def timed_collect(position, record, fence=None):
            if tracer.first_record is None:
                tracer.first_record = time.perf_counter()
            with span("supervisor.collect"):
                collect(position, record, fence)

        timed_collect.extra = collect.extra
        with span(POOL):
            return original(self, items, seed, timed_collect)

    supervisor_cls.run_pool = run_pool


def _wrap_process_start(tracer: Tracer) -> None:
    """Span ``Process.start`` and hand the worker its start instant.

    A spawned worker inherits the environment as it is when it starts,
    so :func:`traced_shard` can open its ``supervisor.worker_start``
    span at the parent's call.
    """
    original = BaseProcess.start
    span = tracer.span

    def start(self):
        with span("supervisor.spawn"):
            os.environ[SPAWN_ENV] = repr(time.perf_counter())
            return original(self)

    BaseProcess.start = start


# ----------------------------------------------------------------------
# Shard runners (top-level, so the supervisor can pickle them).

#: This process's tracer: the round's own in the round process, one
#: installed on first use in a pool worker.
_TRACER: Tracer | None = None


def activate(tracer: Tracer | None) -> None:
    """Make ``tracer`` the one shards run in this process record into."""
    global _TRACER
    _TRACER = tracer


def _in_round_process() -> bool:
    return os.environ.get(ROUND_PID_ENV) == str(os.getpid())


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _report(payload: dict) -> None:
    path = Path(os.environ[ROUND_DIR_ENV]) / f"worker-{os.getpid()}.json"
    path.write_text(json.dumps({"pid": os.getpid(), **payload}))


def measured_shard(config, items, seed, emit) -> int:
    """Untraced runner: :func:`run_shard`, then report a worker's peak
    RSS (a serial shard runs in the round process, which measures its
    own)."""
    from repro.sfi.supervisor import run_shard
    population = run_shard(config, items, seed, emit)
    if not _in_round_process():
        _report({"rss_kib": _peak_rss_kib()})
    return population


class _InstrumentedEmit:
    """The supervisor's emit, plus the ``metrics`` attribute
    :func:`run_shard` instruments the experiment through."""

    def __init__(self, emit, metrics) -> None:
        self._emit = emit
        self.extra = getattr(emit, "extra", None)
        self.metrics = metrics
        #: Seconds between consecutive records; the wait for the first
        #: one (the worker's prepare) is the supervisor's worker_ready.
        self.gaps: list[float] = []
        self.last: float | None = None

    def __call__(self, position, record) -> None:
        now = time.perf_counter()
        if self.last is not None:
            self.gaps.append(now - self.last)
        self.last = now
        self._emit(position, record)


def traced_shard(config, items, seed, emit) -> int:
    """Traced runner: wrappers installed, experiment instrumented, and
    this process's spans, counts and series reported when it ends."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sfi.supervisor import run_shard
    tracer = _TRACER
    if tracer is None:
        tracer = Tracer()
        install(tracer)
        activate(tracer)
        tracer.spans.append(("supervisor.worker_start",
                             float(os.environ[SPAWN_ENV]),
                             time.perf_counter(), -1))
    registry = MetricsRegistry()
    sink = _InstrumentedEmit(emit, registry)
    with tracer.span("supervisor.shard"):
        population = run_shard(config, items, seed, sink)
    payload = {"registry": registry.snapshot(), "gaps": sink.gaps}
    if _in_round_process():
        tracer.shard_reports.append(payload)
    else:
        payload.update(rss_kib=_peak_rss_kib(), spans=tracer.spans,
                       counts=dict(tracer.counts))
        _report(payload)
    return population


# ----------------------------------------------------------------------
# Analysis.

def self_times(spans: list) -> dict[str, float]:
    """Layer name -> summed self time (duration minus direct children)
    over one process's span tree."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        totals[name] += (end - start) - child[index]
    return dict(totals)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def coverage(processes: list[list], window: tuple[float, float]) -> dict:
    """Share of the campaign window the named layers account for.

    An instant counts as attributed when a span that does work is
    active in some process: any span but the campaign root and the pool
    container, whose own time is the parent waiting on its workers.
    ``pool_idle_s`` is the time on which only the pool span is active;
    ``unattributed_s`` is everything not attributed, that included.
    """
    lo, hi = window
    pooled, work = [], []
    for spans in processes:
        for name, start, end, _parent in spans:
            if name == CAMPAIGN:
                continue
            pooled.append((start, end))
            if name != POOL:
                work.append((start, end))
    wall = hi - lo
    worked = union_length(work, lo, hi)
    return {"coverage": worked / wall if wall > 0 else 0.0,
            "unattributed_s": wall - worked,
            "pool_idle_s": union_length(pooled, lo, hi) - worked}


def write_spans(path: Path, processes: dict[int, list]) -> None:
    """Write every process's spans as gzipped JSON lines
    ``[pid, name, start, end, parent]``."""
    with gzip.open(path, "wt") as handle:
        for pid, spans in processes.items():
            for name, start, end, parent in spans:
                handle.write(json.dumps([pid, name, start, end, parent]))
                handle.write("\n")
