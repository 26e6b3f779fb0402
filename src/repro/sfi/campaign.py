"""SFI campaign orchestration.

A campaign owns a prepared machine (model loaded on the emulation engine,
AVP suite installed, per-testcase checkpoints taken and fault-free
references established) and then performs injections: reload checkpoint,
clock to a random cycle, flip the chosen latch bit, run to quiesce within
the drain window, classify, repeat — the loop of Figure 1.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

from repro.avp.generator import MixWeights
from repro.avp.runner import AvpBaselineError, ReferenceRun
from repro.avp.suite import make_suite
from repro.avp.testcase import AvpTestcase
from repro.cpu.core import CoreSnapshot, Power6Core
from repro.cpu.events import EventKind, EventLog, MachineEvent
from repro.cpu.tainttrace import detection_info, taint_trace
from repro.cpu.touchtrace import trace_touches, untraced
from repro.cpu.params import CoreParams
from repro.cpu.pervasive import R_IDLE
from repro.emulator.awan import AwanEmulator
from repro.emulator.bitplane import (
    BITPLANE_DIGEST_STRIDE,
    BITPLANE_RUNG_STRIDE,
    MAX_WAVE_TRIALS,
    compile_netlist,
    record_schedule,
)
from repro.emulator.host import CommHost
from repro.obs.provenance import MaskingEvent, ProvenanceReport
from repro.rtl.fault import InjectionMode

from repro.sfi.classify import ClassifyOptions, classify
from repro.sfi.outcomes import Outcome
from repro.sfi.results import CampaignResult, InjectionRecord
from repro.sfi.sampling import random_sample


@dataclass(frozen=True)
class InjectionPlan:
    """One scheduled injection of a campaign.

    ``position`` is the injection's index in the campaign-wide site list;
    ``occurrence`` counts earlier injections of the same site (sampling is
    with replacement, so one site can be struck several times — each
    occurrence draws the next value from that site's RNG stream).  A plan
    item is self-contained, so shards can be split, retried and resumed in
    any order while reproducing exactly the injections a serial run makes.
    """

    position: int
    site_index: int
    testcase_index: int
    occurrence: int = 0


def plan_injections(sites: list[int], suite_size: int) -> list[InjectionPlan]:
    """Expand a site list into self-contained per-injection plan items.

    Testcases are assigned by campaign position (cycling through the
    suite, as a serial run always did); the per-site RNG stream is keyed
    by ``(seed, site_index, occurrence)`` at execution time, so the result
    of a plan item is independent of how the plan is sharded.
    """
    if suite_size < 1:
        raise ValueError("suite needs at least one testcase")
    occurrences: Counter[int] = Counter()
    plan: list[InjectionPlan] = []
    for position, site_index in enumerate(sites):
        plan.append(InjectionPlan(
            position=position,
            site_index=site_index,
            testcase_index=position % suite_size,
            occurrence=occurrences[site_index],
        ))
        occurrences[site_index] += 1
    return plan


def partition_plan(items: list, shards: int) -> list[list]:
    """Contiguous, size-balanced split of plan items into at most
    ``shards`` non-empty slices.

    Every lease is cut here (the local pool sizes leases by worker
    count, the distributed coordinator by ``lease_items``), so a lease
    boundary is always a plan-order cut, and every slice stays
    self-contained and order-independent.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    base, extra = divmod(len(items), shards)
    slices, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        slices.append(items[start:start + size])
        start += size
    return [s for s in slices if s]


def injection_rng(seed: int, site_index: int, occurrence: int) -> random.Random:
    """The per-site RNG stream: keyed by the site (and its occurrence
    number for repeat strikes), never by shard index, so campaigns are
    bit-identical for any ``workers`` value."""
    return random.Random(f"sfi:{seed}:{site_index}:{occurrence}")


@dataclass(frozen=True)
class CampaignConfig:
    """Static configuration of an SFI experiment."""

    suite_size: int = 6
    suite_seed: int = 2008
    weights: MixWeights | None = None
    injection_mode: InjectionMode = InjectionMode.TOGGLE
    sticky_cycles: int = 16
    drain_cycles: int = 1500
    poll_interval: int = 200
    checker_mask: int | None = None  # None: all checkers enabled
    mode_overrides: dict = field(default_factory=dict)
    classify_options: ClassifyOptions = ClassifyOptions()
    core_params: CoreParams | None = None
    # Ring bound on the per-injection event log: a hang-heavy injection
    # keeps emitting events until the drain window expires, so campaign
    # cores cap the log (keeping the newest — terminal — events) rather
    # than growing without limit.  None: unbounded.
    trace_max_events: int | None = 512
    # --- Fast path (checkpoint ladder + early exits) ------------------
    # The fast path is classification-equivalent to the slow path (the
    # differential suite asserts bit-identical records); ``fastpath=False``
    # forces the original reload-from-cycle-0, drain-to-quiesce loop.
    fastpath: bool = True
    # Snapshot a ladder rung every ``ckpt_stride`` cycles of the
    # reference run, so ``run_one`` fast-forwards at most one stride of
    # pre-injection cycles instead of re-simulating from cycle 0.
    # None (or 0): no mid-execution rungs, only the cycle-0 checkpoint.
    ckpt_stride: int | None = 64
    # Record a golden state digest every ``digest_stride`` cycles; the
    # post-injection drain compares against it at the same cadence and
    # classifies ``vanished`` the moment the faulty state rejoins the
    # golden trajectory.
    digest_stride: int = 16
    # Ladder memory bound (LRU-evicted rungs across all testcases).
    ladder_max_rungs: int = 256
    # --- Fault provenance (taint propagation DAG per injection) -------
    # When True, every trial runs with the taint tracker installed and
    # produces a provenance payload (propagation DAG, infection
    # footprint, detection latency, masking attribution) alongside its
    # record.  On the fast path a tracked trial still enters from a
    # ladder rung (the tracker is installed after the flip, so it never
    # sees the prefix) but takes only one early exit, the confirmed
    # taint-inert one: the payload is final there.  Records and payloads
    # are identical to ``fastpath=False`` (the provenance differential
    # suite asserts both).
    provenance: bool = False
    # --- Bit-plane backend (64 trials per machine word) ---------------
    # ``backend="bitplane"`` batches same-testcase plan items into waves
    # of up to ``wave_lanes`` trials, classifies every lane against the
    # compiled golden schedule with word-wide plane code, and only peels
    # lanes whose divergence the golden run actually consumes out to the
    # scalar path.  Records are byte-identical to the scalar path (the
    # bit-plane differential suite asserts it).  Requires the fast-path
    # machinery; incompatible with ``provenance`` (the taint tracker
    # must observe every trial's cycles until its taint is inert, and
    # in-plane lanes are never simulated).
    backend: str = "scalar"
    # Trials per wave (clamped to the 63 non-golden lanes of a plane
    # word; plane bit 0 is the golden lane).
    wave_lanes: int = MAX_WAVE_TRIALS
    # Optional bound on the injection-cycle span batched into one wave
    # (None: any same-testcase items share a wave).
    wave_window: int | None = None


@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free execution fingerprint of one testcase (the fast path's
    comparison substrate).

    ``digests`` maps cycle -> :meth:`Power6Core.state_digest` sampled at
    every ``digest_stride`` boundary of the reference run; ``events`` is
    the complete fault-free event sequence (needed to splice the golden
    tail onto an early-exited trace); ``end_cycle`` is where the golden
    run quiesced.  ``usable`` is False when the golden event log dropped
    events (the tail would be incomplete), which disables early exit for
    that testcase while leaving the checkpoint ladder active.

    ``final`` is the complete quiesced machine state (the early-exit
    paths reconstruct the trial's final state from it instead of
    simulating to it), and ``last_touch`` maps ``id(latch)`` to the last
    cycle the fault-free run read or wrote that latch (see
    :mod:`repro.cpu.touchtrace`) — the licence for the frozen and masked
    early exits: a flip confined to a latch the golden run never touches
    again is frozen, so the trial's future is the golden future.
    """

    digests: dict[int, int]
    events: tuple[MachineEvent, ...]
    end_cycle: int
    usable: bool
    final: CoreSnapshot
    last_touch: dict[int, int]


# Injection latency is milliseconds-scale on the software backend.
_INJECTION_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                      0.1, 0.25, 0.5, 1.0, 2.5, float("inf"))

# Simulation cycles avoided per injection (rung skip + early exit).
_CYCLES_SAVED_BUCKETS = (0.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
                         16384.0, float("inf"))

# Cycles from flip to first checker fire / FIR set / recovery start.
_DETECTION_LATENCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                              256.0, 512.0, 1024.0, 4096.0, float("inf"))

# Peak simultaneously tainted storage bits of one injection.
_PEAK_BITS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                      512.0, 1024.0, float("inf"))

# Trial lanes per resolved bit-plane wave (63 = a full plane word).
_WAVE_OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 63.0,
                           float("inf"))


def observe_provenance_metrics(inst, payload: dict) -> None:
    """Fold one provenance payload into the shared metric series.

    ``inst`` is any instrument bundle exposing ``detection_latency``,
    ``infection_peak`` and ``taint_edges`` (the experiment's and the
    supervisor's both do, so serial and sharded campaigns feed one
    dashboard).
    """
    detection = payload.get("detection")
    if detection is not None:
        inst.detection_latency.observe(detection["latency"])
    inst.infection_peak.observe(payload.get("peak_bits", 0))
    nodes = payload.get("nodes", [])
    for src, dst, _cycle, count in payload.get("edges", []):
        inst.taint_edges.inc(count, src_unit=nodes[src]["unit"],
                             dst_unit=nodes[dst]["unit"])


class _ExperimentInstruments:
    """The experiment-level series (shared metric names with the
    supervisor's outcome counters, so either path feeds one dashboard)."""

    def __init__(self, registry) -> None:
        self.injections = registry.counter(
            "sfi_injections_total", "completed injections by outcome",
            ("outcome",))
        self.injection_seconds = registry.histogram(
            "sfi_injection_seconds", "wall time per injection",
            buckets=_INJECTION_BUCKETS)
        self.campaign_seconds = registry.gauge(
            "sfi_campaign_seconds", "wall time of the last campaign run")
        self.prepare_seconds = registry.gauge(
            "sfi_prepare_seconds",
            "model prepare time (checkpoints + references)")
        self.rate = registry.gauge(
            "sfi_injections_per_second", "campaign injection throughput")
        self.ladder_hits = registry.counter(
            "sfi_ladder_hits_total",
            "injections restored from a mid-execution ladder rung")
        self.ladder_misses = registry.counter(
            "sfi_ladder_misses_total",
            "fast-path injections that fell back to the cycle-0 checkpoint")
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
        self.waves = registry.counter(
            "sfi_waves_total",
            "bit-plane waves resolved against a compiled golden schedule")
        self.wave_lanes = registry.counter(
            "sfi_wave_lanes_total", "wave trial lanes by plane fate",
            ("fate",))
        self.wave_peels = registry.counter(
            "sfi_wave_peels_total",
            "wave lanes peeled to the scalar path, by reason", ("reason",))
        self.wave_occupancy = registry.histogram(
            "sfi_wave_occupancy_lanes", "trial lanes per resolved wave",
            buckets=_WAVE_OCCUPANCY_BUCKETS)
        self.digest_collisions = registry.counter(
            "sfi_digest_collisions_total",
            "drain digest hits refused by the exact state check, by exit",
            ("exit",))


# This process's prepared machine, the one slot of Figure 1's "prepare
# once": every SfiExperiment built on the default AwanEmulator takes it
# at the end of a successful __init__ (the CLI's or a service's probe, a
# pool or remote worker's own machine), replacing the previous one.
# Shard runners reuse it for its config (prepared_machine), so a serial
# supervised campaign runs on the probe its caller already prepared.
# Reuse is sound because a prepared machine is frozen: ``checkpoint``
# and ``save_rung`` run only inside ``_prepare``, so the ladder is fixed
# before the first trial, and every trial restores a rung or checkpoint
# before it clocks, so no trial sees what an earlier one left behind.
_PREPARED: SfiExperiment | None = None


def prepared_machine(config: CampaignConfig) -> SfiExperiment:
    """This process's prepared machine for ``config``: the slot's, or a
    new one (which then takes the slot) when the slot holds another
    config."""
    machine = _PREPARED
    if machine is None or machine.config != config:
        machine = SfiExperiment(config)
    return machine


class SfiExperiment:
    """A prepared machine + workload, ready to run injection campaigns.

    Built on the default :class:`AwanEmulator`, a new experiment becomes
    its process's prepared machine for its config
    (:func:`prepared_machine`): a supervised campaign of the same config
    that runs in this process runs on it, with only the sinks of its
    shard (:meth:`sinks`), instead of preparing a second machine.

    Pass ``metrics`` (a :class:`repro.obs.MetricsRegistry`) — or call
    :meth:`instrument` later — to record per-outcome counters, injection
    latency histograms, campaign/prepare timings and sampled core
    profiling (cycles/sec, checker fires, recovery cycles by unit).
    Uninstrumented experiments pay no metric calls on the hot path.
    """

    def __init__(self, config: CampaignConfig | None = None,
                 emulator_cls=AwanEmulator, metrics=None) -> None:
        self.config = config or CampaignConfig()
        self.core = Power6Core(self.config.core_params)
        # Campaign cores bound their event log as a ring: hang outcomes
        # otherwise accumulate events for the whole drain window.
        self.core.event_log = EventLog(
            capacity=None, max_events=self.config.trace_max_events)
        self.emulator = emulator_cls(self.core)
        if hasattr(self.emulator, "max_rungs"):
            self.emulator.max_rungs = self.config.ladder_max_rungs
        # The fast path needs the ladder/digest API; a foreign emulator
        # class without it silently keeps the original slow path.
        self.fastpath = bool(
            self.config.fastpath
            and hasattr(self.emulator, "restore_nearest")
            and hasattr(self.emulator, "save_rung"))
        self.host = CommHost(self.emulator, self.config.poll_interval)
        self.latch_map = self.emulator.latch_map
        # Position of each latch in the core's latch order, to look up a
        # latch's golden-final (value, par) pair in a CoreSnapshot.
        self._latch_index = {id(latch): i
                             for i, latch in enumerate(self.core.all_latches())}
        # --- Bit-plane backend state ----------------------------------
        backend = self.config.backend
        if backend not in ("scalar", "bitplane"):
            raise ValueError(f"unknown backend {backend!r}")
        self.bitplane = backend == "bitplane"
        if self.bitplane and not self.fastpath:
            raise ValueError(
                "bitplane backend requires the fast-path machinery "
                "(fastpath=True and a ladder-capable emulator)")
        if self.bitplane and self.config.provenance:
            raise ValueError(
                "bitplane backend is incompatible with provenance "
                "(the taint tracker must observe every trial cycle)")
        # Per-testcase compiled schedules plus the dense digest trails
        # (full and never-read-set masked) the wave path drains against.
        self.schedules: list = []
        self._bp_lagmap: list[dict[int, int]] = []
        self._bp_masked: list[dict[int, int]] = []
        self._schedule_trace = None
        # Ladder stride of the bit-plane dense rungs, derived in
        # ``_prepare`` to fit ``ladder_max_rungs`` (None: none laid).
        self.dense_rung_stride: int | None = None
        self._latches = self.core.all_latches()
        self.suite: list[AvpTestcase] = make_suite(
            self.config.suite_size, self.config.suite_seed, self.config.weights)
        self.references: list[ReferenceRun] = []
        self.goldens: list[GoldenTrace] = []
        self.metrics = None
        self._instruments = None
        self._profiler = None
        # Per-trial side channels, refreshed by every run_one call: the
        # fast-path extras (exit reason + saved cycles) and the
        # provenance payload of a provenance-enabled trial.  run_plan
        # forwards them through the matching hooks (the supervisor's
        # shard workers journal and merge through these) and folds
        # payloads into ``provenance_report``.
        self.last_fastpath: dict | None = None
        self.last_provenance: dict | None = None
        self.fastpath_hook = None
        self.provenance_hook = None
        self.provenance_report: ProvenanceReport | None = None
        prepare_start = time.perf_counter()
        self._prepare()
        self.prepare_seconds = time.perf_counter() - prepare_start
        if metrics is not None:
            self.instrument(metrics)
        if emulator_cls is AwanEmulator:
            global _PREPARED
            _PREPARED = self

    def instrument(self, registry) -> None:
        """Attach a metrics registry (and a sampled core profiler)."""
        from repro.obs.profile import CoreProfiler
        self.metrics = registry
        self._instruments = _ExperimentInstruments(registry)
        self._instruments.prepare_seconds.set(self.prepare_seconds)
        if self._profiler is not None:
            self._profiler.detach()
        self._profiler = CoreProfiler(self.core, registry)

    @contextmanager
    def sinks(self, metrics=None, fastpath_hook=None, provenance_hook=None):
        """Run the block with exactly these sinks, then restore the
        current ones.

        Inside, the machine feeds ``metrics`` (nothing when None) and
        the two hooks given, and nothing else: a registry, profiler or
        hook its owner attached neither sees the block's trials nor is
        lost, since all of them are back on exit.  Shard runners borrow
        a caller's machine through this (see :func:`prepared_machine`).
        """
        core = self.core
        saved = (self.metrics, self._instruments, self._profiler,
                 self.fastpath_hook, self.provenance_hook,
                 core.profile_hook, core.profile_interval)
        if metrics is not self.metrics:
            self.metrics = self._instruments = self._profiler = None
            core.profile_hook = None
            if metrics is not None:
                self.instrument(metrics)
        self.fastpath_hook = fastpath_hook
        self.provenance_hook = provenance_hook
        try:
            yield self
        finally:
            (self.metrics, self._instruments, self._profiler,
             self.fastpath_hook, self.provenance_hook,
             core.profile_hook, core.profile_interval) = saved

    # ------------------------------------------------------------------

    def _apply_mode_overrides(self) -> None:
        perv = self.core.pervasive
        overrides = dict(self.config.mode_overrides)
        if self.config.checker_mask is not None:
            overrides.setdefault("mode_chk_en", self.config.checker_mask)
        for name, value in overrides.items():
            latch = getattr(perv, name, None)
            if latch is None:
                raise ValueError(f"unknown pervasive mode latch {name!r}")
            latch.write(value)

    def _prepare(self) -> None:
        """Checkpoint each testcase at cycle 0, establish its fault-free
        reference execution, and (on the fast path) build its checkpoint
        ladder and golden digest trail along the way.

        The bit-plane backend compiles each testcase's schedule right
        after its reference run, then — once every golden length is
        known — derives the dense rung stride that fits the ladder bound
        and lays its instrumentation down in a second pass."""
        for index, testcase in enumerate(self.suite):
            self.core.load_program(testcase.program)
            self._apply_mode_overrides()
            self.emulator.checkpoint(self._ckpt_name(index))
            reference = self._reference_run(testcase, index)
            self.references.append(reference)
            if self.bitplane:
                self._compile_schedule(index)
            self.emulator.reload(self._ckpt_name(index))
        if self.bitplane:
            self.dense_rung_stride = self._fit_dense_rung_stride()
            for index in range(len(self.suite)):
                self._bitplane_prepare(index)
                self.emulator.reload(self._ckpt_name(index))

    def _reference_budget(self, testcase: AvpTestcase) -> int:
        return 50 * testcase.instructions_retired + 10_000

    def _reference_run(self, testcase: AvpTestcase,
                       index: int) -> ReferenceRun:
        budget = self._reference_budget(testcase)
        core = self.core
        if self.fastpath:
            self._instrumented_reference(index, budget)
        else:
            self.host.run_until_quiesce(budget)
        if not core.halted:
            raise AvpBaselineError(
                f"testcase seed={testcase.seed} did not halt fault-free")
        if not core.error_free():
            raise AvpBaselineError(
                f"testcase seed={testcase.seed}: checker fired fault-free")
        if core.memory.nonzero_words() != testcase.golden_memory:
            raise AvpBaselineError(
                f"testcase seed={testcase.seed}: fault-free memory mismatch")
        return ReferenceRun(testcase=testcase, cycles=core.cycles,
                            committed=core.committed)

    def _instrumented_reference(self, index: int, budget: int) -> None:
        """Golden run with ladder rungs and digest samples.

        Clocks in chunks that stop at every ``ckpt_stride`` and
        ``digest_stride`` boundary (never exceeding ``poll_interval``,
        the host's normal batching), snapshotting a rung / recording a
        digest at each; the machine trajectory is identical to one long
        :meth:`CommHost.run_until_quiesce` because chunking cannot change
        cycle-by-cycle evolution.  The whole run is latch-touch traced
        (rung/digest snapshots excepted — they are observational), which
        licences the masked early exit.
        """
        config = self.config
        core = self.core
        emulator = self.emulator
        ckpt_stride = config.ckpt_stride or 0
        digest_stride = max(1, config.digest_stride)
        digests: dict[int, int] = {}
        remaining = budget
        tracer = (record_schedule(core) if self.bitplane
                  else trace_touches(core))
        with tracer as trace:
            while remaining > 0 and not core.quiesced:
                cycle = core.cycles
                target = cycle + min(config.poll_interval, remaining,
                                     digest_stride - cycle % digest_stride)
                if ckpt_stride:
                    target = min(target,
                                 cycle + ckpt_stride - cycle % ckpt_stride)
                chunk = target - cycle
                run = emulator.clock(chunk)
                remaining -= run
                if run < chunk or core.quiesced:
                    break
                with untraced():
                    if ckpt_stride and core.cycles % ckpt_stride == 0:
                        emulator.save_rung(self._ckpt_name(index))
                    if core.cycles % digest_stride == 0:
                        digests[core.cycles] = core.state_digest()
            with untraced():
                final = core.snapshot()
        self.goldens.append(GoldenTrace(
            digests=digests,
            events=tuple(core.event_log),
            end_cycle=core.cycles,
            usable=core.event_log.dropped == 0,
            final=final,
            last_touch=dict(trace.last_touch),
        ))
        if self.bitplane:
            self._schedule_trace = trace

    @staticmethod
    def _ckpt_name(index: int) -> str:
        return f"tc{index}"

    # ------------------------------------------------------------------

    def run_one(self, site_index: int, testcase_index: int,
                inject_cycle: int,
                provenance: bool | None = None) -> InjectionRecord:
        """Perform a single injection and classify its outcome.

        On the fast path an untracked TOGGLE flip into a latch golden
        never touches after ``inject_cycle`` is not simulated at all
        (the ``frozen`` exit, :meth:`_golden_record`).  Any other trial
        restores the nearest ladder rung at or below ``inject_cycle``
        (instead of re-simulating from cycle 0) and ends the drain at
        the first confirmed golden-digest match (instead of draining to
        quiesce).  All of these are equivalence-preserving, so the
        returned record is bit-identical to the slow path's — the
        differential suite (``pytest -m differential``) enforces this.

        ``provenance`` (default: the config flag) runs the trial with
        the taint tracker installed after the flip and leaves the
        payload in ``last_provenance``.  A tracked trial enters from a
        rung too, but its only early exit is the confirmed taint-inert
        one (:meth:`_taint_inert`), where the payload is already final;
        record and payload equal the slow path's, and it leaves no
        fast-path extras for the journal.
        """
        config = self.config
        emulator = self.emulator
        core = self.core
        reference = self.references[testcase_index]
        inst = self._instruments
        track = config.provenance if provenance is None else provenance
        fast = self.fastpath
        if (fast and not track
                and config.injection_mode is InjectionMode.TOGGLE):
            golden = self.goldens[testcase_index]
            latch = self.latch_map.site(site_index).latch
            if golden.usable \
                    and golden.last_touch.get(id(latch), -1) <= inject_cycle:
                # Frozen flip: the touch trace stamps each access with
                # the cycle it happens in (``Core.cycle`` increments
                # ``cycles`` first), so golden never reads or writes the
                # latch after the flip.  The trial is golden plus the
                # flip from here on by construction; nothing to simulate.
                return self._golden_record(site_index, testcase_index,
                                           inject_cycle, "frozen")
        if fast:
            start_cycle = emulator.restore_nearest(
                self._ckpt_name(testcase_index), inject_cycle)
        else:
            emulator.reload(self._ckpt_name(testcase_index))
            start_cycle = core.cycles
        if inject_cycle > start_cycle:
            emulator.clock(inject_cycle - start_cycle)
        site = emulator.inject(site_index, config.injection_mode,
                               config.sticky_cycles)
        budget = (reference.cycles - inject_cycle) + config.drain_cycles
        golden = self.goldens[testcase_index] if fast else None
        exit_info = None
        # Install after the flip (the injection write itself is the DAG
        # root, not an edge) and uninstall before classification
        # (golden-comparison reads are observational).
        with (taint_trace(core, site.latch) if track
              else nullcontext()) as tracker:
            if golden is not None and golden.usable:
                exit_info = self._drain_with_digests(
                    testcase_index, budget, site, tracker)
            else:
                self.host.run_until_quiesce(budget)
        tracker_payload = tracker.payload() if tracker is not None else None
        cycles_saved = start_cycle
        exit_kind = None
        if exit_info is not None:
            # The trial's remaining evolution is the golden tail: its
            # state equals golden's outside the held latches, which the
            # golden run never touches again.  So reconstruct the final
            # state instead of simulating to it: restore the golden-final
            # snapshot, splice the golden events after the exit cycle
            # through the ring (so the trace and its truncation match a
            # full drain), and re-apply the held latches' trial values.
            exit_kind, held = exit_info
            cut = core.cycles
            cycles_saved += golden.end_cycle - cut
            frozen = [(latch, latch.value, latch.par) for latch in held]
            events = core.event_log.snapshot()
            core.restore(golden.final)
            core.event_log.restore(events)
            core.event_log.replay(
                event for event in golden.events if event.cycle > cut)
            for latch, value, par in frozen:
                latch.value, latch.par = value, par
        outcome = classify(core, reference.testcase,
                           config.classify_options)
        if inst is not None and fast:
            if start_cycle > 0:
                inst.ladder_hits.inc()
            else:
                inst.ladder_misses.inc()
            if exit_kind is not None:
                inst.early_exits.inc(reason=exit_kind)
            inst.cycles_saved.observe(cycles_saved)
        self.last_fastpath = None
        if fast and not track:
            extras = {"saved_cycles": cycles_saved}
            if exit_kind is not None:
                extras["exit"] = exit_kind
            self.last_fastpath = extras
        self.last_provenance = None
        if tracker_payload is not None:
            tracker_payload.update(
                site=site.name,
                unit=self.latch_map.unit_of(site_index),
                inject_cycle=inject_cycle,
                testcase_seed=reference.testcase.seed,
                outcome=outcome.value,
                detection=detection_info(core.event_log.events,
                                         inject_cycle),
            )
            if (outcome in (Outcome.VANISHED, Outcome.CORRECTED)
                    and tracker_payload["residual_tainted"]):
                # Benign outcome with live taint at quiesce: the infected
                # state was never consumed.
                counts = tracker_payload["masking_counts"]
                counts[MaskingEvent.ARCHITECTURALLY_DEAD.value] = \
                    tracker_payload["residual_tainted"]
            self.last_provenance = tracker_payload
        return InjectionRecord(
            site_index=site_index,
            site_name=site.name,
            unit=self.latch_map.unit_of(site_index),
            kind=site.latch.kind,
            ring=site.latch.ring,
            testcase_seed=reference.testcase.seed,
            inject_cycle=inject_cycle,
            outcome=outcome,
            trace=tuple(core.event_log),
        )

    def _drain_with_digests(self, tc_index: int, budget: int, site,
                            tracker=None) -> tuple[str, list] | None:
        """Post-injection drain with golden-digest early-exit checks.

        Clocks exactly the cycles the slow path would (same quiesce and
        budget stops), additionally pausing at every ``digest_stride``
        boundary before the golden end to compare state digests.
        Returns ``(exit kind, held latches)`` on a confirmed match:

        * ``"golden"``: the faulty state has fully rejoined the golden
          trajectory (nothing held);
        * ``"masked"``: it matches everywhere *except* the injected
          latch, and the golden run never touches that latch again, so
          the flip is frozen and inert (the injected latch is held);
        * ``"tracked"``, the only exit of a trial run under ``tracker``:
          the taint is provably inert (:meth:`_taint_inert`; every
          tainted latch is held).

        A digest match is only a 64-bit hash match, so every hit is
        confirmed exactly (:meth:`_confirm_hit`) first; a collision is
        counted and the drain goes on.  The caller re-applies the held
        latches' trial values to the golden final state.  None means the
        drain completed (quiesce or exhausted budget) and the caller
        classifies normally.
        """
        config = self.config
        core = self.core
        emulator = self.emulator
        golden = self.goldens[tc_index]
        stride = max(1, config.digest_stride)
        digests = golden.digests
        end = golden.end_cycle
        latch = site.latch
        # A latch absent from the trace was never touched at all — the
        # most eligible case for the masked exit.
        last_touch = golden.last_touch.get(id(latch), -1)
        latch_index = self._latch_index[id(latch)]
        frozen = golden.final.latches[latch_index]
        remaining = budget
        while remaining > 0:
            cycle = core.cycles
            chunk = min(config.poll_interval, remaining)
            if cycle < end:
                chunk = min(chunk, stride - cycle % stride)
            run = emulator.clock(chunk)
            remaining -= run
            if run < chunk or core.quiesced:
                return None
            cycle = core.cycles
            if cycle < end and cycle % stride == 0 \
                    and not emulator.sticky_pending:
                digest = digests.get(cycle)
                if digest is None:
                    continue
                if tracker is not None:
                    inert = self._taint_inert(tc_index, cycle, digest,
                                              tracker)
                    if inert is not None:
                        tracker.settle_inert(cycle)
                        return ("tracked", inert)
                    continue
                if digest == core.state_digest() and self._confirm_hit(
                        tc_index, "golden", cycle):
                    return ("golden", [])
                if last_touch <= cycle:
                    # Golden never reads or writes the injected latch
                    # after this cycle, so its golden value here equals
                    # its golden-final value; compare with the latch
                    # masked to it.
                    held = (latch.value, latch.par)
                    latch.value, latch.par = frozen
                    masked = core.state_digest()
                    latch.value, latch.par = held
                    if masked == digest and self._confirm_hit(
                            tc_index, "masked", cycle,
                            held=[(latch_index, frozen)]):
                        return ("masked", [latch])
        return None

    def _taint_inert(self, tc_index: int, cycle: int, digest: int,
                     tracker) -> list | None:
        """The tainted latches, when a tracked trial's taint is provably
        inert at ``cycle``; otherwise None.

        The taint is inert when every tainted node is a latch the golden
        run never reads or writes after ``cycle`` (``last_touch``; array
        and memory words never qualify) and the trial equals golden at
        ``cycle`` with those latches held at their golden-final values
        (golden's values there, since it never touches them again):
        first by digest, then exactly (:meth:`_confirm_hit`).  The trial
        then replays golden with the held latches frozen, so nothing
        tainted is read or written again and the tracker's payload is
        final.  Probe and confirmation run with the tracker suspended:
        their reads, writes and rung replay are not value flow.
        """
        keys = tracker.tainted_latches()
        if keys is None:
            return None
        golden = self.goldens[tc_index]
        held = []
        for key in keys:
            if golden.last_touch.get(key, -1) > cycle:
                return None
            index = self._latch_index[key]
            held.append((index, golden.final.latches[index]))
        latches = self._latches
        with tracker.suspended():
            trial = [(latches[index].value, latches[index].par)
                     for index, _ in held]
            for index, (value, par) in held:
                latches[index].value, latches[index].par = value, par
            probe = self.core.state_digest()
            for (index, _), (value, par) in zip(held, trial):
                latches[index].value, latches[index].par = value, par
            if probe != digest or not self._confirm_hit(
                    tc_index, "tracked", cycle, held=held):
                return None
        return [latches[index] for index, _ in held]

    # ------------------------------------------------------------------
    # Bit-plane backend (waves of up to 63 trials per plane word).

    def _compile_schedule(self, index: int) -> None:
        """Compile the schedule the reference run just recorded (the core
        still holds that run's quiesced state)."""
        config = self.config
        testcase = self.suite[index]
        trace = self._schedule_trace
        self._schedule_trace = None
        cache_key = ("schedule", repr(config.core_params),
                     repr(config.weights), testcase.seed,
                     config.checker_mask,
                     tuple(sorted(config.mode_overrides.items())))
        self.schedules.append(
            compile_netlist(self.core, trace, cache_key=cache_key))

    def _fit_dense_rung_stride(self) -> int | None:
        """The smallest stride >= ``BITPLANE_RUNG_STRIDE`` at which every
        testcase's dense rungs, together with the ``ckpt_stride`` rungs
        its reference run already laid, fit the ladder bound — so the
        LRU evicts none of them before the campaign can use them.

        The dense pass saves a rung at every multiple of the stride up to
        and including the golden end cycle; a multiple that already holds
        a rung replaces it rather than adding one.  None when not even
        one dense rung per testcase fits.
        """
        emulator = self.emulator
        laid = [emulator.rung_cycles(self._ckpt_name(index))
                for index in range(len(self.suite))]
        ends = [golden.end_cycle for golden in self.goldens]
        budget = emulator.max_rungs
        for stride in range(BITPLANE_RUNG_STRIDE, max(ends) + 1):
            held = sum(end // stride
                       + sum(1 for cycle in cycles if cycle % stride)
                       for cycles, end in zip(laid, ends))
            if held <= budget:
                return stride
        return None

    def _bitplane_prepare(self, index: int) -> None:
        """Lay down the bit-plane side's dense instrumentation in a
        second, untraced golden run.

        The re-run replays the exact reference trajectory (chunk
        boundaries cannot change cycle-by-cycle evolution — asserted
        against the golden-final snapshot) and samples what the traced
        run could not know yet: the *lag map* — every cycle's set-masked
        lag-free digest mapped to its first occurrence, letting a trial
        delayed by recovery rejoin the golden tail at an earlier golden
        cycle — the set-masked digest trail for the frozen-flip check
        (the never-read mask set only exists once the schedule is
        compiled), and ladder rungs every ``dense_rung_stride`` cycles so
        a peeled lane enters close to its first-read cycle.
        """
        core = self.core
        emulator = self.emulator
        golden = self.goldens[index]
        testcase = self.suite[index]
        mask = self.schedules[index].mask_indices
        lagmap: dict[int, int] = {}
        masked: dict[int, int] = {}
        emulator.reload(self._ckpt_name(index))
        end = golden.end_cycle
        stride = BITPLANE_DIGEST_STRIDE
        rung_stride = self.dense_rung_stride
        # First occurrence wins: if two golden cycles digest identically
        # outside the mask set, their futures mirror (the digest covers
        # everything that drives evolution), so rejoining through the
        # earlier one reconstructs the same final state and event tail.
        lagmap.setdefault(
            core.state_digest(exclude=mask, include_cycle=False),
            core.cycles)
        while core.cycles < end and not core.quiesced:
            if emulator.clock(1) < 1:
                break
            cycle = core.cycles
            if rung_stride is not None and cycle % rung_stride == 0:
                emulator.save_rung(self._ckpt_name(index))
            if cycle < end:
                lagmap.setdefault(
                    core.state_digest(exclude=mask, include_cycle=False),
                    cycle)
                if cycle % stride == 0:
                    masked[cycle] = core.state_digest(exclude=mask)
        if core.snapshot() != golden.final:
            raise AvpBaselineError(
                f"testcase seed={testcase.seed}: bit-plane golden re-run "
                "diverged from the reference trajectory")
        self._bp_lagmap.append(lagmap)
        self._bp_masked.append(masked)

    def _run_waves(self, scheduled, records, record_hook) -> None:
        """Batch scheduled plan items into waves and execute them.

        Items group by testcase (one compiled schedule per wave), sort
        by (inject cycle, position) and chunk into ``wave_lanes``-sized
        waves (optionally bounded to a ``wave_window`` cycle span).
        Every item is self-contained, so batching cannot change any
        record; results are keyed by plan position exactly like the
        scalar loop's.
        """
        config = self.config
        by_testcase: dict[int, list] = {}
        for item, inject_cycle in scheduled:
            by_testcase.setdefault(item.testcase_index, []).append(
                (item, inject_cycle))
        lanes_cap = max(1, min(config.wave_lanes, MAX_WAVE_TRIALS))
        window = config.wave_window
        for tc_index in sorted(by_testcase):
            lanes = sorted(by_testcase[tc_index],
                           key=lambda pair: (pair[1], pair[0].position))
            wave: list = []
            for pair in lanes:
                if wave and (len(wave) >= lanes_cap
                             or (window is not None
                                 and pair[1] - wave[0][1] > window)):
                    self._run_wave(tc_index, wave, records, record_hook)
                    wave = []
                wave.append(pair)
            if wave:
                self._run_wave(tc_index, wave, records, record_hook)

    def _run_wave(self, tc_index: int, wave, records, record_hook) -> None:
        """Resolve one wave in-plane and execute its lanes.

        In-plane fates (converge/survive) reconstruct their records
        host-side at zero simulation cost; peeled lanes fall to the
        scalar path (:meth:`_run_peeled`, or plain :meth:`run_one` when
        the wave could not be resolved in-plane at all — non-TOGGLE
        modes and goldens with truncated event logs).
        """
        config = self.config
        inst = self._instruments
        golden = self.goldens[tc_index]
        schedule = self.schedules[tc_index]
        in_plane = (config.injection_mode is InjectionMode.TOGGLE
                    and golden.usable)
        if in_plane:
            descriptors = []
            for item, inject_cycle in wave:
                site = self.latch_map.site(item.site_index)
                descriptors.append(
                    (self._latch_index[id(site.latch)], site.bit,
                     site.is_parity_bit, inject_cycle))
            fates = schedule.resolve_wave(descriptors)
        else:
            fates = [("peel", None)] * len(wave)
        if inst is not None:
            inst.waves.inc()
            inst.wave_occupancy.observe(float(len(wave)))
        for (item, inject_cycle), (fate, read_cycle) in zip(wave, fates):
            start = time.perf_counter() if inst is not None else 0.0
            if fate == "peel":
                if not in_plane:
                    reason = ("mode" if config.injection_mode
                              is not InjectionMode.TOGGLE else "no-golden")
                    record = self.run_one(item.site_index, tc_index,
                                          inject_cycle)
                else:
                    reason = "consumed"
                    record = self._run_peeled(item.site_index, tc_index,
                                              inject_cycle, read_cycle)
                if inst is not None:
                    inst.wave_peels.inc(reason=reason)
            else:
                record = self._wave_record(item.site_index, tc_index,
                                           inject_cycle, fate, schedule)
            if inst is not None:
                inst.injection_seconds.observe(time.perf_counter() - start)
                inst.injections.inc(outcome=record.outcome.value)
                inst.wave_lanes.inc(fate=fate)
            if self.last_fastpath is not None \
                    and self.fastpath_hook is not None:
                self.fastpath_hook(item.position, self.last_fastpath)
            records[item.position] = record
            if record_hook is not None:
                record_hook(item.position, record)

    def _wave_record(self, site_index: int, tc_index: int,
                     inject_cycle: int, fate: str,
                     schedule) -> InjectionRecord:
        """Reconstruct an in-plane lane's record without simulating.

        A converged lane's final state *is* the golden final state (the
        golden run overwrote the flipped bit before ever reading it), so
        its INJECTION event carries the flipped level the schedule gives
        at the inject cycle; a surviving lane's bit is never read or
        written again, so it is a frozen flip (:meth:`_golden_record`).
        """
        level = None
        if fate == "converge":
            site = self.latch_map.site(site_index)
            index = self._latch_index[id(site.latch)]
            level = 1 ^ schedule.level_at(index, site.bit, site.is_parity_bit,
                                          schedule.boundary(inject_cycle))
        return self._golden_record(site_index, tc_index, inject_cycle,
                                   f"wave-{fate}", level)

    def _golden_record(self, site_index: int, tc_index: int,
                       inject_cycle: int, exit_kind: str,
                       level: int | None = None) -> InjectionRecord:
        """The record of a TOGGLE trial that is never simulated.

        Its event sequence is the golden sequence with the INJECTION
        event spliced in at the inject cycle, replayed through the ring
        so truncation matches a real drain.  Its final state is the
        golden final state.  With ``level`` None the flip is frozen:
        golden never reads or writes the bit after the inject cycle, so
        the bit's golden-final level is its level at the flip, and the
        flip is applied to the final state.  Otherwise golden overwrote
        the bit before reading it, and ``level`` is the level the flip
        set.
        """
        config = self.config
        core = self.core
        golden = self.goldens[tc_index]
        reference = self.references[tc_index]
        site = self.latch_map.site(site_index)
        core.restore(golden.final)
        if level is None:
            level = site.inject()
        log = core.event_log
        log.clear()
        log.replay(event for event in golden.events
                   if event.cycle <= inject_cycle)
        log.record(inject_cycle, EventKind.INJECTION,
                   f"{site.name} -> {level} "
                   f"({config.injection_mode.value})")
        log.replay(event for event in golden.events
                   if event.cycle > inject_cycle)
        outcome = classify(core, reference.testcase,
                           config.classify_options)
        if self._instruments is not None:
            self._instruments.early_exits.inc(reason=exit_kind)
            self._instruments.cycles_saved.observe(float(golden.end_cycle))
        self.last_fastpath = {"saved_cycles": golden.end_cycle,
                              "exit": exit_kind}
        self.last_provenance = None
        return InjectionRecord(
            site_index=site_index,
            site_name=site.name,
            unit=self.latch_map.unit_of(site_index),
            kind=site.latch.kind,
            ring=site.latch.ring,
            testcase_seed=reference.testcase.seed,
            inject_cycle=inject_cycle,
            outcome=outcome,
            trace=tuple(core.event_log),
        )

    def _run_peeled(self, site_index: int, tc_index: int, inject_cycle: int,
                    read_cycle: int) -> InjectionRecord:
        """Scalar execution of a peeled wave lane.

        Until the golden run first *reads* the diverged bit (at
        ``read_cycle``) the trial is bit-identical to golden everywhere
        else, so enter at the densest ladder rung at or below
        ``read_cycle - 1``: re-apply the flip in place, rebuild the
        event prefix the trial would carry (golden prefix + INJECTION
        splice), and drain against the dense bit-plane digest trail.
        """
        config = self.config
        emulator = self.emulator
        core = self.core
        reference = self.references[tc_index]
        golden = self.goldens[tc_index]
        inst = self._instruments
        name = self._ckpt_name(tc_index)
        entry_target = inject_cycle
        if read_cycle is not None:
            entry_target = max(inject_cycle, read_cycle - 1)
        start_cycle = emulator.restore_nearest(name, entry_target)
        skipped = 0
        if start_cycle <= inject_cycle:
            if inject_cycle > start_cycle:
                emulator.clock(inject_cycle - start_cycle)
            site = emulator.inject(site_index, config.injection_mode,
                                   config.sticky_cycles)
        else:
            # Entered from a golden rung *after* the injection point:
            # no golden event touches the bit in (inject, entry], so the
            # trial state there is the golden state plus the flip.
            site = self.latch_map.site(site_index)
            level = site.inject()
            emulator.stats.injections += 1
            log = core.event_log
            log.clear()
            log.replay(event for event in golden.events
                       if event.cycle <= inject_cycle)
            log.record(inject_cycle, EventKind.INJECTION,
                       f"{site.name} -> {level} "
                       f"({config.injection_mode.value})")
            log.replay(event for event in golden.events
                       if inject_cycle < event.cycle <= start_cycle)
            skipped = start_cycle - inject_cycle
        budget = ((reference.cycles - inject_cycle) + config.drain_cycles
                  - skipped)
        exit_info = self._drain_bitplane(tc_index, budget, site)
        cycles_saved = start_cycle
        exit_kind = None
        if exit_info is not None:
            exit_kind, cut = exit_info
            schedule = self.schedules[tc_index]
            # ``cut`` is the *golden* cycle the trial rejoined at; the
            # trial itself sits ``delta`` cycles later (recovery stalls
            # it, then it replays the golden trajectory shifted in
            # time).  The remaining trial evolution is the golden tail
            # after ``cut`` with every cycle stamp shifted by ``delta``.
            delta = core.cycles - cut
            cycles_saved += golden.end_cycle - cut
            frozen = (site.latch.value, site.latch.par)
            mask_state = [(i, self._latches[i].value, self._latches[i].par)
                          for i in schedule.mask_indices]
            events = core.event_log.snapshot()
            core.restore(golden.final)
            core.cycles += delta
            core.event_log.restore(events)
            tail = (event for event in golden.events if event.cycle > cut)
            if delta:
                tail = (MachineEvent(event.cycle + delta, event.kind,
                                     event.detail) for event in tail)
            core.event_log.replay(tail)
            # Mask-set latches are never read, so the trial's writes to
            # them mirror golden's (time-shifted): a whole-write after
            # the cut lands the golden final value (already restored);
            # otherwise the trial value at the cut persists, with golden
            # bit-writes after the cut merged over it.
            for i, value, par in mask_state:
                latch = self._latches[i]
                final_value, _final_par = golden.final.latches[i]
                if not schedule.whole_write_after(i, cut):
                    bits = schedule.bits_written_after(i, cut)
                    latch.value = (value & ~bits) | (final_value & bits)
                if not schedule.whole_write_after(i, cut, is_parity=True):
                    latch.par = par
            if exit_kind == "masked":
                site.latch.value, site.latch.par = frozen
        outcome = classify(core, reference.testcase,
                           config.classify_options)
        if inst is not None:
            if start_cycle > 0:
                inst.ladder_hits.inc()
            else:
                inst.ladder_misses.inc()
            if exit_kind is not None:
                inst.early_exits.inc(reason=exit_kind)
            inst.cycles_saved.observe(float(cycles_saved))
        extras = {"saved_cycles": cycles_saved}
        if exit_kind is not None:
            extras["exit"] = exit_kind
        self.last_fastpath = extras
        self.last_provenance = None
        return InjectionRecord(
            site_index=site_index,
            site_name=site.name,
            unit=self.latch_map.unit_of(site_index),
            kind=site.latch.kind,
            ring=site.latch.ring,
            testcase_seed=reference.testcase.seed,
            inject_cycle=inject_cycle,
            outcome=outcome,
            trace=tuple(core.event_log),
        )

    def _drain_bitplane(self, tc_index: int, budget: int,
                        site) -> tuple[str, int] | None:
        """Peeled-lane drain against the bit-plane lag map.

        Every drained cycle, the trial's set-masked *lag-free* digest
        (cycle counter excluded, never-read mask set excluded — neither
        can influence future golden-mirroring evolution) is looked up in
        the golden lag map.  A hit at golden cycle ``u`` means the trial
        is the golden machine at ``u``, possibly delayed: recovery
        stalls the pipeline for a handful of cycles, after which the
        trial replays the golden trajectory shifted in time, which a
        same-cycle compare can never see.  Returns ``("rejoin", u)``.

        A second, stride-cadence check handles the flip that golden
        never reads again (``("masked", cycle)``): the diverged latch is
        inert, so compare with it temporarily held at its golden-final
        value.  Checks are skipped while a sticky fault still re-arms
        (the flip keeps returning) and while the recovery sequencer is
        active (golden never leaves ``R_IDLE``, so no digest can match).

        A digest match is only a 64-bit hash match, so every hit is
        confirmed exactly (:meth:`_confirm_hit`) before the caller
        reconstructs from it; a collision is counted and the drain goes
        on.
        """
        core = self.core
        emulator = self.emulator
        golden = self.goldens[tc_index]
        schedule = self.schedules[tc_index]
        lagmap = self._bp_lagmap[tc_index]
        masked_trail = self._bp_masked[tc_index]
        mask = schedule.mask_indices
        stride = BITPLANE_DIGEST_STRIDE
        end = golden.end_cycle
        latch = site.latch
        latch_index = self._latch_index[id(latch)]
        in_mask = latch_index in mask
        last_touch = golden.last_touch.get(id(latch), -1)
        frozen = golden.final.latches[latch_index]
        rstate = core.pervasive.rstate
        remaining = budget
        while remaining > 0:
            run = emulator.clock(1)
            remaining -= run
            if run < 1 or core.quiesced:
                return None
            if emulator.sticky_pending or rstate.value != R_IDLE:
                continue
            rejoin = lagmap.get(
                core.state_digest(exclude=mask, include_cycle=False))
            if rejoin is not None and self._confirm_hit(
                    tc_index, "rejoin", rejoin, mask):
                return ("rejoin", rejoin)
            cycle = core.cycles
            if (not in_mask and cycle < end and cycle % stride == 0
                    and last_touch <= cycle):
                reference_masked = masked_trail.get(cycle)
                if reference_masked is None:
                    continue
                held = (latch.value, latch.par)
                latch.value, latch.par = frozen
                masked_digest = core.state_digest(exclude=mask)
                latch.value, latch.par = held
                if masked_digest == reference_masked and self._confirm_hit(
                        tc_index, "masked", cycle, mask,
                        held=[(latch_index, frozen)]):
                    return ("masked", cycle)
        return None

    def _confirm_hit(self, tc_index: int, exit_kind: str, golden_cycle: int,
                     mask: frozenset | None = None, held=()) -> bool:
        """Check a drain's digest hit exactly against the golden state.

        Snapshots the trial, rebuilds the golden machine at
        ``golden_cycle`` (nearest rung at or below it, then clocked the
        rest of the way), compares everything the digest covers outside
        ``mask`` — the cycle counter for every hit but a lag-free
        ``rejoin``, and with each ``held`` ``(latch index, (value,
        par))`` override applied to the trial side — and restores the
        trial.  A mismatch is a digest collision: counted in
        ``sfi_digest_collisions_total{exit}``, and the hit is refused.
        """
        core = self.core
        emulator = self.emulator
        trial = core.snapshot()
        expected = trial
        if held:
            latches = list(trial.latches)
            for index, pair in held:
                latches[index] = pair
            expected = replace(trial, latches=latches)
        start = emulator.restore_nearest(self._ckpt_name(tc_index),
                                         golden_cycle)
        emulator.clock(golden_cycle - start)
        same = core.same_state(expected, exclude=mask,
                               include_cycle=exit_kind != "rejoin")
        core.restore(trial)
        if not same and self._instruments is not None:
            self._instruments.digest_collisions.inc(exit=exit_kind)
        return same

    def run_plan(self, plan: list[InjectionPlan], seed: int = 0,
                 record_hook=None) -> CampaignResult:
        """Execute plan items (in the given order).

        Each item's inject cycle comes from its own RNG stream (see
        :func:`injection_rng`), so executing a sub-slice of a plan — a
        shard, a retry, the tail of a resumed campaign — yields the same
        records a full serial run would.  ``record_hook(position, record)``
        is called after every completed injection (the supervisor journals
        through it).
        """
        result = CampaignResult(population_bits=len(self.latch_map))
        inst = self._instruments
        campaign_start = time.perf_counter()
        scheduled = [(item,
                      injection_rng(seed, item.site_index, item.occurrence)
                      .randrange(0, self.references[item.testcase_index]
                                 .cycles))
                     for item in plan]
        order = scheduled
        if self.fastpath:
            # Visit injections testcase-by-testcase in cycle order so
            # ladder rungs stay warm (monotone cycles touch each rung
            # once); every item is self-contained, so execution order
            # cannot change any record, and results/hook positions are
            # still reported against the caller's plan.
            order = sorted(scheduled, key=lambda pair: (
                pair[0].testcase_index, pair[1], pair[0].position))
        report = ProvenanceReport() if self.config.provenance else None
        records: dict[int, InjectionRecord] = {}
        if self.bitplane:
            self._run_waves(scheduled, records, record_hook)
            order = ()  # every record produced by the wave path
        for item, inject_cycle in order:
            start = time.perf_counter() if inst is not None else 0.0
            record = self.run_one(item.site_index, item.testcase_index,
                                  inject_cycle)
            if inst is not None:
                inst.injection_seconds.observe(time.perf_counter() - start)
                inst.injections.inc(outcome=record.outcome.value)
            if self.last_fastpath is not None \
                    and self.fastpath_hook is not None:
                self.fastpath_hook(item.position, self.last_fastpath)
            payload = self.last_provenance
            if payload is not None:
                if report is not None:
                    report.absorb(payload)
                if inst is not None:
                    observe_provenance_metrics(inst, payload)
                if self.provenance_hook is not None:
                    self.provenance_hook(item.position, payload)
            records[item.position] = record
            if record_hook is not None:
                record_hook(item.position, record)
        for item, _ in scheduled:
            result.add(records[item.position])
        if report is not None:
            self.provenance_report = report
        if inst is not None:
            elapsed = time.perf_counter() - campaign_start
            inst.campaign_seconds.set(elapsed)
            if elapsed > 0 and result.total:
                inst.rate.set(result.total / elapsed)
            if self._profiler is not None:
                self._profiler.sample()
        return result

    def run_campaign(self, sites: list[int], seed: int = 0,
                     record_hook=None) -> CampaignResult:
        """Inject every site in ``sites`` (one injection each), cycling
        through the testcase suite, at per-injection random cycles."""
        plan = plan_injections(sites, len(self.suite))
        return self.run_plan(plan, seed=seed, record_hook=record_hook)

    def run_random_campaign(self, count: int, seed: int = 0) -> CampaignResult:
        """Whole-core uniform random campaign of ``count`` flips."""
        rng = random.Random(seed ^ 0x5F1)
        sites = random_sample(self.latch_map, count, rng)
        return self.run_campaign(sites, seed)
