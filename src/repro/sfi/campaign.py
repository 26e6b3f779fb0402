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
from dataclasses import dataclass, field

from repro.avp.generator import MixWeights
from repro.avp.runner import AvpBaselineError, ReferenceRun
from repro.avp.suite import make_suite
from repro.avp.testcase import AvpTestcase
from repro.cpu.access import TouchTrace, suspended, trace
from repro.cpu.core import CoreSnapshot, Power6Core
from repro.cpu.events import EventKind, EventLog, MachineEvent
from repro.cpu.tainttrace import TaintTracker, detection_info, taint_trace
from repro.cpu.params import CoreParams
from repro.emulator.awan import AwanEmulator
from repro.emulator.bitplane import (
    MAX_WAVE_TRIALS,
    ScheduleTrace,
    compile_netlist,
)
from repro.emulator.host import CommHost
from repro.obs.provenance import MaskingEvent
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
    # pre-injection cycles instead of re-simulating from cycle 0.  The
    # rungs are also the drain's golden trail: at each rung boundary the
    # trial is compared with the rung exactly, and exits the moment the
    # faulty state has rejoined the golden trajectory.
    # None (or 0): no mid-execution rungs, only the cycle-0 checkpoint,
    # so only the frozen exit is left and every other trial drains.
    # The one knob for ladder memory: every rung prepare saves is kept.
    ckpt_stride: int | None = 64
    # --- Fault provenance (taint propagation DAG per injection) -------
    # When True, every trial is taint-tracked and produces a provenance
    # payload (propagation DAG, infection footprint, detection latency,
    # masking attribution) alongside its record.  On the fast path a
    # flip golden never touches again takes the frozen exit with the
    # payload of a tracker seeded at the flip (nothing can move its
    # taint).  Any other tracked trial enters from a ladder rung (the
    # tracker is installed after the flip, so it never sees the prefix)
    # and takes only one drain exit, the taint-inert one, checked exactly
    # against a rung: the payload is final there.  Records and payloads
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


@dataclass(frozen=True)
class GoldenTrace:
    """Fault-free execution fingerprint of one testcase (with the
    checkpoint ladder's rungs, the fast path's comparison substrate).

    ``events`` is the complete fault-free event sequence (needed to
    splice the golden tail onto an early-exited trace); ``end_cycle`` is
    where the golden run quiesced.  ``usable`` is False when the golden
    event log dropped events (the tail would be incomplete), which
    disables early exit for that testcase while leaving the checkpoint
    ladder active.

    ``final`` is the complete quiesced machine state (the early-exit
    paths reconstruct the trial's final state from it instead of
    simulating to it), and ``last_touch`` maps a latch's position in
    :meth:`~repro.cpu.core.Power6Core.all_latches` order to the last
    cycle the fault-free run read or wrote that latch (the reference
    run's :class:`~repro.cpu.access.TouchTrace`, or on the bit-plane
    backend its ``ScheduleTrace``, which stamps it the same way) — the
    licence for the frozen and tracked early exits: a flip confined to
    a latch the golden run never touches again is frozen, so the
    trial's future is the golden future.  Positions, unlike the
    recorder's ``id(latch)`` keys, mean the same latch in every
    process, so a golden travels to pool workers as it is.
    """

    events: tuple[MachineEvent, ...]
    end_cycle: int
    usable: bool
    final: CoreSnapshot
    last_touch: dict[int, int]


@dataclass
class PreparedState:
    """Everything :meth:`SfiExperiment._prepare` builds: the AVP suite,
    each testcase's fault-free reference and golden trace, the
    emulator's cycle-0 checkpoints and ladder rungs, and on the
    bit-plane backend each testcase's compiled schedule.

    Nothing in it depends on the process that built it: latches are
    keyed by position, never by ``id()``, and its rungs are plain
    values that a drain compares field by field
    (:meth:`~repro.cpu.core.Power6Core.same_state`).  So a pool
    worker loads its parent's state (``SfiExperiment(config,
    prepared=state)``) instead of preparing, and a fresh prepare
    installs its own through the same :meth:`SfiExperiment._install`.
    """

    suite: list[AvpTestcase]
    references: list[ReferenceRun] = field(default_factory=list)
    goldens: list[GoldenTrace] = field(default_factory=list)
    checkpoints: dict[str, CoreSnapshot] = field(default_factory=dict)
    # Checkpoint name -> cycle -> snapshot.
    rungs: dict[str, dict[int, CoreSnapshot]] = field(default_factory=dict)
    schedules: list = field(default_factory=list)


# Injection latency is milliseconds-scale on the software backend.
_INJECTION_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                      0.1, 0.25, 0.5, 1.0, 2.5, float("inf"))

# Simulation cycles avoided per injection (rung skip + early exit).
_CYCLES_SAVED_BUCKETS = (0.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
                         16384.0, float("inf"))

# Trial lanes per resolved bit-plane wave (63 = a full plane word).
_WAVE_OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 63.0,
                           float("inf"))


class _ExperimentInstruments:
    """The experiment-level series: per-trial outcomes, timings and
    fast-path exits (shared names with the supervisor's series, which
    alone fold a campaign's provenance payloads)."""

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


# This process's prepared machine, the one slot of Figure 1's "prepare
# once": every SfiExperiment takes it at the end of a successful
# __init__ (the CLI's or a service's probe, a remote worker's own
# machine, the machine a pool worker loads from its parent's
# PreparedState), replacing the previous one.  Shard runners reuse it
# for its config (prepared_machine), so a serial supervised campaign
# runs on the probe its caller already prepared, and a pool worker on
# its parent's.  Reuse is sound because a prepared machine is
# frozen: ``checkpoint`` and ``save_rung`` run only inside ``_prepare``,
# so the ladder is fixed before the first trial, and every trial
# restores a rung or checkpoint before it clocks, so no trial sees what
# an earlier one left behind.
_PREPARED: SfiExperiment | None = None


def prepared_machine(config: CampaignConfig) -> SfiExperiment:
    """This process's prepared machine for ``config``: the slot's, or a
    new one (which then takes the slot) when the slot holds another
    config.  A local pool ships this machine's :class:`PreparedState`
    to its workers, whose slot then holds the loaded copy."""
    machine = _PREPARED
    if machine is None or machine.config != config:
        machine = SfiExperiment(config)
    return machine


class SfiExperiment:
    """A prepared machine + workload, ready to run injection campaigns.

    A new experiment becomes its process's prepared machine for its
    config (:func:`prepared_machine`): a supervised campaign of the same
    config that runs in this process runs on it, with only the sinks of
    its shard (:meth:`sinks`), instead of preparing a second machine.

    ``prepared`` (another machine's :attr:`prepared`, for the same
    config) installs that state instead of preparing: a pool worker
    builds its machine this way from the one its parent shipped.

    Pass ``metrics`` (a :class:`repro.obs.MetricsRegistry`) — or call
    :meth:`instrument` later — to record per-outcome counters, injection
    latency histograms, campaign/prepare timings and sampled core
    profiling (cycles/sec, checker fires, recovery cycles by unit).
    Uninstrumented experiments pay no metric calls on the hot path.
    """

    def __init__(self, config: CampaignConfig | None = None,
                 metrics=None,
                 prepared: PreparedState | None = None) -> None:
        self.config = config or CampaignConfig()
        self.core = Power6Core(self.config.core_params)
        # Campaign cores bound their event log as a ring: hang outcomes
        # otherwise accumulate events for the whole drain window.
        self.core.event_log = EventLog(
            capacity=None, max_events=self.config.trace_max_events)
        self.emulator = AwanEmulator(self.core)
        self.fastpath = self.config.fastpath
        self.host = CommHost(self.emulator, self.config.poll_interval)
        self.latch_map = self.emulator.latch_map
        # Position of each latch in the core's latch order, to look up a
        # latch's golden-final (value, par) pair in a CoreSnapshot and
        # its last golden touch.
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
                "(fastpath=True)")
        if self.bitplane and self.config.provenance:
            raise ValueError(
                "bitplane backend is incompatible with provenance "
                "(the taint tracker must observe every trial cycle)")
        self._latches = self.core.all_latches()
        self.metrics = None
        self._instruments = None
        self._profiler = None
        # Per-trial side channels, refreshed by every run_one call: the
        # fast-path extras (exit reason + saved cycles) and the
        # provenance payload of a provenance-enabled trial.  run_plan
        # hands each to its hook and folds nothing campaign-wide: the
        # supervisor journals the extras and folds the payloads.
        self.last_fastpath: dict | None = None
        self.last_provenance: dict | None = None
        self.fastpath_hook = None
        self.provenance_hook = None
        prepare_start = time.perf_counter()
        self._install(prepared if prepared is not None else self._prepare())
        self.prepare_seconds = time.perf_counter() - prepare_start
        if metrics is not None:
            self.instrument(metrics)
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

    def _prepare(self) -> PreparedState:
        """Build the AVP suite, then checkpoint each testcase at cycle 0,
        establish its fault-free reference execution, and (on the fast
        path) build its checkpoint ladder and touch trace along the
        way; the bit-plane backend also compiles each testcase's
        schedule from its reference run.  Everything built goes into the
        returned state; the caller installs it."""
        config = self.config
        emulator = self.emulator
        state = PreparedState(suite=make_suite(
            config.suite_size, config.suite_seed, config.weights))
        for index, testcase in enumerate(state.suite):
            self.core.load_program(testcase.program)
            self._apply_mode_overrides()
            emulator.checkpoint(self._ckpt_name(index))
            state.references.append(
                self._reference_run(testcase, index, state))
            emulator.reload(self._ckpt_name(index))
        state.checkpoints, state.rungs = emulator.saved_states()
        return state

    def _install(self, state: PreparedState) -> None:
        """Make ``state`` this machine's prepared state: the only way a
        machine gets one, whether :meth:`_prepare` just built it or a
        parent process shipped it.  The core is left at the last
        testcase's cycle-0 checkpoint, as a prepare leaves it."""
        # Kept whole: it is what a local pool ships to its workers.
        self.prepared = state
        self.suite = state.suite
        self.references = state.references
        self.goldens = state.goldens
        # Bit-plane: per-testcase compiled schedules.
        self.schedules = state.schedules
        self.emulator.load_saved_states(state.checkpoints, state.rungs)
        self.emulator.reload(self._ckpt_name(len(state.suite) - 1))

    def _reference_budget(self, testcase: AvpTestcase) -> int:
        return 50 * testcase.instructions_retired + 10_000

    def _reference_run(self, testcase: AvpTestcase, index: int,
                       state: PreparedState) -> ReferenceRun:
        budget = self._reference_budget(testcase)
        core = self.core
        if self.fastpath:
            self._instrumented_reference(index, budget, state)
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

    def _instrumented_reference(self, index: int, budget: int,
                                state: PreparedState) -> None:
        """Golden run with ladder rungs.

        Clocks in chunks that stop at every ``ckpt_stride`` boundary
        (never exceeding ``poll_interval``, the host's normal batching),
        snapshotting a rung at each; the machine trajectory is identical
        to one long :meth:`CommHost.run_until_quiesce` because chunking
        cannot change cycle-by-cycle evolution.  The whole run is
        latch-touch traced (rung snapshots excepted — they are
        observational), which licences the frozen and tracked exits; on
        the bit-plane backend the trace records the full access
        schedule, compiled here for the wave path.
        """
        config = self.config
        core = self.core
        emulator = self.emulator
        ckpt_stride = config.ckpt_stride or 0
        remaining = budget
        recorder = ScheduleTrace(core) if self.bitplane else TouchTrace(core)
        with trace([core], recorder):
            while remaining > 0 and not core.quiesced:
                chunk = min(config.poll_interval, remaining)
                if ckpt_stride:
                    chunk = min(chunk, ckpt_stride - core.cycles % ckpt_stride)
                run = emulator.clock(chunk)
                remaining -= run
                if run < chunk or core.quiesced:
                    break
                if ckpt_stride and core.cycles % ckpt_stride == 0:
                    with suspended():
                        emulator.save_rung(self._ckpt_name(index))
            with suspended():
                final = core.snapshot()
        positions = self._latch_index
        state.goldens.append(GoldenTrace(
            events=tuple(core.event_log),
            end_cycle=core.cycles,
            usable=core.event_log.dropped == 0,
            final=final,
            last_touch={positions[key]: cycle
                        for key, cycle in recorder.last_touch.items()},
        ))
        if self.bitplane:
            state.schedules.append(
                self._compile_schedule(state.suite[index], recorder))

    @staticmethod
    def _ckpt_name(index: int) -> str:
        return f"tc{index}"

    # ------------------------------------------------------------------

    def run_one(self, site_index: int, testcase_index: int,
                inject_cycle: int,
                provenance: bool | None = None) -> InjectionRecord:
        """Perform a single injection and classify its outcome.

        On the fast path a flip (TOGGLE or STICKY) into a latch golden
        never touches after ``inject_cycle`` is not simulated at all (the
        ``frozen`` exit, :meth:`_golden_record`).  Any other trial
        restores the nearest ladder rung at or below ``inject_cycle``
        (instead of re-simulating from cycle 0) and ends the drain at the
        first rung the machine equals (instead of draining to quiesce).
        All of these are equivalence-preserving, so the
        returned record is bit-identical to the slow path's — the
        differential suite (``pytest -m differential``) enforces this.

        ``provenance`` (default: the config flag) taint-tracks the trial
        and leaves its payload in ``last_provenance``.  A tracked frozen
        flip takes the payload of a tracker seeded on the latch at the
        flip and never installed: nothing reads or writes the latch
        again, so that payload is final.  Any other tracked trial runs
        with the tracker installed after the flip; it enters from a rung
        too, but its only early exit is the taint-inert one
        (:meth:`_taint_inert`), where the payload is already final.
        Record and payload equal the slow path's, and a tracked trial
        leaves no fast-path extras for the journal.
        """
        config = self.config
        emulator = self.emulator
        core = self.core
        reference = self.references[testcase_index]
        inst = self._instruments
        track = config.provenance if provenance is None else provenance
        fast = self.fastpath
        if fast:
            golden = self.goldens[testcase_index]
            latch = self.latch_map.site(site_index).latch
            if golden.usable and golden.last_touch.get(
                    self._latch_index[id(latch)], -1) <= inject_cycle:
                # Frozen flip: the touch trace stamps each access with
                # the cycle it happens in (``Core.cycle`` increments
                # ``cycles`` first), so golden never reads or writes the
                # latch after the flip.  The trial is golden plus the
                # flip from here on by construction, in either mode: a
                # sticky hold re-asserts a level nothing rewrites, so it
                # changes nothing.  Nothing to simulate.
                record = self._golden_record(site_index, testcase_index,
                                             inject_cycle, "frozen")
                if track:
                    # Nor can taint move: with no read or write of the
                    # latch no edge, cleansing or footprint change
                    # follows, so a tracker seeded at the flip holds its
                    # final payload from construction on.
                    self.last_fastpath = None
                    tracker = TaintTracker([core], latch, cycle=inject_cycle)
                    self._finish_payload(tracker.payload(), record)
                return record
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
            if golden is not None and golden.usable and config.ckpt_stride:
                exit_info = self._drain_against_rungs(
                    testcase_index, budget, tracker)
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
        record = InjectionRecord(
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
        if tracker_payload is not None:
            self._finish_payload(tracker_payload, record)
        return record

    def _finish_payload(self, payload: dict, record: InjectionRecord) -> None:
        """Complete a tracked trial's tracker payload from its record
        (identity, outcome, first detection, the architecturally-dead
        residual) and leave it in ``last_provenance``."""
        payload.update(
            site=record.site_name,
            unit=record.unit,
            inject_cycle=record.inject_cycle,
            testcase_seed=record.testcase_seed,
            outcome=record.outcome.value,
            detection=detection_info(record.trace, record.inject_cycle),
        )
        if (record.outcome in (Outcome.VANISHED, Outcome.CORRECTED)
                and payload["residual_tainted"]):
            # Benign outcome with live taint at quiesce: the infected
            # state was never consumed.
            counts = payload["masking_counts"]
            counts[MaskingEvent.ARCHITECTURALLY_DEAD.value] = \
                payload["residual_tainted"]
        self.last_provenance = payload

    def _drain_against_rungs(self, tc_index: int, budget: int,
                             tracker=None) -> tuple[str, list] | None:
        """Post-injection drain with early-exit checks against the golden
        rungs.

        Clocks exactly the cycles the slow path would (same quiesce and
        budget stops), additionally pausing at every ``ckpt_stride``
        boundary before the golden end.  Where the ladder holds this
        testcase's rung for that cycle and no sticky fault is still
        held, the trial is compared with the rung in place
        (:meth:`Power6Core.same_state`: exact, and it stops at the first
        differing field).  Returns ``(exit kind, held latches)`` on a
        match:

        * ``"golden"``, the only exit of an untracked trial: the faulty
          state has fully rejoined the golden trajectory (nothing held);
        * ``"tracked"``, the only exit of a trial run under ``tracker``:
          the taint is provably inert (:meth:`_taint_inert`; every
          tainted latch is held).

        The caller re-applies the held latches' trial values to the
        golden final state.  None means the drain completed (quiesce or
        exhausted budget) and the caller classifies normally.
        """
        config = self.config
        core = self.core
        emulator = self.emulator
        name = self._ckpt_name(tc_index)
        stride = config.ckpt_stride
        end = self.goldens[tc_index].end_cycle
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
            if cycle % stride or emulator.sticky_pending:
                continue
            rung = emulator.rung(name, cycle)
            if rung is None:
                continue
            if tracker is not None:
                inert = self._taint_inert(tc_index, rung, tracker)
                if inert is not None:
                    tracker.settle_inert(cycle)
                    return ("tracked", inert)
            elif core.same_state(rung):
                return ("golden", [])
        return None

    def _taint_inert(self, tc_index: int, rung: CoreSnapshot,
                     tracker) -> list | None:
        """The tainted latches, when a tracked trial's taint is provably
        inert at the cycle of golden ``rung``; otherwise None.

        The taint is inert when every tainted node is a latch the golden
        run never reads or writes after that cycle (``last_touch``; array
        and memory words never qualify) and the trial equals the rung
        with those latches held at the rung's values (their golden-final
        values, since golden never touches them again).  The trial then
        replays golden with the held latches frozen, so nothing tainted
        is read or written again and the tracker's payload is final.
        The comparison runs with the tracker suspended: its reads and
        the held latches' swaps are not value flow.
        """
        keys = tracker.tainted_latches()
        if keys is None:
            return None
        last_touch = self.goldens[tc_index].last_touch
        held = []
        for key in keys:
            index = self._latch_index[key]
            if last_touch.get(index, -1) > rung.cycles:
                return None
            held.append(index)
        latches = self._latches
        with suspended():
            trial = [(latches[index].value, latches[index].par)
                     for index in held]
            for index in held:
                latches[index].value, latches[index].par = \
                    rung.latches[index]
            same = self.core.same_state(rung)
            for index, (value, par) in zip(held, trial):
                latches[index].value, latches[index].par = value, par
        if not same:
            return None
        return [latches[index] for index in held]

    # ------------------------------------------------------------------
    # Bit-plane backend (waves of up to 63 trials per plane word).

    def _compile_schedule(self, testcase: AvpTestcase,
                          recorder: ScheduleTrace):
        """Compile the schedule the reference run just recorded (the core
        still holds that run's quiesced state)."""
        config = self.config
        cache_key = ("schedule", repr(config.core_params),
                     repr(config.weights), testcase.seed,
                     config.checker_mask,
                     tuple(sorted(config.mode_overrides.items())))
        return compile_netlist(self.core, recorder, cache_key=cache_key)

    def _run_waves(self, scheduled, records, record_hook) -> None:
        """Batch scheduled plan items into waves and execute them.

        Items group by testcase (one compiled schedule per wave), sort
        by (inject cycle, position) and chunk into ``wave_lanes``-sized
        waves.  Every item is self-contained, so batching cannot change
        any record; results are keyed by plan position exactly like the
        scalar loop's.
        """
        config = self.config
        by_testcase: dict[int, list] = {}
        for item, inject_cycle in scheduled:
            by_testcase.setdefault(item.testcase_index, []).append(
                (item, inject_cycle))
        lanes_cap = max(1, min(config.wave_lanes, MAX_WAVE_TRIALS))
        for tc_index in sorted(by_testcase):
            lanes = sorted(by_testcase[tc_index],
                           key=lambda pair: (pair[1], pair[0].position))
            wave: list = []
            for pair in lanes:
                if len(wave) >= lanes_cap:
                    self._run_wave(tc_index, wave, records, record_hook)
                    wave = []
                wave.append(pair)
            if wave:
                self._run_wave(tc_index, wave, records, record_hook)

    def _run_wave(self, tc_index: int, wave, records, record_hook) -> None:
        """Resolve one wave in-plane and execute its lanes.

        In-plane fates (converge/survive) reconstruct their records
        host-side at zero simulation cost; every peeled lane runs the
        scalar trial (:meth:`run_one`), whether the golden run consumes
        its flip or the wave could not be resolved in-plane at all
        (non-TOGGLE modes and goldens with truncated event logs).
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
        if in_plane:
            reason = "consumed"
        elif config.injection_mode is not InjectionMode.TOGGLE:
            reason = "mode"
        else:
            reason = "no-golden"
        for (item, inject_cycle), (fate, _cycle) in zip(wave, fates):
            start = time.perf_counter() if inst is not None else 0.0
            if fate == "peel":
                record = self.run_one(item.site_index, tc_index,
                                      inject_cycle)
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
        """The record of a trial that is never simulated.

        Its event sequence is the golden sequence with the INJECTION
        event spliced in at the inject cycle, replayed through the ring
        so truncation matches a real drain.  Its final state is the
        golden final state.  With ``level`` None the flip is frozen:
        golden never reads or writes the bit after the inject cycle, so
        the bit's golden-final level is its level at the flip, and the
        flip is applied to the final state (a STICKY hold only
        re-asserts the flipped level, which nothing rewrites).  Otherwise
        golden overwrote the bit before reading it, and ``level`` is the
        level the flip set.
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
            # Visit injections testcase-by-testcase in cycle order, so
            # consecutive trials restore the same or the next rung;
            # every item is self-contained, so execution order cannot
            # change any record, and results/hook positions are still
            # reported against the caller's plan.
            order = sorted(scheduled, key=lambda pair: (
                pair[0].testcase_index, pair[1], pair[0].position))
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
            if self.last_provenance is not None \
                    and self.provenance_hook is not None:
                self.provenance_hook(item.position, self.last_provenance)
            records[item.position] = record
            if record_hook is not None:
                record_hook(item.position, record)
        for item, _ in scheduled:
            result.add(records[item.position])
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
