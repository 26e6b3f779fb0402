"""Chip-level SFI campaigns: two cores, fault-isolation measurement.

The paper's model spans two cores; a chip-level campaign injects into
one core while both run workloads, classifying the outcome on the
*struck* core and simultaneously verifying that the *other* core's
architected results stayed golden — the cross-core fault-isolation
property multi-core RAS designs must provide.
"""

from __future__ import annotations

import os
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from repro.avp.runner import AvpBaselineError
from repro.avp.suite import make_suite
from repro.cpu.access import trace
from repro.cpu.chip import ChipSnapshot, Power6Chip
from repro.cpu.events import EventLog
from repro.cpu.params import CoreParams
from repro.cpu.tainttrace import TaintTracker, detection_info
from repro.emulator.netlist import LatchMap
from repro.obs.profile import CoreProfiler
from repro.obs.provenance import MaskingEvent, ProvenanceReport

from repro.sfi.classify import ClassifyOptions, classify
from repro.sfi.outcomes import OUTCOME_ORDER, Outcome
from repro.sfi.storage import CampaignJournal, CampaignStorageError

_CHIP_JOURNAL_KIND = "sfi-chip-journal"


class _ChipInstruments:
    """Chip-campaign metric series (distinct names from the single-core
    campaign: chip trials carry a core label and an isolation axis)."""

    def __init__(self, registry) -> None:
        self.injections = registry.counter(
            "sfi_chip_injections_total",
            "completed chip injections by outcome and struck core",
            ("outcome", "core"))
        self.isolation_violations = registry.counter(
            "sfi_chip_isolation_violations_total",
            "injections that corrupted a core other than the struck one")
        self.campaign_seconds = registry.gauge(
            "sfi_chip_campaign_seconds",
            "wall time of the last chip campaign run")
        self.rate = registry.gauge(
            "sfi_chip_injections_per_second",
            "chip campaign injection throughput")


@dataclass(frozen=True)
class ChipInjectionRecord:
    """One chip-level injection."""

    core_index: int
    unit: str
    site_name: str
    inject_cycle: int
    outcome: Outcome
    other_cores_clean: bool


def _chip_record_to_dict(record: ChipInjectionRecord) -> dict:
    return {
        "core_index": record.core_index,
        "unit": record.unit,
        "site_name": record.site_name,
        "inject_cycle": record.inject_cycle,
        "outcome": record.outcome.value,
        "other_cores_clean": record.other_cores_clean,
    }


def _chip_record_from_dict(payload: dict) -> ChipInjectionRecord:
    try:
        return ChipInjectionRecord(
            core_index=payload["core_index"],
            unit=payload["unit"],
            site_name=payload["site_name"],
            inject_cycle=payload["inject_cycle"],
            outcome=Outcome(payload["outcome"]),
            other_cores_clean=payload["other_cores_clean"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CampaignStorageError(
            f"chip record is missing or has a bad field: {exc!r}") from exc


@dataclass
class ChipCampaignResult:
    """Chip-level campaign records and aggregation."""

    records: list[ChipInjectionRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def fractions(self) -> dict[Outcome, float]:
        total = max(1, self.total)
        return {outcome: sum(1 for r in self.records if r.outcome is outcome)
                / total for outcome in OUTCOME_ORDER}

    def isolation_rate(self) -> float:
        """Fraction of injections that left every other core untouched."""
        if not self.records:
            return 1.0
        return sum(r.other_cores_clean for r in self.records) / self.total

    def isolation_violations(self) -> list[ChipInjectionRecord]:
        return [r for r in self.records if not r.other_cores_clean]


#: Upper bound on a fault-free chip reference run (matches
#: :meth:`Power6Chip.run`'s default).
_CHIP_REFERENCE_BUDGET = 200_000


class ChipExperiment:
    """A prepared two-core chip with per-core AVP workloads.

    With ``fastpath`` on (the default) the fault-free reference run also
    builds a chip-wide checkpoint ladder: a :class:`ChipSnapshot` at
    every ``ckpt_stride`` boundary before the reference end, every rung
    kept.  :meth:`run_one` then restores the highest rung at or below
    the injection cycle and fast-forwards only the remainder —
    equivalence-preserving, because the pre-injection prefix is
    deterministic and fault-free.
    """

    def __init__(self, core_params: CoreParams | None = None,
                 core_count: int = 2, suite_seed: int = 2008,
                 drain_cycles: int = 1500,
                 trace_max_events: int | None = 512,
                 fastpath: bool = True,
                 ckpt_stride: int | None = 64) -> None:
        self.chip = Power6Chip(core_params, core_count)
        # Ring-bound each core's event log: a hang-heavy injection on
        # either core must not grow memory for the whole drain window.
        for core in self.chip.cores:
            core.event_log = EventLog(capacity=None,
                                      max_events=trace_max_events)
        self.drain_cycles = drain_cycles
        self.fastpath = bool(fastpath and ckpt_stride)
        self.ckpt_stride = ckpt_stride
        self.ladder_hits = 0
        self.ladder_misses = 0
        # One testcase per core (distinct seeds: distinct workloads).
        self.testcases = make_suite(core_count, seed=suite_seed)
        # Each core's injectable bits, numbered as a single-core
        # campaign numbers them (bits, then parity, latch by latch).
        self._latch_maps = [LatchMap(core) for core in self.chip.cores]
        # Provenance sidecars of the last run_one / run_campaign (see
        # repro.obs.provenance); records themselves are unchanged.
        self.last_provenance: dict | None = None
        self.provenance_report: ProvenanceReport | None = None
        self.provenance_payloads: dict[int, dict] = {}
        self._prepare()

    def _prepare(self) -> None:
        chip = self.chip
        chip.load_programs([t.program for t in self.testcases])
        self._checkpoint = chip.snapshot()
        self._rungs: list[tuple[int, ChipSnapshot]] = []
        if self.fastpath:
            # Stepped reference run: chunks stop at every stride boundary
            # to save a ladder rung.  The trajectory (and the final cycle
            # count) is identical to one uninterrupted chip.run().
            cycles = 0
            while not chip.quiesced and cycles < _CHIP_REFERENCE_BUDGET:
                step = min(self.ckpt_stride - cycles % self.ckpt_stride,
                           _CHIP_REFERENCE_BUDGET - cycles)
                ran = chip.run(max_cycles=step)
                cycles += ran
                if ran < step or chip.quiesced:
                    break
                self._rungs.append((cycles, chip.snapshot()))
            self.reference_cycles = cycles
        else:
            self.reference_cycles = chip.run()
        for core, testcase in zip(chip.cores, self.testcases):
            if not core.halted or not core.error_free():
                raise AvpBaselineError(
                    f"{core.name}: fault-free chip run misbehaved")
            if core.memory.nonzero_words() != testcase.golden_memory:
                raise AvpBaselineError(f"{core.name}: memory mismatch")
        chip.restore(self._checkpoint)

    # ------------------------------------------------------------------

    def site_count(self, core_index: int) -> int:
        return len(self._latch_maps[core_index])

    def rung_count(self) -> int:
        return len(self._rungs)

    def run_one(self, core_index: int, site_number: int,
                inject_cycle: int,
                options: ClassifyOptions = ClassifyOptions(),
                provenance: bool = False) -> ChipInjectionRecord:
        chip = self.chip
        start_cycle = 0
        index = bisect_right(self._rungs, inject_cycle, key=itemgetter(0))
        if index:
            start_cycle, snap = self._rungs[index - 1]
            chip.restore(snap)
            self.ladder_hits += 1
        else:
            chip.restore(self._checkpoint)
            if self.fastpath:
                self.ladder_misses += 1
        for _ in range(inject_cycle - start_cycle):
            chip.cycle()
            if chip.quiesced:
                break
        site = self._latch_maps[core_index].site(site_number)
        site.inject()
        budget = (self.reference_cycles - inject_cycle) + self.drain_cycles
        self.last_provenance = None
        payload = None
        if provenance:
            # Install after the flip (the flip is the DAG root, not an
            # edge) and uninstall before classification; the ladder
            # restore above is untracked pre-injection prefix, so the
            # record is bit-identical to an untracked trial.  Every core
            # is tracked: isolation edges show up as cross-core unit
            # pairs, counted in ``cross_core_edges``.
            tracker = TaintTracker(chip.cores, site.latch)
            with trace(chip.cores, tracker):
                chip.run(max_cycles=max(budget, self.drain_cycles))
            payload = tracker.payload()
        else:
            chip.run(max_cycles=max(budget, self.drain_cycles))

        struck = chip.cores[core_index]
        outcome = classify(struck, self.testcases[core_index], options)
        if payload is not None:
            payload.update(
                site=f"{struck.name}.{site.name}",
                unit=f"{struck.name}.{struck.unit_of(site.latch)}",
                core_index=core_index,
                inject_cycle=inject_cycle,
                outcome=outcome.value,
                detection=detection_info(struck.event_log.events,
                                         inject_cycle),
            )
            if (outcome in (Outcome.VANISHED, Outcome.CORRECTED)
                    and payload["residual_tainted"]):
                payload["masking_counts"][
                    MaskingEvent.ARCHITECTURALLY_DEAD.value] = \
                    payload["residual_tainted"]
            self.last_provenance = payload
        clean = True
        for other_index, other in enumerate(chip.cores):
            if other_index == core_index:
                continue
            testcase = self.testcases[other_index]
            # A chip checkstop legitimately stops the neighbours; clean
            # means no *corruption* leaked across, not that they finished.
            if other.halted:
                clean &= (other.memory.nonzero_words() == testcase.golden_memory)
            else:
                clean &= chip.chip_checkstop or other.hung is False
        return ChipInjectionRecord(
            core_index=core_index,
            unit=struck.unit_of(site.latch),
            site_name=f"{struck.name}.{site.name}",
            inject_cycle=inject_cycle,
            outcome=outcome,
            other_cores_clean=clean,
        )

    def run_campaign(self, count: int, seed: int = 0,
                     core_index: int | None = None, *,
                     journal: str | os.PathLike | None = None,
                     resume: bool = False,
                     metrics=None,
                     provenance: bool = False) -> ChipCampaignResult:
        """Inject ``count`` random flips (into ``core_index``, or spread
        uniformly across the chip when None).

        Each trial draws from its own ``(seed, trial)`` RNG stream, so a
        campaign resumed from ``journal`` (see the sfi supervisor) replays
        exactly the trials an uninterrupted run would have performed;
        already-journaled trials are skipped on ``resume=True``.

        On the fast path pending trials execute in injection-cycle order
        (warm ladder rungs); each trial is self-contained, so execution
        order cannot change any record, and ``result.records`` stays in
        trial order.

        With ``provenance=True`` every executed trial is taint-tracked
        (records stay bit-identical; trials run slower) and the merged
        :class:`~repro.obs.provenance.ProvenanceReport` lands in
        ``self.provenance_report`` with per-trial payloads in
        ``self.provenance_payloads`` — executed trials only; journalled
        trials skipped on resume are not re-tracked.  With ``metrics``
        set, one ``core``-labelled :class:`~repro.obs.profile.CoreProfiler`
        per core samples the chip's cycle loops into the same registry.
        """
        covered: dict[int, ChipInjectionRecord] = {}
        journal_obj: CampaignJournal | None = None
        if journal is not None:
            if resume and os.path.exists(journal):
                journal_obj, covered = CampaignJournal.recover(
                    journal, seed=seed, total=count,
                    record_decoder=_chip_record_from_dict,
                    kind=_CHIP_JOURNAL_KIND)
            else:
                journal_obj = CampaignJournal.create(
                    journal, seed=seed, total_sites=count,
                    kind=_CHIP_JOURNAL_KIND)
        inst = _ChipInstruments(metrics) if metrics is not None else None
        # One core-labelled profiler per core.  Chip trials are short and
        # every restore rewinds the cycle counter, so the default 2048-
        # cycle hook interval would land few or no samples inside a
        # trial; 256 keeps several samples per trial at sub-0.1% hook
        # overhead.
        profilers = ([CoreProfiler(core, metrics, interval=256,
                                   core_label=core.name)
                      for core in self.chip.cores]
                     if metrics is not None else [])
        for profiler in profilers:
            # Baseline sample: epoch for the first in-trial sample.
            profiler.sample()
        report = self.provenance_report = (ProvenanceReport()
                                           if provenance else None)
        self.provenance_payloads = {}
        started = time.perf_counter()
        executed = 0
        result = ChipCampaignResult()
        try:
            pending = []
            for trial in range(count):
                if trial in covered:
                    continue
                rng = random.Random(f"chip:{seed}:{trial}")
                target = (core_index if core_index is not None
                          else rng.randrange(len(self.chip.cores)))
                site_number = rng.randrange(self.site_count(target))
                inject_cycle = rng.randrange(max(1, self.reference_cycles))
                pending.append((trial, target, site_number, inject_cycle))
            if self.fastpath and self._rungs:
                # Monotone injection cycles touch each ladder rung once.
                pending.sort(key=lambda t: (t[3], t[0]))
            records: dict[int, ChipInjectionRecord] = {}
            for trial, target, site_number, inject_cycle in pending:
                record = self.run_one(target, site_number, inject_cycle,
                                      provenance=provenance)
                records[trial] = record
                if report is not None and self.last_provenance is not None:
                    self.provenance_payloads[trial] = self.last_provenance
                    report.absorb(self.last_provenance)
                if inst is not None:
                    executed += 1
                    inst.injections.inc(outcome=record.outcome.value,
                                        core=str(record.core_index))
                    if not record.other_cores_clean:
                        inst.isolation_violations.inc()
                    elapsed = time.perf_counter() - started
                    if elapsed > 0:
                        inst.rate.set(executed / elapsed)
                if journal_obj is not None:
                    journal_obj.append(trial, record,
                                       record_encoder=_chip_record_to_dict)
            for trial in range(count):
                result.records.append(covered.get(trial) or records[trial])
        finally:
            for profiler in profilers:
                profiler.sample()
                profiler.detach()
            if inst is not None:
                inst.campaign_seconds.set(time.perf_counter() - started)
            if journal_obj is not None:
                journal_obj.close()
        return result
