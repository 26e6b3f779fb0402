"""Fault-provenance tracking: taint tracker, reports, renderers, CLI.

The differential guarantees (provenance never changes a record or a
journal byte) live in ``test_provenance_differential.py``; this file
covers the provenance artefacts themselves — payload structure, the
masking taxonomy, detection-latency accounting, report merge algebra,
the story/matrix renderers, the JSONL sidecar format, the fast-path
journal extras surfaced by the monitor, and the chip-campaign wiring.
"""

from __future__ import annotations

import itertools
import json
import random
from random import Random

import pytest

from repro import cli
from repro.analysis import (
    ProvenanceFormatError,
    propagation_chain,
    read_provenance_jsonl,
    render_propagation_story,
    render_provenance_report,
    write_provenance_jsonl,
)
from repro.cpu.access import suspended, trace
from repro.cpu.core import Power6Core
from repro.cpu.events import EventKind, MachineEvent
from repro.cpu.tainttrace import TaintTracker, detection_info, taint_trace
from repro.obs import MaskingEvent, MetricsRegistry, ProvenanceReport
from repro.obs.monitor import read_journal_progress, render_monitor_frame
from repro.rtl.fault import InjectionMode
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.campaign import injection_rng, plan_injections
from repro.sfi.chip_campaign import ChipExperiment
from repro.sfi.outcomes import Outcome
from repro.sfi.sampling import random_sample
from repro.sfi.storage import CampaignJournal

from tests.conftest import SMALL_PARAMS
from tests.test_access import (
    RECORDERS,
    assert_traced,
    assert_untraced,
    recorder_state,
    touch_storage,
)


# ----------------------------------------------------------------------
# Synthetic payloads (shape produced by TaintTracker.payload()).

def _payload(**overrides) -> dict:
    payload = {
        "nodes": [
            {"name": "fxu.rt", "unit": "FXU", "kind": "latch",
             "arch": False},
            {"name": "rut.cmt_rt", "unit": "RUT", "kind": "latch",
             "arch": False},
            {"name": "fxu.gprs.t0[3]", "unit": "FXU", "kind": "latch",
             "arch": True},
        ],
        "edges": [[0, 1, 568, 10], [1, 2, 615, 1]],
        "edges_dropped": 0,
        "footprint": [[562, 5], [570, 12]],
        "footprint_truncated": False,
        "peak_bits": 12,
        "masking": [{"cycle": 600, "node": 0, "cause": "overwritten"}],
        "masking_counts": {"overwritten": 2},
        "residual_tainted": 0,
        "cross_core_edges": 0,
        "site": "fxu.rt.3",
        "unit": "FXU",
        "inject_cycle": 562,
        "testcase_seed": 99000297,
        "outcome": "Bad Arch State",
        "detection": {"cycle": 884, "latency": 322,
                      "detector": "CORE_HANG_DETECT",
                      "kind": "error-detected"},
    }
    payload.update(overrides)
    return payload


class TestProvenanceReport:
    def test_absorb_folds_everything(self):
        report = ProvenanceReport()
        report.absorb(_payload())
        assert report.injections == 1
        assert report.outcomes["Bad Arch State"] == 1
        assert report.unit_edges[("FXU", "RUT")] == 10
        assert report.unit_edges[("RUT", "FXU")] == 1
        assert report.detections == 1
        assert report.detection_latency_min == 322
        assert report.detection_latency_max == 322
        assert report.detected_by["CORE_HANG_DETECT"] == 1
        assert report.masking["overwritten"] == 2
        assert report.peak_bits_max == 12
        assert report.units() == ["FXU", "RUT"]

    def test_merge_matches_absorb_any_order(self):
        first = _payload()
        second = _payload(detection=None, outcome="Vanished", peak_bits=3)
        serial = ProvenanceReport()
        serial.absorb(first)
        serial.absorb(second)
        left, right = ProvenanceReport(), ProvenanceReport()
        left.absorb(first)
        right.absorb(second)
        merged = ProvenanceReport()
        merged.merge(right)  # reversed arrival order
        merged.merge(left)
        assert merged == serial
        assert merged.mean_detection_latency == 322
        assert merged.detection_latency_min == 322

    def test_dict_roundtrip(self):
        report = ProvenanceReport()
        report.absorb(_payload())
        clone = ProvenanceReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert clone == report

    def test_empty_report_means_are_nan(self):
        import math
        report = ProvenanceReport()
        assert math.isnan(report.mean_detection_latency)
        assert math.isnan(report.mean_peak_bits)


class TestDetectionInfo:
    def test_first_detection_after_injection(self):
        events = [
            MachineEvent(10, EventKind.CORRECTED_LOCAL, "early, pre-flip"),
            MachineEvent(50, EventKind.INJECTION, "fxu.rt.3 -> 1"),
            MachineEvent(80, EventKind.ERROR_DETECTED,
                         "IDU_REGREAD_PARITY (recovery)"),
            MachineEvent(90, EventKind.CHECKSTOP, "late"),
        ]
        info = detection_info(events, 50)
        assert info == {"cycle": 80, "latency": 30,
                        "detector": "IDU_REGREAD_PARITY",
                        "kind": "error-detected"}

    def test_never_detected(self):
        events = [MachineEvent(50, EventKind.INJECTION, "x"),
                  MachineEvent(60, EventKind.HALT, "")]
        assert detection_info(events, 50) is None

    def test_evicted_injection_marker_counts_all_events(self):
        # A bounded ring may have dropped the INJECTION marker; every
        # surviving event is post-injection by construction.
        events = [MachineEvent(700, EventKind.HANG_DETECTED, "")]
        info = detection_info(events, 500)
        assert info["latency"] == 200
        assert info["detector"] == "hang"


class TestPropagationChain:
    def test_prefers_shortest_arch_chain(self):
        chain = propagation_chain(_payload())
        assert chain == [(0, 1, 568), (1, 2, 615)]

    def test_no_arch_sink_returns_deepest(self):
        payload = _payload()
        payload["nodes"][2]["arch"] = False
        assert propagation_chain(payload) == [(0, 1, 568), (1, 2, 615)]

    def test_no_edges_no_chain(self):
        assert propagation_chain(_payload(edges=[])) == []


class TestRenderers:
    def test_story_mentions_every_section(self):
        story = render_propagation_story(_payload())
        assert "Injection into fxu.rt.3 (FXU) at cycle 562" in story
        assert "fxu.rt (FXU) -> rut.cmt_rt (RUT)" in story
        assert "=> reached architected state" in story
        assert "detected by CORE_HANG_DETECT at cycle 884" in story
        assert "(latency 322 cycles)" in story
        assert "peak 12 bits" in story
        assert "overwritten" in story
        assert "=> outcome: Bad Arch State" in story

    def test_story_without_propagation_or_detection(self):
        story = render_propagation_story(
            _payload(edges=[], detection=None))
        assert "no propagation" in story
        assert "never detected by a checker" in story

    def test_report_renders_matrix(self):
        report = ProvenanceReport()
        report.absorb(_payload())
        text = render_provenance_report(report)
        assert "Fault-provenance report (1 injections)" in text
        assert "propagation matrix" in text
        assert "FXU" in text and "RUT" in text
        assert "CORE_HANG_DETECT" in text

    def test_jsonl_roundtrip(self, tmp_path):
        payloads = {0: _payload(), 3: _payload(outcome="Vanished")}
        path = tmp_path / "prov.jsonl"
        write_provenance_jsonl(payloads, path)
        assert read_provenance_jsonl(path) == payloads

    def test_jsonl_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-prov.jsonl"
        path.write_text('{"format": 9, "kind": "other"}\n')
        with pytest.raises(ProvenanceFormatError):
            read_provenance_jsonl(path)


# ----------------------------------------------------------------------
# The tracker on the real machine.

class TestTaintTracker:
    def test_payload_structure_and_clean_uninstall(self, experiment):
        record = experiment.run_one(0, 0, 100, provenance=True)
        payload = experiment.last_provenance
        assert set(payload) >= {
            "nodes", "edges", "edges_dropped", "footprint", "peak_bits",
            "masking", "masking_counts", "residual_tainted",
            "cross_core_edges", "site", "unit", "inject_cycle",
            "testcase_seed", "outcome", "detection"}
        assert payload["outcome"] == record.outcome.value
        assert payload["nodes"][0]["unit"] == payload["unit"]
        assert payload["peak_bits"] >= 1
        # The class swap is fully reverted: plain classes everywhere, no
        # wrapper or hook left behind, and a provenance-off rerun is
        # bit-identical.
        assert_untraced(experiment.core)
        assert experiment.run_one(0, 0, 100, provenance=False) == record
        assert experiment.last_provenance is None

    def test_nested_install_rejected(self, core):
        """A trace of any recorder kind refuses to start inside a trace
        of any kind, and the outer one keeps its swap and records on."""
        for outer_kind, inner_kind in itertools.product(RECORDERS,
                                                        repeat=2):
            pair = f"{inner_kind} inside {outer_kind}"
            outer = RECORDERS[outer_kind](core)
            inner = RECORDERS[inner_kind](core)
            with trace([core], outer):
                before = recorder_state(outer, core)
                with pytest.raises(RuntimeError, match="already tracing"):
                    with trace([core], inner):
                        pytest.fail(f"{pair}: nested trace installed")
                assert_traced(core, outer)
                assert recorder_state(outer, core) == before, pair
                touch_storage(core)
                assert recorder_state(outer, core) != before, pair
            assert_untraced(core)

    def test_node_maps_built_once_per_core(self, core):
        """Trackers over one core share its node maps instead of
        rebuilding them per trial; a multi-core tracker's merged maps
        keep each core's name prefix."""
        first = TaintTracker([core], core.ifu.ifar)
        second = TaintTracker([core], core.idu.cr)
        assert first._latch_name is second._latch_name
        assert first._latch_unit is second._latch_unit
        assert first._array_name is second._array_name
        assert first._latch_name[id(core.idu.cr)] == core.idu.cr.name
        other = Power6Core(SMALL_PARAMS, name="core1")
        chip = TaintTracker([core, other], core.ifu.ifar)
        assert chip._latch_name[id(core.idu.cr)] == f"core0.{core.idu.cr.name}"
        assert chip._latch_unit[id(other.idu.cr)] == "core1.IDU"
        assert id(other.idu.cr) in chip._arch and id(core.idu.cr) in chip._arch
        assert chip._array_name[id(other.rut.ckpt)] == \
            f"core1.{other.rut.ckpt.name}"
        assert TaintTracker([core], core.ifu.ifar)._latch_name \
            is first._latch_name

    def test_suspended_window_changes_nothing(self, experiment):
        """Inside ``suspended()`` latch, array and memory accesses and
        whole clocked cycles leave the tracker as it was; after it, the
        callbacks and the per-cycle hook are live again."""
        core = experiment.core
        experiment.emulator.reload("tc0")
        seed = core.ifu.ifar
        with taint_trace(core, seed) as tracker:
            assert seed.value is not None  # a tainted read arms the window
            before = tracker.payload()
            with suspended():
                assert_untraced(core)
                core.idu.cr.value = seed.value
                core.lsu.dcache.array.write(0, 5)
                core.memory.store_word(0x100, 5)
                snapshot = core.snapshot()
                experiment.emulator.clock(3)
                core.restore(snapshot)
            assert core.taint_hook is not None
            assert tracker.payload() == before
            # Still armed (no cycle boundary passed): this write infects.
            core.lsu.dcache.array.write(0, 5)
            assert len(tracker.payload()["nodes"]) == \
                len(before["nodes"]) + 1
        experiment.emulator.reload("tc0")

    def test_benign_residual_becomes_architecturally_dead(self, experiment):
        # Hunt a vanished/corrected trial that still carries taint at
        # quiesce; its masking ledger must attribute the residue.
        found = False
        for site_index in range(0, 600, 97):
            record = experiment.run_one(site_index, 0, 50, provenance=True)
            payload = experiment.last_provenance
            dead = payload["masking_counts"].get(
                MaskingEvent.ARCHITECTURALLY_DEAD.value)
            if record.outcome in (Outcome.VANISHED, Outcome.CORRECTED) \
                    and dead:
                assert dead == payload["residual_tainted"]
                found = True
                break
        assert found, "no benign trial with residual taint in the sweep"


@pytest.fixture(scope="module")
def sticky_experiment():
    """The provenance acceptance anchor: the sticky mini-campaign from
    the differential CASES whose position 20 is an SDC."""
    return SfiExperiment(CampaignConfig(
        suite_size=2, suite_seed=99, core_params=SMALL_PARAMS,
        fastpath=False, injection_mode=InjectionMode.STICKY,
        sticky_cycles=64))


def _replay(experiment, seed: int, flips: int, position: int):
    """Regenerate one campaign trial per the determinism contract."""
    sites = random_sample(experiment.latch_map, flips,
                          random.Random(seed ^ 0x5F1))
    item = plan_injections(sites, len(experiment.suite))[position]
    inject_cycle = injection_rng(seed, item.site_index, item.occurrence) \
        .randrange(0, experiment.references[item.testcase_index].cycles)
    record = experiment.run_one(item.site_index, item.testcase_index,
                                inject_cycle, provenance=True)
    return record, experiment.last_provenance


class TestAcceptanceStories:
    def test_sdc_story_reaches_architected_state(self, sticky_experiment):
        record, payload = _replay(sticky_experiment, 8, 60, 20)
        assert record.outcome is Outcome.SDC
        chain = propagation_chain(payload)
        assert chain, "SDC trial produced no propagation chain"
        assert payload["nodes"][chain[-1][1]]["arch"]
        story = render_propagation_story(payload)
        assert "=> reached architected state" in story
        assert "=> outcome: Bad Arch State" in story

    def test_corrected_story_names_checker_with_latency(
            self, sticky_experiment):
        record, payload = _replay(sticky_experiment, 8, 60, 3)
        assert record.outcome is Outcome.CORRECTED
        detection = payload["detection"]
        assert detection is not None
        assert detection["detector"] == "IDU_REGREAD_PARITY"
        assert 0 <= detection["latency"] < 10_000
        story = render_propagation_story(payload)
        assert "detected by IDU_REGREAD_PARITY" in story
        assert f"latency {detection['latency']} cycles" in story


class TestCampaignMetrics:
    def test_provenance_metric_series(self):
        registry = MetricsRegistry()
        config = CampaignConfig(suite_size=2, suite_seed=99,
                                core_params=SMALL_PARAMS, fastpath=False,
                                provenance=True,
                                injection_mode=InjectionMode.STICKY,
                                sticky_cycles=64)
        experiment = SfiExperiment(config, metrics=registry)
        sites = random_sample(experiment.latch_map, 12, Random(8 ^ 0x5F1))
        experiment.run_campaign(sites, 8)
        assert experiment.provenance_report is not None
        assert experiment.provenance_report.injections == 12
        latency = registry.get("sfi_detection_latency_cycles")
        peak = registry.get("sfi_infection_peak_bits")
        edges = registry.get("sfi_taint_edges_total")
        assert latency is not None and peak is not None
        assert sum(s.count for s in peak.series().values()) == 12
        if experiment.provenance_report.unit_edges:
            labelled = edges.series()
            assert labelled
            assert sum(labelled.values()) == sum(
                experiment.provenance_report.unit_edges.values())


# ----------------------------------------------------------------------
# Journal fast-path extras and the monitor (satellite: stats/monitor
# surface the PR-4 fast-path fields).

class TestJournalFastpathExtras:
    def _journal(self, tmp_path):
        path = tmp_path / "camp.jsonl"
        journal = CampaignJournal.create(path, seed=8, total_sites=3,
                                         meta={"suite_size": 2})
        record = {"outcome": "Vanished"}
        journal.append(0, record, record_encoder=dict,
                       extra={"fastpath": {"saved_cycles": 700,
                                           "exit": "golden"}})
        journal.append(1, record, record_encoder=dict,
                       extra={"fastpath": {"saved_cycles": 41,
                                           "exit": "frozen"}})
        journal.append(2, record, record_encoder=dict)
        journal.close()
        return path

    def test_progress_harvests_sidecars(self, tmp_path):
        progress = read_journal_progress(self._journal(tmp_path))
        assert progress.done == 3
        assert progress.fastpath == 2
        assert progress.saved_cycles == 741
        assert progress.early_exits == {"golden": 1, "frozen": 1}

    def test_monitor_frame_renders_fastpath_line(self, tmp_path):
        progress = read_journal_progress(self._journal(tmp_path))
        frame = render_monitor_frame(progress, None, None)
        assert "fastpath: 2 injections, 741 cycles saved" in frame
        assert "golden: 1" in frame and "frozen: 1" in frame

    def test_extras_precede_record_and_stay_optional(self, tmp_path):
        lines = self._journal(tmp_path).read_text().splitlines()
        extra_line = json.loads(lines[1])
        assert list(extra_line) == ["fastpath", "pos", "record"]
        plain_line = json.loads(lines[3])
        assert list(plain_line) == ["pos", "record"]
        assert json.loads(lines[0])["meta"] == {"suite_size": 2}


# ----------------------------------------------------------------------
# Chip campaigns: cross-core provenance and per-core profilers.

@pytest.fixture(scope="module")
def chip_experiment():
    return ChipExperiment(core_params=SMALL_PARAMS, suite_seed=99)


class TestChipProvenance:
    def test_records_identical_and_payload_attached(self, chip_experiment):
        baseline = chip_experiment.run_one(0, 5, 40)
        assert chip_experiment.last_provenance is None
        tracked = chip_experiment.run_one(0, 5, 40, provenance=True)
        assert tracked == baseline
        payload = chip_experiment.last_provenance
        assert payload["core_index"] == 0
        assert payload["site"].startswith("core0.")
        assert payload["unit"].startswith("core0.")
        assert payload["detection"] is None or \
            payload["detection"]["latency"] >= 0

    def test_campaign_report_and_core_profilers(self, chip_experiment):
        registry = MetricsRegistry()
        result = chip_experiment.run_campaign(3, seed=5, metrics=registry,
                                              provenance=True)
        report = chip_experiment.provenance_report
        assert report is not None
        assert report.injections == len(result.records) == 3
        assert sorted(chip_experiment.provenance_payloads) == [0, 1, 2]
        cycles = registry.get("core_cycles_total")
        labels = {key for key in cycles.series()}
        assert ("core0",) in labels and ("core1",) in labels


class TestCli:
    def test_explain_from_journal(self, tmp_path, capsys):
        journal = tmp_path / "camp.jsonl"
        assert cli.main(["campaign", "--flips", "6", "--suite-size", "2",
                         "--seed", "8", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert cli.main(["explain", "3", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Injection into" in out
        assert "outcome:" in out
        # A replay that disagrees with the journaled record (here: a
        # tampered journal standing in for mismatched campaign flags) is
        # refused loudly instead of printing a bogus story — whether the
        # outcome differs or only the event trace does.
        lines = journal.read_text().splitlines()
        index = next(i for i, line in enumerate(lines[1:], start=1)
                     if json.loads(line).get("pos") == 3)

        def tamper(name: str, edit) -> str:
            entry = json.loads(lines[index])
            edit(entry["record"])
            tampered = journal.with_name(name)
            tampered.write_text("\n".join(
                lines[:index] + [json.dumps(entry)] + lines[index + 1:])
                + "\n")
            return str(tampered)

        def flip_outcome(record):
            record["outcome"] = ("Vanished" if record["outcome"] != "Vanished"
                                 else "Hang")

        def shift_last_event(record):
            record["trace"][-1][0] += 1

        assert cli.main(["explain", "3", "--journal",
                         tamper("outcome.jsonl", flip_outcome)]) == 2
        err = capsys.readouterr().err
        assert "journal mismatch" in err and "outcome" in err
        assert cli.main(["explain", "3", "--journal",
                         tamper("trace.jsonl", shift_last_event)]) == 2
        err = capsys.readouterr().err
        assert "journal mismatch" in err and "in trace " in err

    def test_explain_bounds_and_missing_plan(self, tmp_path, capsys):
        assert cli.main(["explain", "0"]) == 2
        assert "needs --journal or --flips" in capsys.readouterr().err
        assert cli.main(["explain", "9", "--flips", "4"]) == 2
        assert "outside campaign" in capsys.readouterr().err

    def test_propagation_serial_with_sidecar(self, tmp_path, capsys):
        sidecar = tmp_path / "prov.jsonl"
        assert cli.main(["propagation", "--flips", "4", "--suite-size",
                         "2", "--seed", "8", "--jsonl", str(sidecar)]) == 0
        out = capsys.readouterr().out
        assert "Fault-provenance report (4 injections)" in out
        payloads = read_provenance_jsonl(sidecar)
        assert sorted(payloads) == [0, 1, 2, 3]

    def test_propagation_json_report(self, capsys):
        assert cli.main(["propagation", "--flips", "3", "--suite-size",
                         "2", "--seed", "8", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["injections"] == 3
