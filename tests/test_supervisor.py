"""Supervised campaign engine: worker failure, hangs, kills and resume.

The fault-injecting shard runners below are module-level (spawn workers
import this module to unpickle them) and coordinate "fail only once"
behaviour through a marker file passed via the environment — each
injected fault happens on the first attempt and clears on retry, which
is exactly the transient-failure model the supervisor exists for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.sfi import (
    CampaignConfig,
    CampaignStorageError,
    CampaignSupervisor,
    SfiExperiment,
)
from repro.sfi.storage import CampaignJournal
from repro.sfi.supervisor import (
    CampaignProgress,
    PrintProgress,
    TeeProgress,
    run_shard,
)

from tests.conftest import SMALL_PARAMS

CONFIG = CampaignConfig(suite_size=2, suite_seed=99, core_params=SMALL_PARAMS)
SITES = [110, 220, 330, 440, 550, 660, 770, 880]

_MARKER_ENV = "SFI_TEST_FAULT_MARKER"


def _trip_marker() -> bool:
    """True exactly once per marker file (first caller trips it)."""
    marker = Path(os.environ[_MARKER_ENV])
    try:
        marker.touch(exist_ok=False)
        return True
    except FileExistsError:
        return False


def raising_runner(config, items, seed, emit):
    if _trip_marker():
        raise RuntimeError("injected worker fault")
    return run_shard(config, items, seed, emit)


def always_raising_runner(config, items, seed, emit):
    raise RuntimeError("permanent worker fault")


def hanging_runner(config, items, seed, emit):
    if _trip_marker():
        time.sleep(120)
    return run_shard(config, items, seed, emit)


def sigkill_runner(config, items, seed, emit):
    if _trip_marker():
        os.kill(os.getpid(), signal.SIGKILL)
    return run_shard(config, items, seed, emit)


def oversized_shard_runner(config, items, seed, emit):
    """Fails every multi-injection shard (drives the split path to
    single-injection shards, which succeed)."""
    if len(items) > 1:
        raise RuntimeError("shard too big")
    return run_shard(config, items, seed, emit)


def partial_then_sigkill_runner(config, items, seed, emit):
    """Emit half the shard's records, then die like a SIGKILLed worker."""
    if _trip_marker():
        done = 0

        def gated(pos, rec):
            nonlocal done
            emit(pos, rec)
            done += 1
            if done >= max(1, len(items) // 2):
                time.sleep(0.3)  # let the queue feeder flush
                os.kill(os.getpid(), signal.SIGKILL)
        return run_shard(config, items, seed, gated)
    return run_shard(config, items, seed, emit)


class RecordingProgress(CampaignProgress):
    def __init__(self):
        self.retries, self.splits, self.degrades = [], [], []
        self.completed, self.records = [], []
        self.resumed = 0

    def on_record(self, position, record):
        self.records.append(position)

    def on_resume(self, recovered):
        self.resumed = recovered

    def on_shard_complete(self, shard_id, size, attempt):
        self.completed.append((shard_id, size, attempt))

    def on_shard_retry(self, shard_id, attempt, reason, delay):
        self.retries.append((shard_id, attempt, reason))

    def on_shard_split(self, shard_id, remaining):
        self.splits.append((shard_id, remaining))

    def on_degrade(self, reason):
        self.degrades.append(reason)


@pytest.fixture()
def marker(tmp_path, monkeypatch):
    path = tmp_path / "fault.marker"
    monkeypatch.setenv(_MARKER_ENV, str(path))
    return path


@pytest.fixture(scope="module")
def serial_reference():
    """The uninterrupted serial result every supervised run must match."""
    experiment = SfiExperiment(CONFIG)
    return experiment.run_campaign(SITES, seed=11)


def _outcomes(result):
    return [record.outcome for record in result.records]


class TestHappyPath:
    @pytest.mark.slow
    def test_identical_for_any_worker_count(self, serial_reference):
        supervised = CampaignSupervisor(CONFIG, workers=3, backoff_base=0.0)
        result = supervised.run(SITES, seed=11)
        assert _outcomes(result) == _outcomes(serial_reference)
        assert [r.site_name for r in result.records] == \
            [r.site_name for r in serial_reference.records]
        assert [r.inject_cycle for r in result.records] == \
            [r.inject_cycle for r in serial_reference.records]
        assert result.population_bits == serial_reference.population_bits

    def test_serial_supervisor_matches_plain_campaign(self, serial_reference):
        result = CampaignSupervisor(CONFIG, workers=1).run(SITES, seed=11)
        assert _outcomes(result) == _outcomes(serial_reference)
        assert result.population_bits == serial_reference.population_bits


class TestWorkerFailures:
    @pytest.mark.slow
    def test_worker_exception_is_retried(self, marker, serial_reference):
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, max_retries=2, backoff_base=0.0,
            progress=progress, runner=raising_runner)
        result = supervisor.run(SITES, seed=11)
        assert result.counts() == serial_reference.counts()
        assert _outcomes(result) == _outcomes(serial_reference)
        assert progress.retries, "the injected fault must be reported"

    @pytest.mark.slow
    def test_worker_hang_is_killed_and_retried(self, marker, serial_reference):
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, shard_timeout=6.0, max_retries=2,
            backoff_base=0.0, progress=progress, runner=hanging_runner)
        result = supervisor.run(SITES, seed=11)
        assert result.counts() == serial_reference.counts()
        assert any("timed out" in reason for _, _, reason in progress.retries)

    @pytest.mark.slow
    def test_sigkilled_worker_is_retried(self, marker, serial_reference):
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, max_retries=2, backoff_base=0.0,
            progress=progress, runner=sigkill_runner)
        result = supervisor.run(SITES, seed=11)
        assert result.counts() == serial_reference.counts()
        assert any("died" in reason for _, _, reason in progress.retries)

    def test_permanent_fault_fails_loudly(self, marker):
        """A deterministic per-injection fault must surface as an error,
        never as silently dropped injections."""
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, max_retries=0, backoff_base=0.0,
            runner=always_raising_runner)
        with pytest.raises(RuntimeError, match="permanent worker fault"):
            supervisor.run(SITES[:2], seed=11)

    def test_pool_death_degrades_to_serial(self, monkeypatch,
                                           serial_reference):
        progress = RecordingProgress()

        def broken_spawn(self, job, seed, out_queue):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(CampaignSupervisor, "_spawn", broken_spawn)
        supervisor = CampaignSupervisor(CONFIG, workers=2, progress=progress)
        result = supervisor.run(SITES, seed=11)
        assert _outcomes(result) == _outcomes(serial_reference)
        assert progress.degrades and "spawn" in progress.degrades[0]


class TestPrintProgress:
    """Rate limiting and ETA of the CLI's default narration."""

    @staticmethod
    def _progress(clock_now, every=1, min_interval=10.0):
        return PrintProgress(every=every, min_interval=min_interval,
                             clock=lambda: clock_now[0])

    def test_rate_limited_between_lines(self, capsys):
        clock_now = [0.0]
        progress = self._progress(clock_now)
        progress.on_start(5, 5)
        for position in range(4):
            clock_now[0] += 1.0
            progress.on_record(position, None)
        out = capsys.readouterr().out
        # Only the first record's line fits inside min_interval.
        assert out.count("[supervisor]") == 1

    def test_final_line_always_prints(self, capsys):
        clock_now = [0.0]
        progress = self._progress(clock_now)
        progress.on_start(3, 3)
        for position in range(3):
            clock_now[0] += 0.001  # far below min_interval
            progress.on_record(position, None)
        out = capsys.readouterr().out
        assert "3/3 injections" in out

    def test_rate_and_eta_derived_from_clock(self, capsys):
        clock_now = [0.0]
        progress = self._progress(clock_now, min_interval=0.0)
        progress.on_start(4, 4)
        clock_now[0] += 2.0
        progress.on_record(0, None)
        out = capsys.readouterr().out
        # 1 injection in 2s: 0.5 inj/s, 3 remaining -> 6s.
        assert "0.5 inj/s" in out
        assert "ETA 6s" in out

    def test_eta_formatting(self):
        assert PrintProgress._format_eta(42) == "42s"
        assert PrintProgress._format_eta(95) == "1m35s"
        assert PrintProgress._format_eta(3725) == "1h02m"

    def test_resume_banner(self, capsys):
        progress = self._progress([0.0])
        progress.on_start(10, 6)
        assert "resuming: 4/10" in capsys.readouterr().out

    def test_tee_forwards_and_skips_none(self):
        left, right = RecordingProgress(), RecordingProgress()
        tee = TeeProgress(left, None, right)
        tee.on_record(3, "rec")
        tee.on_degrade("why")
        assert left.records == right.records == [3]
        assert left.degrades == right.degrades == ["why"]


class TestInstrumentation:
    """The supervisor's metric series under normal and abnormal paths."""

    def test_serial_run_records_all_series(self):
        registry = MetricsRegistry()
        CampaignSupervisor(CONFIG, workers=1, metrics=registry).run(
            SITES, seed=11)
        injections = registry.get("sfi_injections_total")
        assert sum(injections.series().values()) == len(SITES)
        assert registry.get("sfi_shard_wall_seconds").count(
            status="serial") == 1
        assert registry.get("sfi_campaign_seconds").value() > 0
        assert registry.get("sfi_injections_per_second").value() > 0
        assert registry.get("sfi_workers_running").value() == 0

    @pytest.mark.slow
    def test_retry_series(self, marker):
        registry = MetricsRegistry()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, max_retries=2, backoff_base=0.0,
            metrics=registry, runner=raising_runner)
        supervisor.run(SITES, seed=11)
        assert registry.get("sfi_shard_retries_total").value() >= 1
        wall = registry.get("sfi_shard_wall_seconds")
        assert wall.count(status="failed") >= 1
        assert wall.count(status="ok") >= 1
        # Every spawned shard waited in the queue at least once.
        assert registry.get("sfi_shard_queue_wait_seconds").count() >= 2
        assert sum(registry.get("sfi_injections_total")
                   .series().values()) == len(SITES)

    @pytest.mark.slow
    def test_split_series(self):
        # Three processes: the two spawned workers take the two leases
        # (and split them), so the parent's share, which never runs the
        # runner, is empty until the splits.
        registry = MetricsRegistry()
        supervisor = CampaignSupervisor(
            CONFIG, workers=3, max_retries=0, backoff_base=0.0,
            metrics=registry, runner=oversized_shard_runner)
        result = supervisor.run(SITES[:4], seed=11)
        assert result.total == 4
        assert registry.get("sfi_shard_splits_total").value() == 2
        assert sum(registry.get("sfi_injections_total")
                   .series().values()) == 4

    def test_degrade_series(self, monkeypatch):
        registry = MetricsRegistry()

        def broken_spawn(self, job, seed, out_queue):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(CampaignSupervisor, "_spawn", broken_spawn)
        supervisor = CampaignSupervisor(CONFIG, workers=2, metrics=registry)
        supervisor.run(SITES, seed=11)
        assert registry.get("sfi_degrades_total").value() == 1
        assert registry.get("sfi_shard_wall_seconds").count(
            status="serial") == 1
        assert sum(registry.get("sfi_injections_total")
                   .series().values()) == len(SITES)

    def test_resume_counts_recovered(self, tmp_path):
        journal = tmp_path / "campaign.journal"
        CampaignSupervisor(CONFIG, workers=1, journal=journal).run(
            SITES, seed=11)
        registry = MetricsRegistry()
        CampaignSupervisor(CONFIG, workers=1, journal=journal, resume=True,
                           metrics=registry).run(SITES, seed=11)
        assert registry.get("sfi_injections_recovered_total") \
            .value() == len(SITES)
        # Nothing re-ran, so no outcome counts this run.
        assert registry.get("sfi_injections_total").series() == {}


class TestJournalAndResume:
    def _journal_positions(self, path):
        lines = Path(path).read_text().splitlines()
        return [json.loads(line)["pos"] for line in lines[1:]]

    def test_journal_written_incrementally(self, tmp_path, serial_reference):
        journal = tmp_path / "campaign.journal"
        supervisor = CampaignSupervisor(CONFIG, workers=1,
                                        journal=journal)
        supervisor.run(SITES, seed=11)
        assert sorted(self._journal_positions(journal)) == \
            list(range(len(SITES)))

    def test_truncated_journal_recovers_and_resumes(self, tmp_path,
                                                    serial_reference):
        journal = tmp_path / "campaign.journal"
        CampaignSupervisor(CONFIG, workers=1, journal=journal).run(
            SITES, seed=11)
        # Keep the header + 3 records, then simulate a crash mid-append.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:4]) + lines[4][:25])
        progress = RecordingProgress()
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            result = CampaignSupervisor(
                CONFIG, workers=1, journal=journal, resume=True,
                progress=progress).run(SITES, seed=11)
        assert progress.resumed == 3
        assert result.counts() == serial_reference.counts()
        assert _outcomes(result) == _outcomes(serial_reference)

    def test_resume_rejects_mismatched_campaign(self, tmp_path):
        journal = tmp_path / "campaign.journal"
        CampaignSupervisor(CONFIG, workers=1, journal=journal).run(
            SITES[:3], seed=11)
        with pytest.raises(CampaignStorageError, match="different"):
            CampaignSupervisor(CONFIG, workers=1, journal=journal,
                               resume=True).run(SITES[:3], seed=99)

    @pytest.mark.slow
    def test_partial_worker_death_loses_no_reported_records(
            self, marker, tmp_path, serial_reference):
        """Records a SIGKILLed worker already reported are journaled;
        only its unreported tail re-runs."""
        journal = tmp_path / "campaign.journal"
        progress = RecordingProgress()
        supervisor = CampaignSupervisor(
            CONFIG, workers=2, max_retries=2, backoff_base=0.0,
            journal=journal, progress=progress,
            runner=partial_then_sigkill_runner)
        result = supervisor.run(SITES, seed=11)
        assert result.counts() == serial_reference.counts()
        assert sorted(set(self._journal_positions(journal))) == \
            list(range(len(SITES)))

    @pytest.mark.slow
    def test_parent_sigkill_then_resume_matches_uninterrupted(
            self, tmp_path, serial_reference):
        """Kill the whole campaign process mid-run; resuming from its
        journal completes with the same outcome counts."""
        journal = tmp_path / "campaign.journal"
        driver = tmp_path / "driver.py"
        driver.write_text(f"""
import tests.test_supervisor as sup
from repro.sfi import CampaignSupervisor
CampaignSupervisor(sup.CONFIG, workers=1,
                   journal={str(journal)!r}).run(sup.SITES, seed=11)
""")
        env = dict(os.environ, PYTHONPATH="src" + os.pathsep + ".")
        process = subprocess.Popen([sys.executable, str(driver)],
                                   cwd=Path(__file__).resolve().parent.parent,
                                   env=env)
        try:
            deadline = time.monotonic() + 120
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
        assert journal.exists(), "campaign never journaled a record"
        result = CampaignSupervisor(CONFIG, workers=1, journal=journal,
                                    resume=True).run(SITES, seed=11)
        assert result.counts() == serial_reference.counts()
        assert _outcomes(result) == _outcomes(serial_reference)
