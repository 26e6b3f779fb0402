"""End-to-end campaign benchmark for the SFI reproduction.

    python3 perfbench/run.py --workload scalar-journal --seed 1 \\
        --seconds 30 --trace 0

Runs a fixed number of rounds of one workload (``campaign.py``: a whole
journaled campaign from set-up to answered warehouse queries, each in a
fresh interpreter), one after another from this single process, and
prints every metric by name and unit, then one JSON line:

* ``--trace 0``: over the rounds, ``setup_s`` and ``peak_rss_mb`` as
  medians, ``trials_per_s`` pooled (all records over all campaign
  time) and ``wall_s`` as the mean; ``failed_frac`` as a text line and
  as ``failed``/``attempted``;
* ``--trace 1``: each campaign runs untraced, then traced; the
  per-layer metrics come from the traced rounds (``spans.py``) and
  ``trace.overhead`` compares the two kinds.

The round count follows from ``--seconds`` and the workload's
reference round time, never from how fast this run goes, so every run
of a seed runs the same campaigns.  The first round is followed,
untimed, by the correctness gate (``campaign.gate``).  Exits non-zero
without a result line when the program's sources are missing or a
round fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from campaign import WORKLOADS  # noqa: E402
from spans import POOL  # noqa: E402

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Layer -> prefix of its span names, for the per-layer totals.
LAYERS = ("avp", "sfi", "emulator", "cpu", "bitplane", "storage",
          "supervisor", "provenance", "warehouse")

#: Early-exit reasons of the scalar fast path and the bit-plane waves.
EXIT_REASONS = ("golden", "masked", "rejoin", "wave-converge",
                "wave-survive")

OUTCOMES = {"Vanished": "vanished", "Corrected": "corrected",
            "Hang": "hang", "Checkstop": "checkstop",
            "Bad Arch State": "sdc"}

#: A round must end within this; the whole run within 180 s.
ROUND_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0

#: Fewest untraced rounds of a run (campaigns of a traced run: 2).
MIN_ROUNDS = 3


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (``--trace 1``), name -> unit."""
    units = {
        "avp.make_suite_s": "s",
        "sfi.prepare_s": "s",
        "emulator.rungs": "count",
        "emulator.clock_s": "s",
        "emulator.clock_cycles": "cycles",
        "emulator.sim_cycles_per_s": "cycles/s",
        "emulator.restore_nearest_s": "s",
        "emulator.restore_nearest_calls": "count",
        "emulator.ladder_hit_ratio": "ratio",
        "emulator.inject_s": "s",
        "emulator.checkpoint_s": "s",
        "cpu.state_digest_s": "s",
        "cpu.state_digest_calls": "count",
        "cpu.restore_s": "s",
        "cpu.snapshot_s": "s",
        "bitplane.compile_s": "s",
        "bitplane.resolve_wave_s": "s",
        "bitplane.waves": "count",
        "bitplane.peels": "count",
        "bitplane.peel_ratio": "ratio",
        "sfi.run_plan_s": "s",
        "sfi.run_one_s": "s",
        "sfi.trial_ms_p50": "ms",
        "sfi.trial_ms_p99": "ms",
        "sfi.classify_s": "s",
        "sfi.early_exit_ratio": "ratio",
    }
    for reason in EXIT_REASONS:
        units[f"sfi.early_exits.{reason}"] = "count"
    units.update({
        "storage.journal_append_s": "s",
        "storage.journal_bytes": "bytes",
        "supervisor.worker_ready_s": "s",
        "supervisor.shard_wall_s": "s",
        "supervisor.queue_wait_s": "s",
        "supervisor.collect_s": "s",
        "supervisor.pool_idle_s": "s",
        "supervisor.retries": "count",
        "provenance.payload_bytes": "bytes",
        "provenance.sidecar_write_s": "s",
        "warehouse.ingest_s": "s",
        "warehouse.ingest_records_per_s": "1/s",
        "warehouse.query_s": "s",
    })
    for layer in LAYERS:
        units[f"layer.{layer}_s"] = "s"
    units.update({
        "trace.coverage": "ratio",
        "trace.unattributed_s": "s",
        "trace.overhead": "ratio",
        "sim.trials": "count",
    })
    for name in OUTCOMES.values():
        units[f"sim.outcome.{name}"] = "count"
    return units


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(round_: dict) -> dict[str, float]:
    """One traced round's per-layer figures (times are self times)."""
    layers = round_["layers"]
    self_s = layers["self_s"]
    counts = layers["counts"]
    trials = layers["trials"]

    def own(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names)

    clock_s = own("emulator.clock")
    cycles = counts.get("emulator.clock_cycles", 0)
    restores = counts.get("emulator.restore_nearest_calls", 0)
    lanes = counts.get("bitplane.lanes", 0)
    exits = layers["early_exits"]
    ingest_s = own("warehouse.ingest")
    metrics = {
        "avp.make_suite_s": own("avp.make_suite"),
        "sfi.prepare_s": own("sfi.prepare"),
        "emulator.rungs": counts.get("emulator.rungs", 0),
        "emulator.clock_s": clock_s,
        "emulator.clock_cycles": cycles,
        "emulator.sim_cycles_per_s": cycles / clock_s if clock_s else 0.0,
        "emulator.restore_nearest_s": own("emulator.restore_nearest"),
        "emulator.restore_nearest_calls": restores,
        "emulator.ladder_hit_ratio": (
            counts.get("emulator.ladder_hits", 0) / restores
            if restores else 0.0),
        "emulator.inject_s": own("emulator.inject"),
        "emulator.checkpoint_s": own("emulator.save_rung", "emulator.reload",
                                     "emulator.checkpoint"),
        "cpu.state_digest_s": own("cpu.state_digest"),
        "cpu.state_digest_calls": counts.get("cpu.state_digest_calls", 0),
        "cpu.restore_s": own("cpu.restore"),
        "cpu.snapshot_s": own("cpu.snapshot"),
        "bitplane.compile_s": own("bitplane.compile"),
        "bitplane.resolve_wave_s": own("bitplane.resolve_wave"),
        "bitplane.waves": counts.get("bitplane.waves", 0),
        "bitplane.peels": counts.get("bitplane.peels", 0),
        "bitplane.peel_ratio": (counts.get("bitplane.peels", 0) / lanes
                                if lanes else 0.0),
        "sfi.run_plan_s": own("sfi.run_plan"),
        "sfi.run_one_s": own("sfi.run_one"),
        "sfi.trial_ms_p50": 1000 * percentile(layers["trial_gaps_s"], 0.5),
        "sfi.trial_ms_p99": 1000 * percentile(layers["trial_gaps_s"], 0.99),
        "sfi.classify_s": own("sfi.classify"),
        "sfi.early_exit_ratio": sum(exits.values()) / trials,
    }
    for reason in EXIT_REASONS:
        metrics[f"sfi.early_exits.{reason}"] = exits.get(reason, 0)
    metrics.update({
        "storage.journal_append_s": own("storage.journal_append"),
        "storage.journal_bytes": layers["journal_bytes"],
        "supervisor.worker_ready_s": layers["first_record_s"],
        "supervisor.shard_wall_s": layers["shard_wall_s"],
        "supervisor.queue_wait_s": layers["queue_wait_s"],
        "supervisor.collect_s": own("supervisor.collect"),
        "supervisor.pool_idle_s": layers["coverage"]["pool_idle_s"],
        "supervisor.retries": layers["retries"],
        "provenance.payload_bytes": layers["provenance_bytes"],
        "provenance.sidecar_write_s": own("provenance.sidecar_write"),
        "warehouse.ingest_s": ingest_s,
        "warehouse.ingest_records_per_s": (trials / ingest_s
                                           if ingest_s else 0.0),
        "warehouse.query_s": own("warehouse.query"),
    })
    # The pool span's own time is the parent waiting on its workers,
    # which supervisor.pool_idle_s reports as wall-clock instead.
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = sum(
            (seconds for name, seconds in self_s.items()
             if name.split(".")[0] == layer and name != POOL), 0.0)
    metrics.update({
        "trace.coverage": layers["coverage"]["coverage"],
        "trace.unattributed_s": layers["coverage"]["unattributed_s"],
        "sim.trials": round_["records"],
    })
    for outcome, name in OUTCOMES.items():
        metrics[f"sim.outcome.{name}"] = round_["outcomes"][outcome]
    return metrics


#: Units of per-layer figures that repeat exactly for a campaign: the
#: simulated-statistics fingerprint.
EXACT_UNITS = ("count", "cycles", "bytes")


def campaign_seed(seed: int, index: int) -> int:
    """Seed of a run's campaign ``index``.

    Every campaign samples its own sites, so a run covers several
    campaigns' worth of site mix, not one draw; a workload's cost varies
    by several percent between draws.
    """
    return seed * 1000 + index


def round_count(workload: str, seconds: float) -> int:
    """Untraced rounds of a run: as many as ``seconds`` holds at the
    workload's reference round time, and at least :data:`MIN_ROUNDS`."""
    return max(MIN_ROUNDS, int(seconds / WORKLOADS[workload]["round_s"]))


def run_round(spec: dict) -> tuple[int, str, str]:
    """Run one round in a fresh interpreter and its own session, so a
    round that overruns is killed together with its pool workers."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL, "", f"round timed out after " \
            f"{ROUND_TIMEOUT_S:.0f} s\n"
    return proc.returncode, stdout, stderr


def run_rounds(workload: str, seed: int, seconds: float,
               trace: int) -> list[dict]:
    """Run the rounds of one run; the first carries the correctness
    gate.  Under ``--trace 1`` each campaign runs untraced, then traced,
    so trace.overhead compares equal work."""
    count = round_count(workload, seconds)
    if trace:
        schedule = [(index, traced) for index in range(max(2, count // 2))
                    for traced in (False, True)]
    else:
        schedule = [(index, False) for index in range(count)]
    out = HERE / "out" / f"{workload}-seed{seed}"
    shutil.rmtree(out, ignore_errors=True)
    rounds: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    for number, (index, traced) in enumerate(schedule):
        # Only a host far slower than the reference one gets here: drop
        # the remaining campaigns rather than overrun the run's limit.
        if rounds and not traced and time.perf_counter() - started \
                + longest * (1 + trace) > RUN_BUDGET_S:
            print(f"perfbench: ran {index} of {schedule[-1][0] + 1} "
                  f"campaigns to end in time", file=sys.stderr)
            break
        spec = {"workload": workload, "seed": campaign_seed(seed, index),
                "trials": WORKLOADS[workload]["trials"], "traced": traced,
                "dir": str(out / f"round{number}"), "gate": number == 0}
        begin = time.perf_counter()
        returncode, stdout, stderr = run_round(spec)
        longest = max(longest, time.perf_counter() - begin)
        if returncode != 0:
            sys.stderr.write(stdout + stderr)
            raise RuntimeError(f"round {number} exited with {returncode}")
        rounds.append(json.loads(stdout.strip().splitlines()[-1]))
        # Keep only the spans; journals and stores are rebuilt per round.
        directory = Path(spec["dir"])
        for path in directory.iterdir():
            if path.name != "spans.jsonl.gz":
                path.unlink()
        if not any(directory.iterdir()):
            directory.rmdir()
    if not any(out.iterdir()):
        out.rmdir()
    return rounds


def summarize(workload: str, seed: int, trace: int,
              rounds: list[dict]) -> dict:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    gate = rounds[0]["gate"]
    attempted = sum(r["trials"] for r in rounds)
    failed = sum(r["trials"] - r["records"] for r in rounds)
    failed += (gate["missing"] + gate["journal"] + gate["warehouse"]
               + gate["slow_path"])
    failed = min(failed, attempted)
    correct = failed == 0 and \
        gate["journal_digest"] == rounds[0]["record_digest"]

    def median(key: str, source: list[dict]) -> float:
        return statistics.median(r[key] for r in source)

    def pooled_rate(source: list[dict]) -> float:
        return (sum(r["records"] for r in source)
                / sum(r["campaign_s"] for r in source))

    lines = [f"workload {workload} seed {seed}: "
             f"{len(untraced)} untraced + {len(traced)} traced rounds of "
             f"{rounds[0]['trials']} trials",
             f"record_digest {rounds[0]['record_digest']}",
             f"gate {json.dumps(gate, sort_keys=True)}"]
    if trace:
        per_round = [layer_metrics(r) for r in traced]
        units = per_layer_units()
        # Counts are exact: those of the first traced campaign, the same
        # for every run of this seed.  Times and ratios are medians.
        values = {name: (per_round[0][name] if unit in EXACT_UNITS else
                         statistics.median(m[name] for m in per_round))
                  for name, unit in units.items()
                  if name != "trace.overhead"}
        values["trace.overhead"] = (pooled_rate(untraced)
                                    / pooled_rate(traced) - 1.0)
        lines.append("fingerprint " + json.dumps(
            {name: values[name] for name, unit in units.items()
             if unit in EXACT_UNITS}))
    else:
        units = dict(END_TO_END)
        values = {name: median(name, untraced) for name in units}
        # Each round is another site draw, and a draw's cost is skewed
        # by its few expensive trials, so throughput and wall time are
        # pooled over the run's campaigns rather than taken as medians.
        values["trials_per_s"] = pooled_rate(untraced)
        values["wall_s"] = statistics.fmean(r["wall_s"] for r in untraced)
        lines.append("outcomes " + json.dumps(rounds[0]["outcomes"]))
    for name, unit in units.items():
        lines.append(f"{name} {values[name]!r} {unit}")
    lines.append(f"failed_frac {failed / attempted!r} ratio "
                 f"({failed} of {attempted} trials)")
    return {"lines": lines, "result": {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary = summarize(args.workload, args.seed, args.trace, rounds)
    for line in summary["lines"]:
        print(line)
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
