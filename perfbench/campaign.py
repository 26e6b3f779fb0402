"""One benchmark round: a whole ``repro-sfi`` campaign in a fresh interpreter.

Run as ``python3 perfbench/campaign.py '<json spec>'`` (``run.py`` does
this once per round); prints one JSON object with the round's figures.
A round mirrors the CLI path a user takes:

1. set-up — ``SfiExperiment(config)`` (the CLI's probe experiment);
2. sites from ``random_sample(latch_map, N, Random(seed ^ 0x5F1))``;
3. the campaign through :class:`CampaignSupervisor` with a journal
   (``run_parallel_campaign``, as ``repro-sfi campaign --journal``);
4. for ``provenance-pool`` the ``.provenance`` sidecar
   (``write_provenance_jsonl``, as ``repro-sfi propagation --jsonl``);
5. ``Warehouse.ingest_journal`` and the ``repro.warehouse.queries`` set.

The interpreter is new for every round, so process-level caches (the
bit-plane schedule cache, the supervisor's per-process experiment) start
empty, as they do for every CLI invocation.  Untimed, after the round,
the correctness gate (:func:`gate`) can check the round's output.
"""

# Taken before anything else, so wall_s includes importing the program.
import time

_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Workload name -> campaign shape.  ``trials`` is the campaign size:
#: the CLI default of the command the workload mirrors (``repro-sfi
#: campaign --flips 500``, ``repro-sfi propagation --flips 200``).
#: ``round_s`` is the time a run allots one round (``run.round_count``),
#: from the round's wall time on the reference host (2 vCPUs: about 3.3,
#: 7.8 and 7.4 s), so a 30 s run holds 8, 4 and 4 rounds.  With fewer
#: than four, one slow stretch of the shared host moves a bit-plane or
#: pool run's pooled rate by nearly the regression bound.
#: ``scalar-journal`` and ``bitplane-journal`` must share sizes and
#: seeds: their records are required to be identical.
WORKLOADS = {
    "scalar-journal": {"backend": "scalar", "provenance": False,
                       "workers": 1, "trials": 500, "round_s": 3.6},
    "bitplane-journal": {"backend": "bitplane", "provenance": False,
                         "workers": 1, "trials": 500, "round_s": 7.5},
    "provenance-pool": {"backend": "scalar", "provenance": True,
                        "workers": 2, "trials": 200, "round_s": 7.5},
}

#: CLI default: ``repro-sfi campaign --suite-size 4``.
SUITE_SIZE = 4

#: Slow-path re-runs per gate.
GATE_SAMPLE = 12


def campaign_config(workload: str):
    from repro.sfi.campaign import CampaignConfig
    shape = WORKLOADS[workload]
    return CampaignConfig(suite_size=SUITE_SIZE, backend=shape["backend"],
                          provenance=shape["provenance"])


def pool_workers(workload: str) -> int:
    """Pool size: the workload's, never more than the host's cores."""
    return max(1, min(WORKLOADS[workload]["workers"], os.cpu_count() or 1))


def sample_sites(latch_map, trials: int, seed: int) -> list[int]:
    """The campaign's sites, drawn as ``repro-sfi campaign`` draws them."""
    from repro.sfi.sampling import random_sample
    return random_sample(latch_map, trials, random.Random(seed ^ 0x5F1))


def record_digest(records) -> str:
    """SHA-256 over the canonical content of records in position order.

    Covers every field of :class:`InjectionRecord` including the event
    trace; backends and paths that write identical records agree.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps([
            record.site_index, record.site_name, record.unit,
            record.kind.value, record.ring, record.testcase_seed,
            record.inject_cycle, record.outcome.value,
            [[event.cycle, event.kind.value, event.detail]
             for event in record.trace],
        ]).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def outcome_counts(records) -> dict[str, int]:
    from repro.sfi.outcomes import OUTCOME_ORDER
    counts = {outcome.value: 0 for outcome in OUTCOME_ORDER}
    for record in records:
        counts[record.outcome.value] += 1
    return counts


def ingest_and_query(db: Path, journal: Path, name: str, tracer) -> None:
    """Ingest ``journal`` into the warehouse at ``db`` and answer the
    query set ``repro-sfi query`` offers."""
    from repro.warehouse import Warehouse, queries
    with Warehouse(db) as warehouse:
        warehouse.ingest_journal(journal, name=name)
        with tracer.span("warehouse.query"):
            queries.render_campaigns(warehouse)
            queries.outcome_totals(warehouse, name)
            queries.unit_outcomes(warehouse, name)
            queries.ser_trend(warehouse)
            queries.detection_latency_percentiles(warehouse, name)
            queries.fastpath_stats(warehouse)
            queries.lease_health(warehouse)
            queries.convergence(warehouse, name).snapshot()
            queries.span_phases(warehouse, name)


# ----------------------------------------------------------------------
# Correctness gate (untimed).

def gate(journal: Path, db: Path, name: str, records, config, seed: int,
         sites: list[int], sample: int) -> dict:
    """Check one campaign's output; returns the mismatch tally.

    * ``missing``: planned positions absent from the journal;
    * ``journal``: issues :func:`verify_journal` reports;
    * ``warehouse``: records by which the warehouse's
      ``outcome_totals`` differ from the in-memory result's counts;
    * ``slow_path``: journaled records among a seeded sample that differ
      from a re-run on the slow path (``fastpath=False``, scalar, no
      taint tracking; same testcase and inject cycle).
    """
    from repro.sfi.campaign import (
        SfiExperiment,
        injection_rng,
        plan_injections,
    )
    from repro.sfi.storage import read_journal, verify_journal
    from repro.warehouse import Warehouse, queries

    report = verify_journal(journal)
    journal_issues = len(report.issues) + int(report.torn_tail)
    _header, covered = read_journal(journal)
    missing = sum(1 for position in range(len(sites))
                  if position not in covered)

    expected = outcome_counts(records)
    with Warehouse(db) as warehouse:
        stored = queries.outcome_totals(warehouse, name)
    warehouse_delta = sum(abs(stored.get(key, 0) - count)
                          for key, count in expected.items())
    warehouse_delta += sum(count for key, count in stored.items()
                           if key not in expected)

    slow = SfiExperiment(dataclasses.replace(
        config, fastpath=False, backend="scalar", provenance=False))
    plan = plan_injections(sites, len(slow.suite))
    rng = random.Random(f"perfbench-gate:{seed}")
    positions = sorted(rng.sample(range(len(plan)), min(sample, len(plan))))
    slow_mismatches = []
    for position in positions:
        item = plan[position]
        cycles = slow.references[item.testcase_index].cycles
        inject_cycle = injection_rng(seed, item.site_index,
                                     item.occurrence).randrange(0, cycles)
        oracle = slow.run_one(item.site_index, item.testcase_index,
                              inject_cycle)
        if covered.get(position) != oracle:
            slow_mismatches.append(position)
    return {
        "missing": missing,
        "journal": journal_issues,
        "warehouse": warehouse_delta,
        "slow_path": len(slow_mismatches),
        "slow_path_positions": slow_mismatches,
        "sampled": len(positions),
        "journal_digest": record_digest(
            covered[position] for position in sorted(covered)),
    }


# ----------------------------------------------------------------------
# One round.

def _worker_reports(directory: Path) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(directory.glob("worker-*.json"))]


def run_round(spec: dict) -> dict:
    """Run one round as described by ``spec`` (see ``run.py``)."""
    workload = spec["workload"]
    seed = spec["seed"]
    trials = spec["trials"]
    traced = spec["traced"]
    directory = Path(spec["dir"])
    directory.mkdir(parents=True, exist_ok=True)
    os.environ[spans.ROUND_DIR_ENV] = str(directory)
    os.environ[spans.ROUND_PID_ENV] = str(os.getpid())

    tracer = spans.Tracer() if traced else spans.NullTracer()
    if traced:
        spans.install(tracer)
        spans.activate(tracer)
    from repro.analysis import write_provenance_jsonl
    from repro.obs.metrics import MetricsRegistry
    from repro.sfi.campaign import SfiExperiment
    from repro.sfi.supervisor import CampaignSupervisor

    config = campaign_config(workload)
    setup_start = time.perf_counter()
    probe = SfiExperiment(config)
    setup_s = time.perf_counter() - setup_start

    sites = sample_sites(probe.latch_map, trials, seed)
    journal = directory / "campaign.jsonl"
    supervisor_metrics = MetricsRegistry() if traced else None
    supervisor = CampaignSupervisor(
        config, workers=pool_workers(workload),
        population_bits=len(probe.latch_map), journal=journal,
        reference_cycles=[r.cycles for r in probe.references],
        runner=spans.traced_shard if traced else spans.measured_shard,
        metrics=supervisor_metrics)
    campaign_start = time.perf_counter()
    with tracer.span(spans.CAMPAIGN):
        result = supervisor.run(sites, seed=seed)
    campaign_end = time.perf_counter()
    campaign_s = campaign_end - campaign_start

    if config.provenance:
        with tracer.span("provenance.sidecar_write"):
            write_provenance_jsonl(supervisor.provenance_payloads,
                                   f"{journal}.provenance")

    db = directory / "warehouse.sqlite"
    ingest_and_query(db, journal, workload, tracer)
    wall_s = time.perf_counter() - _T0

    workers = _worker_reports(directory)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_kib = self_kib + sum(report["rss_kib"] for report in workers)

    out = {
        "workload": workload, "seed": seed, "trials": trials,
        "records": result.total, "traced": traced,
        "setup_s": setup_s, "campaign_s": campaign_s,
        "trials_per_s": result.total / campaign_s, "wall_s": wall_s,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "outcomes": outcome_counts(result.records),
        "record_digest": record_digest(result.records),
    }
    if traced:
        out["layers"] = _layer_report(
            tracer, workers, supervisor_metrics, (campaign_start,
                                                  campaign_end),
            directory, journal, result.total)
    if spec["gate"]:
        out["gate"] = gate(journal, db, workload, result.records, config,
                           seed, sites, GATE_SAMPLE)
    return out


def _layer_report(tracer, workers, supervisor_metrics, window, directory,
                  journal, trials) -> dict:
    """Per-layer self times, counts and series of one traced round."""
    from repro.obs.metrics import MetricsRegistry

    processes = {os.getpid(): tracer.spans}
    counts = dict(tracer.counts)
    experiment_metrics = MetricsRegistry()
    gaps = []
    for report in tracer.shard_reports + workers:
        experiment_metrics.merge(
            MetricsRegistry.from_snapshot(report["registry"]))
        gaps.extend(report["gaps"])
    for report in workers:
        processes[report["pid"]] = [tuple(span) for span in report["spans"]]
        for key, value in report["counts"].items():
            counts[key] = counts.get(key, 0) + value
    self_s: dict[str, float] = {}
    for process_spans in processes.values():
        for name, seconds in spans.self_times(process_spans).items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    spans.write_spans(directory / "spans.jsonl.gz", processes)

    exits = experiment_metrics.get("sfi_early_exits_total")
    early_exits = {labels[0]: value for labels, value
                   in (exits.series().items() if exits else ())}

    def histogram_sum(name: str) -> float:
        metric = supervisor_metrics.get(name)
        if metric is None:
            return 0.0
        return sum(series.sum for series in metric.series().values())

    retries = supervisor_metrics.get("sfi_shard_retries_total")
    provenance = Path(f"{journal}.provenance")
    return {
        "self_s": self_s,
        "counts": counts,
        "early_exits": early_exits,
        "trial_gaps_s": gaps,
        "first_record_s": (tracer.first_record - window[0]
                           if tracer.first_record is not None else 0.0),
        "shard_wall_s": histogram_sum("sfi_shard_wall_seconds"),
        "queue_wait_s": histogram_sum("sfi_shard_queue_wait_seconds"),
        "retries": retries.value() if retries is not None else 0.0,
        "journal_bytes": journal.stat().st_size,
        "provenance_bytes": (provenance.stat().st_size
                             if provenance.exists() else 0),
        "coverage": spans.coverage(list(processes.values()), window),
        "trials": trials,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_round(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
