"""Self-test of the benchmark harness at a tiny scale (about 30 s).

    python3 perfbench/selftest.py

Runs tiny rounds of every workload (``run.run_round``), summarizes them
as ``run.py`` does, and checks that

* ``BENCHMARK.json`` names exactly the metrics and workloads ``run.py``
  prints, with the same units;
* every workload prints every end-to-end metric (``--trace 0``) and
  every per-layer metric (``--trace 1``) with its unit, as a text line
  and in the result line, and passes its correctness gate;
* the named layers cover at least 95% of every workload's traced
  campaign (``trace.coverage``);
* ``scalar-journal`` and ``bitplane-journal`` write identical records
  for the same seed;
* a journal copy with one altered record fails the gate and raises
  ``failed_frac``;
* without the program's sources the benchmark exits non-zero and
  prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import campaign  # noqa: E402
from run import END_TO_END, per_layer_units, run_round, summarize  # noqa: E402
from spans import NullTracer  # noqa: E402

SEED = 7
#: Trials per tiny round.  The pool's fixed start and stop cost (about
#: 0.05 s outside any span) must stay well below 5% of the campaign.
TINY = 48
OUT = HERE / "out" / "selftest"
failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def tiny_round(workload: str, traced: bool) -> tuple[dict, Path]:
    directory = OUT / f"{workload}-{'traced' if traced else 'untraced'}"
    spec = {"workload": workload, "seed": SEED, "trials": TINY,
            "traced": traced, "dir": str(directory), "gate": not traced}
    returncode, stdout, stderr = run_round(spec)
    if returncode != 0:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"{workload} round exited with {returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), directory


def check_listing(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check(per_layer == per_layer_units(),
          "BENCHMARK.json per_layer matches run.py")
    check({w["name"] for w in spec["workloads"]} == set(campaign.WORKLOADS),
          "BENCHMARK.json workloads match campaign.py")


def check_metrics(workload: str, trace: int, rounds: list[dict],
                  units: dict) -> dict:
    summary = summarize(workload, SEED, trace, rounds)
    lines, result = summary["lines"], summary["result"]
    printed = {line.split()[0]: line.split()[-1] for line in lines
               if len(line.split()) == 3}
    for name, unit in units.items():
        check(printed.get(name) == unit
              and result["metrics"].get(name, {}).get("unit") == unit,
              f"{workload} --trace {trace} prints {name} [{unit}]")
    check(set(result["metrics"]) == set(units),
          f"{workload} --trace {trace} prints no other metric")
    check(any(line.startswith("failed_frac ") for line in lines),
          f"{workload} --trace {trace} prints failed_frac")
    check(result["correct"] and result["failed"] == 0,
          f"{workload} --trace {trace} passes the correctness gate")
    return result


def check_corrupted_gate(workload: str, round_: dict,
                         directory: Path) -> None:
    """Alter one record in a copy of the round's journal and gate it."""
    from repro.sfi.campaign import SfiExperiment
    from repro.sfi.storage import read_journal

    journal = directory / "campaign.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    entry = json.loads(lines[1])
    outcome = entry["record"]["outcome"]
    entry["record"]["outcome"] = ("Checkstop" if outcome != "Checkstop"
                                  else "Vanished")
    lines[1] = json.dumps(entry) + "\n"
    corrupted = directory / "corrupted.jsonl"
    corrupted.write_text("".join(lines))
    db = directory / "corrupted.sqlite"
    campaign.ingest_and_query(db, corrupted, workload, NullTracer())

    # The in-memory records and sites are the round's own.
    _header, covered = read_journal(journal)
    records = [covered[position] for position in sorted(covered)]
    config = campaign.campaign_config(workload)
    sites = campaign.sample_sites(SfiExperiment(config).latch_map,
                                  TINY, SEED)
    altered = dict(round_, gate=campaign.gate(
        corrupted, db, workload, records, config, SEED, sites,
        campaign.GATE_SAMPLE))
    summary = summarize(workload, SEED, 0, [altered])
    frac = next(float(line.split()[1]) for line in summary["lines"]
                if line.startswith("failed_frac "))
    result = summary["result"]
    check(not result["correct"] and result["failed"] > 0 and frac > 0,
          "an altered journal record fails the gate and raises failed_frac")


def check_bare_checkout() -> None:
    bare = OUT / "bare-checkout"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-journal",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program's sources: non-zero exit, no result")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    check_listing(json.loads((ROOT / "BENCHMARK.json").read_text()))
    digests = {}
    for workload in campaign.WORKLOADS:
        untraced, directory = tiny_round(workload, traced=False)
        traced, _ = tiny_round(workload, traced=True)
        check_metrics(workload, 0, [untraced], END_TO_END)
        result = check_metrics(workload, 1, [untraced, traced],
                               per_layer_units())
        coverage = result["metrics"]["trace.coverage"]["value"]
        check(coverage >= 0.95,
              f"{workload} trace.coverage {coverage:.3f} >= 0.95")
        digests[workload] = untraced["record_digest"]
        if workload == "scalar-journal":
            check_corrupted_gate(workload, untraced, directory)
    check(digests["scalar-journal"] == digests["bitplane-journal"],
          "scalar-journal and bitplane-journal records are identical")
    check_bare_checkout()
    shutil.rmtree(OUT)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
