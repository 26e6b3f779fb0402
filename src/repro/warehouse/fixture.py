"""Synthetic campaign fixtures for warehouse tests, CI and benchmarks.

Two generators at two scales:

* :func:`write_fixture_journal` writes a real on-disk journal (plus
  optional ``.leases`` / ``.provenance`` sidecars and a torn tail) via
  the production :class:`CampaignJournal` writer — CI ingests a few of
  these and cross-checks the warehouse against a pure-Python fold over
  the same files.
* :func:`populate_synthetic_campaigns` bulk-inserts rows straight into
  a warehouse — the only practical way to stand up the million-record
  store the <1s query budget is asserted against.

Both are deterministic in ``seed``.  Outcome mixes drift with the
campaign index so the SER trend chart has a visible shape; unit and
latch-kind names match the real POWER6-style model.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.cpu.events import EventKind, MachineEvent
from repro.rtl.latch import LatchKind
from repro.sfi.outcomes import Outcome
from repro.sfi.results import InjectionRecord
from repro.sfi.storage import CampaignJournal, record_to_row

__all__ = [
    "populate_synthetic_campaigns",
    "synthetic_record",
    "write_fixture_journal",
]

_UNITS = ("IFU", "IDU", "FXU", "LSU", "FPU", "RUT", "CORE")
_RINGS = ("func", "regfile", "mode")
_KINDS = (LatchKind.FUNC, LatchKind.REGFILE, LatchKind.MODE, LatchKind.GPTR)
_DETECTORS = ("fxu_parity", "lsu_parity", "ifu_parity", "ecc_scrub",
              "hang_counter", "checkstop_collector")

# Base outcome weights; the SDC share is scaled per campaign so the
# cross-campaign SER trend is not flat.
_BASE_WEIGHTS = {
    Outcome.VANISHED: 58,
    Outcome.CORRECTED: 22,
    Outcome.HANG: 4,
    Outcome.CHECKSTOP: 6,
    Outcome.SDC: 10,
}


def _outcome_weights(campaign_index: int) -> tuple[list, list]:
    weights = dict(_BASE_WEIGHTS)
    # Hardening narrative: later campaigns mask more and corrupt less.
    weights[Outcome.SDC] = max(2, weights[Outcome.SDC] - 2 * campaign_index)
    weights[Outcome.VANISHED] += 2 * campaign_index
    return list(weights), list(weights.values())


def synthetic_record(rng: random.Random, site_index: int,
                     campaign_index: int = 0) -> InjectionRecord:
    """One plausible injection record (trace included)."""
    outcomes, weights = _outcome_weights(campaign_index)
    outcome = rng.choices(outcomes, weights)[0]
    unit = rng.choice(_UNITS)
    inject_cycle = rng.randrange(50, 1000)
    trace = [MachineEvent(inject_cycle, EventKind.INJECTION,
                          f"{unit}.lat{site_index} bit flip")]
    if outcome is Outcome.CORRECTED:
        latency = rng.randrange(1, 64)
        trace.append(MachineEvent(inject_cycle + latency,
                                  EventKind.CORRECTED_LOCAL,
                                  f"{rng.choice(_DETECTORS)} corrected"))
    elif outcome is Outcome.HANG:
        latency = rng.randrange(100, 400)
        trace.append(MachineEvent(inject_cycle + latency,
                                  EventKind.HANG_DETECTED,
                                  "hang_counter expired"))
    elif outcome is Outcome.CHECKSTOP:
        latency = rng.randrange(2, 120)
        trace.append(MachineEvent(inject_cycle + latency,
                                  EventKind.ERROR_DETECTED,
                                  f"{rng.choice(_DETECTORS)} mismatch"))
        trace.append(MachineEvent(inject_cycle + latency + 1,
                                  EventKind.CHECKSTOP,
                                  "checkstop_collector fired"))
    return InjectionRecord(
        site_index=site_index,
        site_name=f"{unit}.lat{site_index}",
        unit=unit,
        kind=rng.choice(_KINDS),
        ring=rng.choice(_RINGS),
        testcase_seed=rng.randrange(1 << 16),
        inject_cycle=inject_cycle,
        outcome=outcome,
        trace=tuple(trace),
    )


def write_fixture_journal(path: str | Path, *, seed: int, records: int,
                          campaign_index: int = 0,
                          population_bits: int = 25330,
                          fastpath: bool = True,
                          leases: bool = False,
                          provenance: bool = False,
                          torn_tail: bool = False) -> Path:
    """Write a complete synthetic campaign journal (and sidecars)."""
    path = Path(path)
    rng = random.Random(seed)
    journal = CampaignJournal.create(
        path, seed=seed, total_sites=records,
        population_bits=population_bits,
        meta={"fixture": True, "campaign_index": campaign_index})
    payloads = []
    with journal:
        for position in range(records):
            record = synthetic_record(rng, position, campaign_index)
            extra = None
            if fastpath and rng.random() < 0.5:
                extra = {"fastpath": {
                    "saved_cycles": rng.randrange(100, 1200),
                    "exit": rng.choice(("golden", "frozen"))}}
            journal.append(position, record, extra=extra)
            if provenance and record.outcome is not Outcome.VANISHED:
                payloads.append((position, _provenance_payload(rng, record)))
    if torn_tail:
        with path.open("a") as handle:
            handle.write('{"pos": 999999, "rec')  # no newline: torn
    if leases:
        _write_fixture_leases(path.with_name(path.name + ".leases"),
                              rng, records)
    if provenance:
        _write_fixture_provenance(
            path.with_name(path.name + ".provenance"), payloads)
    return path


def _provenance_payload(rng: random.Random,
                        record: InjectionRecord) -> dict:
    detected = len(record.trace) > 1
    nodes = [f"latch:{record.site_name}"]
    edges = []
    for hop in range(rng.randrange(1, 5)):
        target = f"latch:{rng.choice(_UNITS)}.lat{rng.randrange(200)}"
        edges.append([nodes[-1], target])
        nodes.append(target)
    payload = {
        "pos_site": record.site_index,
        "nodes": nodes,
        "edges": edges,
        "peak_bits": rng.randrange(1, 12),
        "residual_tainted": 0 if detected else rng.randrange(0, 4),
        "detection": None,
    }
    if detected:
        event = record.trace[1]
        payload["detection"] = {
            "detector": event.detail.split(" ")[0],
            "cycle": event.cycle,
            "latency": event.cycle - record.inject_cycle,
        }
    return payload


def _write_fixture_leases(path: Path, rng: random.Random,
                          records: int) -> None:
    """A plausible coordinator lease log: grants covering the plan, one
    reclaim + re-grant, one fenced stale append."""
    events: list[dict] = [{"event": "session"}]
    token = 0
    shard = 0
    for start in range(0, records, max(1, records // 4)):
        token += 1
        shard += 1
        events.append({"event": "grant", "token": token, "shard": shard,
                       "worker": f"w{1 + shard % 2}", "attempt": 0,
                       "items": min(records - start, max(1, records // 4))})
        events.append({"event": "done", "token": token, "shard": shard})
    events.append({"event": "reclaim", "token": token, "shard": shard,
                   "worker": "w1", "reason": "heartbeat lost"})
    token += 1
    events.append({"event": "grant", "token": token, "shard": shard,
                   "worker": "w2", "attempt": 1, "items": 1})
    events.append({"event": "fenced", "token": token - 1,
                   "pos": rng.randrange(records)})
    events.append({"event": "done", "token": token, "shard": shard})
    with path.open("w") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")


def _write_fixture_provenance(path: Path, payloads: list) -> None:
    header = {"format": 1, "kind": "sfi-provenance",
              "payloads": len(payloads)}
    with path.open("w") as handle:
        handle.write(json.dumps(header) + "\n")
        for position, payload in payloads:
            handle.write(json.dumps({"pos": position, "payload": payload})
                         + "\n")


def populate_synthetic_campaigns(warehouse, *, campaigns: int,
                                 records_per_campaign: int,
                                 seed: int = 0) -> int:
    """Bulk-insert synthetic rows for scale benchmarks.

    Bypasses JSON and journal files entirely (constructing a
    million-record journal just to parse it again would make the bench
    measure the generator); rows still go through the production
    :func:`record_to_row` flattening so column semantics cannot drift.
    Returns the number of rows inserted.
    """
    conn = warehouse.connection
    inserted = 0
    for index in range(campaigns):
        rng = random.Random(seed * 1000003 + index)
        name = f"synthetic-{seed}-{index}"
        conn.execute("BEGIN IMMEDIATE")
        conn.execute(
            "INSERT INTO campaigns (name, journal_path, kind, seed, "
            "total_sites, population_bits, ingested_records, complete) "
            "VALUES (?, ?, 'sfi-journal', ?, ?, 25330, ?, 1)",
            (name, f"<synthetic:{name}>", seed + index,
             records_per_campaign, records_per_campaign))
        campaign_id = conn.execute(
            "SELECT campaign_id FROM campaigns WHERE name=?",
            (name,)).fetchone()["campaign_id"]
        rows = []
        for position in range(records_per_campaign):
            record = synthetic_record(rng, position, index)
            fast = rng.random() < 0.5
            rows.append((campaign_id, position, *record_to_row(record),
                         1 if fast else 0,
                         rng.choice(("golden", "frozen")) if fast else None,
                         rng.randrange(100, 1200) if fast else 0))
            if len(rows) >= 20000:
                conn.executemany(
                    "INSERT INTO records VALUES "
                    "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
                inserted += len(rows)
                rows.clear()
        if rows:
            conn.executemany(
                "INSERT INTO records VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
            inserted += len(rows)
        conn.execute("COMMIT")
    return inserted
