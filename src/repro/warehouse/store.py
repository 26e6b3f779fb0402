"""SQLite-backed result store with idempotent, fencing-aware ingest.

The warehouse consumes campaign journals (and their ``.leases`` /
``.provenance`` sidecars) into one queryable SQLite file.  Three
invariants, in descending order of importance:

* **Read-only toward journals.**  Ingest opens journals with a
  read-only cursor and never holds an append handle — it can run beside
  a live coordinator without perturbing the run, and a warehouse bug
  can corrupt at most the warehouse.
* **Verified-tail fencing.**  Journals and sidecars are read through
  ``repro.sfi.storage``'s one reader (``scan_journal``) under its
  end-of-file rule: a torn tail — a crash or an append caught
  mid-``write`` — is re-examined next poll, never committed, so live
  streaming is byte-exact versus an offline ingest of the finished
  journal.
* **Idempotence.**  Rows key on ``(campaign_id, pos)`` and inserts are
  ``OR IGNORE``; re-ingesting a journal (or racing two tailers) adds
  nothing.  Every line that ``verify_journal`` flags under the same
  record-line rule (``journal_entry``) — a line that does not parse, a
  line without ``pos``/``record``, an undecodable record, an
  out-of-plan or duplicate position — is skipped and counted, never
  stored.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs.fleet import read_span_log
from repro.sfi.storage import (
    CampaignStorageError,
    JournalCursor,
    JournalNotReady,
    journal_entry,
    record_to_row,
    scan_journal,
)
from repro.warehouse.schema import (
    SCHEMA_DDL,
    SCHEMA_FINGERPRINT,
    SCHEMA_VERSION,
    compute_fingerprint,
)

__all__ = [
    "IngestStats",
    "JournalTailer",
    "Warehouse",
    "WarehouseError",
]


class WarehouseError(ValueError):
    """The warehouse file is unusable (schema mismatch, bad path) or an
    ingest request is malformed."""


@dataclass
class IngestStats:
    """What one ingest pass (offline call or tailer poll) did."""

    name: str
    campaign_id: int
    added: int = 0            # records newly inserted this pass
    skipped: int = 0          # lines rejected this pass (verify-parity)
    lease_events: int = 0     # sidecar events newly inserted this pass
    provenance_rows: int = 0  # provenance payloads newly inserted
    span_rows: int = 0        # fleet spans newly inserted this pass
    records: int = 0          # cumulative records now in the store
    total_sites: int = 0
    complete: bool = False
    rewound: bool = False     # journal shrank; campaign was re-ingested

    @property
    def lag(self) -> int:
        """Records the journal plans that the store does not yet hold."""
        return max(0, self.total_sites - self.records)


class Warehouse:
    """One SQLite file holding many campaigns' results.

    Opens (creating and initializing if absent) the store at ``path``.
    A store initialized by a different ``SCHEMA_VERSION`` is refused
    with :class:`WarehouseError` — there are no silent migrations.
    Usable as a context manager.
    """

    def __init__(self, path: str | Path, *, metrics=None) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(os.fspath(self.path), timeout=5.0)
        self._conn.isolation_level = None  # explicit BEGIN/COMMIT below
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._init_schema()
        self._ingest_counter = None
        self._lag_gauge = None
        if metrics is not None:
            self._ingest_counter = metrics.counter(
                "sfi_ingest_records_total",
                "Journal records ingested into the warehouse",
                labelnames=("campaign",))
            self._lag_gauge = metrics.gauge(
                "sfi_ingest_lag_records",
                "Journal records not yet ingested (planned - stored)",
                labelnames=("campaign",))

    # -- lifecycle -----------------------------------------------------

    def _init_schema(self) -> None:
        fingerprint = compute_fingerprint()
        if fingerprint != SCHEMA_FINGERPRINT:
            raise WarehouseError(
                f"warehouse schema DDL does not match its declared "
                f"fingerprint ({fingerprint} != {SCHEMA_FINGERPRINT}); "
                f"bump SCHEMA_VERSION and refresh SCHEMA_FINGERPRINT "
                f"(lint rule REPRO-S01)")
        conn = self._conn
        have = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "AND name='warehouse_meta'").fetchone()
        if have is None:
            conn.execute("BEGIN IMMEDIATE")
            try:
                for statement in SCHEMA_DDL:
                    conn.execute(statement)
                conn.execute(
                    "INSERT INTO warehouse_meta (key, value) VALUES "
                    "('schema_version', ?), ('schema_fingerprint', ?)",
                    (str(SCHEMA_VERSION), SCHEMA_FINGERPRINT))
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            return
        row = conn.execute(
            "SELECT value FROM warehouse_meta WHERE key='schema_version'"
        ).fetchone()
        stored = row["value"] if row is not None else None
        if stored != str(SCHEMA_VERSION):
            raise WarehouseError(
                f"{self.path}: warehouse schema version {stored!r} is not "
                f"{SCHEMA_VERSION} (this build does not migrate; ingest "
                f"the journals into a fresh store)")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (queries layer; read-mostly)."""
        return self._conn

    # -- campaign directory --------------------------------------------

    def campaigns(self) -> list[sqlite3.Row]:
        """Every campaign row, in ingest (= campaign_id) order."""
        return list(self._conn.execute(
            "SELECT * FROM campaigns ORDER BY campaign_id"))

    def campaign_id(self, name: str) -> int | None:
        row = self._conn.execute(
            "SELECT campaign_id FROM campaigns WHERE name=?",
            (name,)).fetchone()
        return None if row is None else row["campaign_id"]

    # -- ingest --------------------------------------------------------

    def ingest_journal(self, journal: str | Path, *, name: str | None = None,
                       leases: bool = True,
                       provenance: str | Path | None = None) -> IngestStats:
        """Consume journal bytes appended since the last ingest of it.

        ``name`` is the campaign's warehouse identity (defaults to the
        journal's resolved path); re-ingesting under the same name
        resumes from the stored byte cursor and adds nothing that is
        already present.  ``leases`` also folds the ``.leases`` sidecar
        in; ``provenance`` names a provenance JSONL sidecar to join
        (defaults to ``<journal>.provenance`` when that file exists).
        Raises :class:`JournalNotReady` while the journal does not exist
        or has no complete header line yet (the tailer turns that into a
        wait), and :class:`CampaignStorageError` on a foreign or
        malformed journal or sidecar.
        """
        journal = Path(journal)
        name = name or str(journal.resolve())
        conn = self._conn
        row = conn.execute("SELECT * FROM campaigns WHERE name=?",
                           (name,)).fetchone()
        cursor = JournalCursor()
        if row is not None:
            cursor.offset = row["journal_offset"]
            cursor.line = row["journal_line"]
            cursor.check = row["journal_check"]
        delta = scan_journal(journal, cursor)
        conn.execute("BEGIN IMMEDIATE")
        try:
            stats = self._apply_delta(journal, name, row, cursor, delta)
            if leases:
                stats.lease_events = self._ingest_leases(
                    journal.with_name(journal.name + ".leases"),
                    stats.campaign_id)
            sidecar = Path(provenance) if provenance is not None else \
                journal.with_name(journal.name + ".provenance")
            if sidecar.exists():
                stats.provenance_rows = self._ingest_provenance(
                    sidecar, stats.campaign_id)
            spans = journal.with_name(journal.name + ".spans")
            if spans.exists():
                stats.span_rows = self._ingest_spans(
                    spans, stats.campaign_id)
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        if self._ingest_counter is not None and stats.added:
            self._ingest_counter.inc(stats.added, campaign=name)
        if self._lag_gauge is not None:
            self._lag_gauge.set(stats.lag, campaign=name)
        return stats

    def _apply_delta(self, journal: Path, name: str, row, cursor, delta):
        """Insert one scan delta's validated records (in a transaction
        the caller owns)."""
        conn = self._conn
        if row is not None and delta.rewound:
            # Torn-tail recovery rewrote the journal shorter: derived
            # rows may describe dropped bytes, so re-ingest from zero.
            for table in ("records", "lease_events", "provenance", "spans"):
                conn.execute(f"DELETE FROM {table} WHERE campaign_id=?",
                             (row["campaign_id"],))
            conn.execute(
                "UPDATE campaigns SET journal_offset=0, journal_line=0, "
                "journal_check='', ingested_records=0, skipped_lines=0, "
                "complete=0 WHERE campaign_id=?", (row["campaign_id"],))
            row = conn.execute("SELECT * FROM campaigns WHERE name=?",
                               (name,)).fetchone()
        header = cursor.header
        if row is None:
            if header is None:
                raise JournalNotReady(
                    f"{journal}: journal has no complete header line yet")
            conn.execute(
                "INSERT INTO campaigns (name, journal_path, kind, seed, "
                "total_sites, population_bits, meta_json) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (name, str(journal), header.get("kind", ""),
                 header.get("seed"), int(header.get("total_sites", 0)),
                 int(header.get("population_bits", 0)),
                 json.dumps(header["meta"]) if header.get("meta") else None))
            row = conn.execute("SELECT * FROM campaigns WHERE name=?",
                               (name,)).fetchone()
        campaign_id = row["campaign_id"]
        stats = IngestStats(name=name, campaign_id=campaign_id,
                            total_sites=row["total_sites"],
                            rewound=delta.rewound)
        stats.skipped = len(delta.skipped)
        rows = []
        for _number, payload in delta.entries:
            try:
                position, record = journal_entry(payload,
                                                 row["total_sites"])
            except CampaignStorageError:
                stats.skipped += 1
                continue
            sidecar = payload.get("fastpath")
            sidecar = sidecar if isinstance(sidecar, dict) else None
            rows.append((campaign_id, position, *record_to_row(record),
                         1 if sidecar else 0,
                         sidecar.get("exit") if sidecar else None,
                         int(sidecar.get("saved_cycles", 0)) if sidecar
                         else 0))
        before = conn.total_changes
        conn.executemany(
            "INSERT OR IGNORE INTO records VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
        stats.added = conn.total_changes - before
        # Duplicate positions within/across passes land in OR IGNORE:
        # count them as skipped, like verify_journal flags them.
        stats.skipped += len(rows) - stats.added
        stats.records = row["ingested_records"] + stats.added
        stats.complete = bool(stats.total_sites) \
            and stats.records >= stats.total_sites
        conn.execute(
            "UPDATE campaigns SET journal_offset=?, journal_line=?, "
            "journal_check=?, ingested_records=?, "
            "skipped_lines=skipped_lines+?, complete=? WHERE campaign_id=?",
            (cursor.offset, cursor.line, cursor.check, stats.records,
             stats.skipped, int(stats.complete), campaign_id))
        return stats

    def _ingest_leases(self, path: Path, campaign_id: int) -> int:
        """Fold the ``.leases`` sidecar in (idempotent by line number).

        The sidecar is append-only and rarely more than a few hundred
        lines, so it is re-read whole; a torn tail is ignored until a
        later poll sees it complete.
        """
        delta = scan_journal(path, JournalCursor(), header=False)
        rows = [(campaign_id, seq, event["event"], event.get("token"),
                 event.get("shard"), event.get("worker"), json.dumps(event))
                for seq, event in delta.entries
                if isinstance(event, dict) and "event" in event]
        conn = self._conn
        before = conn.total_changes
        conn.executemany(
            "INSERT OR IGNORE INTO lease_events VALUES (?, ?, ?, ?, ?, ?, ?)",
            rows)
        return conn.total_changes - before

    def _ingest_spans(self, path: Path, campaign_id: int) -> int:
        """Fold the ``.spans`` sidecar (merged fleet span tree) in,
        idempotently by span id.

        Written once post-campaign and at most a few thousand lines, so
        it is re-read whole like the leases sidecar; torn or malformed
        lines are skipped by the reader.
        """
        rows = [(campaign_id, span.span_id, span.parent_id, span.phase,
                 span.start, span.end, span.worker, span.shard_id,
                 span.token) for span in read_span_log(path)]
        conn = self._conn
        before = conn.total_changes
        conn.executemany(
            "INSERT OR IGNORE INTO spans VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows)
        return conn.total_changes - before

    def _ingest_provenance(self, path: Path, campaign_id: int) -> int:
        """Join a provenance JSONL sidecar (``repro-sfi propagation
        --jsonl``) onto the campaign's records, idempotently by pos; a
        foreign header raises :class:`CampaignStorageError`."""
        delta = scan_journal(path, JournalCursor(), kind="sfi-provenance")
        rows = []
        for _number, entry in delta.entries:
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("pos"), int):
                continue
            payload = entry.get("payload") or {}
            detection = payload.get("detection") or {}
            rows.append((campaign_id, entry["pos"],
                         detection.get("detector"),
                         detection.get("latency"),
                         int(payload.get("peak_bits", 0)),
                         int(payload.get("residual_tainted", 0)),
                         len(payload.get("nodes", ())),
                         len(payload.get("edges", ()))))
        conn = self._conn
        before = conn.total_changes
        conn.executemany(
            "INSERT OR IGNORE INTO provenance VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows)
        return conn.total_changes - before

    # -- structural sidecars -------------------------------------------

    def ingest_structural(self, graph, bounds) -> int:
        """Store a structural graph + its static bounds, returning the
        ``sidecar_id``.

        ``graph`` is a :class:`repro.emulator.structural.LatchGraph`,
        ``bounds`` its :class:`repro.analysis.static_bounds.StaticBounds`.
        Keyed on ``(model_digest, suite_seed, suite_size)``: re-ingesting
        the same extraction replaces its payload and per-unit bound rows
        (the graph may have traced additional journal seeds since), so
        the store never holds two generations of one sidecar.
        """
        payload = graph.to_payload()
        payload["bounds"] = bounds.to_payload()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT sidecar_id FROM structural_sidecars WHERE "
                "model_digest=? AND suite_seed=? AND suite_size=?",
                (graph.model_digest, graph.suite_seed,
                 graph.suite_size)).fetchone()
            latches = len(graph.latch_names())
            if row is not None:
                sidecar_id = row["sidecar_id"]
                conn.execute(
                    "UPDATE structural_sidecars SET settle_cycles=?, "
                    "latches=?, edges=?, payload=? WHERE sidecar_id=?",
                    (graph.settle_cycles, latches, len(graph.edges),
                     json.dumps(payload, sort_keys=True), sidecar_id))
                conn.execute(
                    "DELETE FROM structural_bounds WHERE sidecar_id=?",
                    (sidecar_id,))
            else:
                sidecar_id = conn.execute(
                    "INSERT INTO structural_sidecars (model_digest, "
                    "suite_seed, suite_size, settle_cycles, latches, "
                    "edges, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (graph.model_digest, graph.suite_seed,
                     graph.suite_size, graph.settle_cycles, latches,
                     len(graph.edges),
                     json.dumps(payload, sort_keys=True))).lastrowid
            conn.executemany(
                "INSERT INTO structural_bounds VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [(sidecar_id, unit, totals["total_bits"],
                  totals["proven_bits"], totals["structural_bits"],
                  totals["latches"], totals["proven_latches"],
                  totals["bound"], totals["structural_bound"])
                 for unit, totals in sorted(bounds.unit_bounds.items())])
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return sidecar_id


class JournalTailer:
    """Follow a live campaign's journal into the warehouse.

    Each :meth:`poll` commits exactly the new verified-tail bytes (one
    transaction per poll); :meth:`follow` loops until the campaign's
    journal covers its plan.  Strictly read-only toward the journal —
    SIGKILL the tailer at any point and a later offline ingest of the
    finished journal converges to the identical store contents.
    """

    def __init__(self, warehouse: Warehouse, journal: str | Path, *,
                 name: str | None = None,
                 provenance: str | Path | None = None,
                 leases: bool = True) -> None:
        self.warehouse = warehouse
        self.journal = Path(journal)
        self.name = name
        self.provenance = provenance
        self.leases = leases
        self.last: IngestStats | None = None

    def poll(self) -> IngestStats | None:
        """One incremental pass; None while the journal does not exist
        (or has no complete header line yet).  Any other
        :class:`CampaignStorageError` (a foreign or malformed journal or
        sidecar header) propagates: polling again cannot mend it."""
        try:
            self.last = self.warehouse.ingest_journal(
                self.journal, name=self.name, leases=self.leases,
                provenance=self.provenance)
        except JournalNotReady:
            return None
        return self.last

    def follow(self, *, interval: float = 1.0,
               max_polls: int | None = None,
               sleep=time.sleep) -> IngestStats | None:
        """Poll until the campaign completes (or ``max_polls`` passes).

        Returns the final stats (None if the journal never appeared).
        """
        polls = 0
        while True:
            stats = self.poll()
            polls += 1
            if stats is not None and stats.complete:
                return stats
            if max_polls is not None and polls >= max_polls:
                return stats
            sleep(interval)
