"""Result warehouse: cursor scanning, ingest invariants, queries, report.

The contract under test, end to end: journals are append-only evidence,
the warehouse is a disposable queryable view.  Ingest must consume
exactly the bytes ``verify_journal`` would bless (verified tail, no
malformed or duplicate lines), streaming ingest must converge on the
same rows as offline ingest of the finished journal, and every
dashboard query must answer from a covering index.
"""

import json
import sqlite3

import pytest

from repro.sfi.outcomes import Outcome
from repro.sfi.storage import (
    CampaignJournal,
    CampaignStorageError,
    JournalCursor,
    read_journal,
    record_to_row,
    scan_journal,
    verify_journal,
)
from repro.stats import wilson_interval
from repro.warehouse import (
    SCHEMA_FINGERPRINT,
    SCHEMA_VERSION,
    JournalTailer,
    Warehouse,
    WarehouseError,
    compute_fingerprint,
    detection_latency_percentiles,
    fastpath_stats,
    lease_health,
    outcome_totals,
    query_plans,
    render_dashboard,
    ser_trend,
    unit_outcomes,
    write_fixture_journal,
)
from repro.warehouse.fixture import populate_synthetic_campaigns


def _record_line(journal_path, pos, record=None, **overrides):
    """A raw journal body line, cloning an existing record payload."""
    if record is None:
        raw = [line for line in
               journal_path.read_text().splitlines()[1:] if line][0]
        payload = json.loads(raw)
        payload["pos"] = pos
        payload.update(overrides)
        return json.dumps(payload, separators=(",", ":"))
    return json.dumps({"pos": pos, "record": record, **overrides},
                      separators=(",", ":"))


class TestJournalCursor:
    def test_scan_consumes_only_verified_tail(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=1,
                                        records=5, torn_tail=True)
        cursor = JournalCursor()
        delta = scan_journal(journal, cursor)
        assert [pos for _, payload in delta.entries
                for pos in [payload["pos"]]] == [0, 1, 2, 3, 4]
        assert not delta.skipped and not delta.rewound
        # The torn tail lacks its newline: not consumed, not skipped.
        assert cursor.offset == journal.stat().st_size - len('{"pos": 999999, "rec')
        assert scan_journal(journal, cursor).entries == []

    def test_scan_resumes_after_append(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=2,
                                        records=3)
        cursor = JournalCursor()
        assert len(scan_journal(journal, cursor).entries) == 3
        line = _record_line(journal, 90)
        with journal.open("a") as handle:
            handle.write(line + "\n")
        delta = scan_journal(journal, cursor)
        assert [payload["pos"] for _, payload in delta.entries] == [90]
        assert cursor.header["kind"] == "sfi-journal"

    def test_torn_line_consumed_once_completed(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=3,
                                        records=2)
        line = _record_line(journal, 55)
        cursor = JournalCursor()
        with journal.open("a") as handle:
            handle.write(line[:10])  # crash mid-append
        assert len(scan_journal(journal, cursor).entries) == 2
        offset_before = cursor.offset
        with journal.open("a") as handle:
            handle.write(line[10:] + "\n")  # append completes the line
        delta = scan_journal(journal, cursor)
        assert [payload["pos"] for _, payload in delta.entries] == [55]
        assert cursor.offset > offset_before

    def test_shrink_rewinds_cursor(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=4,
                                        records=4)
        cursor = JournalCursor()
        assert len(scan_journal(journal, cursor).entries) == 4
        # Recovery rewrote the journal shorter (dropped a bad tail).
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-1]))
        delta = scan_journal(journal, cursor)
        assert delta.rewound
        assert len(delta.entries) == 3  # re-read from the start

    def test_malformed_interior_line_skipped(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=5,
                                        records=2)
        with journal.open("a") as handle:
            handle.write("{not json}\n")
            handle.write(_record_line(journal, 77) + "\n")
        cursor = JournalCursor()
        delta = scan_journal(journal, cursor)
        assert len(delta.entries) == 3
        assert delta.skipped == [4]  # header + 2 records + the garbage

    def test_foreign_header_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": 1, "kind": "not-a-journal"}\n')
        with pytest.raises(CampaignStorageError):
            scan_journal(path, JournalCursor())
        # kind=None accepts any well-formed header.
        cursor = JournalCursor()
        scan_journal(path, cursor, kind=None)
        assert cursor.header["kind"] == "not-a-journal"

    def test_zero_length_file_is_an_empty_delta(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        cursor = JournalCursor()
        delta = scan_journal(path, cursor)
        assert delta.entries == [] and not delta.rewound
        assert cursor == JournalCursor()
        # The same cursor then consumes the journal once it appears.
        journal = write_fixture_journal(path, seed=41, records=2)
        assert len(scan_journal(journal, cursor).entries) == 2

    def test_partial_line_at_check_window_boundary(self, tmp_path):
        """A torn fragment starting exactly at the cursor keeps the
        checksum window honest: the window covers only consumed bytes,
        so neither the fragment nor its later completion trips a
        spurious rewind."""
        from repro.sfi.storage import _CURSOR_CHECK_BYTES
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=42,
                                        records=3)
        cursor = JournalCursor()
        assert len(scan_journal(journal, cursor).entries) == 3
        assert cursor.offset > _CURSOR_CHECK_BYTES
        line = _record_line(journal, 60)
        cut = len(line) // 2
        with journal.open("a") as handle:
            handle.write(line[:cut])  # torn exactly at cursor.offset
        delta = scan_journal(journal, cursor)
        assert delta.entries == [] and not delta.rewound
        with journal.open("a") as handle:
            handle.write(line[cut:] + "\n")
        delta = scan_journal(journal, cursor)
        assert not delta.rewound
        assert [payload["pos"] for _, payload in delta.entries] == [60]

    def test_short_journal_window_smaller_than_check_bytes(self, tmp_path):
        """Consumed bytes shorter than the checksum window: the window
        clips to the whole consumed prefix and verification still
        passes poll to poll."""
        from repro.sfi.storage import _CURSOR_CHECK_BYTES
        path = tmp_path / "tiny.jsonl"
        path.write_text('{"format": 1, "kind": "sfi-journal"}\n')
        cursor = JournalCursor()
        scan_journal(path, cursor)
        assert 0 < cursor.offset < _CURSOR_CHECK_BYTES
        assert cursor.check
        with path.open("a") as handle:
            handle.write('{"pos": 0, "record": {}}\n')
        delta = scan_journal(path, cursor)
        assert not delta.rewound and len(delta.entries) == 1

    def test_shrink_then_grow_between_polls_is_detected(self, tmp_path):
        """The classic blind spot of size-only rewind detection: the
        journal is rewritten shorter AND grows past the cursor before
        the next poll.  The tail checksum catches the rewrite and the
        scan restarts from byte zero."""
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=43,
                                        records=4)
        cursor = JournalCursor()
        assert len(scan_journal(journal, cursor).entries) == 4
        # Recovery drops two records, then the campaign appends three
        # more — the file ends up *longer* than the cursor offset.
        lines = journal.read_text().splitlines(keepends=True)
        rewritten = "".join(lines[:-2]) + "".join(
            _record_line(journal, 70 + i) + "\n" for i in range(3))
        journal.write_text(rewritten)
        assert journal.stat().st_size > cursor.offset
        delta = scan_journal(journal, cursor)
        assert delta.rewound
        assert [payload["pos"] for _, payload in delta.entries] == \
            [0, 1, 70, 71, 72]

    def test_unchanged_tail_does_not_rewind(self, tmp_path):
        """Appends alone never trip the checksum (no false positives)."""
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=44,
                                        records=2)
        cursor = JournalCursor()
        scan_journal(journal, cursor)
        for pos in (50, 51, 52):
            with journal.open("a") as handle:
                handle.write(_record_line(journal, pos) + "\n")
            delta = scan_journal(journal, cursor)
            assert not delta.rewound
            assert [payload["pos"] for _, payload in delta.entries] == [pos]


@pytest.fixture
def campaigns(tmp_path):
    """Three finished fixture campaigns with sidecars; one torn tail."""
    paths = []
    for index in range(3):
        paths.append(write_fixture_journal(
            tmp_path / f"camp{index}.jsonl", seed=10 + index, records=40,
            campaign_index=index, leases=True, provenance=True,
            torn_tail=index == 2))
    return paths


class TestIngest:
    def test_offline_ingest_is_idempotent(self, tmp_path, campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            for path in campaigns:
                stats = warehouse.ingest_journal(path)
                assert stats.added == 40 and stats.complete
                assert stats.lease_events > 0
                assert stats.provenance_rows > 0
            again = warehouse.ingest_journal(campaigns[0])
            assert again.added == 0 and again.records == 40
            count = warehouse.connection.execute(
                "SELECT COUNT(*) AS n FROM records").fetchone()["n"]
            assert count == 120

    def test_queries_match_python_fold(self, tmp_path, campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            for path in campaigns:
                warehouse.ingest_journal(path)

            folded_units: dict = {}
            folded_outcomes: dict = {}
            sdc_by_campaign = []
            for path in campaigns:
                _, covered = read_journal(path)
                sdc = 0
                for record in covered.values():
                    unit = folded_units.setdefault(record.unit, {})
                    unit[record.outcome.value] = \
                        unit.get(record.outcome.value, 0) + 1
                    folded_outcomes[record.outcome.value] = \
                        folded_outcomes.get(record.outcome.value, 0) + 1
                    sdc += record.outcome is Outcome.SDC
                sdc_by_campaign.append((sdc, len(covered)))

            assert unit_outcomes(warehouse) == folded_units
            assert outcome_totals(warehouse) == folded_outcomes
            trend = ser_trend(warehouse)
            assert len(trend) == 3
            for point, (sdc, total) in zip(trend, sdc_by_campaign):
                low, high = wilson_interval(sdc, total)
                assert point["sdc"] == sdc and point["records"] == total
                assert point["ser"] == pytest.approx(sdc / total)
                assert point["low"] == pytest.approx(low)
                assert point["high"] == pytest.approx(high)

    def test_latency_percentiles_match_sorted_fold(self, tmp_path,
                                                   campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            for path in campaigns:
                warehouse.ingest_journal(path)
            rows = warehouse.connection.execute(
                "SELECT detect_latency FROM records "
                "WHERE detect_latency IS NOT NULL").fetchall()
            latencies = sorted(row["detect_latency"] for row in rows)
            result = detection_latency_percentiles(warehouse)
            assert result["detected"] == len(latencies)
            for quantile, value in result["percentiles"].items():
                import math
                rank = min(len(latencies) - 1,
                           max(0, math.ceil(quantile * len(latencies)) - 1))
                assert value == latencies[rank]

    def test_streaming_matches_offline(self, tmp_path):
        """Byte-exact equivalence: a tailer fed the journal in arbitrary
        chunks (torn mid-line states included) must land the same rows
        as one offline ingest of the finished file."""
        source = write_fixture_journal(tmp_path / "src.jsonl", seed=77,
                                       records=30, leases=True,
                                       provenance=True)
        blob = source.read_bytes()
        live = tmp_path / "live.jsonl"
        live.write_bytes(b"")
        # Sidecars appear mid-stream, as they would on a real campaign.
        with Warehouse(tmp_path / "streamed.sqlite") as streamed:
            tailer = JournalTailer(streamed, live)
            assert tailer.poll() is None  # header not yet written
            offset = 0
            for chunk in (41, 13, 7, 255, 59):  # deliberately torn
                while offset < len(blob):
                    live.open("ab").write(blob[offset:offset + chunk])
                    offset += chunk
                    stats = tailer.poll()
                    if offset >= len(blob):
                        break
            for sidecar in (".leases", ".provenance"):
                (live.parent / (live.name + sidecar)).write_bytes(
                    (source.parent / (source.name + sidecar)).read_bytes())
            stats = tailer.poll()
            assert stats.complete and stats.records == 30
            streamed_rows = streamed.connection.execute(
                "SELECT * FROM records ORDER BY pos").fetchall()
            streamed_prov = streamed.connection.execute(
                "SELECT * FROM provenance ORDER BY pos").fetchall()

        with Warehouse(tmp_path / "offline.sqlite") as offline:
            offline.ingest_journal(live)
            offline_rows = offline.connection.execute(
                "SELECT * FROM records ORDER BY pos").fetchall()
            offline_prov = offline.connection.execute(
                "SELECT * FROM provenance ORDER BY pos").fetchall()

        assert [tuple(row)[1:] for row in streamed_rows] == \
            [tuple(row)[1:] for row in offline_rows]
        assert [tuple(row)[1:] for row in streamed_prov] == \
            [tuple(row)[1:] for row in offline_prov]

    def test_follow_stops_on_a_foreign_header(self, tmp_path, capsys):
        """Only a missing journal, or one without a complete header
        line, is "not there yet"; a foreign header ends the follow."""
        from repro.cli import main
        missing = tmp_path / "missing.jsonl"
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text('{"format": 1, "kind": "other-journal"}\n')
        with Warehouse(tmp_path / "w.sqlite") as warehouse:
            assert JournalTailer(warehouse, missing).poll() is None
            with pytest.raises(CampaignStorageError, match="header"):
                JournalTailer(warehouse, foreign).poll()
        code = main(["ingest", str(foreign), "--db",
                     str(tmp_path / "cli.sqlite"), "--follow",
                     "--interval", "0", "--max-polls", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "other-journal" in err and "header" in err
        assert "never appeared" not in err

    def test_ingest_skips_exactly_what_verify_flags(self, tmp_path):
        """The warehouse stores precisely ``verify_journal``'s blessed
        records; every flagged line (and only those) is skipped."""
        journal = write_fixture_journal(tmp_path / "bad.jsonl", seed=9,
                                        records=6)
        good_line = _record_line(journal, 5)
        with journal.open("a") as handle:
            handle.write("{malformed interior}\n")
            handle.write('{"pos": 2}\n')               # missing record
            handle.write(_record_line(journal, 99) + "\n")   # out of range
            handle.write(_record_line(journal, 1) + "\n")    # duplicate
            handle.write('{"pos": 3, "record": {"nope": 1}}\n')
            handle.write(good_line[:14])               # torn tail
        report = verify_journal(journal)
        assert report.torn_tail and len(report.issues) == 5

        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            stats = warehouse.ingest_journal(journal)
            assert stats.added == report.records
            assert stats.skipped == len(report.issues)
            positions = [row["pos"] for row in warehouse.connection.execute(
                "SELECT pos FROM records ORDER BY pos")]
            assert positions == [0, 1, 2, 3, 4, 5]

    def test_rewound_journal_reingests_from_scratch(self, tmp_path):
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=6,
                                        records=8)
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            assert warehouse.ingest_journal(journal).added == 8
            lines = journal.read_text().splitlines(keepends=True)
            journal.write_text("".join(lines[:5]))  # recovery shrank it
            stats = warehouse.ingest_journal(journal)
            assert stats.rewound and stats.records == 4
            count = warehouse.connection.execute(
                "SELECT COUNT(*) AS n FROM records").fetchone()["n"]
            assert count == 4

    def test_shrink_then_grow_reingests_from_scratch(self, tmp_path):
        """The persisted tail checksum (``campaigns.journal_check``)
        catches a journal rewritten shorter and regrown past the stored
        cursor between two ingest passes — even across warehouse
        re-opens."""
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=7,
                                        records=8)
        path = tmp_path / "wh.sqlite"
        with Warehouse(path) as warehouse:
            assert warehouse.ingest_journal(journal).added == 8
        lines = journal.read_text().splitlines(keepends=True)
        replacement = "".join(lines[:3]) + "".join(
            _record_line(journal, pos, pad="x" * 60) + "\n"
            for pos in range(2, 8))
        journal.write_text(replacement)
        assert len(replacement) > sum(len(line) for line in lines)
        with Warehouse(path) as warehouse:
            stats = warehouse.ingest_journal(journal)
            assert stats.rewound
            rows = warehouse.connection.execute(
                "SELECT pos FROM records ORDER BY pos").fetchall()
            assert [row["pos"] for row in rows] == list(range(8))

    def test_lease_health_counts_sidecar_events(self, tmp_path, campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_journal(campaigns[0])
            sidecar = campaigns[0].parent / (campaigns[0].name + ".leases")
            events = [json.loads(line)["event"]
                      for line in sidecar.read_text().splitlines()]
            health = lease_health(warehouse)[0]
            assert health["grants"] == events.count("grant")
            assert health["reclaims"] == events.count("reclaim")
            assert health["fenced"] == events.count("fenced")
            assert health["done"] == events.count("done")

    def test_provenance_joins_records_by_pos(self, tmp_path, campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            warehouse.ingest_journal(campaigns[0])
            joined = warehouse.connection.execute(
                "SELECT r.outcome, p.detector, r.detector AS rdet "
                "FROM provenance p JOIN records r "
                "ON r.campaign_id = p.campaign_id AND r.pos = p.pos"
            ).fetchall()
            assert joined  # fixture wrote payloads for non-vanished rows
            for row in joined:
                assert row["outcome"] != Outcome.VANISHED.value
                if row["detector"] is not None:
                    assert row["detector"] == row["rdet"]

    def test_metrics_count_ingested_records(self, tmp_path, campaigns):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        with Warehouse(tmp_path / "wh.sqlite",
                       metrics=registry) as warehouse:
            warehouse.ingest_journal(campaigns[0])
            warehouse.ingest_journal(campaigns[1])
        counter = registry.get("sfi_ingest_records_total")
        assert sum(counter.series().values()) == 80
        assert registry.get("sfi_ingest_lag_records") is not None


class TestSchemaVersioning:
    def test_fingerprint_matches_declared_ddl(self):
        assert compute_fingerprint() == SCHEMA_FINGERPRINT
        assert SCHEMA_VERSION >= 1

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        with Warehouse(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("UPDATE warehouse_meta SET value='999' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(WarehouseError, match="version"):
            Warehouse(path)

    def test_dashboard_queries_answer_from_covering_indexes(self, tmp_path):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            populate_synthetic_campaigns(warehouse, campaigns=2,
                                         records_per_campaign=50)
            plans = query_plans(warehouse)
            assert plans and all(plan["ok"] for plan in plans)
            for plan in plans:
                assert "COVERING INDEX" in plan["plan"]


@pytest.fixture(scope="module")
def structural():
    """One small structural extraction shared by the sidecar tests."""
    from repro.analysis.static_bounds import compute_bounds
    from repro.emulator.structural import extract_graph
    graph = extract_graph(suite_size=2)
    return graph, compute_bounds(graph)


class TestStructuralSidecar:
    def test_ingest_structural_stores_bounds(self, tmp_path, structural):
        graph, bounds = structural
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            sidecar_id = warehouse.ingest_structural(graph, bounds)
            rows = warehouse.connection.execute(
                "SELECT * FROM structural_bounds WHERE sidecar_id=? "
                "ORDER BY unit", (sidecar_id,)).fetchall()
            assert [row["unit"] for row in rows] == \
                sorted(bounds.unit_bounds)
            for row in rows:
                expected = bounds.unit_bounds[row["unit"]]
                assert row["total_bits"] == expected["total_bits"]
                assert row["proven_bits"] == expected["proven_bits"]
                assert row["bound"] == pytest.approx(expected["bound"])

    def test_reingest_replaces_not_duplicates(self, tmp_path, structural):
        graph, bounds = structural
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            first = warehouse.ingest_structural(graph, bounds)
            second = warehouse.ingest_structural(graph, bounds)
            assert first == second
            count = warehouse.connection.execute(
                "SELECT COUNT(*) AS n FROM structural_bounds").fetchone()
            assert count["n"] == len(bounds.unit_bounds)

    def test_stored_payload_reloads_as_a_graph(self, tmp_path, structural):
        from repro.emulator.structural import LatchGraph
        graph, bounds = structural
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            sidecar_id = warehouse.ingest_structural(graph, bounds)
            payload = json.loads(warehouse.connection.execute(
                "SELECT payload FROM structural_sidecars WHERE "
                "sidecar_id=?", (sidecar_id,)).fetchone()["payload"])
            clone = LatchGraph.from_payload(payload)
            assert clone.model_digest == graph.model_digest
            assert sorted(clone.edges) == sorted(graph.edges)
            assert payload["bounds"]["unit_bounds"].keys() == \
                bounds.unit_bounds.keys()

    def test_bounds_vs_measured_joins_records(self, tmp_path, structural,
                                              campaigns):
        from repro.warehouse import bounds_vs_measured
        from repro.warehouse.queries import render_bounds_vs_measured
        graph, bounds = structural
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            assert bounds_vs_measured(warehouse) == []  # no sidecar yet
            warehouse.ingest_journal(campaigns[0])
            warehouse.ingest_structural(graph, bounds)
            rows = bounds_vs_measured(warehouse)
            assert [row["unit"] for row in rows] == \
                sorted(bounds.unit_bounds)
            measured = unit_outcomes(warehouse)
            for row in rows:
                counts = measured.get(row["unit"], {})
                assert row["trials"] == sum(counts.values())
                if row["trials"]:
                    expected = counts.get(Outcome.VANISHED.value, 0) \
                        / row["trials"]
                    assert row["measured_derating"] == \
                        pytest.approx(expected, abs=1e-6)
            text = render_bounds_vs_measured(rows)
            assert "static bound vs measured" in text


class TestDashboard:
    def test_report_is_self_contained_and_deterministic(self, tmp_path,
                                                        campaigns):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            for path in campaigns:
                warehouse.ingest_journal(path)
            html = render_dashboard(warehouse)
            assert html == render_dashboard(warehouse)
        assert html.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "<script", "url("):
            assert forbidden not in html
        for outcome in Outcome:
            assert outcome.value in html
        assert "<svg" in html and "prefers-color-scheme" in html
        assert fastpath_stats  # imported API used by the dashboard

    def test_report_renders_empty_store(self, tmp_path):
        with Warehouse(tmp_path / "wh.sqlite") as warehouse:
            html = render_dashboard(warehouse)
        assert "<!DOCTYPE html>" in html


class TestServiceAutoIngest:
    def test_finished_campaign_lands_in_warehouse(self, tmp_path):
        """`serve --warehouse` ingests a campaign when it finishes; an
        unconfigured server leaves no warehouse behind."""
        from repro.sfi.service.queue import ServerConfig, ServiceServer
        journal = write_fixture_journal(tmp_path / "spool.jsonl", seed=3,
                                        records=12)
        db = tmp_path / "wh.sqlite"
        server = ServiceServer(tmp_path / "spool",
                               ServerConfig(warehouse=str(db)))
        try:
            server._ingest("sfi-000042", journal)
        finally:
            server._control.close()
        with Warehouse(db) as warehouse:
            rows = warehouse.campaigns()
            assert [row["name"] for row in rows] == ["sfi-000042"]
            assert rows[0]["ingested_records"] == 12

    def test_no_warehouse_configured_is_a_noop(self, tmp_path):
        from repro.sfi.service.queue import ServerConfig, ServiceServer
        server = ServiceServer(tmp_path / "spool", ServerConfig())
        try:
            server._ingest("sfi-000001", tmp_path / "missing.jsonl")
        finally:
            server._control.close()
        assert not (tmp_path / "wh.sqlite").exists()

    def test_ingest_failure_does_not_raise(self, tmp_path, capsys):
        from repro.sfi.service.queue import ServerConfig, ServiceServer
        db = tmp_path / "wh.sqlite"
        server = ServiceServer(tmp_path / "spool",
                               ServerConfig(warehouse=str(db)))
        try:
            server._ingest("sfi-000009", tmp_path / "missing.jsonl")
        finally:
            server._control.close()
        assert "ingest of sfi-000009 failed" in capsys.readouterr().err
