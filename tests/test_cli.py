"""CLI subcommands (exercised in-process through main())."""

import json

import pytest

from repro import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


BASE = ("--suite-size", "2", "--seed", "99")


class TestCli:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_info_text(self, capsys):
        code, out = run_cli(capsys, "info", *BASE)
        assert code == 0
        assert "Injectable latch bits" in out
        assert "LSU" in out and "MODE" in out

    def test_info_json(self, capsys):
        code, out = run_cli(capsys, "info", *BASE, "--json")
        payload = json.loads(out)
        assert payload["latch_bits"] > 10_000
        assert set(payload["units"]) >= {"IFU", "LSU", "RUT"}

    def test_campaign_text(self, capsys):
        code, out = run_cli(capsys, "campaign", "--flips", "30", *BASE)
        assert code == 0
        assert "Vanished" in out and "95% CI" in out

    def test_campaign_json_counts(self, capsys):
        code, out = run_cli(capsys, "campaign", "--flips", "25", *BASE,
                            "--json")
        payload = json.loads(out)
        assert payload["total"] == 25
        total = sum(entry["count"] for entry in payload["outcomes"].values())
        assert total == 25

    def test_campaign_raw_mode(self, capsys):
        code, out = run_cli(capsys, "campaign", "--flips", "25", "--raw",
                            *BASE, "--json")
        payload = json.loads(out)
        assert payload["outcomes"]["Corrected"]["count"] == 0

    def test_units_renders_figures(self, capsys):
        code, out = run_cli(capsys, "units", "--flips-per-unit", "8", *BASE)
        assert "Figure 3" in out and "Figure 4" in out

    def test_kinds_json(self, capsys):
        code, out = run_cli(capsys, "kinds", "--flips-per-kind", "8", *BASE,
                            "--json")
        payload = json.loads(out)
        assert set(payload) == {"FUNC", "REGFILE", "MODE", "GPTR"}

    def test_beam(self, capsys):
        code, out = run_cli(capsys, "beam", "--events", "15", *BASE)
        assert "beam events" in out and "Vanished" in out

    def test_workload_table1(self, capsys):
        code, out = run_cli(capsys, "workload", "--programs", "1")
        assert code == 0
        assert "Table 1" in out
        assert "Load" in out and "Branch" in out and "CPI" in out
        code, out = run_cli(capsys, "workload", "--programs", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"avp", "avp_cpi", "spec", "spec_cpi"}
        assert payload["avp_cpi"] > 0
        assert set(payload["spec"]) == set(payload["spec_cpi"])

    def test_trace(self, capsys):
        code, out = run_cli(capsys, "trace", "--flips", "40", "--show", "2",
                            *BASE)
        assert "Cause-and-effect tracing summary" in out


class TestObservabilityCli:
    def test_campaign_exports_and_journal_trace(self, capsys, tmp_path):
        """The full telemetry loop: instrumented campaign, exported
        snapshots, span chains, then journal-based re-rendering."""
        journal = tmp_path / "camp.jsonl"
        prom = tmp_path / "out.prom"
        jsonl = tmp_path / "out.jsonl"
        traces = tmp_path / "traces.jsonl"
        code, out = run_cli(capsys, "campaign", "--flips", "30", *BASE,
                            "--journal", str(journal),
                            "--metrics", str(prom),
                            "--metrics-jsonl", str(jsonl),
                            "--trace-log", str(traces))
        assert code == 0

        from repro.obs import (
            load_jsonl_snapshot,
            parse_prometheus_text,
            read_trace_log,
        )
        parsed = parse_prometheus_text(prom.read_text())
        assert parsed.types["sfi_injections_total"] == "counter"
        assert parsed.types["sfi_shard_wall_seconds"] == "histogram"
        total = sum(value for (name, _), value in parsed.samples.items()
                    if name == "sfi_injections_total")
        assert total == 30
        assert parsed.value("sfi_shard_wall_seconds_count",
                            status="serial") == 1
        assert parsed.value("sfi_injections_per_second") > 0

        loaded = load_jsonl_snapshot(jsonl)
        assert sum(loaded.get("sfi_injections_total")
                   .series().values()) == 30

        vanished = sum(value for (name, labels), value
                       in parsed.samples.items()
                       if name == "sfi_injections_total"
                       and ("outcome", "Vanished") in labels)
        chains = read_trace_log(traces)
        assert len(chains) == 30 - vanished, \
            "one span chain per non-vanished injection"

        # Satellite: render traces from the journal without re-running.
        code, out = run_cli(capsys, "trace", "--journal", str(journal),
                            "--show", "1")
        assert code == 0
        assert "Cause-and-effect tracing summary" in out

    def test_trace_journal_missing_file(self, capsys, tmp_path):
        code = cli.main(["trace", "--journal",
                         str(tmp_path / "missing.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such journal" in captured.err

    def test_monitor_once(self, capsys, tmp_path):
        import json as json_module
        journal = tmp_path / "camp.jsonl"
        lines = [json_module.dumps({"format": 1, "kind": "sfi-journal",
                                    "seed": 1, "total_sites": 4})]
        lines += [json_module.dumps({"pos": position,
                                     "record": {"outcome": "Vanished"}})
                  for position in range(4)]
        journal.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "monitor", "--journal", str(journal),
                            "--once")
        assert code == 0
        assert "4/4 injections" in out and "[complete]" in out

    def test_stats_renders_and_json(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry, write_prometheus
        registry = MetricsRegistry()
        registry.counter("sfi_injections_total", "by outcome",
                         ("outcome",)).inc(9, outcome="Hang")
        path = tmp_path / "out.prom"
        write_prometheus(registry, path)
        code, out = run_cli(capsys, "stats", "--metrics", str(path))
        assert code == 0
        assert "sfi_injections_total" in out and "9" in out
        code, out = run_cli(capsys, "stats", "--metrics", str(path),
                            "--json")
        assert code == 0
        assert json.loads(out)

    def test_stats_unreadable_snapshot(self, capsys, tmp_path):
        code = cli.main(["stats", "--metrics", str(tmp_path / "missing")])
        captured = capsys.readouterr()
        assert code == 2
        assert "unreadable" in captured.err


class TestFleetObservabilityCli:
    def test_campaign_resume_summary_counts_recovered(self, capsys,
                                                      tmp_path):
        """The summary rate divides by injections this process ran, not
        the journal total — a resumed campaign says so explicitly."""
        journal = tmp_path / "resume.jsonl"
        args = ("campaign", "--flips", "12", *BASE,
                "--journal", str(journal))
        code, out = run_cli(capsys, *args)
        assert code == 0 and "recovered" not in out
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:7]) + "\n")  # keep 6 records
        code, out = run_cli(capsys, *args, "--resume")
        assert code == 0
        assert "resuming: 6/12" in out
        assert "; 6 recovered from journal)" in out

    def test_status_journal_matches_offline_recount(self, capsys,
                                                    tmp_path):
        from repro.obs import read_journal_progress
        from repro.obs.convergence import ConvergenceTracker
        journal = tmp_path / "status.jsonl"
        code, _ = run_cli(capsys, "campaign", "--flips", "10", *BASE,
                          "--journal", str(journal))
        assert code == 0
        code, out = run_cli(capsys, "status", "--journal", str(journal))
        assert code == 0
        assert "10/10" in out and "(complete)" in out
        assert "convergence toward" in out
        code, out = run_cli(capsys, "status", "--journal", str(journal),
                            "--json")
        payload = json.loads(out)
        offline = ConvergenceTracker.from_counts(
            read_journal_progress(journal).unit_outcomes)
        assert payload["convergence"] == offline.snapshot()
        assert payload["done"] == payload["total"] == 10

    def test_status_journal_unreadable_is_error(self, capsys, tmp_path):
        code = cli.main(["status", "--journal",
                         str(tmp_path / "nope.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no readable journal" in captured.err

    def test_monitor_requires_journal_or_connect(self, capsys):
        code = cli.main(["monitor"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--journal" in captured.err and "--connect" in captured.err

    def test_monitor_connect_unreachable(self, capsys):
        code = cli.main(["monitor", "--connect", "127.0.0.1:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot reach coordinator" in captured.err

    def test_ingest_and_query_spans_and_convergence(self, capsys,
                                                    tmp_path):
        from repro.obs.fleet import Span, write_span_log
        from repro.warehouse import write_fixture_journal
        journal = write_fixture_journal(tmp_path / "c.jsonl", seed=9,
                                        records=8)
        write_span_log(
            str(journal) + ".spans",
            [Span("r", "campaign", 0.0, 5.0),
             Span("l", "lease-held", 0.5, 4.5, parent_id="r")],
            campaign=journal.name)
        db = tmp_path / "wh.sqlite"
        code, out = run_cli(capsys, "ingest", str(journal),
                            "--db", str(db), "--name", "camp")
        assert code == 0
        assert "2 span(s)" in out
        code, out = run_cli(capsys, "query", "convergence",
                            "--db", str(db))
        assert code == 0
        assert "convergence toward" in out
        code, out = run_cli(capsys, "query", "spans", "--db", str(db))
        assert code == 0
        assert "lease-held" in out
        code, out = run_cli(capsys, "query", "spans", "--db", str(db),
                            "--campaign", "camp")
        assert code == 0
        assert "critical path" in out.lower()
        code, out = run_cli(capsys, "query", "convergence",
                            "--db", str(db), "--json")
        payload = json.loads(out)
        assert payload["total"] == 8
