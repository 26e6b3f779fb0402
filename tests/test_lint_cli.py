"""The lint engine, baseline ratchet and ``repro-sfi lint`` gate."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.emulator.netlist import LatchMap
from repro.lint import (
    LintReport,
    apply_baseline,
    audit_fault_space,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.engine import lint_tree
from repro.rtl.latch import Latch

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


class TestEngine:
    def test_seeded_determinism_violation_in_cpu(self, tmp_path, capsys):
        """Acceptance: an injected ``time.time()`` in ``cpu/`` fails the
        gate with the REPRO-D02 rule id."""
        root = make_tree(tmp_path, {
            "cpu/rogue.py": "import time\n\nSTAMP = time.time()\n",
            "cpu/clean.py": "X = 1\n",
        })
        report = run_lint(root=root, include_audit=False,
                          baseline_path=tmp_path / "absent")
        assert [f.rule for f in report.findings] == ["REPRO-D02"]
        assert report.exit_code() == 1
        # And through the real CLI gate:
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(tmp_path / "absent"), "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REPRO-D02" in out
        assert "repro/cpu/rogue.py:3" in out

    def test_seeded_fault_space_hole(self, tmp_path, monkeypatch, capsys):
        """Acceptance: a latch dropped from the netlist fails the gate
        with the REPRO-A01 rule id."""

        class HoleyCore:
            def __init__(self) -> None:
                self.registered = [Latch("fxu.res", 8, ring="FXU")]
                self.dropped = Latch("fxu.ghost", 4, ring="FXU")
                self.hide_ghost = False

            def all_latches(self):
                ghost = [] if self.hide_ghost else [self.dropped]
                return self.registered + ghost

            def unit_of(self, latch):
                return "FXU"

        class HoleyMap(LatchMap):
            def __init__(self, core) -> None:
                # Drop the ghost latch's sites from the sampling view:
                # build it while the core hides the ghost.
                core.hide_ghost = True
                super().__init__(core)
                core.hide_ghost = False

        core = HoleyCore()
        findings = audit_fault_space(core, HoleyMap(core))
        assert [f.rule for f in findings] == ["REPRO-A01"]
        assert findings[0].path == "fxu.ghost"
        assert LintReport(findings=findings).exit_code() == 1

        # Through the CLI: the engine's audit sees the broken model.
        monkeypatch.setattr("repro.lint.engine.audit_fault_space",
                            lambda budgets=None: findings)
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        code = main(["lint", "--root", str(root),
                     "--baseline", str(tmp_path / "absent")])
        out = capsys.readouterr().out
        assert code == 1
        assert "REPRO-A01" in out
        assert "fxu.ghost" in out

    def test_policy_exempts_obs_tree(self, tmp_path):
        root = make_tree(tmp_path, {
            "obs/clocky.py": "import time\n\nSTAMP = time.time()\n",
        })
        report = run_lint(root=root, include_audit=False,
                          baseline_path=tmp_path / "absent")
        assert report.findings == []

    def test_lint_tree_reports_relative_paths(self, tmp_path):
        root = make_tree(tmp_path, {
            "sfi/bad.py": "import random\nx = random.random()\n",
        })
        findings, scanned = lint_tree(root)
        assert scanned == 1
        assert findings[0].path == "repro/sfi/bad.py"

    def test_finding_order_is_total(self):
        """Findings sharing (severity, path, line) still order
        deterministically — the full (rule, message) tuple breaks the
        tie, so two runs emit byte-identical reports."""
        from repro.lint import Finding, Severity
        from repro.lint.findings import sort_findings
        a = Finding("REPRO-G05", Severity.WARNING, "c", "CORE", 0, "m2")
        b = Finding("REPRO-G01", Severity.WARNING, "c", "CORE", 0, "m1")
        c = Finding("REPRO-G01", Severity.WARNING, "c", "CORE", 0, "m0")
        assert sort_findings([a, b, c]) == [c, b, a]
        assert sort_findings([c, a, b]) == [c, b, a]

    def test_stale_exemption_for_skipped_passes(self):
        """Baseline entries of a family whose pass did not run are not
        stale: a plain `lint --strict` must stay green with structural
        (REPRO-G) entries ratcheted, and vice versa for the audit."""
        from repro.lint.engine import _filter_stale
        stale = {("REPRO-G01", "CORE", "m"), ("REPRO-A01", "x", "m"),
                 ("REPRO-D02", "repro/cpu/gone.py", "m")}
        kept = _filter_stale(stale, audit_ran=False, structural_ran=False)
        assert kept == {("REPRO-D02", "repro/cpu/gone.py", "m")}
        kept = _filter_stale(stale, audit_ran=True, structural_ran=False)
        assert kept == {("REPRO-A01", "x", "m"),
                        ("REPRO-D02", "repro/cpu/gone.py", "m")}
        assert _filter_stale(stale, audit_ran=True,
                             structural_ran=True) == stale


class TestBaseline:
    def _finding_tree(self, tmp_path) -> Path:
        return make_tree(tmp_path, {
            "cpu/rogue.py": "import time\n\nSTAMP = time.time()\n",
        })

    def test_baseline_suppresses(self, tmp_path):
        root = self._finding_tree(tmp_path)
        baseline = tmp_path / "baseline.jsonl"
        report = run_lint(root=root, include_audit=False,
                          baseline_path=tmp_path / "absent")
        write_baseline(report.findings, str(baseline))
        again = run_lint(root=root, include_audit=False,
                         baseline_path=baseline)
        assert again.findings == []
        assert len(again.suppressed) == 1
        assert again.exit_code(strict=True) == 0

    def test_stale_baseline_fails_strict_only(self, tmp_path):
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        baseline = tmp_path / "baseline.jsonl"
        baseline.write_text(json.dumps(
            {"rule": "REPRO-D02", "path": "repro/cpu/gone.py",
             "message": "old"}) + "\n")
        report = run_lint(root=root, include_audit=False,
                          baseline_path=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_baseline(str(bad))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "baseline.jsonl"
        path.write_text("# header\n\n" + json.dumps(
            {"rule": "R", "path": "p", "message": "m"}) + "\n")
        assert load_baseline(str(path)) == {("R", "p", "m")}

    def test_apply_baseline_split(self):
        from repro.lint import Finding, Severity
        hit = Finding("R1", Severity.ERROR, "c", "p", 1, "m1")
        miss = Finding("R2", Severity.ERROR, "c", "p", 2, "m2")
        new, suppressed, stale = apply_baseline(
            [hit, miss], {hit.key(), ("R9", "x", "y")})
        assert new == [miss]
        assert suppressed == [hit]
        assert stale == {("R9", "x", "y")}

    def test_shipped_baseline_is_structural_debt_only(self):
        """The ratcheted baseline carries exactly the known structural
        debt (REPRO-G dead/dormant latches) — any AST or audit finding
        must be fixed, never baselined."""
        baseline = REPO_ROOT / "lint-baseline.jsonl"
        assert baseline.is_file()
        entries = load_baseline(str(baseline))
        assert entries, "strict gate needs a non-empty ratchet"
        assert all(rule.startswith("REPRO-G")
                   for rule, _path, _message in entries)


class TestCli:
    def test_repo_gate_is_green(self, capsys):
        """Acceptance: ``repro lint --strict`` exits 0 on the repo with
        the empty shipped baseline (AST passes + live fault-space audit
        + DESIGN.md budget reconciliation)."""
        code = main(["lint", "--strict",
                     "--root", str(REPO_ROOT / "src" / "repro")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out
        assert "audit ok" in out
        assert "budgets" in out  # DESIGN.md reconciliation really ran

    def test_jsonl_artifact_written_even_when_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        artifact = tmp_path / "findings.jsonl"
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(tmp_path / "absent"),
                     "--jsonl", str(artifact)])
        capsys.readouterr()
        assert code == 0
        assert artifact.is_file()
        assert artifact.read_text() == ""

    def test_jsonl_format_output(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "cpu/rogue.py": "import time\n\nSTAMP = time.time()\n",
        })
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(tmp_path / "absent"),
                     "--format", "jsonl"])
        out = capsys.readouterr().out
        assert code == 1
        (line,) = out.splitlines()
        record = json.loads(line)
        assert record["rule"] == "REPRO-D02"
        assert record["path"] == "repro/cpu/rogue.py"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, {
            "cpu/rogue.py": "import time\n\nSTAMP = time.time()\n",
        })
        baseline = tmp_path / "baseline.jsonl"
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(baseline), "--write-baseline"])
        assert code == 0
        assert "accepted into" in capsys.readouterr().out
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(baseline), "--strict"])
        capsys.readouterr()
        assert code == 0

    def test_show_policy(self, capsys):
        assert main(["lint", "--show-policy"]) == 0
        out = capsys.readouterr().out
        assert "obs" in out and "determinism" in out
        assert "REPRO-G01" in out  # structural rules are documented

    def test_strict_with_missing_baseline_fails(self, tmp_path, capsys):
        """Acceptance: ``--strict`` against a clean tree but no baseline
        exits 1 and says why — a never-ratcheted gate must not pass."""
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(tmp_path / "absent"), "--strict"])
        captured = capsys.readouterr()
        assert code == 1
        assert "baseline missing or empty" in captured.err

    def test_strict_with_empty_baseline_fails(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        empty = tmp_path / "baseline.jsonl"
        empty.write_text("# nothing ratcheted yet\n")
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(empty), "--strict"])
        captured = capsys.readouterr()
        assert code == 1
        assert "baseline missing or empty" in captured.err

    def test_malformed_baseline_is_infra_error(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"cpu/clean.py": "X = 1\n"})
        bad = tmp_path / "baseline.jsonl"
        bad.write_text("not json\n")
        code = main(["lint", "--root", str(root), "--no-audit",
                     "--baseline", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "lint failed" in err
