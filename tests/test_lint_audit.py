"""Fault-space audit: live structure vs. netlist vs. declared budgets.

Each test seeds one concrete defect into a small model and proves the
audit reports exactly that statistical-bias finding — an unregistered
latch, a ring-less latch, a checker-less parity domain, a stale site, a
budget drift, a duplicate site name.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cpu.checkers import Checker
from repro.emulator.netlist import LatchMap
from repro.lint import audit_fault_space, parse_design_budgets
from repro.rtl.latch import Latch, LatchKind


DESIGN_MD = Path(__file__).resolve().parent.parent / "DESIGN.md"


class ToyCore:
    """Minimal core-like structure the audit duck-types against."""

    def __init__(self) -> None:
        self._units: dict[str, list[Latch]] = {
            "IFU": [Latch("ifu.ifar", 8, protected=True, ring="IFU"),
                    Latch("ifu.fb", 4, ring="IFU")],
            "FXU": [Latch("fxu.res", 8, protected=True, ring="FXU")],
        }

    def all_latches(self) -> list[Latch]:
        return [latch for unit in self._units.values() for latch in unit]

    def unit_of(self, latch: Latch) -> str:
        for unit, latches in self._units.items():
            if any(latch is candidate for candidate in latches):
                return unit
        raise KeyError(latch.name)


def rules_of(findings) -> list[str]:
    return sorted({finding.rule for finding in findings})


class TestCleanModel:
    def test_toy_model_is_clean(self):
        core = ToyCore()
        assert audit_fault_space(core, LatchMap(core)) == []

    def test_default_model_is_clean(self):
        # The acceptance anchor: the shipped core model, its netlist and
        # DESIGN.md's declared budgets agree exactly.
        budgets = parse_design_budgets(str(DESIGN_MD))
        assert budgets, "DESIGN.md must declare latch budgets"
        findings = audit_fault_space(budgets=budgets)
        assert findings == []


class TestBrokenModels:
    def test_unregistered_latch(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        # The unit grows a latch after the netlist was built — the
        # classic "forgot to register" bias.
        core._units["FXU"].append(Latch("fxu.orphan", 8, ring="FXU"))
        findings = audit_fault_space(core, latch_map)
        assert rules_of(findings) == ["REPRO-A01"]
        (finding,) = findings
        assert finding.path == "fxu.orphan"
        assert "absent from the netlist" in finding.message

    def test_partial_registration_is_mis_sized(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        # Drop one bit of one latch from the sampling view: the first
        # latch's span ends one bit early, so every later latch starts
        # one index sooner and the map holds one bit fewer.
        latch_map._starts[1:] = [start - 1 for start in latch_map._starts[1:]]
        latch_map._total -= 1
        findings = audit_fault_space(core, latch_map)
        assert rules_of(findings) == ["REPRO-A01"]
        assert "mis-sized" in findings[0].message

    def test_ring_less_latch(self):
        core = ToyCore()
        core._units["IFU"][1].ring = ""
        findings = audit_fault_space(core, LatchMap(core))
        assert rules_of(findings) == ["REPRO-A02"]
        assert findings[0].path == "ifu.fb"

    def test_kind_less_latch(self):
        core = ToyCore()
        core._units["IFU"][1].kind = None
        findings = audit_fault_space(core, LatchMap(core))
        assert rules_of(findings) == ["REPRO-A03"]

    def test_checker_less_parity_domain(self):
        core = ToyCore()
        # Strip the FXU checkers: its parity-protected latch now has no
        # consumer for the shadow bit.
        checkers = [checker for checker in Checker
                    if checker.unit != "FXU"]
        findings = audit_fault_space(core, LatchMap(core),
                                     checkers=checkers)
        assert rules_of(findings) == ["REPRO-A04"]
        (finding,) = findings
        assert finding.path == "FXU"
        assert "parity-protected" in finding.message

    def test_stale_site(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        core._units["FXU"] = []  # the core no longer owns fxu.res
        findings = audit_fault_space(core, latch_map)
        rules = rules_of(findings)
        assert "REPRO-A05" in rules
        stale = [f for f in findings if f.rule == "REPRO-A05"]
        assert stale[0].path == "fxu.res"

    def test_duplicate_site_name(self):
        core = ToyCore()
        core._units["FXU"].append(Latch("fxu.res", 8, protected=True,
                                        ring="FXU"))
        findings = audit_fault_space(core, LatchMap(core))
        assert "REPRO-A07" in rules_of(findings)


class TestBudgets:
    def _counts(self, latch_map: LatchMap) -> dict[str, int]:
        return latch_map.unit_bit_counts()

    def test_matching_budgets_clean(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        budgets = dict(self._counts(latch_map))
        budgets["TOTAL"] = len(latch_map)
        assert audit_fault_space(core, latch_map, budgets=budgets) == []

    def test_budget_drift(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        budgets = dict(self._counts(latch_map))
        budgets["FXU"] += 7
        findings = audit_fault_space(core, latch_map, budgets=budgets)
        assert rules_of(findings) == ["REPRO-A06"]
        assert "declares" in findings[0].message

    def test_undeclared_and_vanished_units(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        budgets = dict(self._counts(latch_map))
        del budgets["IFU"]            # unit exists, no declared budget
        budgets["LSU"] = 99           # declared, no such unit
        findings = audit_fault_space(core, latch_map, budgets=budgets)
        paths = {finding.path for finding in findings}
        assert paths == {"IFU", "LSU"}
        assert rules_of(findings) == ["REPRO-A06"]

    def test_total_row(self):
        core = ToyCore()
        latch_map = LatchMap(core)
        budgets = dict(self._counts(latch_map))
        budgets["TOTAL"] = len(latch_map) + 1
        findings = audit_fault_space(core, latch_map, budgets=budgets)
        assert rules_of(findings) == ["REPRO-A06"]
        assert findings[0].path == "TOTAL"


class TestParseDesignBudgets:
    def test_parses_only_the_budget_section(self, tmp_path):
        doc = tmp_path / "DESIGN.md"
        doc.write_text(
            "# Design\n"
            "| Unit | Injectable bits |\n"
            "|---|---|\n"
            "| BOGUS | 1 |\n"
            "\n"
            "### Latch budgets\n"
            "\n"
            "| Unit | Injectable bits |\n"
            "|---|---|\n"
            "| IFU | 1,234 |\n"
            "| FXU | 56 |\n"
            "| TOTAL | 1290 |\n"
            "\n"
            "## Next section\n"
            "| OTHER | 9 |\n")
        budgets = parse_design_budgets(str(doc))
        assert budgets == {"IFU": 1234, "FXU": 56, "TOTAL": 1290}

    def test_real_design_declares_all_units(self):
        budgets = parse_design_budgets(str(DESIGN_MD))
        assert {"CORE", "FPU", "FXU", "IDU", "IFU", "LSU", "RUT",
                "TOTAL"} <= set(budgets)


def test_multiple_defects_all_reported():
    core = ToyCore()
    latch_map = LatchMap(core)
    core._units["IFU"][1].ring = ""
    core._units["FXU"].append(Latch("fxu.orphan", 2, ring="FXU"))
    findings = audit_fault_space(core, latch_map)
    assert rules_of(findings) == ["REPRO-A01", "REPRO-A02"]


def test_findings_are_error_severity():
    from repro.lint import Severity
    core = ToyCore()
    latch_map = LatchMap(core)
    core._units["FXU"].append(Latch("fxu.orphan", 2, ring="FXU"))
    findings = audit_fault_space(core, latch_map)
    assert all(f.severity is Severity.ERROR for f in findings)


@pytest.mark.parametrize("unit", ["IFU", "IDU", "FXU", "FPU", "LSU", "RUT"])
def test_every_protected_unit_has_a_parity_checker(unit):
    """Regression guard on the real checker enum: each unit that owns
    parity-protected latches keeps a parity/ECC consumer."""
    tags = ("PARITY", "ECC", "MULTIHIT")
    assert any(checker.unit == unit and any(t in checker.name for t in tags)
               for checker in Checker)
