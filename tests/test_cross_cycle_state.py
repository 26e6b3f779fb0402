"""Ratchet: cross-cycle machine state lives where snapshots and traces see it.

The checkpoint ladder, the golden digests and the frozen and tracked
exits all rest on one premise: every piece of state that carries
from one cycle to the next lives in latches, memory, SRAM arrays, the
core's counters or the event log.  ``Power6Core.snapshot()`` captures
exactly those, and the touch trace (:mod:`repro.cpu.access`) observes
the latch part.  A unit that kept state in a plain attribute would
escape both, so a restored trial and its golden run could differ with
nothing to show it.

The test scans ``repro/cpu`` with ``ast`` for direct stores to
``self.<attr>`` (plain, augmented and tuple targets) outside
construction and the snapshot/reset family, and pins the result to the
counters and flags the snapshots already carry.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import repro.cpu
from repro.cpu.access import Recorder

#: Methods allowed to store attributes: construction and the methods
#: that load or reset a whole machine state.
RESETTING = frozenset({"__init__", "restore", "reset", "clear",
                       "load_program", "load_programs"})

#: Modules whose recorder classes hold tracing state, not machine state.
RECORDER_MODULES = frozenset({"access", "tainttrace"})

#: Every attribute the model stores outside ``RESETTING``; each one is
#: carried by ``Power6Core.snapshot()``/``Power6Chip.snapshot()`` (the
#: event log's ``dropped`` rides in its own snapshot) or, for
#: ``commits_this_cycle``, recomputed every cycle.
KNOWN = frozenset({
    "Power6Core.cycles",
    "Power6Core.halted",
    "Power6Core.commits_prev",
    "Power6Core.committed",
    "Power6Core.commits_this_cycle",
    "Power6Chip.chip_checkstop",
    "EventLog.dropped",
})


def _self_stores(function: ast.AST) -> set[str]:
    """Attribute names ``function`` stores on ``self``."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                names.add(target.attr)
    return names


def _is_recorder(module: str, name: str) -> bool:
    if module not in RECORDER_MODULES:
        return False
    cls = getattr(importlib.import_module(f"repro.cpu.{module}"), name,
                  None)
    return isinstance(cls, type) and issubclass(cls, Recorder)


def cross_cycle_stores(root: Path) -> dict[str, list[str]]:
    """``Class.attr`` -> the methods storing it, for every store to
    ``self.<attr>`` in ``root``'s classes outside ``RESETTING``."""
    stores: dict[str, list[str]] = {}
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) \
                    or _is_recorder(path.stem, cls.name):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                        or method.name in RESETTING:
                    continue
                for attr in _self_stores(method):
                    stores.setdefault(f"{cls.name}.{attr}", []).append(
                        f"{path.name}:{method.name}")
    return stores


def test_cross_cycle_state_is_snapshotted():
    stores = cross_cycle_stores(Path(repro.cpu.__file__).parent)
    new = {key: where for key, where in stores.items() if key not in KNOWN}
    assert not new, (
        f"state stored outside latches, memory and arrays: {new}.  "
        "snapshot() does not carry it and the touch trace cannot see "
        "it, so restored trials and the frozen/tracked exits would "
        "silently diverge: keep it in a latch, or carry it in "
        "Power6Core.snapshot() and restore() and add it to KNOWN.")
    assert set(stores) == KNOWN, "a known store is gone: shrink KNOWN"


def test_the_scan_sees_every_store_form():
    source = """
class Unit:
    def __init__(self):
        self.hidden = 0
    def cycle(self):
        self.plain = 1
        self.count += 1
        self.left, (self.right, *self.rest) = 1, (2, 3)
        self.typed: int = 4
        self.latch.value = 5
        other.attr = 6
    def reset(self):
        self.plain = 0
"""
    tree = ast.parse(source)
    cycle = tree.body[0].body[1]
    assert _self_stores(cycle) == {"plain", "count", "left", "right",
                                   "rest", "typed"}
