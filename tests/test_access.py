"""The latch access layer (``repro.cpu.access``) and its four recorders.

Every consumer of storage-access facts — golden last touch, the
bit-plane schedule, taint provenance and the structural read sets — is a
recorder on one hooked latch class.  These tests hold the layer to its
contract for every recorder kind: a trace leaves nothing behind when it
ends (normally or by exception), a ``suspended()`` window is invisible to
the recorder and runs on plain classes, only the latches whose reads a
recorder watches report reads, and only ``repro/cpu/access.py`` swaps
classes.  They also check that the two golden definitions of
"touch" (the scalar touch trace and the compiled bit-plane schedule)
agree.
"""

from __future__ import annotations

import ast
import copy
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
from repro.cpu.access import (
    HookedLatch,
    HookedMemory,
    TouchTrace,
    WriteHookedLatch,
    suspended,
    trace,
)
from repro.cpu.tainttrace import TaintTracker
from repro.emulator.bitplane import ScheduleTrace
from repro.emulator.structural import _StructuralTracker
from repro.isa.memory import Memory
from repro.rtl.latch import Latch
from repro.sfi import CampaignConfig, SfiExperiment

#: One factory per recorder kind, each building a fresh recorder over a
#: core.
RECORDERS = {
    "touch": TouchTrace,
    "schedule": ScheduleTrace,
    "taint": lambda core: TaintTracker([core], core.ifu.ifar),
    "structural": _StructuralTracker,
}


def assert_untraced(core) -> None:
    """Every swap of the access layer is reverted on ``core``."""
    assert all(type(latch) is Latch for latch in core.all_latches())
    assert type(core.memory) is Memory
    for array in core.arrays():
        assert not {"read", "write", "write_raw"} & set(vars(array)), \
            array.name
    assert core.taint_hook is None


def assert_traced(core, recorder) -> None:
    """``recorder``'s swap is in place on ``core``: the latches whose
    reads it watches are hooked, every other one is write-hooked."""
    watched = recorder.watched_reads()
    assert all(type(latch) is (
        HookedLatch if watched is None or id(latch) in watched
        else WriteHookedLatch) for latch in core.all_latches())
    assert (type(core.memory) is HookedMemory) == recorder.words
    assert (core.taint_hook is not None) == recorder.words


def recorder_state(recorder, core) -> dict:
    """A deep copy of everything ``recorder`` holds (the core itself is
    shared, not copied), for before/after comparison."""
    state = {name: getattr(recorder, name)
             for cls in type(recorder).__mro__
             for name in getattr(cls, "__slots__", ())}
    state.update(getattr(recorder, "__dict__", {}))
    return copy.deepcopy(state, {id(core): core})


def touch_storage(core) -> None:
    """Read and write a latch (whole and bit-wise), an array word and a
    memory word: an access of every kind a recorder can see.  On an
    untouched trace every recorder records something: the first read
    is of the taint recorder's seed, which arms its pending window."""
    core.ifu.ifar.value
    latch = core.idu.cr
    latch.value = latch.value ^ 1
    latch.write_bit(0, latch.bit(0) ^ 1)
    core.lsu.dcache.array.write(0, core.lsu.dcache.array.read(0)[0] ^ 5)
    core.memory.store_word(0x100, core.memory.load_word(0x100) ^ 5)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("by_exception", [False, True],
                         ids=["normal-exit", "exception-exit"])
@pytest.mark.parametrize("kind", sorted(RECORDERS))
def test_trace_exit_reverts_every_swap(core, kind, by_exception):
    recorder = RECORDERS[kind](core)
    with pytest.raises(_Boom) if by_exception else nullcontext():
        with trace([core], recorder) as yielded:
            assert yielded is recorder
            assert_traced(core, recorder)
            touch_storage(core)
            if by_exception:
                raise _Boom
    assert_untraced(core)
    # Nothing is left active: a new trace installs.
    with trace([core], TouchTrace(core)) as touch:
        assert_traced(core, touch)
    assert_untraced(core)


@pytest.mark.parametrize("kind", sorted(RECORDERS))
def test_suspended_window_reverts_and_records_nothing(experiment, kind):
    """Inside ``suspended()`` the machine runs on plain classes and no
    access (latch, array, memory, whole clocked cycles) reaches the
    recorder; after it the swap is back and recording resumes."""
    core = experiment.core
    experiment.emulator.reload("tc0")
    recorder = RECORDERS[kind](core)
    try:
        with trace([core], recorder):
            before = recorder_state(recorder, core)
            with suspended():
                assert_untraced(core)
                snapshot = core.snapshot()
                touch_storage(core)
                experiment.emulator.clock(3)
                core.restore(snapshot)
                with suspended():  # nested: still suspended on exit
                    pass
                assert_untraced(core)
                with pytest.raises(RuntimeError):
                    with trace([core], TouchTrace(core)):
                        pass
            assert recorder_state(recorder, core) == before
            assert_traced(core, recorder)
            touch_storage(core)
            assert recorder_state(recorder, core) != before
        assert_untraced(core)
    finally:
        experiment.emulator.reload("tc0")


@pytest.mark.parametrize("kind", ["schedule", "structural", "touch"])
def test_other_recorders_watch_every_read(core, kind):
    assert RECORDERS[kind](core).watched_reads() is None


def _contained(value):
    """``value`` and everything inside it, through containers."""
    yield value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _contained(key)
            yield from _contained(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _contained(item)


def test_taint_tracker_watches_exactly_its_tainted_latches(core):
    """Only the tainted latches' reads are hooked: taint switches a
    latch's reads on, cleansing switches them off, and the tracker
    holds no latch object (``recorder_state`` deep-copies its state)."""
    seed, cr = core.ifu.ifar, core.idu.cr
    tracker = TaintTracker([core], seed)
    assert type(seed) is Latch  # built untraced: nothing is swapped
    with trace([core], tracker):
        assert type(seed) is HookedLatch
        assert_traced(core, tracker)
        touch_storage(core)  # reads the seed, then writes cr: infected
        assert type(cr) is HookedLatch
        assert_traced(core, tracker)
        cr.value = 0  # a write with an empty window cleanses cr
        assert type(cr) is WriteHookedLatch
        assert_traced(core, tracker)
        with suspended():
            assert_untraced(core)
        assert_traced(core, tracker)
    assert_untraced(core)
    assert not any(isinstance(item, Latch)
                   for item in _contained(vars(tracker)))


def test_suspended_without_a_trace_is_a_no_op(core):
    with suspended():
        assert_untraced(core)
    assert_untraced(core)


def _class_assignments(tree: ast.AST) -> list[int]:
    """Lines that assign an object's ``__class__`` (by attribute store or
    ``setattr``/``__setattr__`` with the literal name)."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__class__"
                and isinstance(node.ctx, ast.Store)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if (name in ("setattr", "__setattr__")
                    and any(isinstance(arg, ast.Constant)
                            and arg.value == "__class__"
                            for arg in node.args)):
                lines.append(node.lineno)
    return lines


def test_class_swaps_live_only_in_the_access_layer():
    """Ratchet: one module swaps classes, so there is one definition of
    a storage access to audit and no tracer can undo another's swap."""
    root = Path(repro.__file__).parent
    swaps = {}
    for path in sorted(root.rglob("*.py")):
        lines = _class_assignments(
            ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            swaps[path.relative_to(root).as_posix()] = lines
    assert set(swaps) == {"cpu/access.py"}, swaps


def test_touch_trace_and_schedule_agree_on_last_touch():
    """On the CLI-default suite, the scalar golden's touch trace and the
    bit-plane golden's schedule record the same last touch for every
    latch, and it is the last cycle of that latch's compiled read and
    write streams."""
    scalar = SfiExperiment(CampaignConfig(suite_size=4))
    bitplane = SfiExperiment(CampaignConfig(suite_size=4, backend="bitplane"))
    assert len(scalar.goldens) == len(bitplane.goldens) == 4

    for tc, (golden, schedule) in enumerate(zip(bitplane.goldens,
                                                bitplane.schedules)):
        touches = golden.last_touch  # keyed by latch position
        assert touches == scalar.goldens[tc].last_touch, tc
        assert touches
        last: dict[int, int] = {}
        for reads in (schedule.vr, schedule.pr, schedule.br):
            for key, seqs in reads.items():
                index = key if isinstance(key, int) else key[0]
                last[index] = max(last.get(index, -1),
                                  schedule.seq_cycle(seqs[-1]))
        for writes in (schedule.vw_cyc, schedule.pw_cyc, schedule.bw_cyc):
            for key, cycles in writes.items():
                index = key if isinstance(key, int) else key[0]
                last[index] = max(last.get(index, -1), cycles[-1])
        assert last == touches, tc
