"""The core model's ordered storage-access stream, pinned by its hash.

Everything that observes the machine through :mod:`repro.cpu.access`
sees one stream: each latch ``value`` and ``par`` read and write (with
the value written), each ``bit`` and ``write_bit``, each SRAM array and
memory-word access and each cycle boundary, in order.  The touch trace
behind the frozen and tracked exits, the bit-plane schedule, the
taint tracker (whose consume-on-write pairing depends on order) and the
structural tracer all rest on it, and so does every simulated
statistic.  A change to the simulator kernel may change the host work
between two accesses; it may not add, drop or reorder an access, change
a written value or change a cycle count.

:class:`StreamHash` hashes every event of that stream over the golden
runs and a fixed set of injected TOGGLE and STICKY trials of a small
suite, and the SHA-256 is pinned in ``STREAM_SHA256``.  A model change
that alters the stream on purpose (a new latch, a new checker) re-pins
it in the same change and says why.
"""

from __future__ import annotations

import hashlib
import random

from repro.avp import make_suite
from repro.cpu import Power6Core
from repro.cpu.access import Recorder, trace
from repro.emulator import AwanEmulator
from repro.rtl.fault import InjectionMode
from repro.sfi.sampling import random_sample

from tests.conftest import SMALL_PARAMS

#: SHA-256 of the whole stream (see the module docstring).
STREAM_SHA256 = ("6b320802f3907265fde9bf2d597d8c6b"
                 "8be04c1658d6c03b628a1423302668aa")

#: Sites the first testcase injects, chosen to reach the fetch, decode,
#: execute, load/store, commit, checkpoint and recovery paths, the
#: clock stops of every unit, the configuration checkers and the parity
#: shadows.  Every testcase adds ``_SAMPLED`` random sites.
SITES = (
    "ifu.fb_instr[0].27", "ifu.fb_instr[1].p", "ifu.ifar.4",
    "ifu.fstate.1", "ifu.fb_valid.0", "ifu.icache.valid.3",
    "ifu.ierat.vpn[0].1",
    "idu.cr.1", "idu.gpr_busy.3", "idu.flag_busy.1", "idu.itag.0",
    "fxu.a.0", "fxu.res.7", "fxu.cnt.2", "fxu.op.1",
    "fxu.gprs.t0[3].5", "fpu.b.30", "lsu.fprs.t0[1].p",
    "lsu.base.2", "lsu.state.1", "lsu.sq_addr[0].4", "lsu.sq_valid.0",
    "lsu.derat.rpn[0].0", "lsu.dcache.tag[1].0", "lsu.gprs.t0[4].2",
    "rut.sta_idx.0", "rut.cmt_res.2", "rut.next_itag.0", "rut.cmt_flags.0",
    "rut.scrub_idx.6",
    "pervasive.gptr_clkstop.0", "pervasive.gptr_clkstop.1",
    "pervasive.gptr_clkstop.2", "pervasive.gptr_clkstop.3",
    "pervasive.gptr_clkstop.4", "pervasive.gptr_clkstop.5",
    "pervasive.mode_chk_en.2", "pervasive.mode_cache_en.0",
    "pervasive.mode_cache_en.1", "pervasive.mode_clkcfg.1",
    "pervasive.gptr_forceerr.0", "pervasive.rstate.1",
    "pervasive.wd_ctr.15", "pervasive.mode_xstop_on_err.0",
)
_SAMPLED = 4
_STICKY_CYCLES = 16
#: Cycles a trial runs after its flip, unless it quiesces first: past
#: the first watchdog expiry and its recovery.
_WINDOW = 400


class StreamHash(Recorder):
    """Hashes every access event, in order, watching every read."""

    words = True

    def __init__(self, core: Power6Core) -> None:
        self.position = {id(latch): index
                         for index, latch in enumerate(core.all_latches())}
        self.events: list[tuple] = []
        self.count = 0
        self.sha = hashlib.sha256()

    def watched_reads(self):
        return None

    def flush(self) -> None:
        self.count += len(self.events)
        self.sha.update(repr(self.events).encode())
        self.events.clear()

    def hexdigest(self) -> str:
        self.flush()
        return self.sha.hexdigest()

    def read_value(self, latch) -> None:
        self.events.append(("rv", self.position[id(latch)]))

    def write_value(self, latch, new) -> None:
        self.events.append(("wv", self.position[id(latch)], new))

    def read_par(self, latch) -> None:
        self.events.append(("rp", self.position[id(latch)]))

    def write_par(self, latch, new) -> None:
        self.events.append(("wp", self.position[id(latch)], new))

    def bit(self, latch, bit: int) -> int:
        self.events.append(("b", self.position[id(latch)], bit))
        return super().bit(latch, bit)

    def write_bit(self, latch, bit: int, level: int) -> None:
        self.events.append(("wb", self.position[id(latch)], bit, level))
        super().write_bit(latch, bit, level)

    def read_array(self, array, index: int, result) -> None:
        self.events.append(("ra", array.name, index))

    def write_array(self, array, index: int) -> None:
        self.events.append(("wa", array.name, index))

    def read_word(self, memory, addr: int) -> None:
        self.events.append(("rm", addr))

    def write_word(self, memory, addr: int) -> None:
        self.events.append(("wm", addr))

    def cycle(self, core) -> None:
        self.events.append(("c",))
        if len(self.events) >= 65536:
            self.flush()


def _trials(emulator: AwanEmulator, index: int, cycles: int) -> list:
    """``(site_index, inject_cycle, mode)`` for testcase ``index``,
    TOGGLE and STICKY in turn."""
    latch_map = emulator.latch_map
    rng = random.Random(index)
    sites = [latch_map.index_of(name) for name in SITES] if index == 0 \
        else []
    sites += random_sample(latch_map, _SAMPLED, rng)
    modes = (InjectionMode.TOGGLE, InjectionMode.STICKY)
    return [(site, rng.randrange(1, cycles), modes[turn % 2])
            for turn, site in enumerate(sites)]


def stream_digest(suite_size: int = 2, suite_seed: int = 99
                  ) -> tuple[str, int, list[int]]:
    """``(sha256, events, cycles)`` of the golden runs and injected
    trials of a ``suite_size`` suite; ``cycles`` lists each run's
    length in run order."""
    core = Power6Core(SMALL_PARAMS)
    emulator = AwanEmulator(core)
    recorder = StreamHash(core)
    lengths = []
    for index, testcase in enumerate(make_suite(suite_size, suite_seed)):
        core.load_program(testcase.program)
        emulator.checkpoint("start")
        with trace([core], recorder):
            golden = emulator.clock(100_000)
        lengths.append(golden)
        for site, cycle, mode in _trials(emulator, index, golden):
            emulator.reload("start")
            emulator.clock(cycle)  # the golden prefix, already hashed
            with trace([core], recorder):
                emulator.inject(site, mode, _STICKY_CYCLES)
                lengths.append(emulator.clock(_WINDOW))
    return recorder.hexdigest(), recorder.count, lengths


def test_access_stream_is_unchanged():
    digest, events, cycles = stream_digest()
    assert digest == STREAM_SHA256, (
        f"the ordered access stream changed ({events} events over "
        f"{len(cycles)} runs, {sum(cycles)} cycles): a kernel change "
        "added, dropped or reordered a latch, array or memory access, "
        "changed a written value or changed a cycle count")
