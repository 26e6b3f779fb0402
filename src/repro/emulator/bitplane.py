"""Bit-plane parallel trial evaluation (the wave backend).

One machine word carries up to 64 independent universes: bit *k* of a
plane word is trial *k*'s value of one latch/array bit, with lane 0
reserved for the golden (fault-free) run.  The backend works in the
*divergence domain* — every plane is stored XORed against the golden
lane, so the golden plane is identically zero and "has any trial
diverged?" is a single word-compare against zero.

The fault-free reference run is recorded once per testcase by a
:class:`ScheduleTrace`, a :class:`~repro.cpu.access.TouchTrace`
recorder on the latch access layer (so it also yields the ``last_touch``
map the scalar exits use).  :func:`compile_netlist` flattens
that recorded ``Core.cycle`` activity into a :class:`CompiledSchedule`
— per-latch read/write streams in sequence-exact order — cached by
model digest.  A wave of up to :data:`MAX_WAVE_TRIALS` injections is
then resolved by *generated straight-line plane code*: every injection
lowers to an OR/XOR into the site's divergence plane, every golden read
run to an AND/OR/ANDN triple (consume → peel), every golden write run
to an AND/ANDN pair (overwrite → converge), and what survives the
whole schedule still diverges at quiesce.  The key collapse: between
two injection boundaries only the *first* schedule event can change the
diverged∧active word (afterwards it is zero until the next lane joins),
so a kernel is a handful of word ops per site, however long the run.

Why a trial lane may stay in-plane at all: a TOGGLE trial is
bit-identical to the golden run until the golden schedule first *reads*
the diverged bit.  If a *write* of that bit comes first, the trial (by
that same identical-prefix induction) writes the same value and the
divergence is gone — the lane's future *is* the golden future.  A read
first means the trial's control flow may now fork, which plane algebra
cannot follow — that lane peels to the scalar path.  The differential
suite (``tests/test_bitplane_differential.py``) holds the whole scheme
to byte-identical journals against the seed path.

Generated sources are linted before ``exec`` (rule REPRO-D05: no
unseeded randomness, wall clocks, or other determinism breaks in
generated plane code) and carry a provenance header naming the model
digest they were compiled from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.cpu.access import TouchTrace
from repro.rtl.latch import Latch

_VALUE = Latch.value  # the slot descriptor behind the traced property

#: Plane geometry: one Python int word per latch bit, lane 0 = golden.
PLANE_LANES = 64
GOLDEN_LANE = 0
MAX_WAVE_TRIALS = PLANE_LANES - 1


class BitplaneCompileError(RuntimeError):
    """Generated plane code failed its pre-exec lint or compile."""


# ----------------------------------------------------------------------
# Plane algebra primitives (the lowering targets).  All operate on plain
# ints; ``lanes`` bounds the word so NOT/MUX cannot leak sign bits.

def plane_mask(lanes: int) -> int:
    """All-lanes-set word for a ``lanes``-wide wave."""
    return (1 << lanes) - 1


def plane_not(plane: int, lanes: int) -> int:
    """Lane-wise NOT, bounded to the wave width."""
    return ~plane & plane_mask(lanes)


def plane_and(a: int, b: int) -> int:
    """Lane-wise AND."""
    return a & b


def plane_or(a: int, b: int) -> int:
    """Lane-wise OR."""
    return a | b


def plane_xor(a: int, b: int) -> int:
    """Lane-wise XOR (an injection in the divergence domain)."""
    return a ^ b


def plane_mux(sel: int, a: int, b: int, lanes: int) -> int:
    """Lane-wise MUX: lane k takes ``a`` where ``sel`` is 1, else ``b``."""
    return (sel & a) | (plane_not(sel, lanes) & b)


def broadcast(level: int, lanes: int) -> int:
    """Replicate one scalar bit across every lane of a plane."""
    return plane_mask(lanes) if level & 1 else 0


def lane_word(lane: int) -> int:
    """The single-lane mask for lane ``lane``."""
    return 1 << lane


def pack_lanes(levels) -> int:
    """Pack per-lane scalar bits (lane 0 first) into one plane word."""
    plane = 0
    for lane, level in enumerate(levels):
        if level & 1:
            plane |= 1 << lane
    return plane


def unpack_lanes(plane: int, lanes: int) -> tuple:
    """Unpack a plane word into per-lane scalar bits (lane 0 first)."""
    return tuple((plane >> lane) & 1 for lane in range(lanes))


def divergence_plane(plane: int, golden_level: int, lanes: int) -> int:
    """Re-base an absolute plane against its golden lane's level."""
    return plane_xor(plane, broadcast(golden_level, lanes))


def diverged(divergence: int) -> bool:
    """The divergence detect: one word-compare against the golden plane
    (identically zero in the divergence domain)."""
    return divergence != 0


# ----------------------------------------------------------------------
# Schedule recording.

class ScheduleTrace(TouchTrace):
    """Sequence-exact access schedule of one golden run.

    Extends the plain last-touch trace with, per latch and domain
    (value / parity / single bit), the ordered stream of *first accesses
    per cycle*: read streams keep one monotonically increasing sequence
    number per (latch, cycle), write streams additionally keep the value
    the latch holds after that cycle's last write.  Sequence numbers are
    global, so read-vs-write order *within* a cycle is exact — no tie
    conservatism at the injection boundary.

    Whole-word accesses stream into the value/parity tables; ``bit`` and
    an unprotected latch's ``write_bit`` stream into per-bit tables, so
    scoreboard-style consumers do not make every lane of a wide mask
    latch peel.  ``last_touch`` is stamped exactly as the plain touch
    trace stamps it.

    ``marks[c]`` is the first sequence number stamped at cycle ``c`` or
    later, which makes "everything after the injection at the end of
    cycle c" a single ``bisect``.
    """

    __slots__ = ("seq", "marks", "initial",
                 "vr", "vw_seq", "vw_cyc", "vw_val",
                 "pr", "pw_seq", "pw_cyc", "pw_val",
                 "br", "bw_seq", "bw_cyc", "bw_val",
                 "_vr_last", "_pr_last", "_br_last")

    def __init__(self, core) -> None:
        super().__init__(core)
        self.seq = 0
        self.marks: list[int] = [0]
        self.initial = tuple((latch.value, latch.par)
                             for latch in core.all_latches())
        self.vr: dict[int, list[int]] = {}
        self.vw_seq: dict[int, list[int]] = {}
        self.vw_cyc: dict[int, list[int]] = {}
        self.vw_val: dict[int, list[int]] = {}
        self.pr: dict[int, list[int]] = {}
        self.pw_seq: dict[int, list[int]] = {}
        self.pw_cyc: dict[int, list[int]] = {}
        self.pw_val: dict[int, list[int]] = {}
        self.br: dict[tuple[int, int], list[int]] = {}
        self.bw_seq: dict[tuple[int, int], list[int]] = {}
        self.bw_cyc: dict[tuple[int, int], list[int]] = {}
        self.bw_val: dict[tuple[int, int], list[int]] = {}
        self._vr_last: dict[int, int] = {}
        self._pr_last: dict[int, int] = {}
        self._br_last: dict[tuple[int, int], int] = {}

    # Access events: stamp ``last_touch`` and the domain's stream.

    def read_value(self, latch: Latch) -> None:
        self.last_touch[id(latch)] = self.core.cycles
        self._read(self.vr, self._vr_last, latch)

    def write_value(self, latch: Latch, new: int) -> None:
        self.last_touch[id(latch)] = self.core.cycles
        self._write(self.vw_seq, self.vw_cyc, self.vw_val, latch, new)

    def read_par(self, latch: Latch) -> None:
        self.last_touch[id(latch)] = self.core.cycles
        self._read(self.pr, self._pr_last, latch)

    def write_par(self, latch: Latch, new: int) -> None:
        self.last_touch[id(latch)] = self.core.cycles
        self._write(self.pw_seq, self.pw_cyc, self.pw_val, latch, new)

    def bit(self, latch: Latch, bit: int) -> int:
        self.last_touch[id(latch)] = self.core.cycles
        self._read(self.br, self._br_last, latch, bit)
        return (_VALUE.__get__(latch) >> bit) & 1

    def write_bit(self, latch: Latch, bit: int, level: int) -> None:
        if latch.protected:
            # A protected write re-derives the whole parity shadow from
            # the whole value: that is a whole-latch access, take the
            # plain path (which stamps value and parity).
            Latch.write_bit(latch, bit, level)
            return
        self.last_touch[id(latch)] = self.core.cycles
        self._write(self.bw_seq, self.bw_cyc, self.bw_val, latch,
                    level & 1, bit)
        value = _VALUE.__get__(latch)
        if level:
            value |= 1 << bit
        else:
            value &= ~(1 << bit) & latch.mask
        _VALUE.__set__(latch, value)

    # Stamping helpers: every *recorded* access takes one sequence
    # number; repeats within a cycle collapse onto the first (reads) or
    # update the cycle's final value in place (writes).

    def _mark(self, cycle: int) -> None:
        marks = self.marks
        while len(marks) <= cycle:
            marks.append(self.seq)

    def _read(self, streams, last, latch, bit=None) -> None:
        if bit is None:
            key = id(latch)
        else:
            key = (id(latch), bit)
        cycle = self.core.cycles
        if last.get(key) == cycle:
            return
        last[key] = cycle
        self._mark(cycle)
        stream = streams.get(key)
        if stream is None:
            streams[key] = [self.seq]
        else:
            stream.append(self.seq)
        self.seq += 1

    def _write(self, seqs, cycs, vals, latch, value, bit=None) -> None:
        if bit is None:
            key = id(latch)
        else:
            key = (id(latch), bit)
        cycle = self.core.cycles
        cyc = cycs.get(key)
        if cyc is not None and cyc and cyc[-1] == cycle:
            vals[key][-1] = value
            return
        self._mark(cycle)
        if cyc is None:
            seqs[key] = [self.seq]
            cycs[key] = [cycle]
            vals[key] = [value]
        else:
            seqs[key].append(self.seq)
            cyc.append(cycle)
            vals[key].append(value)
        self.seq += 1


# ----------------------------------------------------------------------
# The compiled schedule + wave kernels.

_KERNEL_HEADER = (
    "# generated by repro.emulator.bitplane.compile_netlist\n"
    "# model {model}  schedule-end {end}\n"
    "# straight-line divergence-plane program; lane 0 = golden (plane\n"
    "# word bit 0 stays 0).  lowering: I -> OR/XOR into the site plane,\n"
    "# R -> AND,OR,ANDN (consume peels), W -> AND,ANDN (overwrite\n"
    "# converges); survivors are the lanes still diverged at the end.\n"
)

_SCHEDULE_CACHE: dict = {}


def compile_netlist(core, trace: ScheduleTrace, cache_key=None):
    """Flatten one recorded golden run into a :class:`CompiledSchedule`.

    ``cache_key`` (conventionally the model digest plus everything that
    determines the golden trajectory: testcase seed, checker mask, mode
    overrides, core params) memoises the result in-process, so repeated
    experiments over the same model/testcase skip re-deriving tables.
    """
    if cache_key is not None:
        cached = _SCHEDULE_CACHE.get(cache_key)
        if cached is not None:
            return cached
    compiled = CompiledSchedule(core, trace, cache_key)
    if cache_key is not None:
        _SCHEDULE_CACHE[cache_key] = compiled
    return compiled


class CompiledSchedule:
    """Read-only flattening of one golden run's access schedule.

    Holds, per latch (keyed by position in ``core.all_latches()``
    order), the sequence-exact read/write streams of every domain, the
    cycle->sequence boundary marks and the initial state.

    Instances are immutable by convention (all streams tupled at build
    time) and shared across experiments via the compile cache, so the
    snapshot-aliasing suite pins that nothing here aliases live core
    state.
    """

    def __init__(self, core, trace: ScheduleTrace, cache_key=None) -> None:
        from repro.emulator.structural import model_digest
        self.model_digest = model_digest(core)
        self.cache_key = cache_key
        self.end_cycle = core.cycles
        self.total_seq = trace.seq
        self.marks = tuple(trace.marks)
        self.initial = trace.initial
        positions = {id(latch): i
                     for i, latch in enumerate(core.all_latches())}

        def _by_index(table):
            return {positions[key]: tuple(stream)
                    for key, stream in table.items()}

        def _bits_by_index(table):
            return {(positions[key[0]], key[1]): tuple(stream)
                    for key, stream in table.items()}

        self.vr = _by_index(trace.vr)
        self.vw_seq = _by_index(trace.vw_seq)
        self.vw_cyc = _by_index(trace.vw_cyc)
        self.vw_val = _by_index(trace.vw_val)
        self.pr = _by_index(trace.pr)
        self.pw_seq = _by_index(trace.pw_seq)
        self.pw_cyc = _by_index(trace.pw_cyc)
        self.pw_val = _by_index(trace.pw_val)
        self.br = _bits_by_index(trace.br)
        self.bw_seq = _bits_by_index(trace.bw_seq)
        self.bw_cyc = _bits_by_index(trace.bw_cyc)
        self.bw_val = _bits_by_index(trace.bw_val)
        self._kernels: dict = {}
        self.kernel_sources: list[str] = []

    # A schedule travels to pool workers inside a PreparedState: its
    # tables, not its per-process kernel cache (generated functions do
    # not pickle), which a worker rebuilds as waves need kernels.

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_kernels"], state["kernel_sources"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernels = {}
        self.kernel_sources = []

    # -- schedule queries ----------------------------------------------

    def boundary(self, cycle: int) -> int:
        """First sequence number after the injection point at the end
        of ``cycle`` (injection happens after all of that cycle's
        activity)."""
        if cycle + 1 < len(self.marks):
            return self.marks[cycle + 1]
        return self.total_seq

    def seq_cycle(self, seq: int) -> int:
        """The cycle a sequence number was stamped in."""
        return bisect_right(self.marks, seq) - 1

    def _streams(self, index: int, bit: int, is_parity: bool):
        """(read streams, write-seq streams) relevant to one site."""
        if is_parity:
            reads = [self.pr.get(index, ())]
            writes = [self.pw_seq.get(index, ())]
        else:
            reads = [self.vr.get(index, ()),
                     self.br.get((index, bit), ())]
            writes = [self.vw_seq.get(index, ()),
                      self.bw_seq.get((index, bit), ())]
        return reads, writes

    def first_event(self, index: int, bit: int, is_parity: bool,
                    boundary: int):
        """First golden access of a site at/after a boundary:
        ``(seq, kind)`` with kind ``"R"``/``"W"``, or ``None``."""
        reads, writes = self._streams(index, bit, is_parity)
        best = None
        for stream in reads:
            pos = bisect_left(stream, boundary)
            if pos < len(stream) and (best is None or stream[pos] < best[0]):
                best = (stream[pos], "R")
        for stream in writes:
            pos = bisect_left(stream, boundary)
            if pos < len(stream) and (best is None or stream[pos] < best[0]):
                best = (stream[pos], "W")
        return best

    def level_at(self, index: int, bit: int, is_parity: bool,
                 boundary: int) -> int:
        """The site's golden bit level just before an injection
        boundary (the level the flip toggles away from)."""
        if is_parity:
            seqs = self.pw_seq.get(index, ())
            pos = bisect_left(seqs, boundary) - 1
            if pos >= 0:
                return self.pw_val[index][pos] & 1
            return self.initial[index][1] & 1
        best_seq = -1
        level = (self.initial[index][0] >> bit) & 1
        seqs = self.vw_seq.get(index, ())
        pos = bisect_left(seqs, boundary) - 1
        if pos >= 0:
            best_seq = seqs[pos]
            level = (self.vw_val[index][pos] >> bit) & 1
        seqs = self.bw_seq.get((index, bit), ())
        pos = bisect_left(seqs, boundary) - 1
        if pos >= 0 and seqs[pos] > best_seq:
            level = self.bw_val[(index, bit)][pos] & 1
        return level

    # -- wave resolution (generated plane kernels) ---------------------

    def resolve_wave(self, lanes):
        """Classify a wave of injections with generated plane code.

        ``lanes`` is a sequence of ``(latch_index, bit, is_parity,
        inject_cycle)`` tuples, at most :data:`MAX_WAVE_TRIALS` long;
        entry *i* rides plane-word bit ``i + 1`` (bit 0 is the golden
        lane).  Returns a list of per-lane fates: ``("peel", cycle)``
        with the cycle golden first reads the flipped bit in,
        ``("converge", None)`` or ``("survive", None)``.
        """
        if len(lanes) > MAX_WAVE_TRIALS:
            raise ValueError(
                f"wave of {len(lanes)} lanes exceeds {MAX_WAVE_TRIALS}")
        descriptors = tuple(
            (index, bit, bool(is_parity), self.boundary(cycle))
            for index, bit, is_parity, cycle in lanes)
        kernel = self._kernels.get(descriptors)
        if kernel is None:
            kernel = self._build_kernel(descriptors)
            self._kernels[descriptors] = kernel
        peel, conv, live = kernel()
        fates = []
        for pos, (index, bit, is_parity, boundary) in enumerate(descriptors):
            lane_bit = 1 << (pos + 1)
            if peel & lane_bit:
                event = self.first_event(index, bit, is_parity, boundary)
                fates.append(("peel", self.seq_cycle(event[0])))
            elif conv & lane_bit:
                fates.append(("converge", None))
            else:
                fates.append(("survive", None))
        return fates

    def _build_kernel(self, descriptors):
        """Generate, lint and exec one wave's straight-line kernel."""
        by_site: dict = {}
        for pos, (index, bit, is_parity, boundary) in enumerate(descriptors):
            by_site.setdefault((index, bit, is_parity), []).append(
                (boundary, pos + 1))
        lines = [_KERNEL_HEADER.format(model=self.model_digest,
                                       end=self.end_cycle),
                 "def wave_kernel():",
                 "    peel = 0",
                 "    conv = 0",
                 "    live = 0"]
        for (index, bit, is_parity), members in sorted(by_site.items()):
            site_mask = 0
            ops = []
            for boundary, lane in members:
                site_mask |= 1 << lane
                ops.append((boundary, 0, "I", 1 << lane))
                event = self.first_event(index, bit, is_parity, boundary)
                if event is not None:
                    ops.append((event[0], 1, event[1], 0))
            domain = "par" if is_parity else f"bit {bit}"
            lines.append(f"    # site latch[{index}] {domain}")
            lines.append("    p = 0")
            lines.append(f"    a = 0x{site_mask:x}")
            seen_events = set()
            for seq, _tie, kind, mask in sorted(ops):
                if kind == "I":
                    lines.append(f"    p ^= 0x{mask:x}  # I @seq {seq}")
                elif seq not in seen_events:
                    seen_events.add(seq)
                    if kind == "R":
                        lines.append(f"    h = p & a  # R @seq {seq}")
                        lines.append("    peel |= h")
                        lines.append("    a &= ~h")
                        lines.append("    p &= ~h")
                    else:
                        lines.append(f"    w = p & a  # W @seq {seq}")
                        lines.append("    conv |= w")
                        lines.append("    p &= ~w")
            lines.append("    live |= p & a")
        lines.append("    return peel, conv, live")
        source = "\n".join(lines) + "\n"
        lint_generated_plane_code(source)
        namespace: dict = {}
        try:
            exec(compile(source, "<bitplane-kernel>", "exec"),  # noqa: S102
                 namespace)
        except SyntaxError as err:  # pragma: no cover - generator bug
            raise BitplaneCompileError(
                f"generated kernel does not compile: {err}") from err
        self.kernel_sources.append(source)
        return namespace["wave_kernel"]


def lint_generated_plane_code(source: str) -> None:
    """REPRO-D05 gate: generated plane code must satisfy the
    determinism rules (no unseeded randomness, no wall clocks, no id()
    escapes) before it is executed.  Raises
    :class:`BitplaneCompileError` on any finding."""
    from repro.lint.rules_ast import lint_generated
    findings = lint_generated(source, origin="emulator/bitplane-gen")
    if findings:
        details = "; ".join(
            f"{finding.rule}:{finding.line}:{finding.message}"
            for finding in findings)
        raise BitplaneCompileError(
            f"generated plane code failed determinism lint: {details}")
