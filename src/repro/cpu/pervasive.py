"""Core pervasive logic.

Hosts the fault-isolation registers (FIRs), the watchdog/hang detector,
the recovery sequencer, the configuration-integrity checkers and the
scan-only MODE/GPTR latch populations.  This is the unit the paper labels
"Core (Pervasive Logic)": it contributes relatively few recoveries but
dominates hangs and checkstops (Figure 4), because its latches either hold
persistent configuration or are the error-handling machinery itself.
"""

from __future__ import annotations

from repro.rtl.latch import LatchKind
from repro.rtl.module import HwModule
from repro.rtl.parity import EccStatus

from repro.cpu.checkers import CHECKSTOP_ONLY, Checker
from repro.cpu.events import EventKind
from repro.cpu.debugblock import DebugBlock
from repro.cpu.ifu import LEGAL_FETCH_STATES
from repro.cpu.lsu import LEGAL_LSU_STATES
from repro.cpu.rut import CKPT_CR, CKPT_CTR, CKPT_LR, CKPT_PC, CKPT_WORDS

# Recovery sequencer states.
R_IDLE = 0
R_FREEZE = 1
R_RESTORE = 2
R_REFETCH = 3
LEGAL_REC_STATES = (R_IDLE, R_FREEZE, R_RESTORE, R_REFETCH)

# GPTR clock-stop bit assignments.
_CLKSTOP_BITS = {"FETCH": 0, "DISP": 1, "FXU": 2, "LSU": 3, "FPU": 4, "COMMIT": 5}

_CLKCFG_RESET = 0x10         # one-hot PLL-multiplier select
_PLLCFG_RESET = 0b01011010   # fixed calibration pattern
_VIDCFG_RESET = 0x3C         # voltage-id calibration pattern
_REFCFG_RESET = 0x02         # one-hot reference-clock select


class Pervasive(HwModule):
    """FIRs, watchdog, recovery sequencer, MODE and GPTR scan rings."""

    def __init__(self, core, params) -> None:
        super().__init__("pervasive")
        self.core = core
        self.params = params
        ring = "CORE"

        # Fault isolation and error-handling state (FUNC latches).
        self.fir_rec = self.add_latch("fir_rec", 24, ring=ring)
        self.fir_xstop = self.add_latch("fir_xstop", 24, ring=ring)
        self.fir_info = self.add_latch("fir_info", 24, ring=ring)
        self.corrected_ctr = self.add_latch("corrected_ctr", 16, ring=ring)
        self.rec_count = self.add_latch("rec_count", 8, ring=ring)
        self.rec_since_commit = self.add_latch("rec_since_commit", 4, ring=ring)
        self.wd_ctr = self.add_latch("wd_ctr", 16, ring=ring)
        self.hang = self.add_latch("hang", 1, ring=ring)
        self.xstop = self.add_latch("xstop", 1, ring=ring)
        self.rstate = self.add_latch("rstate", 3, ring=ring)
        self.rcnt = self.add_latch("rcnt", 8, ring=ring)
        self.restore_idx = self.add_latch("restore_idx", 7, ring=ring)
        self.rec_pc = self.add_latch("rec_pc", 32, ring=ring)
        self.rec_reason = self.add_latch("rec_reason", 5, ring=ring)

        # MODE scan ring: persistent machine configuration.
        self.mode_chk_en = self.add_latch(
            "mode_chk_en", 24, kind=LatchKind.MODE, ring="MODE",
            reset_value=(1 << 24) - 1)
        self.mode_rec_en = self.add_latch(
            "mode_rec_en", 1, kind=LatchKind.MODE, ring="MODE", reset_value=1)
        self.mode_xstop_on_err = self.add_latch(
            "mode_xstop_on_err", 1, kind=LatchKind.MODE, ring="MODE")
        self.mode_wd_sel = self.add_latch(
            "mode_wd_sel", 3, kind=LatchKind.MODE, ring="MODE", reset_value=4)
        self.mode_scrub_en = self.add_latch(
            "mode_scrub_en", 1, kind=LatchKind.MODE, ring="MODE", reset_value=1)
        self.mode_cache_en = self.add_latch(
            "mode_cache_en", 2, kind=LatchKind.MODE, ring="MODE", reset_value=3)
        self.mode_clkcfg = self.add_latch(
            "mode_clkcfg", 8, kind=LatchKind.MODE, ring="MODE",
            reset_value=_CLKCFG_RESET)
        self.mode_pllcfg = self.add_latch(
            "mode_pllcfg", 8, kind=LatchKind.MODE, ring="MODE",
            reset_value=_PLLCFG_RESET)
        self.mode_vidcfg = self.add_latch(
            "mode_vidcfg", 8, kind=LatchKind.MODE, ring="MODE",
            reset_value=_VIDCFG_RESET)
        self.mode_refcfg = self.add_latch(
            "mode_refcfg", 8, kind=LatchKind.MODE, ring="MODE",
            reset_value=_REFCFG_RESET)
        self.mode_thresh = self.add_latch(
            "mode_thresh", 8, kind=LatchKind.MODE, ring="MODE", reset_value=0x20)
        self.mode_spare = self.add_latch(
            "mode_spare", 32, kind=LatchKind.MODE, ring="MODE")

        # GPTR scan ring: test/debug access registers.
        self.gptr_clkstop = self.add_latch(
            "gptr_clkstop", 8, kind=LatchKind.GPTR, ring="GPTR")
        self.gptr_forceerr = self.add_latch(
            "gptr_forceerr", 4, kind=LatchKind.GPTR, ring="GPTR")
        self.gptr_scansel = self.add_latch(
            "gptr_scansel", 24, kind=LatchKind.GPTR, ring="GPTR")
        self.gptr_lbist = self.add_latch(
            "gptr_lbist", 48, kind=LatchKind.GPTR, ring="GPTR")
        self.gptr_trace = self.add_latch(
            "gptr_trace", 32, kind=LatchKind.GPTR, ring="GPTR")
        self.gptr_abist = self.add_latch(
            "gptr_abist", 32, kind=LatchKind.GPTR, ring="GPTR")

        self.debug = self.add_child(DebugBlock(
            "pervasive.debug", params.scaled_debug_bits("CORE"), ring))

    def detection_latches(self) -> list:
        """The error-detection / error-handling network.

        Everything a fault must reach for the machine to *notice* it:
        the FIRs, the corrected/recovery counters, the watchdog and its
        hang/checkstop outputs, and the recovery sequencer state.  The
        structural analyzer treats these as sinks: a latch whose cone of
        influence reaches none of them (and no architected state) cannot
        produce any outcome but Vanished.
        """
        return [self.fir_rec, self.fir_xstop, self.fir_info,
                self.corrected_ctr, self.rec_count, self.rec_since_commit,
                self.wd_ctr, self.hang, self.xstop, self.rstate,
                self.rcnt, self.restore_idx, self.rec_pc, self.rec_reason]

    # ------------------------------------------------------------------
    # Configuration reads.

    def checker_enabled(self, checker: Checker) -> bool:
        return bool((self.mode_chk_en.value >> int(checker)) & 1)

    def watchdog_threshold(self) -> int:
        return 16 << (self.mode_wd_sel.value & 7)

    def scrub_enabled(self) -> bool:
        return bool(self.mode_scrub_en.value & 1) and self.rstate.value == R_IDLE

    def icache_enabled(self) -> bool:
        return bool(self.mode_cache_en.value & 1)

    def dcache_enabled(self) -> bool:
        return bool(self.mode_cache_en.value & 2)

    def fetch_held(self) -> bool:
        return bool(self.gptr_clkstop.value & (1 << _CLKSTOP_BITS["FETCH"]))

    def dispatch_held(self) -> bool:
        return bool(self.gptr_clkstop.value & (1 << _CLKSTOP_BITS["DISP"]))

    def unit_held(self, unit: str) -> bool:
        bit = _CLKSTOP_BITS.get(unit)
        return bool(bit is not None and (self.gptr_clkstop.value >> bit) & 1)

    # ------------------------------------------------------------------
    # Error-handling fabric.

    def report_error(self, checker: Checker) -> bool:
        """Entry point for a detected error.  Returns True when the error
        was handled (caller aborts the faulting operation); False when the
        checker is masked and the bad data must propagate."""
        if self.xstop.value or self.hang.value:
            return True
        if not self.checker_enabled(checker):
            self.core.event_log.record(self.core.cycles, EventKind.ERROR_MASKED,
                                       checker.name)
            return False
        already_latched = bool((self.fir_rec.value >> int(checker)) & 1)
        if already_latched and self.rstate.value != R_IDLE:
            # The FIR is level-latched: a persistent condition re-asserting
            # its own bit while its recovery is in progress is not a new
            # error (only a *different* checker firing mid-recovery
            # escalates to checkstop).
            return True
        self.fir_rec.write(self.fir_rec.value | (1 << int(checker)))
        self.core.event_log.record(
            self.core.cycles, EventKind.ERROR_DETECTED,
            f"{checker.name} (ifar=0x{self.core.ifu.ifar.value:08x})")
        unrecoverable = (
            checker in CHECKSTOP_ONLY
            or bool(self.mode_xstop_on_err.value & 1)
            or not (self.mode_rec_en.value & 1)
            or self.rstate.value != R_IDLE
        )
        if unrecoverable:
            self.checkstop(checker)
        else:
            self.rstate.write(R_FREEZE)
            self.rcnt.write(0)
            self.rec_reason.write(int(checker))
            self.core.event_log.record(self.core.cycles,
                                       EventKind.RECOVERY_START, checker.name)
        return True

    def report_corrected(self, checker: Checker) -> bool:
        """A locally corrected error (no recovery sequence needed)."""
        if not self.checker_enabled(checker):
            return False
        self.fir_info.write(self.fir_info.value | (1 << int(checker)))
        self.corrected_ctr.write((self.corrected_ctr.value + 1) & 0xFFFF)
        self.core.event_log.record(self.core.cycles,
                                   EventKind.CORRECTED_LOCAL, checker.name)
        return True

    def checkstop(self, checker: Checker) -> None:
        if not self.xstop.value:
            self.core.event_log.record(self.core.cycles, EventKind.CHECKSTOP,
                                       checker.name)
        self.fir_xstop.write(self.fir_xstop.value | (1 << int(checker)))
        self.xstop.write(1)

    # ------------------------------------------------------------------

    def cycle(self) -> None:
        if self.xstop.value:
            return
        if self.fir_xstop.value:
            # The checkstop FIR network drives the global checkstop: any
            # set bit (including an upset one) stops the machine.
            self.xstop.write(1)
            return
        self._check_test_controls()
        if self.xstop.value:
            return
        self._check_config()
        self._check_fsms()
        if self.xstop.value:
            return
        state = self.rstate.value
        if state == R_IDLE:
            self._watchdog()
        elif state == R_FREEZE:
            self._freeze_cycle()
        elif state == R_RESTORE:
            self._restore_cycle()
        elif state == R_REFETCH:
            self._refetch_cycle()
        # Illegal rstate encodings are caught by _check_fsms (checkstop).

    def _check_test_controls(self) -> None:
        if self.gptr_forceerr.value & 0xF:
            # A latched force-error control re-raises every cycle; the
            # second occurrence lands during recovery and checkstops.
            self.report_error(Checker.CORE_FSM_ILLEGAL)

    def _check_config(self) -> None:
        if not self.checker_enabled(Checker.CORE_FSM_ILLEGAL):
            return
        clkcfg = self.mode_clkcfg.value
        if (clkcfg == 0 or clkcfg & (clkcfg - 1)
                or self.mode_pllcfg.value & 0xF != _PLLCFG_RESET & 0xF):
            # Corrupted persistent clock configuration cannot be cured by
            # retry (scan-only state survives recovery): fail-stop.  The
            # voltage-id / reference-clock fields are latched but only
            # sampled at boot, so runtime flips there are dormant.
            self.checkstop(Checker.CORE_FSM_ILLEGAL)

    def _check_fsms(self) -> None:
        if self.rstate.value not in LEGAL_REC_STATES:
            # The recovery sequencer itself is corrupt: unrecoverable.
            self.checkstop(Checker.CORE_FSM_ILLEGAL)
            return
        if not self.checker_enabled(Checker.CORE_FSM_ILLEGAL):
            return
        core = self.core
        if (core.ifu.fstate.value not in LEGAL_FETCH_STATES
                or core.lsu.state.value not in LEGAL_LSU_STATES):
            self.report_error(Checker.CORE_FSM_ILLEGAL)

    def _watchdog(self) -> None:
        core = self.core
        if core.halted:
            return
        if core.commits_prev:
            self.wd_ctr.write(0)
            return
        count = (self.wd_ctr.value + 1) & 0xFFFF
        self.wd_ctr.write(count)
        if count < self.watchdog_threshold():
            return
        # First response to a detected hang is a recovery attempt — a
        # stall caused by corrupt pipeline state (e.g. a stuck busy bit)
        # is cured by the retry.  Only when retries stop helping does the
        # machine report a hang.
        self.wd_ctr.write(0)
        can_retry = (bool(self.mode_rec_en.value & 1)
                     and self.rec_since_commit.value
                     <= self.params.max_recoveries_without_progress)
        if not can_retry or not self.report_error(Checker.CORE_HANG_DETECT):
            if not self.hang.value:
                self.core.event_log.record(self.core.cycles,
                                           EventKind.HANG_DETECTED,
                                           "watchdog expired, retries exhausted")
            self.hang.write(1)

    # ------------------------------------------------------------------
    # Recovery sequencer.

    def _freeze_cycle(self) -> None:
        self.core.rut.drain_staging()
        count = (self.rcnt.value + 1) & 0xFF
        self.rcnt.write(count)
        if count > 64:
            # Recovery cannot make progress (store queue never drained).
            self.checkstop(Checker.CORE_FSM_ILLEGAL)
            return
        if self.core.lsu.stq_empty() and count >= self.params.recovery_flush_cycles:
            self.rstate.write(R_RESTORE)
            self.restore_idx.write(0)

    def _restore_cycle(self) -> None:
        core = self.core
        idx = self.restore_idx.value
        for _ in range(self.params.recovery_restore_words_per_cycle):
            if idx >= CKPT_WORDS:
                break
            data, status = core.rut.ckpt.read(idx)
            if status is EccStatus.UNCORRECTABLE:
                self.checkstop(Checker.RUT_CKPT_ECC)
                return
            if status is EccStatus.CORRECTED:
                self.report_corrected(Checker.RUT_CKPT_ECC)
            if idx < 32:
                core.gprs.write(idx, data)
            elif idx < 64:
                core.fprs.write(idx - 32, data)
            elif idx == CKPT_CR:
                core.idu.cr.write(data & 0xF)
            elif idx == CKPT_LR:
                core.idu.lr.write(data)
            elif idx == CKPT_CTR:
                core.idu.ctr.write(data)
            elif idx == CKPT_PC:
                self.rec_pc.write(data)
            idx += 1
        self.restore_idx.write(idx & 0x7F)
        if idx >= CKPT_WORDS:
            self.core.event_log.record(
                self.core.cycles, EventKind.RECOVERY_RESTORED,
                f"checkpoint pc=0x{self.rec_pc.value:08x}")
            self.rstate.write(R_REFETCH)

    def _refetch_cycle(self) -> None:
        core = self.core
        for unit in (core.ifu, core.idu, core.fxu, core.fpu, core.lsu, core.rut):
            unit.pipeline_reset()
        core.ifu.redirect(self.rec_pc.value)
        self.wd_ctr.write(0)
        self.rec_count.write((self.rec_count.value + 1) & 0xFF)
        since = (self.rec_since_commit.value + 1) & 0xF
        self.rec_since_commit.write(since)
        self.corrected_ctr.write((self.corrected_ctr.value + 1) & 0xFFFF)
        if since > self.params.max_recoveries_without_progress:
            if self.rec_reason.value == int(Checker.CORE_HANG_DETECT):
                # A recovery-proof stall is a hang, not a machine error.
                if not self.hang.value:
                    self.core.event_log.record(self.core.cycles,
                                               EventKind.HANG_DETECTED,
                                               "stall survived recovery retries")
                self.hang.write(1)
            else:
                # Retrying is not making forward progress: fail-stop.
                self.checkstop(Checker.CORE_FSM_ILLEGAL)
            return
        self.core.event_log.record(self.core.cycles, EventKind.RECOVERY_DONE,
                                   f"recovery #{self.rec_count.value}")
        self.rstate.write(R_IDLE)
