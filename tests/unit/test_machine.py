"""Unit tests for CPU execution details: precise timers, emulated
writeback, cost accounting, exception priority."""

import pytest

from repro.fp.flags import Flag
from repro.fp.formats import float_to_bits64 as b64
from repro.guest.ops import IntWork, LibcCall
from repro.guest.program import KernelBuilder
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import Kernel
from repro.kernel.signals import Signal
from repro.machine.costs import CostModel, DEFAULT_COSTS


def run(main, env=None):
    k = Kernel()
    proc = k.exec_process(main, env=env or {}, name="t")
    k.run()
    return k, proc


class TestCostModel:
    def test_event_roundtrip_is_thousands_of_cycles(self):
        assert 2000 < DEFAULT_COSTS.event_roundtrip < 20000

    def test_custom_model(self):
        m = CostModel(fp_instr=10)
        assert m.fp_instr == 10
        assert m.event_roundtrip == DEFAULT_COSTS.event_roundtrip


class TestPreciseTimers:
    def test_large_intwork_stops_at_vtimer_expiry(self):
        fired_at = []
        k = Kernel()

        def handler(signo, info, uctx):
            fired_at.append(k.current_task.vtime)

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), handler))
            yield LibcCall("setitimer", ("virtual", 100, 0))
            yield IntWork(10_000)  # one big block

        k.exec_process(main, env={}, name="t")
        k.run()
        # The timer fired at ~100 instructions into the block, not at its
        # end: the CPU split the block at the expiry point.
        assert fired_at and fired_at[0] <= 110

    def test_large_intwork_stops_at_real_timer(self):
        fired_cycles = []
        k = Kernel()

        def handler(signo, info, uctx):
            fired_cycles.append(k.cycles)

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGALRM), handler))
            yield LibcCall("setitimer", ("real", 1e-6, 0))
            yield IntWork(100_000)

        k.exec_process(main, env={}, name="t")
        k.run()
        expected = int(1e-6 * k.config.freq_hz)
        assert fired_cycles
        # Fires at expiry plus bounded overhead (libc setup + signal
        # delivery costs), far before the 100k-cycle block would end.
        assert expected <= fired_cycles[0] <= expected + 2_000

    def test_intwork_remainder_continues_after_signal(self):
        def handler(signo, info, uctx):
            pass

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), handler))
            yield LibcCall("setitimer", ("virtual", 50, 0))
            yield IntWork(500)

        k, proc = run(main)
        assert proc.main_task.vtime >= 500  # full block eventually retired


class TestEmulatedWriteback:
    def _setup(self):
        layout = CodeLayout()
        return layout.site("mulsd")

    def test_handler_supplied_results_retire_instruction(self):
        site = self._setup()
        got = {}

        def handler(signo, info, uctx):
            # Mask nothing, emulate: claim the result is 42.0.
            uctx.mcontext.emulated_results = (b64(42.0),)
            uctx.mcontext.mxcsr = 0x1F80  # clear + mask for cleanliness

        def main():
            from repro.loader.fenv import FE_INEXACT

            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_INEXACT,))
            res = yield FPInstruction(site, ((b64(0.1), b64(0.1)),))
            got["r"] = res

        k, proc = run(main)
        assert proc.exit_code == 0
        assert got["r"] == (b64(42.0),)

    def test_operands_visible_in_mcontext(self):
        site = self._setup()
        seen = {}

        def handler(signo, info, uctx):
            seen["ops"] = uctx.mcontext.operands
            uctx.mcontext.mxcsr |= 0x1F80

        def main():
            from repro.loader.fenv import FE_INEXACT

            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_INEXACT,))
            yield FPInstruction(site, ((b64(0.1), b64(0.1)),))

        run(main)
        assert seen["ops"] == ((b64(0.1), b64(0.1)),)

    def test_vtime_advances_once_per_emulated_instruction(self):
        site = self._setup()

        def handler(signo, info, uctx):
            uctx.mcontext.emulated_results = (b64(1.0),)

        def main():
            from repro.loader.fenv import FE_INEXACT

            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_INEXACT,))
            for _ in range(5):
                yield FPInstruction(site, ((b64(0.1), b64(0.1)),))

        k, proc = run(main)
        # 2 libc calls + 5 FP instructions (each emulated exactly once).
        assert proc.main_task.vtime == 7

    @staticmethod
    def _emulate_every_fault(block):
        """Three ``mulpd`` elements (the last group padded), interleave 2,
        each instruction faulting on Inexact and retired by a handler
        that supplies ``emulated_results``: as one block, or as an
        ``FPInstruction`` stream."""
        kb = KernelBuilder()
        site = kb.site("mulpd")
        k = Kernel()
        faults = []
        out = {}

        def handler(signo, info, uctx):
            faults.append(uctx.mcontext.operands)
            uctx.mcontext.emulated_results = (
                b64(42.0 + len(faults)), b64(-1.0))

        def main():
            from repro.loader.fenv import FE_INEXACT

            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_INEXACT,))
            res = yield from kb.emit(
                site, [b64(0.1)] * 3, [b64(0.3)] * 3, interleave=2,
                block=block)
            out["results"] = list(res)
            out["last_rip"] = k.current_task.last_rip

        proc = k.exec_process(main, env={}, name="t")
        k.run()
        assert proc.exit_code == 0
        out.update(vtime=proc.main_task.vtime, cycles=k.cycles,
                   faults=len(faults))
        return out

    @pytest.mark.parametrize("block", [False, True],
                             ids=["instruction_stream", "block"])
    def test_emulated_results_retire_every_fault(self, block):
        got = self._emulate_every_fault(block)
        # The padded lane of the second group is dropped.
        assert got["results"] == [b64(43.0), b64(-1.0), b64(44.0)]
        assert got["faults"] == 2
        # 2 libc calls + 2 groups of one emulated FP instruction and 2
        # integer instructions.
        assert got["vtime"] == 8

    def test_block_emulates_like_the_instruction_stream(self):
        assert (self._emulate_every_fault(True)
                == self._emulate_every_fault(False))


class TestExceptionPriority:
    def test_invalid_outranks_inexact_in_sicode(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        codes = []

        def handler(signo, info, uctx):
            codes.append(info.code)
            uctx.mcontext.mxcsr |= 0x1F80

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (0x3F,))
            # 0/0: Invalid; result also "rounds" nothing -- IE only.
            yield FPInstruction(div, ((b64(0.0), b64(0.0)),))

        run(main)
        from repro.kernel.signals import SiCode

        assert codes == [int(SiCode.FPE_FLTINV)]

    def test_unmasked_tiny_exact_result_traps_underflow(self):
        """x64 corner: with UM unmasked, even an *exact* tiny result
        traps (masked semantics would set no UE flag)."""
        layout = CodeLayout()
        mul = layout.site("mulsd")
        codes = []

        def handler(signo, info, uctx):
            codes.append(info.code)
            uctx.mcontext.mxcsr |= 0x1F80

        def main():
            from repro.loader.fenv import FE_UNDERFLOW

            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_UNDERFLOW,))
            # 2 * min-denormal: exactly representable, but tiny.
            yield FPInstruction(mul, ((b64(2.0), 1),))

        run(main)
        from repro.kernel.signals import SiCode

        assert codes == [int(SiCode.FPE_FLTUND)]


class TestBlockExecution:
    """The FPBlock engine must be indistinguishable from the
    per-instruction stream at every architectural seam: timer landing
    points, single-step traps, restart-after-signal."""

    def _emit_block(self, kb, site, n, interleave):
        a = [b64(1.5)] * n
        b = [b64(3.0)] * n
        results = yield from kb.emit(site, a, b, interleave=interleave)
        return results.tolist()

    def _run_vtimer_guest(self, blockexec, initial, n, interleave):
        from repro.guest.program import KernelBuilder
        from repro.kernel.kernel import KernelConfig

        kb = KernelBuilder()
        site = kb.site("mulsd")
        fired = {}
        k = Kernel(KernelConfig(blockexec=blockexec))

        def handler(signo, info, uctx):
            task = k.current_task
            fired["vtime"] = task.vtime
            fired["index"] = task.pending_op.index

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), handler))
            yield LibcCall("setitimer", ("virtual", initial, 0))
            fired["results"] = yield from self._emit_block(
                kb, site, n, interleave
            )

        proc = k.exec_process(main, env={}, name="t")
        k.run()
        fired["final_vtime"] = proc.main_task.vtime
        return fired

    def test_vtimer_fires_at_exact_instruction_inside_block(self):
        fast = self._run_vtimer_guest(True, initial=37, n=100, interleave=0)
        # The setitimer call's own retirement consumes the first timer
        # unit, so the signal lands after 36 block instructions -- not at
        # the end of the batch -- with the cursor parked right there.
        assert fast["vtime"] == 38
        assert fast["index"] == 36
        assert fast["results"] == [b64(4.5)] * 100
        # Bit-for-bit the landing point of per-instruction execution.
        assert self._run_vtimer_guest(False, 37, 100, 0) == fast

    def test_vtimer_fires_mid_group_in_interleave_phase(self):
        # Each group is 4 virtual-time units (1 FP + 3 int), so the
        # expiry falls *inside* a group's integer phase: the batch must
        # stop short and sub-step that group.
        fast = self._run_vtimer_guest(True, initial=10, n=20, interleave=3)
        assert fast["vtime"] == 11
        assert self._run_vtimer_guest(False, 10, 20, 3) == fast

    def test_trap_flag_forces_single_step_with_trap_per_retirement(self):
        from repro.guest.program import KernelBuilder

        kb = KernelBuilder()
        site = kb.site("mulsd")
        trap_vtimes = []
        k = Kernel()

        def on_vtalrm(signo, info, uctx):
            uctx.mcontext.trap_flag = True  # start single-stepping

        def on_trap(signo, info, uctx):
            trap_vtimes.append(k.current_task.vtime)
            if len(trap_vtimes) >= 6:
                uctx.mcontext.trap_flag = False  # back to full speed

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), on_vtalrm))
            yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
            yield LibcCall("setitimer", ("virtual", 5, 0))
            got = yield from self._emit_block(kb, site, 40, interleave=2)
            assert got == [b64(4.5)] * 40

        proc = k.exec_process(main, env={}, name="t")
        k.run()
        assert proc.exit_code == 0
        # While TF was set the block executed one instruction per step,
        # trapping after every retirement: consecutive trap vtimes.
        assert len(trap_vtimes) == 6
        assert trap_vtimes == list(range(trap_vtimes[0], trap_vtimes[0] + 6))
        # And the remainder of the block still completed (full results
        # asserted inside the guest).
        assert proc.main_task.vtime >= 3 + 40 * 3


class TestStickyAcrossInstructions:
    def test_status_accumulates_masked(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        mul = layout.site("mulsd")

        def main():
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
            yield FPInstruction(mul, ((b64(1e-200), b64(1e-200)),))
            yield FPInstruction(mul, ((b64(2.0), b64(2.0)),))  # exact

        k, proc = run(main)
        status = proc.main_task.mxcsr.status
        assert Flag.ZE in status and Flag.UE in status and Flag.PE in status
