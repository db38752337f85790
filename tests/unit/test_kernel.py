"""Tests for the kernel + CPU substrate (no FPSpy involved)."""

import pytest

from repro.fp.flags import Flag
from repro.fp.formats import float_to_bits64 as b64
from repro.guest.ops import IntWork, LibcCall
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import FASTPATHS, Kernel, KernelConfig
from repro.kernel.signals import Signal
from repro.kernel.task import TaskState
from repro.loader.fenv import FE_DIVBYZERO, FE_DFL_ENV


def make_kernel():
    return Kernel()


def run_simple(main, env=None):
    k = make_kernel()
    proc = k.exec_process(main, env=env or {}, name="test")
    k.run()
    return k, proc


class TestFastPathsSetting:
    def test_unknown_rung_is_rejected_naming_the_ladder(self):
        with pytest.raises(ValueError, match="stormbatch") as err:
            Kernel(KernelConfig(fastpaths="stormbatch"))
        assert str(FASTPATHS) in str(err.value)


class TestBasicExecution:
    def test_trivial_program_exits_cleanly(self):
        def main():
            yield IntWork(10)

        k, proc = run_simple(main)
        assert proc.exit_code == 0
        assert proc.main_task.state == TaskState.EXITED
        assert proc.main_task.vtime == 10

    def test_fp_instruction_result_sent_back(self):
        layout = CodeLayout()
        site = layout.site("addsd")
        seen = {}

        def main():
            res = yield FPInstruction(site, ((b64(2.0), b64(3.0)),))
            seen["result"] = res

        run_simple(main)
        assert seen["result"] == (b64(5.0),)

    def test_sticky_flags_accumulate_without_faulting(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        mul = layout.site("mulsd")
        k = make_kernel()

        def main():
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))  # ZE
            yield FPInstruction(mul, ((b64(0.1), b64(0.1)),))  # PE

        proc = k.exec_process(main, env={})
        k.run()
        assert proc.exit_code == 0  # all masked: no fault
        assert proc.main_task.mxcsr.status == Flag.ZE | Flag.PE

    def test_libc_getpid(self):
        got = {}

        def main():
            got["pid"] = yield LibcCall("getpid")

        k, proc = run_simple(main)
        assert got["pid"] == proc.pid

    def test_exit_call_sets_code(self):
        def main():
            yield LibcCall("exit", (3,))
            yield IntWork(1)  # never reached

        k, proc = run_simple(main)
        assert proc.exit_code == 3

    def test_undefined_symbol_raises(self):
        def main():
            yield LibcCall("no_such_fn")

        with pytest.raises(KeyError, match="undefined symbol"):
            run_simple(main)


class TestSignals:
    def test_unmasked_fault_with_no_handler_kills_process(self):
        layout = CodeLayout()
        div = layout.site("divsd")

        def main():
            yield LibcCall("feenableexcept", (FE_DIVBYZERO,))
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))

        k, proc = run_simple(main)
        assert proc.killed_by == Signal.SIGFPE
        assert proc.exit_code is None

    def test_handler_can_mask_and_resume(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        events = []

        def handler(signo, info, uctx):
            events.append((signo, info.code, uctx.mcontext.rip))
            # Mask everything so the restarted instruction completes.
            uctx.mcontext.mxcsr |= 0x1F80

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_DIVBYZERO,))
            res = yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
            events.append(res)

        k, proc = run_simple(main)
        assert proc.exit_code == 0
        assert events[0][0] == Signal.SIGFPE
        assert events[0][2] == div.address  # faulting RIP
        assert events[1][0] != 0  # result delivered after restart

    def test_single_step_trap_fires_after_next_instruction(self):
        layout = CodeLayout()
        add = layout.site("addsd")
        log = []

        def trap_handler(signo, info, uctx):
            log.append("trap")
            uctx.mcontext.trap_flag = False

        def fpe_handler(signo, info, uctx):
            log.append("fpe")
            uctx.mcontext.mxcsr |= 0x1F80  # mask
            uctx.mcontext.trap_flag = True  # single-step the restart

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGFPE), fpe_handler))
            yield LibcCall("sigaction", (int(Signal.SIGTRAP), trap_handler))
            yield LibcCall("feenableexcept", (0x3F,))
            yield FPInstruction(add, ((b64(0.1), b64(0.2)),))  # PE faults
            log.append("after")

        k, proc = run_simple(main)
        assert proc.exit_code == 0
        assert log == ["fpe", "trap", "after"]

    def test_sigtrap_default_is_fatal(self):
        def main():
            yield LibcCall("raise", (int(Signal.SIGTRAP),))
            yield IntWork(1)

        k, proc = run_simple(main)
        assert proc.killed_by == Signal.SIGTRAP


class TestThreadsAndProcesses:
    def test_pthread_create_runs_thread(self):
        done = []

        def worker(tag):
            yield IntWork(5)
            done.append(tag)

        def main():
            yield LibcCall("pthread_create", (worker, ("a",)))
            yield LibcCall("pthread_create", (worker, ("b",)))
            yield IntWork(1)

        k, proc = run_simple(main)
        assert sorted(done) == ["a", "b"]
        assert proc.exit_code == 0
        assert len(proc.tasks) == 3

    def test_pthread_exit_runs_finally(self):
        cleaned = []

        def worker():
            try:
                yield IntWork(1)
                yield LibcCall("pthread_exit")
                yield IntWork(100)  # unreachable
            finally:
                cleaned.append("worker")

        def main():
            yield LibcCall("pthread_create", (worker,))
            yield IntWork(2)

        k, proc = run_simple(main)
        assert cleaned == ["worker"]
        worker_task = proc.tasks[2]
        assert worker_task.vtime < 10

    def test_fork_inherits_environment(self):
        seen = {}

        def child():
            seen["env"] = yield LibcCall("getenv", ("MARKER",))

        def main():
            pid = yield LibcCall("fork", (child,))
            seen["child_pid"] = pid

        k, proc = run_simple(main, env={"MARKER": "42"})
        assert seen["env"] == "42"
        assert seen["child_pid"] != proc.pid
        child_proc = k.processes[seen["child_pid"]]
        assert child_proc.exit_code == 0

    def test_per_thread_mxcsr_is_independent(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        status = {}

        def worker():
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))

        def main():
            tid = yield LibcCall("pthread_create", (worker,))
            yield IntWork(1000)
            status["tid"] = tid

        k, proc = run_simple(main)
        assert Flag.ZE in proc.tasks[status["tid"]].mxcsr.status
        assert Flag.ZE not in proc.main_task.mxcsr.status


class TestTimers:
    def test_virtual_timer_fires_after_instructions(self):
        fired = []

        def handler(signo, info, uctx):
            fired.append(signo)

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), handler))
            yield LibcCall("setitimer", ("virtual", 50, 0))
            for _ in range(20):
                yield IntWork(10)

        k, proc = run_simple(main)
        assert fired == [Signal.SIGVTALRM]

    def test_virtual_timer_interval_repeats(self):
        fired = []

        def handler(signo, info, uctx):
            fired.append(signo)

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGVTALRM), handler))
            yield LibcCall("setitimer", ("virtual", 50, 50))
            for _ in range(30):
                yield IntWork(10)

        k, proc = run_simple(main)
        assert len(fired) >= 4

    def test_real_timer_fires_on_wall_clock(self):
        fired = []

        def handler(signo, info, uctx):
            fired.append(k.now_seconds)

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGALRM), handler))
            yield LibcCall("setitimer", ("real", 1e-6, 0))
            for _ in range(200):
                yield IntWork(100)

        k = make_kernel()
        proc = k.exec_process(main, env={})
        k.run()
        assert len(fired) == 1
        assert fired[0] >= 1e-6


class TestFenv:
    def test_fesetenv_restores_default(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        observed = {}

        def main():
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
            observed["before"] = yield LibcCall("fetestexcept")
            yield LibcCall("fesetenv", (FE_DFL_ENV,))
            observed["after"] = yield LibcCall("fetestexcept")

        run_simple(main)
        assert observed["before"] & FE_DIVBYZERO
        assert observed["after"] == 0

    def test_feholdexcept_saves_and_clears(self):
        layout = CodeLayout()
        div = layout.site("divsd")
        observed = {}

        def main():
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
            env = yield LibcCall("feholdexcept")
            observed["cleared"] = yield LibcCall("fetestexcept")
            yield LibcCall("feupdateenv", (env,))
            observed["restored"] = yield LibcCall("fetestexcept")

        run_simple(main)
        assert observed["cleared"] == 0
        assert observed["restored"] & FE_DIVBYZERO

    def test_fesetround_changes_arithmetic(self):
        from repro.loader.fenv import FE_UPWARD

        layout = CodeLayout()
        add = layout.site("addsd")
        got = {}

        def main():
            yield LibcCall("fesetround", (FE_UPWARD,))
            res = yield FPInstruction(add, ((b64(1.0), b64(2.0**-60)),))
            got["bits"] = res[0]

        run_simple(main)
        from repro.fp.formats import bits64_to_float

        assert bits64_to_float(got["bits"]) > 1.0

    def test_feenable_fedisable_roundtrip(self):
        observed = {}

        def main():
            prev = yield LibcCall("feenableexcept", (FE_DIVBYZERO,))
            observed["prev"] = prev
            observed["enabled"] = yield LibcCall("fegetexcept")
            yield LibcCall("fedisableexcept", (FE_DIVBYZERO,))
            observed["disabled"] = yield LibcCall("fegetexcept")

        run_simple(main)
        assert observed["prev"] == 0
        assert observed["enabled"] == FE_DIVBYZERO
        assert observed["disabled"] == 0


class TestAccounting:
    def test_cycles_advance_and_wall_time(self):
        def main():
            yield IntWork(1000)

        k, proc = run_simple(main)
        assert k.cycles >= 1000
        assert k.now_seconds == pytest.approx(k.cycles / k.config.freq_hz)

    def test_fault_costs_are_system_time(self):
        layout = CodeLayout()
        div = layout.site("divsd")

        def handler(signo, info, uctx):
            uctx.mcontext.mxcsr |= 0x1F80

        def main():
            yield LibcCall("sigaction", (int(Signal.SIGFPE), handler))
            yield LibcCall("feenableexcept", (FE_DIVBYZERO,))
            yield FPInstruction(div, ((b64(1.0), b64(0.0)),))

        k, proc = run_simple(main)
        t = proc.main_task
        assert t.stime_cycles > 1000  # fault + delivery + sigreturn
        assert t.utime_cycles > 0
