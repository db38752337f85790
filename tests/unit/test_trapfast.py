"""Fusion bail-out coverage for the trap-storm fast path (DESIGN.md #7).

The fused FPE->TRAP delivery is only admissible when the guest cannot
tell it happened, so nearly every test here runs the same workload at
the ``"storm"`` and ``"precise"`` rungs of ``KernelConfig.fastpaths``
and requires the observable record -- cycle clock, signal ordering,
process fate, trace bytes -- to be identical.
Each scenario targets one bail-out: a timer expiring inside the fused
window, a pending signal queued ahead of the trap, a SIG_DFL SIGTRAP
disposition, a quantum boundary, and FPSpy's own maxcount disarm and
step-aside (protocol violation) exits, which must behave identically
because fusion never engages without TF armed by a returning handler.
"""

import heapq

import pytest

from repro.fp.formats import float_to_bits32 as b32
from repro.fp.formats import float_to_bits64 as b64
from repro.fpspy import fpspy_env
from repro.fpspy.engine import MonitorState
from repro.guest.ops import IntWork, LibcCall
from repro.guest.program import KernelBuilder
from repro.isa.instruction import CodeLayout, FPInstruction
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.signals import SigInfo, Signal, UContext


def _storm_main(kb, n=96, interleave=2):
    """A packed-FMA trap storm: every vfmaddps raises Inexact."""
    a = [b32(1.1 + (i % 24) * 0.3) for i in range(n)]
    b = [b32(0.7 + (i % 12) * 0.21) for i in range(n)]
    c = [b32(-0.033 * (1 + i % 6)) for i in range(n)]
    site = kb.site("vfmaddps", key="hot")

    def main():
        yield from kb.emit(site, a, b, c, interleave=interleave)

    return main


def _run_fpspy(fastpaths, env, n=96, quantum=128):
    kb = KernelBuilder()
    k = Kernel(KernelConfig(fastpaths=fastpaths, quantum=quantum))
    proc = k.exec_process(_storm_main(kb, n), env=env, name="storm")
    k.run()
    state = {p: k.vfs.read(p) for p in k.vfs.listdir("")}
    return k, proc, state


def _assert_equivalent(env, n=96, quantum=128):
    kf, pf, sf = _run_fpspy("storm", env, n, quantum)
    ks, ps, ss = _run_fpspy("precise", env, n, quantum)
    assert kf.cycles == ks.cycles
    assert sf == ss
    return kf, pf, sf


class TestTimerBailouts:
    def test_poisson_virtual_timer_between_fpe_and_trap(self):
        """A SIGVTALRM posted by the re-execution's vtime advance lands in
        the queue before the trap; fusion must yield to it."""
        _assert_equivalent(
            fpspy_env("individual", poisson="40:30", timer="virtual", seed=3),
            n=160,
        )

    def test_poisson_real_timer_expiry_in_fused_window(self):
        """Real-timer expiries race the fused delivery's extra charges;
        the heap-head bail plus the defer fence must keep the firing
        cycle and landing instruction exact."""
        _assert_equivalent(
            fpspy_env("individual", poisson="2000:1500", timer="real", seed=3),
            n=160,
        )

    def test_guest_armed_periodic_real_timer(self):
        """A guest-owned periodic ITIMER_REAL (re-arming off the firing
        cycle, the case fusion must bail on rather than defer)."""

        def run(fastpaths):
            kb = KernelBuilder()
            main = _storm_main(kb, 96)
            ticks = []

            def on_alrm(signo, info, uctx):
                ticks.append(k.current_task.vtime)

            def wrapped():
                yield LibcCall("sigaction", (int(Signal.SIGALRM), on_alrm))
                yield LibcCall("setitimer", ("real", 10e-6, 5e-6))
                yield from main()
                yield LibcCall("setitimer", ("real", 0.0))

            k = Kernel(KernelConfig(fastpaths=fastpaths))
            k.exec_process(wrapped, env=fpspy_env("individual"), name="t")
            k.run()
            return k.cycles, ticks

        cyc_f, ticks_f = run("storm")
        cyc_s, ticks_s = run("precise")
        assert ticks_f  # the timer actually fired during the storm
        assert (cyc_f, ticks_f) == (cyc_s, ticks_s)


class TestDeliveryBailouts:
    def test_pending_signal_queued_by_fpe_handler(self):
        """A signal the SIGFPE handler itself raises must be delivered
        before the trap, exactly as the posted-signal path orders it."""

        def run(fastpaths):
            layout = CodeLayout()
            div = layout.site("divsd")
            k = Kernel(KernelConfig(fastpaths=fastpaths))
            events = []

            def on_usr1(signo, info, uctx):
                events.append(("usr1", k.current_task.vtime))

            def on_fpe(signo, info, uctx):
                events.append(("fpe", k.current_task.vtime))
                uctx.mcontext.mxcsr |= 0x1F80
                uctx.mcontext.trap_flag = True
                k.current_task.post_signal(SigInfo(signo=Signal.SIGUSR1))

            def on_trap(signo, info, uctx):
                events.append(("trap", k.current_task.vtime))
                uctx.mcontext.mxcsr &= ~(0x04 << 7)  # re-unmask ZE
                uctx.mcontext.trap_flag = False

            def main():
                yield LibcCall("sigaction", (int(Signal.SIGUSR1), on_usr1))
                yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
                yield LibcCall("sigaction", (int(Signal.SIGTRAP), on_trap))
                yield LibcCall("feenableexcept", (0x04,))  # FE_DIVBYZERO
                for _ in range(4):
                    yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
                    yield IntWork(5)

            k.exec_process(main, env={}, name="pend")
            k.run()
            return k.cycles, events

        cyc_f, ev_f = run("storm")
        cyc_s, ev_s = run("precise")
        # USR1 must precede each trap in both configurations.
        assert [e[0] for e in ev_f].count("usr1") == 4
        assert (cyc_f, ev_f) == (cyc_s, ev_s)

    def test_sig_dfl_sigtrap_is_fatal_identically(self):
        """No SIGTRAP handler: the single-step trap hits SIG_DFL and kills
        the process.  Fusion must bail so the kernel-side fatal path runs
        at the precise delivery point."""

        def run(fastpaths):
            layout = CodeLayout()
            div = layout.site("divsd")
            k = Kernel(KernelConfig(fastpaths=fastpaths))

            def on_fpe(signo, info, uctx):
                uctx.mcontext.mxcsr |= 0x1F80
                uctx.mcontext.trap_flag = True  # but nobody handles TRAP

            def main():
                yield LibcCall("sigaction", (int(Signal.SIGFPE), on_fpe))
                yield LibcCall("feenableexcept", (0x04,))
                yield FPInstruction(div, ((b64(1.0), b64(0.0)),))
                yield IntWork(5)  # pragma: no cover - killed before this

            proc = k.exec_process(main, env={}, name="dfl")
            k.run()
            return k.cycles, proc.killed_by

        cyc_f, fate_f = run("storm")
        cyc_s, fate_s = run("precise")
        assert fate_f == Signal.SIGTRAP
        assert (cyc_f, fate_f) == (cyc_s, fate_s)

    def test_quantum_boundary_with_two_processes(self):
        """A slice too drained for the precise trap to land this turn:
        fusion must bail so the other process's interleaving (and the
        cycle clock both guests see) is unchanged."""

        def run(fastpaths):
            k = Kernel(KernelConfig(fastpaths=fastpaths, quantum=3))
            for name in ("one", "two"):
                kb = KernelBuilder()
                k.exec_process(
                    _storm_main(kb, 48),
                    env=fpspy_env("individual"),
                    name=name,
                )
            k.run()
            return k.cycles, {p: k.vfs.read(p) for p in k.vfs.listdir("")}

        cyc_f, state_f = run("storm")
        cyc_s, state_s = run("precise")
        assert cyc_f == cyc_s
        assert state_f == state_s


class TestEngineExits:
    def test_maxcount_disarm_mid_cycle(self):
        """The handler disarms at the cap (TF never set on that return):
        no fusion, monitoring ends, both paths identical."""
        env = fpspy_env("individual", maxcount=5)
        kf, pf, sf = _assert_equivalent(env, n=96)
        engine = pf.loader.preloads[0].engine
        mon = engine.monitors[1]
        assert mon.disabled and mon.disabled_reason == "maxcount reached"
        assert mon.recorded == 5
        meta = next(p for p in sf if p.endswith(".meta"))
        assert b"disabled=yes" in sf[meta]

    def test_unexpected_sigtrap_steps_aside(self):
        """A guest-raised SIGTRAP arrives while AWAIT_FPE: FPSpy gets out
        of the way instead of misreading it as its own single-step."""

        def run(fastpaths):
            kb = KernelBuilder()
            storm = _storm_main(kb, 48)
            k = Kernel(KernelConfig(fastpaths=fastpaths))

            def main():
                yield from storm()
                yield LibcCall("raise", (int(Signal.SIGTRAP),))
                yield IntWork(10)

            proc = k.exec_process(main, env=fpspy_env("individual"), name="v")
            k.run()
            return k, proc

        kf, pf = run("storm")
        ks, ps = run("precise")
        for k, proc in ((kf, pf), (ks, ps)):
            engine = proc.loader.preloads[0].engine
            assert engine.stepped_aside
            assert "unexpected SIGTRAP" in engine.step_aside_reason
            # Records captured before the violation are kept (section 3.3).
            meta = next(
                p for p in k.vfs.listdir("") if p.endswith(".meta")
            )
            assert b"disabled=yes" in k.vfs.read(meta)
        assert kf.cycles == ks.cycles

    def test_unexpected_sigfpe_steps_aside(self):
        """Protocol violation in the other direction: a SIGFPE while the
        monitor is AWAIT_TRAP (direct handler call; unreachable through
        the state machine, which is the point of the guard)."""
        k = Kernel()

        def empty():
            yield IntWork(1)

        proc = k.exec_process(empty, env=fpspy_env("individual"), name="viol")
        engine = proc.loader.preloads[0].engine
        k.current_task = proc.main_task
        engine.monitors[1].state = MonitorState.AWAIT_TRAP
        engine._sigfpe_handler(
            Signal.SIGFPE, SigInfo(signo=Signal.SIGFPE), UContext()
        )
        assert engine.stepped_aside
        assert "unexpected SIGFPE" in engine.step_aside_reason
        k.run()


class TestFastPathMachinery:
    def test_fusion_engages_on_the_storm(self):
        """White box: the inline delivery actually runs (the equivalence
        tests would pass vacuously if every trap took the posted path).
        The storm driver replicates fused traps without calling
        ``_deliver_trap_inline``, so it is pinned off here to exercise
        the per-event machinery itself."""
        kb = KernelBuilder()
        k = Kernel(KernelConfig(fastpaths="blockexec"))
        fused = []
        orig = k.cpu._deliver_trap_inline

        def counting(task, disposition, floor):
            fused.append(task.tid)
            return orig(task, disposition, floor)

        k.cpu._deliver_trap_inline = counting
        k.exec_process(
            _storm_main(kb, 96), env=fpspy_env("individual"), name="storm"
        )
        k.run()
        assert len(fused) == 12  # 96 elements / 8 lanes: every trap fused

    def test_trapfast_off_never_delivers_inline(self):
        kb = KernelBuilder()
        k = Kernel(KernelConfig(fastpaths="precise"))

        def boom(task, disposition, floor):  # pragma: no cover
            raise AssertionError("inline delivery at the precise rung")

        k.cpu._deliver_trap_inline = boom
        k.exec_process(
            _storm_main(kb, 96), env=fpspy_env("individual"), name="storm"
        )
        k.run()

    def test_same_address_in_two_processes_runs_each_form(self):
        """Two processes lay out different code at the same TEXT_BASE
        addresses; each must get its own form's results, never the
        other process's."""
        k = Kernel(KernelConfig())
        outs = {}

        def make(name, mnemonic, value):
            kb = KernelBuilder()
            site = kb.site(mnemonic)
            ops = [b64(value)] * 4

            def main():
                outs[name] = (yield from kb.emit(site, ops, ops)).tolist()

            return main

        pa = k.exec_process(make("add", "addsd", 3.0), env={}, name="a")
        pb = k.exec_process(make("mul", "mulsd", 3.0), env={}, name="b")
        assert (
            pa.main_task.gen.gi_frame is not None
        )  # both genuinely scheduled
        k.run()
        assert outs["add"] == [b64(6.0)] * 4
        assert outs["mul"] == [b64(9.0)] * 4
        assert pb.exit_code == 0


_BAIL_REASONS = ("pending_signal", "quantum", "disposition", "timer")


def _cpu_snapshot(k):
    return k.telemetry.snapshot()["scopes"]["cpu"]


class TestBailoutCounters:
    """Every fusion bail-out reason increments its dedicated count
    exactly once (white box: ``_maybe_trap`` driven with a
    crafted task state that isolates one reason per case)."""

    def _armed_kernel(self, *, trap_handler=True):
        k = Kernel(KernelConfig(telemetry=True))

        def main():
            yield IntWork(1)

        proc = k.exec_process(main, env={}, name="bail")
        if trap_handler:
            proc.sigaction(Signal.SIGTRAP, lambda s, i, u: None)
        task = proc.main_task
        task.trap_flag = True
        k.cpu._fuse_armed = True
        return k, task

    @pytest.mark.parametrize("reason", _BAIL_REASONS)
    def test_reason_counted_exactly_once(self, reason):
        k, task = self._armed_kernel(trap_handler=(reason != "disposition"))
        cpu = k.cpu
        if reason == "pending_signal":
            task.post_signal(SigInfo(signo=Signal.SIGUSR1))
        elif reason == "quantum":
            cpu.step_cost = cpu.step_budget  # slice fully drained
        elif reason == "timer":
            # A deadline at/under the precise path's check cycle.
            heapq.heappush(k._timer_heap, (0, 0, None))
        cpu._maybe_trap(task)
        snap = _cpu_snapshot(k)
        assert snap["trapfusion.bailed"] == 1
        assert snap[f"trapfusion.bailouts.{reason}"] == 1
        assert snap["trapfusion.fused"] == 0
        for other in set(_BAIL_REASONS) - {reason}:
            assert f"trapfusion.bailouts.{other}" not in snap

    def test_no_bail_fuses_and_counts_fused(self):
        k, task = self._armed_kernel()
        k.cpu._maybe_trap(task)
        snap = _cpu_snapshot(k)
        assert snap["trapfusion.fused"] == 1
        assert snap["trapfusion.bailed"] == 0
        assert k.cpu.fusion_bailouts == {}

    def test_fused_counter_matches_storm_white_box(self):
        """The fused count agrees with the monkeypatch count the
        white-box machinery test establishes: 96 elements / 8 lanes."""
        kb = KernelBuilder()
        k = Kernel(KernelConfig(telemetry=True))
        k.exec_process(
            _storm_main(kb, 96), env=fpspy_env("individual"), name="storm"
        )
        k.run()
        snap = k.telemetry.snapshot()["scopes"]
        assert snap["cpu"]["trapfusion.fused"] == k.cpu.fused == 12
        assert snap["kernel"]["signals.delivered.SIGTRAP"] == 12
