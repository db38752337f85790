"""The FPSpy engine: per-process state, per-thread monitors, handlers.

One :class:`FPSpyEngine` exists per process (instantiated by the dynamic
linker when ``LD_PRELOAD`` names ``fpspy.so``).  It owns:

* one :class:`ThreadMonitor` per thread it is watching, each with its own
  trace file ("embarrassingly parallel internally", section 3.7);
* the SIGFPE/SIGTRAP handlers implementing the Figure 5 state machine;
* the Poisson sampler (section 3.6 "Filtering and sampling");
* the get-out-of-the-way logic (section 3.3).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fp.flags import ALL_CODES, MASK_SHIFT, Flag, flags_to_events
from repro.fp.mxcsr import MXCSR
from repro.fpspy.config import FPSpyConfig, Mode
from repro.kernel.signals import SigInfo, Signal, UContext
from repro.trace.records import AggregateRecord, IndividualRecord
from repro.trace.writer import TraceWriter, trace_path

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.process import Process
    from repro.kernel.task import Task


class MonitorState(enum.Enum):
    """Figure 5: the per-thread individual-mode state machine."""

    AWAIT_FPE = "await_fpe"
    AWAIT_TRAP = "await_trap"


@dataclass
class ThreadMonitor:
    """FPSpy's per-thread context."""

    task: "Task"
    writer: TraceWriter
    state: MonitorState = MonitorState.AWAIT_FPE
    seq: int = 0  #: next record sequence number
    observed: int = 0  #: faulting events seen
    recorded: int = 0  #: events actually written (after subsampling)
    sampling_on: bool = True  #: Poisson sampler phase
    rng: random.Random = field(default_factory=random.Random)
    disabled: bool = False
    disabled_reason: str = ""
    #: Sim-cycle timestamp of the last sampler phase transition.
    phase_start_cycles: int = 0


class FPSpyEngine:
    """Per-process FPSpy instance."""

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.kernel = process.kernel
        self.config = FPSpyConfig.from_env(process.env)
        self.monitors: dict[int, ThreadMonitor] = {}
        self._finalized: set[int] = set()
        self.stepped_aside = False
        self.step_aside_reason = ""
        self._saved_dispositions: dict[Signal, object] = {}
        self._handlers_installed = False
        #: App handler registrations swallowed in aggressive mode.
        self.shadowed_handlers: dict[Signal, object] = {}

        #: Counts (DESIGN.md #8), always on.  Events are kept by raw
        #: condition-code bitmask and named only when a snapshot reads
        #: them; ``observed``/``recorded`` live on the monitors.
        self.event_codes = [0] * (ALL_CODES + 1)
        self.sampler_toggles: dict[str, int] = {}
        self.sampler_phase_cycles: dict[str, int] = {}
        tel = self.kernel.telemetry
        if tel is not None:
            scope = tel.scope("fpspy")
            scope.counts(self._counts)
            scope.gauges(self._levels)

        # Flight recorder (DESIGN.md #10): handler-phase spans; hook
        # sites pay one prefetched-``None`` test when it is off.
        self._tr = self.kernel.tracer

    def _counts(self) -> dict[str, int]:
        """The engine's counts, named for the ``fpspy`` scope."""
        mons = self.monitors.values()
        observed = sum(m.observed for m in mons)
        recorded = sum(m.recorded for m in mons)
        proc = f"proc.{self.process.pid}."
        out = {
            "observed": observed,
            "recorded": recorded,
            # A process steps aside at most once.
            "step_asides": int(self.stepped_aside),
            proc + "threads": len(self.monitors),
            proc + "observed": observed,
            proc + "recorded": recorded,
            proc + "utime_cycles": sum(m.task.utime_cycles for m in mons),
            proc + "stime_cycles": sum(m.task.stime_cycles for m in mons),
        }
        for codes, n in enumerate(self.event_codes):
            if n:
                for name in flags_to_events(Flag(codes)):
                    key = "events." + name
                    out[key] = out.get(key, 0) + n
        for to, n in self.sampler_toggles.items():
            out["sampler.toggles." + to] = n
        for phase, n in self.sampler_phase_cycles.items():
            out["sampler.phase_cycles." + phase] = n
        return out

    def _levels(self) -> dict[str, int]:
        proc = f"proc.{self.process.pid}."
        return {
            proc + "individual": int(self.config.mode == Mode.INDIVIDUAL),
            proc + "stepped_aside": int(self.stepped_aside),
        }

    # ------------------------------------------------------------- misc

    @property
    def active(self) -> bool:
        return self.config.active and not self.stepped_aside

    @property
    def costs(self):
        return self.kernel.cpu.costs

    @property
    def alarm_signal(self) -> Signal:
        return Signal.SIGVTALRM if self.config.timer == "virtual" else Signal.SIGALRM

    def owned_signals(self) -> frozenset[Signal]:
        """Signals FPSpy needs for itself in individual mode."""
        if self.config.mode != Mode.INDIVIDUAL:
            return frozenset()
        owned = {Signal.SIGFPE, Signal.SIGTRAP}
        if self.config.poisson_enabled:
            owned.add(self.alarm_signal)
        return frozenset(owned)

    # -------------------------------------------------- thread lifecycle

    def init_thread(self, task: "Task") -> None:
        """Per-thread initialization (constructor / thread thunk entry)."""
        if not self.active or task.tid in self.monitors:
            return
        cfg = self.config
        path = trace_path(
            self.process.name, self.process.pid, task.tid, cfg.mode.value,
            prefix=cfg.trace_prefix,
        )
        mon = ThreadMonitor(
            task=task,
            writer=TraceWriter(self.kernel.vfs, path, self.kernel.telemetry),
        )
        mon.rng = random.Random(f"{cfg.seed}:{self.process.pid}:{task.tid}")
        mon.phase_start_cycles = self.kernel.cycles
        self.monitors[task.tid] = mon

        if cfg.mode == Mode.AGGREGATE:
            # The entire cost of aggregate mode: one %mxcsr write now...
            task.mxcsr.clear_status()
            task.utime_cycles += self.costs.libc_call
            return

        # Individual mode.
        if not self._handlers_installed:
            self._install_handlers()
        task.mxcsr.clear_status()
        if cfg.poisson_enabled:
            # Start each thread in the OFF phase: startup code would
            # otherwise be captured for every thread of every process,
            # biasing the sample toward initialization (the PASTA property
            # only needs the on/off periods to be exponential).
            mon.sampling_on = False
            self._arm_sampler(mon)
        self._apply_masks_to(mon, task.mxcsr)
        task.utime_cycles += self.costs.handler_user

    def teardown_thread(self, task: "Task") -> None:
        """Per-thread teardown: complete the trace file."""
        mon = self.monitors.get(task.tid)
        if mon is None or task.tid in self._finalized:
            return
        self._finalized.add(task.tid)
        cfg = self.config
        if cfg.mode == Mode.AGGREGATE:
            # ...and one %mxcsr read at the end.
            status = 0 if mon.disabled else task.mxcsr.value & ALL_CODES
            mon.writer.append_aggregate(
                AggregateRecord(
                    app=self.process.name,
                    pid=self.process.pid,
                    tid=task.tid,
                    status=status,
                    disabled=mon.disabled,
                    reason=mon.disabled_reason,
                )
            )
        else:
            self._quiesce_task(task)
            mon.writer.append_text("")  # complete the (possibly empty) file
            meta = self.kernel.vfs.open(mon.writer.path + ".meta")
            meta.append(
                (
                    f"fpspy-meta app={self.process.name} pid={self.process.pid} "
                    f"tid={task.tid} observed={mon.observed} "
                    f"recorded={mon.recorded} "
                    f"disabled={'yes' if mon.disabled else 'no'} "
                    f"reason={mon.disabled_reason.replace(' ', '_') or '-'}\n"
                ).encode()
            )
        # Retire the writer: drain and unhook from the VFS (idempotent).
        mon.writer.close()
        task.utime_cycles += self.costs.libc_call

    # ------------------------------------------------------- mask helpers

    def _apply_masks_to(self, mon: ThreadMonitor, mx: MXCSR) -> None:
        """Set exception masks per monitor state: capture set unmasked
        while monitoring is live, everything masked otherwise."""
        mx.mask_all()
        if not mon.disabled and mon.sampling_on and self.active:
            # As an int: ``Flag`` arithmetic would cost an enum call on
            # every re-arm.
            mx.unmask(int(self.config.capture))

    def _quiesce_task(self, task: "Task") -> None:
        """Return a task's FP environment to the default (non-trapping)."""
        task.mxcsr.mask_all()
        task.trap_flag = False
        task.set_virtual_timer(0)
        self.kernel.arm_real_timer(task, 0)

    # ----------------------------------------------------------- handlers

    def _install_handlers(self) -> None:
        for signo in self.owned_signals():
            handler = {
                Signal.SIGFPE: self._sigfpe_handler,
                Signal.SIGTRAP: self._sigtrap_handler,
            }.get(signo, self._alarm_handler)
            self._saved_dispositions[signo] = self.process.sigaction(signo, handler)
        self._handlers_installed = True

    def _uninstall_handlers(self) -> None:
        for signo, prev in self._saved_dispositions.items():
            self.process.sigaction(signo, prev)
        self._saved_dispositions.clear()
        self._handlers_installed = False

    def _current_monitor(self) -> ThreadMonitor | None:
        task = self.kernel.current_task
        if task is None:
            return None
        return self.monitors.get(task.tid)

    def _sigfpe_handler(self, signo: Signal, info: SigInfo, uctx: UContext) -> None:
        mon = self._current_monitor()
        mctx = uctx.mcontext
        if mon is None or mon.disabled or not self.active:
            # Not ours (or we are winding down): neutralize and move on.
            mctx.mxcsr = MXCSR(mctx.mxcsr).value | (ALL_CODES << MASK_SHIFT)
            return
        if mon.state != MonitorState.AWAIT_FPE:
            # Protocol violation (should be impossible): get out of the way.
            self.step_aside("unexpected SIGFPE while awaiting trap")
            return

        task = mon.task
        tr = self._tr
        if tr is not None:
            tr.handler_entry(task, "sigfpe", mctx.rip)
            tr.decode(task, mctx.rip, mctx.instruction)
        mx = MXCSR(mctx.mxcsr)
        codes = mx.value & ALL_CODES
        mon.observed += 1
        self.event_codes[codes] += 1
        task.utime_cycles += self.costs.handler_user
        self.kernel.cycles += self.costs.handler_user

        if mon.observed % self.config.sample == 0:
            mon.writer.append_individual(
                IndividualRecord(
                    seq=mon.seq,
                    time=self.kernel.now_seconds,
                    rip=mctx.rip,
                    rsp=mctx.rsp,
                    mxcsr=mx.value,
                    sicode=info.code,
                    codes=codes,
                    insn=mctx.instruction,
                )
            )
            mon.seq += 1
            mon.recorded += 1
            task.utime_cycles += self.costs.trace_append
            self.kernel.cycles += self.costs.trace_append
            if tr is not None:
                tr.record(task, mon.seq - 1)

        if (
            self.config.maxcount is not None
            and mon.recorded >= self.config.maxcount
        ):
            # Cap reached: disarm this thread entirely; no more overhead.
            mon.disabled = True
            mon.disabled_reason = "maxcount reached"
            mx.clear_status()
            mx.mask_all()
            mctx.mxcsr = mx.value
            mctx.trap_flag = False
            if tr is not None:
                # Disarming is a disposition change: the tail sampler
                # always keeps the tree where monitoring ended.
                tr.note_disposition(task)
                tr.handler_exit(task, "sigfpe", "disarm")
            return

        # Figure 5, AWAIT_FPE -> AWAIT_TRAP: clear codes, mask exceptions,
        # single-step the restarted instruction.
        mx.clear_status()
        mx.mask_all()
        mctx.mxcsr = mx.value
        mctx.trap_flag = True
        mon.state = MonitorState.AWAIT_TRAP
        if tr is not None:
            tr.handler_exit(task, "sigfpe", "mask+tf")

    def _sigtrap_handler(self, signo: Signal, info: SigInfo, uctx: UContext) -> None:
        mon = self._current_monitor()
        mctx = uctx.mcontext
        if mon is None or mon.disabled or not self.active:
            mctx.trap_flag = False
            return
        if mon.state != MonitorState.AWAIT_TRAP:
            self.step_aside("unexpected SIGTRAP while awaiting FPE")
            return
        # Figure 5, AWAIT_TRAP -> AWAIT_FPE: clear codes, unmask (honoring
        # the sampler phase), stop single-stepping.
        tr = self._tr
        if tr is not None:
            tr.handler_entry(mon.task, "sigtrap", mctx.rip)
        mx = MXCSR(mctx.mxcsr)
        mx.clear_status()
        self._apply_masks_to(mon, mx)
        mctx.mxcsr = mx.value
        mctx.trap_flag = False
        mon.state = MonitorState.AWAIT_FPE
        mon.task.utime_cycles += self.costs.handler_user
        self.kernel.cycles += self.costs.handler_user
        if tr is not None:
            tr.rearm(mon.task, mx.value, False)
            tr.handler_exit(mon.task, "sigtrap", "rearm")

    def _alarm_handler(self, signo: Signal, info: SigInfo, uctx: UContext) -> None:
        """Poisson sampler tick: toggle the on/off phase."""
        mon = self._current_monitor()
        if mon is None or mon.disabled or not self.active:
            return
        # Charge the phase being left with its sim-cycle dwell time.
        leaving = "on" if mon.sampling_on else "off"
        phase = self.sampler_phase_cycles
        phase[leaving] = (phase.get(leaving, 0)
                          + self.kernel.cycles - mon.phase_start_cycles)
        mon.phase_start_cycles = self.kernel.cycles
        mon.sampling_on = not mon.sampling_on
        to = "to_on" if mon.sampling_on else "to_off"
        self.sampler_toggles[to] = self.sampler_toggles.get(to, 0) + 1
        self._arm_sampler(mon)
        if mon.state == MonitorState.AWAIT_FPE:
            mx = MXCSR(uctx.mcontext.mxcsr)
            # Clear the codes that accumulated (masked and unobserved)
            # during the off phase, so the next fault's record reflects
            # only its own instruction's conditions.
            mx.clear_status()
            self._apply_masks_to(mon, mx)
            uctx.mcontext.mxcsr = mx.value
        # In AWAIT_TRAP the trap handler will clear codes and apply the
        # new phase's masks.

    def _arm_sampler(self, mon: ThreadMonitor) -> None:
        cfg = self.config
        mean = cfg.poisson_on if mon.sampling_on else cfg.poisson_off
        duration = mon.rng.expovariate(1.0 / mean)
        if cfg.timer == "virtual":
            mon.task.set_virtual_timer(max(1, int(duration)), 0, Signal.SIGVTALRM)
        else:
            self.kernel.arm_real_timer(
                mon.task, max(duration, 1e-9) * 1e-6, 0.0, Signal.SIGALRM
            )

    # ------------------------------------------------- get out of the way

    def step_aside(self, reason: str) -> None:
        """Gracefully untangle from the application (section 3.3).

        Restores the default FP environment and signal dispositions so the
        application can use the contested mechanisms itself; existing trace
        data is kept and each monitor's teardown will note the reason.
        """
        if not self.config.active or self.stepped_aside:
            return
        self.stepped_aside = True
        self.step_aside_reason = reason
        if self._tr is not None:
            self._tr.note_disposition(self.kernel.current_task)
        if self.config.mode == Mode.INDIVIDUAL:
            self._uninstall_handlers()
        drop = {Signal.SIGFPE, Signal.SIGTRAP, self.alarm_signal}
        for mon in self.monitors.values():
            mon.disabled = True
            mon.disabled_reason = reason
            # Whatever was recorded before stepping aside is kept (3.3);
            # make it durable now since no more events will flush it.
            mon.writer.flush()
            task = mon.task
            if self.config.mode == Mode.INDIVIDUAL and task.alive:
                self._quiesce_task(task)
                # FPSpy-induced pending faults must not hit SIG_DFL.
                task.pending_signals = type(task.pending_signals)(
                    s for s in task.pending_signals if s.signo not in drop
                )
