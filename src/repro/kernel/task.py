"""Tasks: the kernel's schedulable threads.

A task wraps one guest generator plus the architectural state FPSpy cares
about: a private ``%mxcsr`` (SSE state is per-thread), the ``RFLAGS`` trap
flag, a stack pointer, pending signals, and time accounting (virtual time
in instructions retired; user/system cycle counters for the Figure 6
overhead measurements).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.fp.mxcsr import MXCSR
from repro.kernel.signals import SigInfo, Signal

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.process import Process


class TaskState(enum.Enum):
    RUNNABLE = "runnable"
    EXITED = "exited"
    KILLED = "killed"


#: Bound once for :attr:`Task.alive`, read on every step: an enum
#: class-attribute read goes through the metaclass's ``__getattr__`` hook.
_RUNNABLE = TaskState.RUNNABLE


#: Synthetic per-thread stack top; threads get descending 8 MiB windows.
STACK_TOP = 0x7FFD_0000_0000
STACK_SPACING = 8 << 20


@dataclass
class VirtualTimer:
    """A per-thread ITIMER_VIRTUAL analogue, counted in guest instructions."""

    remaining: int
    interval: int = 0  #: 0 = one-shot
    signal: Signal = Signal.SIGVTALRM


class Task:
    """One schedulable guest thread."""

    def __init__(
        self,
        tid: int,
        process: "Process",
        gen: Generator,
        name: str = "",
    ) -> None:
        self.tid = tid
        self.process = process
        self.gen = gen
        self.name = name or f"task{tid}"
        self.state = TaskState.RUNNABLE

        # Architectural state.
        self.mxcsr = MXCSR()
        self.trap_flag = False
        self.rsp = STACK_TOP - tid * STACK_SPACING
        self.last_rip = 0

        # Execution-engine state.
        self.started = False
        self.pending_op: object | None = None  #: faulting / partially-done op
        self.pending_int_remaining = 0  #: leftover IntWork units
        self.send_value: object = None
        self.pending_signals: deque[SigInfo] = deque()
        #: Host-only record of the block engine's last regime for this
        #: task (True = batched chunk, False = precise sub-step, None =
        #: none yet), for the CPU's quiescence entry/exit counts.
        self.blk_mode: bool | None = None

        # Time accounting.
        self.vtime = 0  #: guest instructions retired (virtual time)
        self.utime_cycles = 0
        self.stime_cycles = 0

        # Timers.
        self.vtimer: Optional[VirtualTimer] = None

        # Host-level teardown hooks (run on normal exit and pthread_exit,
        # not on fatal signals -- matching what a destructor would see).
        self.exit_hooks: list[Callable[["Task"], None]] = []

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is _RUNNABLE

    @property
    def fp_quiescent(self) -> bool:
        """No FP instruction can fault or single-step trap right now:
        every exception masked, no FTZ/DAZ (any rounding mode), and
        ``RFLAGS.TF`` clear.  This is the gate for the
        block execution fast path -- FPSpy's individual mode unmasks its
        capture set per thread, which makes the task non-quiescent and
        forces precise per-instruction execution by construction."""
        return not self.trap_flag and self.mxcsr.quiescent

    def post_signal(self, info: SigInfo) -> None:
        self.pending_signals.append(info)

    def set_virtual_timer(
        self, initial: int, interval: int = 0, signal: Signal = Signal.SIGVTALRM
    ) -> None:
        """Arm (or with ``initial <= 0`` disarm) the virtual interval timer."""
        if initial <= 0:
            self.vtimer = None
        else:
            self.vtimer = VirtualTimer(remaining=initial, interval=interval, signal=signal)

    def advance_vtime(self, instructions: int) -> None:
        """Retire ``instructions`` units of virtual time, firing the vtimer."""
        self.vtime += instructions
        timer = self.vtimer
        if timer is None:
            return
        timer.remaining -= instructions
        if timer.remaining <= 0:
            self.post_signal(SigInfo(signo=timer.signal))
            if timer.interval > 0:
                timer.remaining += timer.interval
                if timer.remaining <= 0:  # long op ate several periods
                    timer.remaining = timer.interval
            else:
                self.vtimer = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task {self.process.pid}:{self.tid} {self.name} {self.state.value}>"
