"""Signals, siginfo, and the user-visible signal context.

The ``mcontext`` here is the load-bearing interface: FPSpy's SIGFPE
handler reads the faulting RIP, the instruction bytes, the stack pointer,
and ``%mxcsr`` out of it, then *writes* a modified ``%mxcsr`` (masking
exceptions, clearing condition codes) and sets the trap-flag bit of
``REG_EFL`` before returning (paper section 3.6).  The kernel applies
those writes back to the interrupted task, which is what makes the
trap-and-emulate cycle work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.fp.flags import (
    ALL_CODES, DE, IE, OE, PE, UE, ZE, highest_priority,
)


class Signal(enum.IntEnum):
    """The Linux signal numbers the simulation uses."""

    SIGTRAP = 5
    SIGABRT = 6
    SIGFPE = 8
    SIGKILL = 9
    SIGUSR1 = 10
    SIGSEGV = 11
    SIGALRM = 14
    SIGTERM = 15
    SIGCHLD = 17
    SIGVTALRM = 26


#: Default disposition sentinel (like ``SIG_DFL``).
SIG_DFL = "SIG_DFL"
#: Ignore sentinel (like ``SIG_IGN``).
SIG_IGN = "SIG_IGN"

#: Signals whose default action terminates the process.
FATAL_BY_DEFAULT = frozenset(
    {Signal.SIGTRAP, Signal.SIGABRT, Signal.SIGFPE, Signal.SIGKILL,
     Signal.SIGSEGV, Signal.SIGALRM, Signal.SIGTERM, Signal.SIGVTALRM}
)


class SiCode(enum.IntEnum):
    """``siginfo.si_code`` values for SIGFPE and SIGTRAP."""

    FPE_INTDIV = 1
    FPE_FLTDIV = 3
    FPE_FLTOVF = 4
    FPE_FLTUND = 5
    FPE_FLTRES = 6
    FPE_FLTINV = 7
    FPE_FLTDEN = 8  # denormal operand (x64 extension)
    TRAP_TRACE = 2


def _fpe_sicode_table() -> tuple[int, ...]:
    by_code = {
        IE: SiCode.FPE_FLTINV,
        DE: SiCode.FPE_FLTDEN,
        ZE: SiCode.FPE_FLTDIV,
        OE: SiCode.FPE_FLTOVF,
        UE: SiCode.FPE_FLTUND,
        PE: SiCode.FPE_FLTRES,
    }
    return (0,) + tuple(
        int(by_code[highest_priority(p)]) for p in range(1, ALL_CODES + 1))


#: The si_code of a SIGFPE, indexed by the 6-bit mask of pending
#: (raised and unmasked) condition codes: that of the condition the
#: priority encoding delivers.  Entry 0 (nothing pending) is 0.  Every
#: SIGFPE the simulator posts takes its code from here.
FPE_SICODE: tuple[int, ...] = _fpe_sicode_table()

#: SIGTRAP's single-step si_code, as a plain int (SigInfo carries ints).
TRAP_TRACE_CODE: int = int(SiCode.TRAP_TRACE)


@dataclass(slots=True)
class SigInfo:
    """The subset of ``siginfo_t`` the simulation carries."""

    signo: Signal
    code: int = 0
    addr: int = 0  #: faulting instruction address for SIGFPE


#: x64 RFLAGS trap-flag bit, as seen through ``REG_EFL`` in the mcontext.
EFLAGS_TF = 1 << 8


@dataclass(slots=True)
class MContext:
    """Mutable machine context passed to signal handlers.

    Handler writes to ``mxcsr`` and ``eflags`` are applied back to the
    interrupted task by the kernel when the handler returns, mirroring the
    Linux ``uc_mcontext`` contract.
    """

    rip: int = 0
    rsp: int = 0
    eflags: int = 0
    mxcsr: int = 0
    #: The instruction bytes at ``rip`` ("reading guest memory"): what
    #: FPSpy copies into its trace records.
    instruction: bytes = b""
    #: For SIGFPE: the faulting instruction's per-lane operand values
    #: (the XMM register file contents a real ``fpregs`` exposes).
    operands: tuple | None = None
    #: A handler may set this to per-lane results; the kernel then
    #: retires the faulting instruction with these values instead of
    #: re-executing it -- the write-RIP-past-the-instruction idiom of a
    #: trap-and-emulate system (paper section 6).
    emulated_results: tuple | None = None

    @property
    def trap_flag(self) -> bool:
        return bool(self.eflags & EFLAGS_TF)

    @trap_flag.setter
    def trap_flag(self, on: bool) -> None:
        if on:
            self.eflags |= EFLAGS_TF
        else:
            self.eflags &= ~EFLAGS_TF


@dataclass(slots=True)
class UContext:
    """``ucontext_t`` analogue: just wraps the mcontext."""

    mcontext: MContext = field(default_factory=MContext)
