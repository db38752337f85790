"""The simulated C library.

Every function takes a :class:`repro.machine.cpu.GuestCallContext` first
argument (the "calling thread") followed by the guest-visible arguments.
Guest programs never call these directly -- they yield
:class:`repro.guest.ops.LibcCall` ops, which the CPU resolves through the
process's dynamic linker, where a preloaded FPSpy may have interposed.

The catalogue matches the functions FPSpy intercepts (paper Figure 8):
process/thread management, signal hooking, and the C99 floating point
environment control family.
"""

from __future__ import annotations

from typing import Callable

from repro.fp.flags import MASK_SHIFT
from repro.fp.rounding import RoundingMode
from repro.kernel.signals import FPE_SICODE, SIG_DFL, SigInfo, Signal
from repro.loader.fenv import FE_ALL_EXCEPT, FEnv, flags_to_fe
from repro.machine.cpu import (
    GuestCallContext,
    ProcessExitRequested,
    ThreadExitRequested,
)

LibcFn = Callable[..., object]


# --------------------------------------------------------------- process


def _fork(ctx: GuestCallContext, child_main, name: str = "") -> int:
    """``fork`` (simulation form).

    A real fork duplicates the caller mid-function; generators cannot be
    cloned, so the simulated fork takes the child's entry point
    explicitly.  The contract FPSpy depends on is preserved: the child
    inherits the parent's environment (including ``LD_PRELOAD`` and all
    ``FPE_*`` variables), so FPSpy re-instantiates in the child and traces
    it independently.
    """
    child = ctx.kernel.exec_process(
        child_main,
        env=ctx.process.env,
        argv=ctx.process.argv,
        parent=ctx.process,
        name=name or f"{ctx.process.name}-child",
    )
    return child.pid


def _clone(ctx: GuestCallContext, fn, args: tuple = (), name: str = "") -> int:
    """``clone(CLONE_THREAD)``: start a new thread in this process."""
    task = ctx.process.new_task(lambda: fn(*args), name=name or "clone")
    return task.tid


def _pthread_create(ctx: GuestCallContext, fn, args: tuple = (), name: str = "") -> int:
    task = ctx.process.new_task(lambda: fn(*args), name=name or "pthread")
    return task.tid


def _pthread_exit(ctx: GuestCallContext) -> None:
    raise ThreadExitRequested()


def _exit(ctx: GuestCallContext, code: int = 0) -> None:
    raise ProcessExitRequested(code)


def _getpid(ctx: GuestCallContext) -> int:
    return ctx.process.pid


def _gettid(ctx: GuestCallContext) -> int:
    return ctx.task.tid


def _getenv(ctx: GuestCallContext, key: str) -> str | None:
    return ctx.process.getenv(key)


def _write(ctx: GuestCallContext, path: str, payload: bytes) -> int:
    """Append-only write (the only I/O FPSpy and the apps need)."""
    if isinstance(payload, str):
        payload = payload.encode()
    return ctx.kernel.vfs.open(path).append(payload)


def _read(ctx: GuestCallContext, path: str) -> bytes:
    """Whole-file read, including the synthetic ``/proc/fpspy/`` tree.

    The charge is the flat ``libc_call`` cost applied by the CPU to
    every call, independent of content, so a guest introspecting the
    monitor perturbs the clock no differently than any other libc call.
    """
    return ctx.kernel.vfs.read(path)


# --------------------------------------------------------------- signals


def _signal(ctx: GuestCallContext, signo: int, handler) -> object:
    return ctx.process.sigaction(Signal(signo), handler)


def _sigaction(ctx: GuestCallContext, signo: int, handler) -> object:
    return ctx.process.sigaction(Signal(signo), handler)


def _raise(ctx: GuestCallContext, signo: int) -> int:
    ctx.task.post_signal(SigInfo(signo=Signal(signo)))
    return 0


def _setitimer(
    ctx: GuestCallContext,
    which: str,
    initial: float,
    interval: float = 0.0,
) -> int:
    """``setitimer``: ``which`` is "real" (seconds) or "virtual"
    (guest instructions, per calling thread)."""
    if which == "real":
        ctx.kernel.arm_real_timer(ctx.task, initial, interval, Signal.SIGALRM)
    elif which == "virtual":
        ctx.task.set_virtual_timer(int(initial), int(interval), Signal.SIGVTALRM)
    else:
        raise ValueError(f"unknown itimer {which!r}")
    return 0


# ------------------------------------------------------------------ fenv


def _feclearexcept(ctx: GuestCallContext, excepts: int = FE_ALL_EXCEPT) -> int:
    m = ctx.task.mxcsr
    m.value &= ~(excepts & FE_ALL_EXCEPT)
    return 0


def _fetestexcept(ctx: GuestCallContext, excepts: int = FE_ALL_EXCEPT) -> int:
    return flags_to_fe(ctx.task.mxcsr.status) & excepts


def _feraiseexcept(ctx: GuestCallContext, excepts: int) -> int:
    # FE_* macros are the condition-code bits, so they go in unconverted.
    task = ctx.task
    task.mxcsr.set_status(excepts)
    # Unmasked raised exceptions trap, as on real hardware.
    pending = task.mxcsr.unmasked_pending(excepts)
    if pending:
        task.post_signal(SigInfo(
            signo=Signal.SIGFPE, code=FPE_SICODE[pending], addr=task.last_rip))
    return 0


def _fegetexceptflag(ctx: GuestCallContext, excepts: int = FE_ALL_EXCEPT) -> int:
    return flags_to_fe(ctx.task.mxcsr.status) & excepts


def _fesetexceptflag(ctx: GuestCallContext, flagp: int, excepts: int) -> int:
    m = ctx.task.mxcsr
    m.value &= ~(excepts & FE_ALL_EXCEPT)
    m.value |= flagp & excepts & FE_ALL_EXCEPT
    return 0


def _fegetexcept(ctx: GuestCallContext) -> int:
    """glibc extension: the enabled (unmasked, trapping) exceptions."""
    return ~(ctx.task.mxcsr.value >> MASK_SHIFT) & FE_ALL_EXCEPT


def _feenableexcept(ctx: GuestCallContext, excepts: int) -> int:
    """glibc extension: unmask exceptions; returns previously enabled set."""
    prev = _fegetexcept(ctx)
    ctx.task.mxcsr.unmask(excepts)
    return prev


def _fedisableexcept(ctx: GuestCallContext, excepts: int) -> int:
    prev = _fegetexcept(ctx)
    ctx.task.mxcsr.mask(excepts)
    return prev


def _fegetround(ctx: GuestCallContext) -> int:
    return int(ctx.task.mxcsr.rounding)


def _fesetround(ctx: GuestCallContext, mode: int) -> int:
    ctx.task.mxcsr.rounding = RoundingMode(mode)
    return 0


def _fegetenv(ctx: GuestCallContext) -> FEnv:
    return FEnv(mxcsr=ctx.task.mxcsr.value)


def _fesetenv(ctx: GuestCallContext, env: FEnv) -> int:
    ctx.task.mxcsr.value = env.mxcsr
    return 0


def _feholdexcept(ctx: GuestCallContext) -> FEnv:
    """Save the environment, clear status, and go non-stop (mask all)."""
    saved = FEnv(mxcsr=ctx.task.mxcsr.value)
    ctx.task.mxcsr.clear_status()
    ctx.task.mxcsr.mask_all()
    return saved


def _feupdateenv(ctx: GuestCallContext, env: FEnv) -> int:
    """Install ``env`` then re-raise the currently-set exceptions."""
    raised = flags_to_fe(ctx.task.mxcsr.status)
    ctx.task.mxcsr.value = env.mxcsr
    if raised:
        _feraiseexcept(ctx, raised)
    return 0


#: The base symbol table ``ld.so`` resolves against.
LIBC_SYMBOLS: dict[str, LibcFn] = {
    "fork": _fork,
    "clone": _clone,
    "pthread_create": _pthread_create,
    "pthread_exit": _pthread_exit,
    "exit": _exit,
    "getpid": _getpid,
    "gettid": _gettid,
    "getenv": _getenv,
    "write": _write,
    "read": _read,
    "signal": _signal,
    "sigaction": _sigaction,
    "raise": _raise,
    "setitimer": _setitimer,
    "feclearexcept": _feclearexcept,
    "fetestexcept": _fetestexcept,
    "feraiseexcept": _feraiseexcept,
    "fegetexceptflag": _fegetexceptflag,
    "fesetexceptflag": _fesetexceptflag,
    "feenableexcept": _feenableexcept,
    "fedisableexcept": _fedisableexcept,
    "fegetexcept": _fegetexcept,
    "fegetround": _fegetround,
    "fesetround": _fesetround,
    "fegetenv": _fegetenv,
    "fesetenv": _fesetenv,
    "feholdexcept": _feholdexcept,
    "feupdateenv": _feupdateenv,
}

#: The fe* family: dynamic use of any of these makes FPSpy step aside.
FENV_SYMBOLS = frozenset(name for name in LIBC_SYMBOLS if name.startswith("fe"))
