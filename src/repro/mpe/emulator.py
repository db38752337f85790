"""The trap-and-emulate precision emulator (``mpe.so``).

Architecture (paper section 6): unmask the Inexact exception so every
rounding instruction faults; in the SIGFPE handler, *emulate* the
instruction at extended precision and retire it via the kernel's
emulated-writeback path -- no single-stepping needed.  A shadow table
keyed by double-precision bit patterns carries extended values across
dependent instructions, the way an MPFR-backed shadow register file
would.

Environment interface (mirrors FPSpy's style):

=================  =====================================================
MPE_PRECISION      significand bits of the software FPU (default 128)
MPE_SITES          optional comma list of instruction addresses (hex or
                   decimal) to emulate; other sites execute natively.
                   This is the paper's "focus on <5000 instruction
                   sites" feasibility lever.
MPE_SHADOW_MAX     shadow table capacity (default 65536 entries)
=================  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fp.flags import ALL_CODES, MASK_SHIFT, PE
from repro.fp.mxcsr import MXCSR
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import InstructionForm, OpKind
from repro.isa.instruction import decode_form
from repro.isa.semantics import execute_form
from repro.kernel.signals import SigInfo, Signal, UContext
from repro.loader.ldso import Loader, register_preload
from repro.mpe.apfloat import APFloat, extended_format

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.process import Process
    from repro.kernel.task import Task

MPE_PRELOAD_NAME = "mpe.so"
_FPU = SoftFPU()


def mpe_env(
    precision: int = 128,
    sites: list[int] | None = None,
    shadow_max: int | None = None,
    extra: dict[str, str] | None = None,
) -> dict[str, str]:
    """Environment block enabling the precision emulator for a launch."""
    env = {"LD_PRELOAD": MPE_PRELOAD_NAME, "MPE_PRECISION": str(precision)}
    if sites is not None:
        env["MPE_SITES"] = ",".join(hex(s) for s in sites)
    if shadow_max is not None:
        env["MPE_SHADOW_MAX"] = str(shadow_max)
    if extra:
        env.update(extra)
    return env


class PrecisionEmulator:
    """Per-process trap-and-emulate engine."""

    def __init__(self, process: "Process") -> None:
        self.process = process
        self.kernel = process.kernel
        self.precision = int(process.getenv("MPE_PRECISION", "128") or "128")
        self.shadow_max = int(process.getenv("MPE_SHADOW_MAX", "65536") or "65536")
        sites_raw = process.getenv("MPE_SITES")
        self.sites: set[int] | None = None
        if sites_raw:
            self.sites = {int(tok, 0) for tok in sites_raw.split(",") if tok.strip()}
        self.ext = extended_format(self.precision)
        #: shadow high-precision values keyed by (format width, bits)
        self.shadow: dict[tuple[int, int], int] = {}
        self.emulated = 0  #: instructions emulated at extended precision
        self.passed_through = 0  #: faulting instructions executed natively

    # ------------------------------------------------------------ ld.so

    def install(self, loader: Loader) -> None:
        # The emulator interposes on nothing: it only needs the fault path.
        del loader

    def constructor(self, task: "Task") -> None:
        self.process.sigaction(Signal.SIGFPE, self._sigfpe_handler)
        self._arm(task)

    def destructor(self, task: "Task") -> None:
        task.mxcsr.mask_all()

    def init_thread(self, task: "Task") -> None:
        self._arm(task)

    def _arm(self, task: "Task") -> None:
        task.mxcsr.clear_status()
        task.mxcsr.mask_all()
        task.mxcsr.unmask(PE)

    # ----------------------------------------------------------- shadow

    def _widen(self, fmt, bits: int) -> int:
        """Operand -> extended bits, preferring a shadow value."""
        hit = self.shadow.get((fmt.width, bits))
        if hit is not None:
            return hit
        return _FPU.convert(fmt, self.ext, bits).bits

    def _narrow_and_remember(self, fmt, ext_bits: int) -> int:
        """Extended result -> storage bits, recording the shadow entry."""
        narrow = _FPU.convert(self.ext, fmt, ext_bits).bits
        if len(self.shadow) >= self.shadow_max:
            self.shadow.clear()  # simple wholesale eviction
        self.shadow[(fmt.width, narrow)] = ext_bits
        return narrow

    # ---------------------------------------------------------- emulate

    def _emulate(self, form: InstructionForm, inputs) -> tuple[int, ...]:
        ext = self.ext
        ctx = FPContext()
        kind = form.kind
        fmt = form.fmt
        results: list[int] = []

        if kind == OpKind.DP:
            acc = None
            for a, b in inputs:
                prod = _FPU.mul(ext, self._widen(fmt, a), self._widen(fmt, b), ctx).bits
                acc = prod if acc is None else _FPU.add(ext, acc, prod, ctx).bits
            narrow = self._narrow_and_remember(fmt, acc)
            return tuple(narrow for _ in inputs)

        for lane in inputs:
            if kind == OpKind.CVT_I2F:
                r = _FPU.from_int(ext, lane[0], ctx).bits
                results.append(self._narrow_and_remember(form.dst_fmt, r))
                continue
            if kind in (OpKind.CVT_F2I, OpKind.CVT_F2I_TRUNC):
                wide = self._widen(fmt, lane[0])
                value, _ = _FPU.to_int(
                    ext, wide, ctx, truncate=kind == OpKind.CVT_F2I_TRUNC
                )
                results.append(value)
                continue
            if kind in (OpKind.UCOMI, OpKind.COMI):
                rel, _ = _FPU.compare(
                    ext, self._widen(fmt, lane[0]), self._widen(fmt, lane[1]), ctx,
                    signal_qnan=kind == OpKind.COMI,
                )
                results.append(rel)
                continue
            if kind == OpKind.CVT_F2F:
                wide = self._widen(fmt, lane[0])
                results.append(self._narrow_and_remember(form.dst_fmt, wide))
                continue

            wides = [self._widen(fmt, b) for b in lane]
            if kind == OpKind.ADD:
                r = _FPU.add(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.SUB:
                r = _FPU.sub(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.MUL:
                r = _FPU.mul(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.DIV:
                r = _FPU.div(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.SQRT:
                r = _FPU.sqrt(ext, wides[0], ctx).bits
            elif kind in (OpKind.FMADD, OpKind.FMSUB, OpKind.FNMADD, OpKind.FNMSUB):
                r = _FPU.fma(
                    ext, wides[0], wides[1], wides[2], ctx,
                    negate_product=kind in (OpKind.FNMADD, OpKind.FNMSUB),
                    negate_c=kind in (OpKind.FMSUB, OpKind.FNMSUB),
                ).bits
            elif kind == OpKind.MIN:
                r = _FPU.min(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.MAX:
                r = _FPU.max(ext, wides[0], wides[1], ctx).bits
            elif kind == OpKind.ROUND:
                r = _FPU.round_to_integral(ext, wides[0], ctx).bits
            else:  # pragma: no cover - catalogue kept in sync
                raise NotImplementedError(kind)
            results.append(self._narrow_and_remember(fmt, r))
        return tuple(results)

    # ---------------------------------------------------------- handler

    def _sigfpe_handler(self, signo: Signal, info: SigInfo, uctx: UContext) -> None:
        mctx = uctx.mcontext
        task = self.kernel.current_task
        mx = MXCSR(mctx.mxcsr)
        mx.clear_status()
        mctx.mxcsr = mx.value
        if mctx.operands is None:
            # Not a fault we can emulate: mask and let it re-execute.
            mctx.mxcsr |= ALL_CODES << MASK_SHIFT
            return
        form = decode_form(mctx.instruction)
        charge = self.kernel.cpu.costs
        task.utime_cycles += charge.handler_user
        self.kernel.cycles += charge.handler_user
        if self.sites is not None and mctx.rip not in self.sites:
            # Unpatched site: execute natively (same results the hardware
            # would produce), but do it here so no re-fault occurs.
            outcome = execute_form(form, mctx.operands, FPContext())
            mctx.emulated_results = outcome.results
            self.passed_through += 1
            return
        mctx.emulated_results = self._emulate(form, mctx.operands)
        self.emulated += 1


class MPELibrary:
    """Preload adapter wiring the emulator into process/thread lifecycle."""

    def __init__(self, process: "Process") -> None:
        self.engine = PrecisionEmulator(process)

    def install(self, loader: Loader) -> None:
        engine = self.engine
        real_pthread = loader.real("pthread_create")

        def pthread_wrapper(ctx, fn, args=(), name=""):
            tid = real_pthread(ctx, fn, args, name)
            engine.init_thread(ctx.process.tasks[tid])
            return tid

        loader.interpose("pthread_create", pthread_wrapper)
        loader.interpose("clone", pthread_wrapper)

    def constructor(self, task: "Task") -> None:
        self.engine.constructor(task)

    def destructor(self, task: "Task") -> None:
        self.engine.destructor(task)


register_preload(MPE_PRELOAD_NAME, MPELibrary)
