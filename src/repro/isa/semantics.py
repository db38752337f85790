"""Execution semantics of every instruction form.

``execute_form`` is the bridge between the ISA and the softfloat core: it
runs each vector lane through :class:`repro.fp.SoftFPU` and ORs the lane
condition codes together, exactly as the paper describes for vector
instructions ("the condition value generated is an *or* of the condition
values generated by the elementwise operations", section 3.2).

``form_executor`` is the trap-storm fast path's entry point: it returns a
per-form closure that memoizes whole :class:`ExecutionOutcome` objects
keyed on ``(operand bits, FPContext)``, with the plain
:class:`repro.fp.fastpath.FastSoftFPU` behind its misses: the host-loop
certificates :mod:`repro.fp.batchfloat` runs over batches, one lane per
call (they are defined once, in :mod:`repro.fp.fastpath`).  The FMA
family's term signs come from :data:`repro.isa.forms.FMA_NEGATE`, the
one table batchfloat reads too.
Individual-mode monitoring executes every faulting instruction twice --
once to fault, once single-stepped under the handler's masked context --
which is what the outcome level can catch.  Outcomes are frozen and
contexts capture every control input, so sharing them is unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.fp.fastpath import FastSoftFPU
from repro.fp.softfloat import FPContext
from repro.isa.forms import FMA_NEGATE, InstructionForm, OpKind

# The fast path is property-tested bit-equivalent to the canonical
# SoftFPU (tests/property/test_fastpath_props.py) and ~2-5x faster,
# which directly scales the whole simulator.
_FPU = FastSoftFPU()


@dataclass(frozen=True)
class ExecutionOutcome:
    """Raw outcome of executing one instruction under a context.

    Attributes
    ----------
    results:
        Per-lane results: result bits for arithmetic, integers for
        float->int converts, relation codes for compares.
    flags:
        OR of all lane condition codes (masked semantics), as an int of
        :mod:`repro.fp.flags` bits.
    tiny:
        True if any lane's result was tiny, detected after rounding as
        x64 does (for the unmasked-Underflow trap corner).
    """

    results: tuple[int, ...]
    flags: int
    tiny: bool


def execute_form(
    form: InstructionForm,
    inputs: tuple[tuple[int, ...], ...],
    ctx: FPContext,
) -> ExecutionOutcome:
    """Execute all lanes of ``form`` on ``inputs`` under ``ctx``."""
    fpu = _FPU
    kind = form.kind
    fmt = form.fmt
    results: list[int] = []
    flags = 0
    tiny = False

    if kind == OpKind.DP:
        # Dot product: lane-wise multiplies then a horizontal sum, each
        # operation contributing condition codes.  Result broadcast.
        acc = None
        for a, b in inputs:
            r = fpu.mul(fmt, a, b, ctx)
            flags |= r.flags
            tiny |= r.tiny
            if acc is None:
                acc = r.bits
            else:
                s = fpu.add(fmt, acc, r.bits, ctx)
                flags |= s.flags
                tiny |= s.tiny
                acc = s.bits
        assert acc is not None
        return ExecutionOutcome(tuple(acc for _ in inputs), flags, tiny)

    for lane in inputs:
        if kind == OpKind.ADD:
            r = fpu.add(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.SUB:
            r = fpu.sub(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.MUL:
            r = fpu.mul(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.DIV:
            r = fpu.div(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.MIN:
            r = fpu.min(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.MAX:
            r = fpu.max(fmt, lane[0], lane[1], ctx)
        elif kind == OpKind.SQRT:
            r = fpu.sqrt(fmt, lane[0], ctx)
        elif kind in FMA_NEGATE:
            neg_p, neg_c = FMA_NEGATE[kind]
            r = fpu.fma(fmt, lane[0], lane[1], lane[2], ctx,
                        negate_product=neg_p, negate_c=neg_c)
        elif kind == OpKind.ROUND:
            r = fpu.round_to_integral(fmt, lane[0], ctx)
        elif kind == OpKind.CVT_F2F:
            r = fpu.convert(fmt, form.dst_fmt, lane[0], ctx)
        elif kind == OpKind.CVT_I2F:
            r = fpu.from_int(form.dst_fmt, lane[0], ctx)
        elif kind in (OpKind.CVT_F2I, OpKind.CVT_F2I_TRUNC):
            value, f = fpu.to_int(
                fmt, lane[0], ctx,
                truncate=kind == OpKind.CVT_F2I_TRUNC,
            )
            results.append(value)
            flags |= f
            continue
        elif kind in (OpKind.UCOMI, OpKind.COMI):
            rel, f = fpu.compare(
                fmt, lane[0], lane[1], ctx,
                signal_qnan=kind == OpKind.COMI,
            )
            results.append(rel)
            flags |= f
            continue
        else:  # pragma: no cover - catalogue and dispatch kept in sync
            raise NotImplementedError(kind)
        results.append(r.bits)
        flags |= r.flags
        tiny |= r.tiny

    return ExecutionOutcome(tuple(results), flags, tiny)


# --------------------------------------------------- memoized executors

#: One executor closure per form; forms are frozen/hashable and keying on
#: the object itself pins it alive, so entries can never alias.
_EXECUTORS: dict[InstructionForm, Callable] = {}

#: Per-form outcome-cache bound.  4096 distinct (operands, context) pairs
#: per static form covers a hot loop's working set many times over while
#: keeping worst-case memory trivially bounded.
_OUTCOME_CAP = 4096


def form_executor(
    form: InstructionForm,
) -> Callable[[tuple[tuple[int, ...], ...], FPContext], ExecutionOutcome]:
    """A memoizing ``(inputs, ctx) -> ExecutionOutcome`` for ``form``.

    Bit-identical to :func:`execute_form` -- outcomes are pure functions
    of the key, and the returned objects are frozen -- but repeat
    executions (trap replay, hot loop bodies) are one dict probe.
    """
    executor = _EXECUTORS.get(form)
    if executor is None:
        executor = _build_executor(form)
        _EXECUTORS[form] = executor
    return executor


def _build_executor(form: InstructionForm) -> Callable:
    memo: dict = {}

    def run(inputs, ctx):
        key = (inputs, ctx)
        out = memo.get(key)
        if out is None:
            if len(memo) >= _OUTCOME_CAP:
                memo.pop(next(iter(memo)))
            out = execute_form(form, inputs, ctx)
            memo[key] = out
        return out

    return run


#: Traced-variant intern table.  Kept apart from :data:`_EXECUTORS` so a
#: tracing kernel never touches (or slows) the plain closures -- the
#: flight recorder's disabled path stays byte-for-byte the PR 2 code.
_TRACED_EXECUTORS: dict[InstructionForm, Callable] = {}


def traced_form_executor(
    form: InstructionForm,
) -> Callable[[tuple[tuple[int, ...], ...], FPContext], ExecutionOutcome]:
    """Like :func:`form_executor`, plus memo-hit visibility.

    The returned closure carries a one-element ``memo_hit`` list cell,
    updated on every call, which the flight recorder reads to stamp its
    emulate span.  Outcomes are the same frozen pure values, so results
    stay bit-identical to the untraced executor.
    """
    executor = _TRACED_EXECUTORS.get(form)
    if executor is None:
        executor = _build_traced_executor(form)
        _TRACED_EXECUTORS[form] = executor
    return executor


def _build_traced_executor(form: InstructionForm) -> Callable:
    memo: dict = {}
    hit_cell = [False]

    def run(inputs, ctx):
        key = (inputs, ctx)
        out = memo.get(key)
        if out is None:
            hit_cell[0] = False
            if len(memo) >= _OUTCOME_CAP:
                memo.pop(next(iter(memo)))
            out = execute_form(form, inputs, ctx)
            memo[key] = out
        else:
            hit_cell[0] = True
        return out

    run.memo_hit = hit_cell
    return run
