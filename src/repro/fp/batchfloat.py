"""Batch softfloat: the one entry point for batched FP execution.

:func:`execute_batch` executes a batch of same-form groups of every
catalogue form -- bit-equivalent to :class:`repro.fp.softfloat.SoftFPU`
including NaN payload propagation, signed zeros, subnormals, all four
rounding modes, and DAZ/FTZ.  It is the emulate half of the storm fast
path (:mod:`repro.machine.storm`) and commits every chunk of blockexec's
quiescent fast path (:mod:`repro.machine.blockexec`).  Operands are
int sequences -- an ``FPBlock``'s lane ``array`` slices (DESIGN.md #6),
or lists -- and the results come back as a lane ``array`` the block
copies from, with the codes and tininess as lists: plain Python sized
to traffic whose batches average a few groups.

The arithmetic kinds (:data:`BATCH_KINDS`) compute the result bit
patterns and all six IEEE condition flags per lane, on one of two tiers
picked per call (DESIGN.md #15):

* **Host loop:** every call the EFT tier does not take runs
  :func:`_scalar_batch`, at any lane count.  Under round-to-nearest
  without FTZ/DAZ it is one pass over the lanes as host floats through
  the host loops of :mod:`repro.fp.fastpath`, where every certificate
  is defined once (:class:`repro.fp.fastpath.FastSoftFPU` runs the same
  loops over one lane): add/sub, mul, div and sqrt, plus binary32 FMA
  (the product is exact in binary64, so one binary64 sum and its
  two-sum residue decide the rounding unless the sum is a binary32
  midpoint) and min/max (a compare, no flags).  A certified lane costs
  no method call and no ``OpResult``.  Every lane it cannot certify,
  and every lane under any other context (directed rounding, FTZ, DAZ)
  or of fma64, is one canonical ``SoftFPU`` call, counted in
  ``batch_stats()["scalar_lanes"]``.
* **EFT:** binary32 FMA calls of more than :data:`_SCALAR_MAX_LANES`
  lanes under round-to-nearest without FTZ/DAZ run :func:`_eft_fma32`,
  the host loop's FMA certificate (the same window, two-sum residue and
  midpoint test) over NumPy arrays: the synthetic FMA storm's thousands
  of lanes.  The only NumPy code on the batch path, it converts the
  operands on entry and its results on exit.  Its certified lanes carry
  PE or nothing; the host loop recomputes every other lane, however
  many there are.

Every other kind -- round, dot product, compares, conversions -- makes
one call per group to the memoized per-form executor
(:func:`repro.isa.semantics.form_executor`), so those forms' semantics
stay defined in one place.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from functools import partial
from operator import or_
from typing import Sequence

import numpy as np

from repro.fp.flags import PE
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.fastpath import (
    _HOST_WINDOW32,
    _HOST_WINDOW64,
    _MAX_SAFE32,
    _MIN_SAFE32,
    WINDOW32,
    _host_addsub,
    _host_div,
    _host_fma32,
    _host_minmax,
    _host_mul,
    _host_sqrt,
)
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import FMA_NEGATE, InstructionForm, OpKind
from repro.isa.semantics import form_executor

_U = np.uint64

_FPU = SoftFPU()
_RN = RoundingMode.NEAREST

#: Binary32 FMA calls of more than this many lanes under round-to-nearest
#: without FTZ/DAZ run the EFT tier (:func:`_eft_fma32`); every other call
#: runs the host loop (:func:`_scalar_batch`).  At 64 lanes the host loop
#: ties the EFT tier (DESIGN.md #15 has the per-form table).
_SCALAR_MAX_LANES = 64

_STATS = {"batches": 0, "lanes": 0, "vector_lanes": 0, "scalar_lanes": 0}


def batch_stats() -> dict:
    """Batches, their lanes, the lanes of calls that ran the EFT tier,
    and the lanes computed one canonical :class:`SoftFPU` call each."""
    return dict(_STATS)


def reset_batch_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


@dataclass(slots=True)
class BatchResult:
    """Per-lane outcome of one batch execution.

    ``bits`` are the results in the block lane format, so a commit is
    one slice copy: an ``array('Q')`` of bit patterns (low ``width``
    bits significant), or an ``array('q')`` for :data:`INT_RESULT_KINDS`
    (relation codes, converted integers).  ``flags`` is the list of
    condition codes and ``tiny`` that of the tininess indicators,
    detected after rounding as x64 does (the unmasked-UE corner).
    :data:`BATCH_KINDS` carry both per lane; every other kind carries
    its group's OR of codes and its tininess on the group's first lane
    and 0 on the others, so only a per-group OR may read them -- as
    :meth:`group_flags`, blockexec and storm's ``_Window`` do.
    """

    bits: array
    flags: list[int]
    tiny: list[bool]

    def group_flags(self, lanes: int) -> list[int]:
        """Each ``lanes``-wide group's OR of lane codes, one strided
        pass per lane position."""
        fl = self.flags
        codes = fl[::lanes]
        for j in range(1, lanes):
            codes = list(map(or_, codes, fl[j::lanes]))
        return codes


_WIN32_LO, _WIN32_HI = (_U(e) for e in WINDOW32)
_U23 = _U(23)
_EXPF32 = _U(0xFF)
_MID_MASK = _U(0x1FFFFFFF)
_MID = _U(0x10000000)


def _eft_fma32(kind, operands):
    """The NumPy twin of :func:`repro.fp.fastpath._host_fma32`, same
    window and same midpoint certificate: ``(result_bits, pe, certified)``
    arrays, with garbage in the uncertified lanes' bits.  The only NumPy
    tier, so the operand sequences become arrays here."""
    with np.errstate(all="ignore"):
        neg_p, neg_c = FMA_NEGATE[kind]
        ok = None
        X = []
        for o in operands:
            o = np.asarray(o, dtype=_U)
            e = (o >> _U23) & _EXPF32
            w = (e > _WIN32_LO) & (e < _WIN32_HI)
            ok = w if ok is None else ok & w
            X.append(o.astype(np.uint32).view(np.float32).astype(np.float64))
        x, y, z = X
        p = x * y  # exact: 24 x 24 significant bits
        if neg_p:
            p = -p
        if neg_c:
            z = -z
        s = p + z
        bv = s - p
        err = (p - (s - bv)) + (z - bv) != 0.0  # two-sum residue
        r = s.astype(np.float32)
        mag = np.abs(s)
        mid = (s.view(_U) & _MID_MASK) == _MID
        certified = ok & (((mag > _MIN_SAFE32) & (mag < _MAX_SAFE32))
                          | (s == 0.0)) & ~(mid & err)
        pe = err | (r.astype(np.float64) != s)
        return r.view(np.uint32).astype(_U), pe, certified


def _fma_loop(kind):
    """The binary32 FMA host loop with ``kind``'s term signs; ``None``
    for fma64 (no loop)."""
    neg_p, neg_c = FMA_NEGATE[kind]

    def run(w, narrow, X):
        if not narrow:
            return None
        a, b, c = X
        return _host_fma32(w, [-v for v in a] if neg_p else a, b,
                           [-v for v in c] if neg_c else c)
    return run


#: :mod:`repro.fp.fastpath`'s host loop per kind, as
#: ``loop(window, narrow, operand_lists)``.
_HOST_LOOPS = {
    OpKind.ADD: lambda w, narrow, X: _host_addsub(w, narrow, X[0], X[1]),
    OpKind.SUB: lambda w, narrow, X: _host_addsub(
        w, narrow, X[0], [-y for y in X[1]]),
    OpKind.MUL: lambda w, narrow, X: _host_mul(w, narrow, X[0], X[1]),
    OpKind.DIV: lambda w, narrow, X: _host_div(w, narrow, X[0], X[1]),
    OpKind.SQRT: lambda w, narrow, X: _host_sqrt(w, narrow, X[0]),
    OpKind.MIN: lambda w, narrow, X: _host_minmax(w, True, X[0], X[1]),
    OpKind.MAX: lambda w, narrow, X: _host_minmax(w, False, X[0], X[1]),
    **{kind: _fma_loop(kind) for kind in FMA_NEGATE},
}

#: The kinds the host loop and the EFT tier compute lane by lane (in
#: binary32 and binary64); every other kind runs the per-form executor.
BATCH_KINDS = frozenset(_HOST_LOOPS)


def _run_host_loop(kind, fmt, X):
    """Run :mod:`repro.fp.fastpath`'s host loop for ``kind`` over the
    operand lists ``X``; ``None`` for fma64 (no loop)."""
    narrow = fmt is BINARY32
    return _HOST_LOOPS[kind](
        _HOST_WINDOW32 if narrow else _HOST_WINDOW64, narrow, X)


def _fpu_op(kind):
    """The :class:`SoftFPU` method computing one lane of ``kind``."""
    if kind in FMA_NEGATE:
        neg_p, neg_c = FMA_NEGATE[kind]
        return partial(_FPU.fma, negate_product=neg_p, negate_c=neg_c)
    return getattr(_FPU, kind.name.lower())


def _host_floats(fmt, o):
    """Operand bit patterns as host floats: binary64 through a buffer
    cast of the lane array, binary32 in one ``struct`` pass."""
    if fmt is BINARY64:
        return memoryview(o if isinstance(o, array) else array("Q", o)
                          ).cast("B").cast("d").tolist()
    n = len(o)
    return struct.unpack(f"{n}f", struct.pack(f"{n}I", *o))


def _scalar_batch(kind, fmt, operands, ctx) -> BatchResult:
    """The host loop: one pass over the lanes as host floats under
    round-to-nearest without FTZ/DAZ; every lane it cannot certify, and
    every lane under any other context, is one canonical
    :class:`SoftFPU` call (counted in ``scalar_lanes``).
    :class:`repro.fp.fastpath.FastSoftFPU` runs the same loops, so it
    falls back on exactly these lanes too."""
    n = len(operands[0])
    out = None
    if ctx.rmode == _RN and not ctx.ftz and not ctx.daz:
        out = _run_host_loop(kind, fmt, [_host_floats(fmt, o)
                                         for o in operands])
    if out is None:
        res, fl, miss = [0] * n, [0] * n, range(n)
    else:
        res, fl, miss = out
    if fmt is BINARY64:
        bits = array("Q", array("d", res).tobytes())
    else:
        bits = array("Q", struct.unpack(f"{n}I", struct.pack(f"{n}f", *res)))
    tiny = [False] * n
    if miss:
        _STATS["scalar_lanes"] += len(miss)
        op = _fpu_op(kind)
        for i in miss:
            r = op(fmt, *[o[i] for o in operands], ctx)
            bits[i], fl[i], tiny[i] = r.bits, r.flags, r.tiny
    return BatchResult(bits, fl, tiny)


def _executor_batch(form, operands, ctx) -> BatchResult:
    """One memoized form-executor call per group: its results per lane,
    its OR of codes and its tininess on its first lane."""
    run = form_executor(form)
    lanes = form.lanes
    n = len(operands[0])
    rows = list(zip(*operands))
    res = []
    fl = [0] * n
    tiny = [False] * n
    for lo in range(0, n, lanes):
        out = run(tuple(rows[lo:lo + lanes]), ctx)
        res += out.results
        fl[lo] = out.flags
        tiny[lo] = out.tiny
    return BatchResult(array(form.typecodes[1], res), fl, tiny)


def execute_batch(
    form: InstructionForm,
    operands: tuple[Sequence[int], ...],
    ctx: FPContext,
) -> BatchResult:
    """Execute one batch: ``operands[i]`` is the int sequence for operand
    position ``i`` -- a block's lane ``array`` slice or a list: bit
    patterns, signed for ``cvtsi2s*`` sources; all the same length, a
    whole number of ``form.lanes`` groups.

    Bit-equivalent to :func:`repro.isa.semantics.execute_form` per group
    under ``ctx`` (see :class:`BatchResult` for the flag layout).  The
    tier is picked per call (DESIGN.md #15): a kind outside
    :data:`BATCH_KINDS` runs the per-form executor group by group;
    binary32 FMA of more than :data:`_SCALAR_MAX_LANES` lanes under
    round-to-nearest without FTZ/DAZ runs the EFT tier, with the lanes it
    cannot certify recomputed by the host loop; every other call runs the
    host loop.
    """
    n = len(operands[0])
    _STATS["batches"] += 1
    _STATS["lanes"] += n
    kind, fmt = form.kind, form.fmt
    if kind not in BATCH_KINDS:
        return _executor_batch(form, operands, ctx)
    if (n <= _SCALAR_MAX_LANES or fmt is not BINARY32
            or kind not in FMA_NEGATE
            or ctx.rmode != _RN or ctx.ftz or ctx.daz):
        return _scalar_batch(kind, fmt, operands, ctx)
    _STATS["vector_lanes"] += n
    eft_bits, pe, certified = _eft_fma32(kind, operands)
    bits = array("Q", eft_bits.tobytes())
    flags = np.where(pe, PE, 0).tolist()
    tiny = [False] * n
    idx = np.flatnonzero(~certified).tolist()
    if idx:
        sub = _scalar_batch(
            kind, fmt, tuple([o[i] for i in idx] for o in operands), ctx)
        for j, i in enumerate(idx):
            bits[i], flags[i], tiny[i] = sub.bits[j], sub.flags[j], sub.tiny[j]
    return BatchResult(bits, flags, tiny)
