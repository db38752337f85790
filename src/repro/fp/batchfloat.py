"""Batch softfloat: the one entry point for batched FP execution.

:func:`execute_batch` computes, for a batch of same-form operands, the
result bit patterns and all six IEEE condition flags per lane --
bit-equivalent to :class:`repro.fp.softfloat.SoftFPU` including NaN
payload propagation, signed zeros, subnormals, all four rounding modes,
and DAZ/FTZ.  It is the emulate half of the storm fast path
(:mod:`repro.machine.storm`) and commits every covered chunk of
blockexec's quiescent fast path (:mod:`repro.machine.blockexec`).

It picks one of two tiers per call (DESIGN.md #15):

* **Host loop:** every call the EFT tier does not take runs
  :func:`_scalar_batch`, at any lane count.  Under round-to-nearest
  without FTZ/DAZ it is one pass over the lanes as host floats, with
  :class:`repro.fp.fastpath.FastSoftFPU`'s certificates inlined (its
  windows imported, not copied) plus two of its own: binary32 FMA
  (the product is exact in binary64, so one binary64 sum and its
  two-sum residue decide the rounding unless the sum is a binary32
  midpoint) and min/max (a compare, no flags).  A certified lane costs
  no method call and no ``OpResult``.  Every lane it cannot certify,
  and every lane under any other context (directed rounding, FTZ, DAZ)
  or of fma64, is one canonical ``SoftFPU`` call, counted in
  ``batch_stats()["scalar_lanes"]``.
* **EFT:** binary32 FMA calls of more than :data:`_SCALAR_MAX_LANES`
  lanes under round-to-nearest without FTZ/DAZ run :func:`_eft_fma32`,
  the host loop's FMA certificate (the same two-sum residue and
  midpoint test) over NumPy arrays: the synthetic FMA storm's thousands
  of lanes.  Its certified lanes carry PE or nothing; the host loop
  recomputes every other lane, however many there are.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.fp.flags import PE
from repro.fp.formats import BINARY32, BINARY64, BinaryFormat
from repro.fp.fastpath import (
    _MAX_SAFE,
    _MAX_SAFE32,
    _MIN_SAFE,
    _MIN_SAFE32,
    WINDOW32,
    WINDOW64,
    _two_prod_err,
)
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import InstructionForm, OpKind

_I = np.int64
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


def batch_covered(form: InstructionForm) -> bool:
    """True when :func:`execute_batch` handles this form bit-exactly."""
    return form.batch


@dataclass
class BatchResult:
    """Per-lane outcome of one batch execution.

    ``bits`` are uint64 result patterns (low ``width`` bits significant),
    ``flags`` int64 flag bits per lane, ``tiny`` the pre-rounding
    tininess indicator (the unmasked-UE corner).
    """

    bits: np.ndarray
    flags: np.ndarray
    tiny: np.ndarray


#: (negate_product, negate_c) per FMA family kind (mirrors semantics).
_FMA_NEGATE = {
    OpKind.FMADD: (False, False),
    OpKind.FMSUB: (False, True),
    OpKind.FNMADD: (True, False),
    OpKind.FNMSUB: (True, True),
}


# ---------------------------------------------------------- the host loop
#
# One pass over a call's lanes as host floats, FastSoftFPU's certificates
# inlined (no method call, no OpResult per lane).  Each loop returns the
# result values (binary64 floats; binary32 results are narrowed from them
# in one pack), the flag ints, and the lanes it could not certify.


def _window(fmt: BinaryFormat, fields: tuple[int, int]) -> tuple:
    """An exponent-field window as magnitudes ``lo <= |x| < hi``, plus the
    format's result window; NaN fails every comparison."""
    lo, hi = fields
    safe = (_MIN_SAFE, _MAX_SAFE) if fmt is BINARY64 else (
        _MIN_SAFE32, _MAX_SAFE32)
    return (2.0 ** (lo + 1 - fmt.bias), 2.0 ** (hi - fmt.bias)) + safe


_HOST_WINDOW64 = _window(BINARY64, WINDOW64)
_HOST_WINDOW32 = _window(BINARY32, WINDOW32)

#: Veltkamp splitting constants (2**29 + 1, 2**28 + 1): for a binary64
#: ``v`` inside the binary32 result window, ``c = C*v; c - (c - v)`` is
#: ``v`` rounded to 24 (25) significant bits, so it equals ``v`` iff ``v``
#: fits in binary32 (in 25 bits).
_FIT24 = 536870913.0
_FIT25 = 268435457.0


def _host_addsub(w, narrow, X, Y):
    lo, hi, rlo, rhi = w
    fit, pe = _FIT24, PE
    res, fl, miss = [], [], []
    for x, y in zip(X, Y):
        f = -1
        if lo <= abs(x) < hi and lo <= abs(y) < hi:
            s = x + y
            if rlo < abs(s) < rhi:
                bv = s - x
                if (x - (s - bv)) + (y - bv) != 0.0:  # two-sum residue
                    f = pe
                elif narrow:
                    c = fit * s
                    f = 0 if c - (c - s) == s else pe
                else:
                    f = 0
            elif s == 0.0:
                f = 0  # exact cancellation: +0 under round-to-nearest
        if f < 0:
            miss.append(len(res))
            s = f = 0
        res.append(s)
        fl.append(f)
    return res, fl, miss


def _host_mul(w, narrow, X, Y):
    lo, hi, rlo, rhi = w
    fit, pe, two_prod_err = _FIT24, PE, _two_prod_err
    res, fl, miss = [], [], []
    for x, y in zip(X, Y):
        f = -1
        if lo <= abs(x) < hi and lo <= abs(y) < hi:
            p = x * y
            if rlo < abs(p) < rhi:
                if narrow:  # p is exact: 24 x 24 significant bits
                    c = fit * p
                    f = 0 if c - (c - p) == p else pe
                else:
                    f = 0 if two_prod_err(x, y, p) == 0.0 else pe
        if f < 0:
            miss.append(len(res))
            p = f = 0
        res.append(p)
        fl.append(f)
    return res, fl, miss


def _host_div(w, narrow, X, Y):
    lo, hi, rlo, rhi = w
    fit, pe, two_prod_err = _FIT24, PE, _two_prod_err
    res, fl, miss = [], [], []
    for x, y in zip(X, Y):
        f = -1
        if lo <= abs(x) < hi and lo <= abs(y) < hi:
            q = x / y
            if rlo < abs(q) < rhi:
                if narrow:
                    # q fits binary32 => q*y is exact (48 bits).
                    c = fit * q
                    f = 0 if c - (c - q) == q and q * y == x else pe
                else:
                    # Exact iff q*y == x as reals.
                    p = q * y
                    f = 0 if p == x and two_prod_err(q, y, p) == 0.0 else pe
        if f < 0:
            miss.append(len(res))
            q = f = 0
        res.append(q)
        fl.append(f)
    return res, fl, miss


def _host_sqrt(w, narrow, X):
    lo, hi = w[:2]
    fit, pe, sqrt, two_prod_err = _FIT24, PE, math.sqrt, _two_prod_err
    res, fl, miss = [], [], []
    for x in X:
        f = -1
        if lo <= x < hi:  # positive and in-window: so is the root
            r = sqrt(x)
            if narrow:
                c = fit * r
                f = 0 if c - (c - r) == r and r * r == x else pe
            else:
                p = r * r
                f = 0 if p == x and two_prod_err(r, r, p) == 0.0 else pe
        if f < 0:
            miss.append(len(res))
            r = f = 0
        res.append(r)
        fl.append(f)
    return res, fl, miss


def _host_minmax(w, want_min, X, Y):
    lo, hi = w[:2]
    res, fl, miss = [], [], []
    for x, y in zip(X, Y):
        if lo <= abs(x) < hi and lo <= abs(y) < hi:
            # No flags; on equal values (equal bits, in-window) the x64
            # rule returns the second operand.
            if want_min:
                res.append(x if x < y else y)
            else:
                res.append(x if x > y else y)
        else:
            miss.append(len(res))
            res.append(0)
        fl.append(0)
    return res, fl, miss


def _host_fma32(w, X, Y, Z):
    """``X*Y + Z`` (negations applied to the lists).  The product is exact
    in binary64; ``s = RN64(t)`` with two-sum residue ``e``.  Rounding
    ``s`` to binary32 gives RN32(t) unless ``s`` is a binary32 midpoint
    and ``e != 0`` (``bits64(s) & 0x1FFFFFFF == 0x10000000``: ``s`` fits
    25 bits but not 24); PE iff ``e != 0`` or the narrowing is inexact
    (Boldo-Melquiond, IEEE TC 2008)."""
    lo, hi, rlo, rhi = w
    fit, fit25, pe = _FIT24, _FIT25, PE
    res, fl, miss = [], [], []
    for x, y, z in zip(X, Y, Z):
        f = -1
        if lo <= abs(x) < hi and lo <= abs(y) < hi and lo <= abs(z) < hi:
            p = x * y
            s = p + z
            if rlo < abs(s) < rhi:
                bv = s - p
                c = fit * s
                if (p - (s - bv)) + (z - bv) == 0.0:
                    f = 0 if c - (c - s) == s else pe
                elif c - (c - s) == s:
                    f = pe
                else:
                    c = fit25 * s
                    if c - (c - s) != s:  # not a binary32 midpoint
                        f = pe
            elif s == 0.0:
                f = 0  # exact cancellation: +0 under round-to-nearest
        if f < 0:
            miss.append(len(res))
            s = f = 0
        res.append(s)
        fl.append(f)
    return res, fl, miss


_WIN32_LO, _WIN32_HI = (_U(e) for e in WINDOW32)
_U23 = _U(23)
_EXPF32 = _U(0xFF)
_MID_MASK = _U(0x1FFFFFFF)
_MID = _U(0x10000000)


def _eft_fma32(kind, operands):
    """The NumPy twin of :func:`_host_fma32`, same window and same
    midpoint certificate: ``(result_bits, pe, certified)`` arrays, with
    garbage in the uncertified lanes' bits."""
    with np.errstate(all="ignore"):
        neg_p, neg_c = _FMA_NEGATE[kind]
        ok = None
        X = []
        for o in operands:
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


def _host_lanes(kind, fmt, X):
    """Run the host loop for ``kind``; ``None`` for fma64 (no loop)."""
    narrow = fmt is BINARY32
    w = _HOST_WINDOW32 if narrow else _HOST_WINDOW64
    if kind is OpKind.ADD:
        return _host_addsub(w, narrow, X[0], X[1])
    if kind is OpKind.SUB:
        return _host_addsub(w, narrow, X[0], [-y for y in X[1]])
    if kind is OpKind.MUL:
        return _host_mul(w, narrow, X[0], X[1])
    if kind is OpKind.DIV:
        return _host_div(w, narrow, X[0], X[1])
    if kind is OpKind.SQRT:
        return _host_sqrt(w, narrow, X[0])
    if kind is OpKind.MIN or kind is OpKind.MAX:
        return _host_minmax(w, kind is OpKind.MIN, X[0], X[1])
    if narrow:
        neg_p, neg_c = _FMA_NEGATE[kind]
        a, b, c = X
        return _host_fma32(w, [-v for v in a] if neg_p else a, b,
                           [-v for v in c] if neg_c else c)
    return None


def _fpu_op(kind):
    """The :class:`SoftFPU` method computing one lane of ``kind``."""
    if kind in _FMA_NEGATE:
        neg_p, neg_c = _FMA_NEGATE[kind]
        return partial(_FPU.fma, negate_product=neg_p, negate_c=neg_c)
    return getattr(_FPU, kind.name.lower())


def _scalar_batch(kind, fmt, operands, ctx) -> BatchResult:
    """The host loop: one pass over the lanes as host floats under
    round-to-nearest without FTZ/DAZ; every lane it cannot certify, and
    every lane under any other context, is one canonical
    :class:`SoftFPU` call (counted in ``scalar_lanes``).  The loop holds
    every :class:`repro.fp.fastpath.FastSoftFPU` certificate, so that
    class would certify none of these lanes either."""
    n = len(operands[0])
    out = None
    if ctx.rmode == _RN and not ctx.ftz and not ctx.daz:
        if fmt is BINARY64:
            X = [struct.unpack(f"{n}d", o.tobytes()) for o in operands]
        else:
            X = [struct.unpack(f"{n}f", o.astype(np.uint32).tobytes())
                 for o in operands]
        out = _host_lanes(kind, fmt, X)
    if out is None:
        res, fl, miss = [0] * n, [0] * n, range(n)
    else:
        res, fl, miss = out
    fixes = []
    if miss:
        _STATS["scalar_lanes"] += len(miss)
        op = _fpu_op(kind)
        ints = [o.tolist() for o in operands]
        for i in miss:
            r = op(fmt, *[v[i] for v in ints], ctx)
            fl[i] = r.flags
            fixes.append((i, r))
    if fmt is BINARY64:
        bits = np.frombuffer(bytearray(struct.pack(f"{n}d", *res)), _U)
    else:
        bits = np.frombuffer(struct.pack(f"{n}f", *res), np.uint32).astype(_U)
    tiny = np.zeros(n, np.bool_)
    for i, r in fixes:
        bits[i] = r.bits
        tiny[i] = r.tiny
    return BatchResult(bits, np.array(fl, _I), tiny)


def execute_batch(
    form: InstructionForm,
    operands: tuple[np.ndarray, ...],
    ctx: FPContext,
) -> BatchResult:
    """Execute one batch: ``operands[i]`` is the uint64 bit-pattern array
    for operand position ``i`` (all the same length = total lane count).

    Bit-equivalent to running :class:`SoftFPU` per lane under ``ctx``.
    The tier is picked per call (DESIGN.md #15): binary32 FMA of more
    than :data:`_SCALAR_MAX_LANES` lanes under round-to-nearest without
    FTZ/DAZ runs the EFT tier, with the lanes it cannot certify
    recomputed by the host loop; every other call runs the host loop.
    """
    if not form.batch:
        raise NotImplementedError(f"batchfloat does not cover {form}")
    n = len(operands[0])
    _STATS["batches"] += 1
    _STATS["lanes"] += n
    kind, fmt = form.kind, form.fmt
    if (n <= _SCALAR_MAX_LANES or fmt is not BINARY32
            or kind not in _FMA_NEGATE
            or ctx.rmode != _RN or ctx.ftz or ctx.daz):
        return _scalar_batch(kind, fmt, operands, ctx)
    _STATS["vector_lanes"] += n
    bits, pe, certified = _eft_fma32(kind, operands)
    flags = np.where(pe, _I(PE), _I(0))
    tiny = np.zeros(n, np.bool_)
    if not certified.all():
        idx = np.nonzero(~certified)[0]
        sub = _scalar_batch(kind, fmt, tuple(o[idx] for o in operands), ctx)
        bits[idx] = sub.bits
        flags[idx] = sub.flags
        tiny[idx] = sub.tiny
    return BatchResult(bits, flags, tiny)
