"""Fast-path arithmetic: host-FPU results with exact flag detection.

DESIGN.md decision #1's ablation: the canonical integer-mantissa
softfloat is bit-exact but costs microseconds per operation.  For the
overwhelmingly common case -- normal operands, round-to-nearest, normal
result -- the *host* FPU already computes the correctly rounded result
(Python floats are IEEE binary64 with round-to-nearest-even), and the
only question is the flag set.  This module answers it exactly, and it
is the one place the answers are written: the host loops below hold
every certificate, :mod:`repro.fp.batchfloat` runs them over whole
batches, and :class:`FastSoftFPU` runs them over one lane.

binary64 (operands and results inside 2**+-500):

* **add/sub**: the two-sum error-free transformation recovers the exact
  residual; PE iff the residual is nonzero.
* **mul**: Dekker's two-product (Veltkamp splitting) recovers the exact
  product error without an FMA; PE iff nonzero.
* **div**: exact iff ``q * b == a`` exactly: two-product of the
  candidate with the divisor must give back the dividend with no error.
* **sqrt**: exact iff ``r * r == a`` exactly, same technique.

binary32 (operands and results inside 2**+-100, DESIGN.md decision #15):
the operation runs in binary64 and the result is narrowed to binary32.
Rounding twice is harmless here because 53 >= 2*24 + 2 (Figueroa's
bound for +, -, *, / and sqrt), so the narrowed value is the correctly
rounded binary32 result.  PE is decided exactly: a product of two
binary32 values has at most 48 significant bits, so ``x * y``,
``q * b`` and ``r * r`` are exact in binary64; add/sub use the two-sum
residual.  Two more certificates serve only the batch layer: binary32
FMA (:func:`_host_fma32`) and min/max (:func:`_host_minmax`).

Any case a loop cannot certify -- special or subnormal operands,
results at the overflow or tininess boundary -- it reports as a miss,
and the caller computes that lane with the canonical softfloat, as it
does every lane under a non-default rounding mode or FTZ/DAZ.  The
equivalence ``FastSoftFPU == SoftFPU`` on *all* inputs of both formats
is property-tested (``tests/property/test_fastpath_props.py``), the
batch loops in ``tests/property/test_batchfloat_props.py``, and the
speedup is measured in ``benchmarks/test_ablation_fastpath.py``.
"""

from __future__ import annotations

import math
import struct

from repro.fp.flags import PE
from repro.fp.formats import BINARY32, BINARY64, BinaryFormat
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import DEFAULT_CONTEXT, FPContext, OpResult, SoftFPU

#: Operand windows: a fast path certifies only operands whose exponent
#: field lies strictly inside, i.e. normal values with magnitude in
#: [2**-499, 2**500) (binary64) or [2**-99, 2**100) (binary32).
#: batchfloat's EFT tier and vectorfast import them from here.
WINDOW64 = (523, 1523)
WINDOW32 = (27, 227)

#: Magnitude bounds within which binary64 fast paths are certainly safe
#: (results cannot overflow, underflow, or lose residual precision).
_MIN_SAFE = 2.0**-500
_MAX_SAFE = 2.0**500

#: The binary32 result window: far inside the binary32 normal range, so
#: the narrowed result is normal and finite.
_MIN_SAFE32 = 2.0**-100
_MAX_SAFE32 = 2.0**100

#: Veltkamp splitting constant for binary64 (2**27 + 1).
_SPLIT = 134217729.0

#: Veltkamp splitting constants (2**29 + 1, 2**28 + 1): for a binary64
#: ``v`` inside the binary32 result window, ``c = C*v; c - (c - v)`` is
#: ``v`` rounded to 24 (25) significant bits, so it equals ``v`` iff ``v``
#: fits in binary32 (in 25 bits).
_FIT24 = 536870913.0
_FIT25 = 268435457.0

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")

_RN = RoundingMode.NEAREST


def _two_prod_err(x: float, y: float, p: float) -> float:
    """Dekker's ``x * y - p`` for ``p = fl(x * y)``, exact inside the
    binary64 windows (no overflow, no underflow of the partial terms).
    Elementwise on NumPy float64 arrays too."""
    cx = _SPLIT * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLIT * y
    hy = cy - (cy - y)
    ly = y - hy
    return ((hx * hy - p) + hx * ly + lx * hy) + lx * ly


# ---------------------------------------------------------- the host loops
#
# One pass over a sequence of lanes as host floats: no method call and no
# OpResult per lane.  Each loop takes a window from :func:`_window` and
# returns the result values (binary64 floats; a binary32 result is
# narrowed from its value by one pack), the flag ints, and the indices of
# the lanes it could not certify (their value and flags are 0).  Every
# loop assumes round-to-nearest without FTZ/DAZ.


def _window(fmt: BinaryFormat, fields: tuple[int, int]) -> tuple:
    """An exponent-field window as magnitudes ``lo <= |x| < hi``, plus the
    format's result window; NaN fails every comparison."""
    lo, hi = fields
    safe = (_MIN_SAFE, _MAX_SAFE) if fmt is BINARY64 else (
        _MIN_SAFE32, _MAX_SAFE32)
    return (2.0 ** (lo + 1 - fmt.bias), 2.0 ** (hi - fmt.bias)) + safe


_HOST_WINDOW64 = _window(BINARY64, WINDOW64)
_HOST_WINDOW32 = _window(BINARY32, WINDOW32)


def _host_addsub(w, narrow, X, Y):
    """``X + Y`` (negate ``Y`` for a difference)."""
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


# ------------------------------------------------------------ one lane


def _one_lane(loop, fmt: BinaryFormat, ctx: FPContext, a: int,
              b: int | None = None) -> OpResult | None:
    """``loop`` over the one lane ``a`` (``a, b``): its result, or
    ``None`` when the loop does not certify the lane or does not apply
    (another context or format)."""
    if ctx.rmode != _RN or ctx.ftz or ctx.daz:
        return None
    if fmt is BINARY64:
        f, u, w, narrow = _F64, _U64, _HOST_WINDOW64, False
    elif fmt is BINARY32:
        f, u, w, narrow = _F32, _U32, _HOST_WINDOW32, True
    else:
        return None
    x = (f.unpack(u.pack(a))[0],)
    if b is None:
        res, fl, miss = loop(w, narrow, x)
    else:
        y = (f.unpack(u.pack(b))[0],)
        res, fl, miss = loop(w, narrow, x, y)
    if miss:
        return None
    return OpResult(u.unpack(f.pack(res[0]))[0], fl[0])


class FastSoftFPU(SoftFPU):
    """Drop-in :class:`SoftFPU` with host-FPU fast paths.

    Each fast op runs one lane through the host loop that
    :mod:`repro.fp.batchfloat` runs over whole batches: bit-identical
    results and flags, falling back to the canonical implementation
    whenever the loop cannot certify the lane.
    """

    def _addsub(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext,
                negate_b: bool) -> OpResult:
        r = _one_lane(_host_addsub, fmt, ctx, a,
                      b ^ fmt.sign_bit if negate_b else b)
        return r or super()._addsub(fmt, a, b, ctx, negate_b)

    def mul(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return (_one_lane(_host_mul, fmt, ctx, a, b)
                or super().mul(fmt, a, b, ctx))

    def div(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return (_one_lane(_host_div, fmt, ctx, a, b)
                or super().div(fmt, a, b, ctx))

    def sqrt(self, fmt: BinaryFormat, a: int,
             ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return (_one_lane(_host_sqrt, fmt, ctx, a)
                or super().sqrt(fmt, a, ctx))
