"""Fast-path arithmetic: host-FPU results with exact flag detection.

DESIGN.md decision #1's ablation: the canonical integer-mantissa
softfloat is bit-exact but costs microseconds per operation.  For the
overwhelmingly common case -- normal operands, round-to-nearest, normal
result -- the *host* FPU already computes the correctly rounded result
(Python floats are IEEE binary64 with round-to-nearest-even), and the
only question is the flag set.  This module answers it exactly.

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
residual.  FMA has no binary32 fast path.

Any case the fast path cannot certify -- non-default rounding mode,
FTZ/DAZ, special or subnormal operands, results at the overflow or
tininess boundary -- falls back to the canonical softfloat.  The
equivalence ``FastSoftFPU == SoftFPU`` on *all* inputs of both formats
is property-tested (``tests/property/test_fastpath_props.py``) and the
speedup is measured in ``benchmarks/test_ablation_fastpath.py``.
"""

from __future__ import annotations

import math
import struct

from repro.fp.flags import PE
from repro.fp.formats import BINARY32, BINARY64, BinaryFormat
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import DEFAULT_CONTEXT, FPContext, OpResult, SoftFPU

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

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")


def _is_fast_operand(bits: int) -> bool:
    """Normal, finite, comfortably mid-range binary64 value?"""
    exp_field = (bits >> 52) & 0x7FF
    # Exponent field in (523, 1523): magnitude within 2**+-500 and normal.
    return 523 < exp_field < 1523


def _is_fast_operand32(bits: int) -> bool:
    """Normal binary32 value with magnitude in [2**-99, 2**100)?"""
    return 27 < ((bits >> 23) & 0xFF) < 227


def _fast_ok(ctx: FPContext) -> bool:
    return ctx.rmode == RoundingMode.NEAREST and not ctx.ftz and not ctx.daz


def _f64(bits: int) -> float:
    return _F64.unpack(_U64.pack(bits & 0xFFFFFFFFFFFFFFFF))[0]


def _f32(bits: int) -> float:
    """The binary32 pattern's value as a (exactly equal) Python float."""
    return _F32.unpack(_U32.pack(bits & 0xFFFFFFFF))[0]


def _bits64(x: float) -> int:
    return _U64.unpack(_F64.pack(x))[0]


def _two_prod_err(x: float, y: float, p: float) -> float:
    """Dekker's ``x * y - p`` for ``p = fl(x * y)``, exact inside the
    binary64 windows (no overflow, no underflow of the partial terms)."""
    cx = _SPLIT * x
    hx = cx - (cx - x)
    lx = x - hx
    cy = _SPLIT * y
    hy = cy - (cy - y)
    ly = y - hy
    return ((hx * hy - p) + hx * ly + lx * hy) + lx * ly


def _two_sum(x: float, y: float) -> tuple[float, float]:
    """Knuth's two-sum: ``s + err == x + y`` exactly, ``s = fl(x + y)``."""
    s = x + y
    bv = s - x
    return s, (x - (s - bv)) + (y - bv)


def _narrow32(v: float) -> tuple[int, float]:
    """Round a binary64 value inside the binary32 window to binary32:
    the result's bit pattern and its value."""
    packed = _F32.pack(v)
    return _U32.unpack(packed)[0], _F32.unpack(packed)[0]


class FastSoftFPU(SoftFPU):
    """Drop-in :class:`SoftFPU` with host-FPU fast paths.

    Bit-identical results and flags; falls back to the canonical
    implementation whenever the fast path cannot certify exactness
    information.
    """

    # ------------------------------------------------------------- add/sub

    def _addsub(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext,
                negate_b: bool) -> OpResult:
        if _fast_ok(ctx):
            # Nonzero operands sum to zero only by exact cancellation,
            # which gives +0 under RN, matching softfloat.
            if fmt is BINARY64 and _is_fast_operand(a) and _is_fast_operand(b):
                y = _f64(b)
                s, err = _two_sum(_f64(a), -y if negate_b else y)
                if s == 0.0:
                    return OpResult(0, 0)
                if _MIN_SAFE < abs(s) < _MAX_SAFE:
                    return OpResult(
                        _bits64(s), PE if err != 0.0 else 0)
            elif (fmt is BINARY32 and _is_fast_operand32(a)
                  and _is_fast_operand32(b)):
                y = _f32(b)
                s, err = _two_sum(_f32(a), -y if negate_b else y)
                if s == 0.0:
                    return OpResult(0, 0)
                if _MIN_SAFE32 < abs(s) < _MAX_SAFE32:
                    bits, r = _narrow32(s)
                    exact = err == 0.0 and r == s
                    return OpResult(bits, 0 if exact else PE)
        return super()._addsub(fmt, a, b, ctx, negate_b)

    # ----------------------------------------------------------------- mul

    def mul(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        if _fast_ok(ctx):
            if fmt is BINARY64 and _is_fast_operand(a) and _is_fast_operand(b):
                x = _f64(a)
                y = _f64(b)
                p = x * y
                if _MIN_SAFE < abs(p) < _MAX_SAFE:
                    # Dekker two-product: p + err == x*y exactly.
                    err = _two_prod_err(x, y, p)
                    return OpResult(
                        _bits64(p), PE if err != 0.0 else 0)
            elif (fmt is BINARY32 and _is_fast_operand32(a)
                  and _is_fast_operand32(b)):
                p = _f32(a) * _f32(b)  # exact: 24 x 24 significant bits
                if _MIN_SAFE32 < abs(p) < _MAX_SAFE32:
                    bits, r = _narrow32(p)
                    return OpResult(bits, 0 if r == p else PE)
        return super().mul(fmt, a, b, ctx)

    # ----------------------------------------------------------------- div

    def div(self, fmt: BinaryFormat, a: int, b: int,
            ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        if _fast_ok(ctx):
            if fmt is BINARY64 and _is_fast_operand(a) and _is_fast_operand(b):
                x = _f64(a)
                y = _f64(b)
                q = x / y
                if _MIN_SAFE < abs(q) < _MAX_SAFE:
                    # Exact iff q*y == x as reals: the rounded product is
                    # x and the two-product error is zero.
                    p = q * y
                    exact = p == x and _two_prod_err(q, y, p) == 0.0
                    return OpResult(
                        _bits64(q), 0 if exact else PE)
            elif (fmt is BINARY32 and _is_fast_operand32(a)
                  and _is_fast_operand32(b)):
                x = _f32(a)
                y = _f32(b)
                q = x / y
                if _MIN_SAFE32 < abs(q) < _MAX_SAFE32:
                    bits, r = _narrow32(q)
                    # r * y is exact in binary64 (48 significant bits).
                    return OpResult(bits, 0 if r * y == x else PE)
        return super().div(fmt, a, b, ctx)

    # ---------------------------------------------------------------- sqrt

    def sqrt(self, fmt: BinaryFormat, a: int,
             ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        if _fast_ok(ctx):
            if fmt is BINARY64 and _is_fast_operand(a):
                x = _f64(a)
                if x > 0.0:
                    r = math.sqrt(x)
                    p = r * r
                    exact = p == x and _two_prod_err(r, r, p) == 0.0
                    return OpResult(
                        _bits64(r), 0 if exact else PE)
            elif fmt is BINARY32 and _is_fast_operand32(a):
                x = _f32(a)
                if x > 0.0:
                    # The root of an in-window operand is in-window too.
                    bits, r = _narrow32(math.sqrt(x))
                    return OpResult(bits, 0 if r * r == x else PE)
        return super().sqrt(fmt, a, ctx)
