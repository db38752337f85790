"""An exact-rational reference for the host loop's domain.

The host loop of :func:`repro.fp.batchfloat.execute_batch` certifies
lanes on host floats and sends the rest to ``SoftFPU``, so a reference
that shares no code with either is what makes the two comparable.  Each
drawn batch also runs tiled past the host loop's lane limit, where the
binary32 FMA family takes the EFT tier and every other case the integer
kernels.  This one computes with :class:`fractions.Fraction`:
the exact operation, then round-to-nearest-even into the format, with the
masked x64 condition codes and pre-rounding tininess.

Its domain is the host loop's: finite operands (zero, subnormal, normal)
under round-to-nearest with FTZ/DAZ off, for add, sub, mul, div, sqrt,
min and max in both formats and the binary32 FMA family, plus NaN
operands, so binary32 signaling NaNs (which a host float conversion would
quiet) are in it too.  The property draws lanes from strata that lean on
the loop's certificates: the operand-window edges, results near the
result-window edges 2**+-100 and 2**+-500, exact cancellation, exact
products, quotients and roots, and binary32 FMA sums that land on a
binary32 midpoint with a nonzero residue of either sign.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.batchfloat import _SCALAR_MAX_LANES, execute_batch
from repro.fp.fastpath import WINDOW32, WINDOW64
from repro.fp.flags import DE, IE, OE, PE, UE, ZE
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import InstructionForm, OpKind

_FPU = SoftFPU()
_CTX = FPContext()

#: (negate_product, negate_c) per FMA kind.
_FMA = {
    OpKind.FMADD: (False, False),
    OpKind.FMSUB: (False, True),
    OpKind.FNMADD: (True, False),
    OpKind.FNMSUB: (True, True),
}


# -------------------------------------------------------------- reference


def _pow2(e):
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


def _value(fmt, bits):
    sign, mant, exp = fmt.decompose(bits)
    v = mant * _pow2(exp)
    return -v if sign else v


def _floor_log2(a):
    """``e`` with ``2**e <= a < 2**(e+1)``, for a positive rational."""
    e = a.numerator.bit_length() - a.denominator.bit_length()
    return e - 1 if _pow2(e) > a else e


def _encode(fmt, sign, m, q, inexact, tiny):
    """Bits and flags of ``(-1)**sign * m * 2**q``, ``m`` the rounded
    integer significand at quantum ``2**q``."""
    if m == 1 << fmt.p:
        m, q = m >> 1, q + 1
    flags = PE if inexact else 0
    if tiny and inexact:
        flags |= UE
    low = m
    if m >> fmt.mant_bits:
        field = q + fmt.mant_bits + fmt.bias
        if field >= fmt.exp_mask:
            return fmt.inf(sign), OE | PE, False
        low = (field << fmt.mant_bits) | (m - (1 << fmt.mant_bits))
    return (sign << (fmt.width - 1)) | low, flags, tiny


def _quantum(fmt, e):
    return max(e, fmt.emin) - fmt.mant_bits


def _round(fmt, v):
    """Round-to-nearest-even of a nonzero rational."""
    a = abs(v)
    e = _floor_log2(a)
    q = _quantum(fmt, e)
    scaled = a / _pow2(q)
    m, rem = divmod(scaled.numerator, scaled.denominator)
    rem = Fraction(rem, scaled.denominator)
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and m & 1):
        m += 1
    return _encode(fmt, int(v < 0), m, q, rem != 0, e < fmt.emin)


def _round_sqrt(fmt, v):
    """Round-to-nearest-even of the root of a positive rational."""
    e = _floor_log2(v) // 2
    q = _quantum(fmt, e)
    w = v / _pow2(2 * q)
    n = math.isqrt(w.numerator // w.denominator)
    half = Fraction(2 * n + 1, 2) ** 2
    m = n + 1 if w > half or (w == half and n & 1) else n
    return _encode(fmt, 0, m, q, w != n * n, e < fmt.emin)


def reference(kind, fmt, ops):
    """``(bits, flags, tiny)`` of one lane under round-to-nearest."""
    de = DE if any(fmt.is_subnormal(b) for b in ops) else 0
    if any(fmt.is_nan(b) for b in ops):
        ie = IE if any(fmt.is_snan(b) for b in ops) else 0
        if kind in (OpKind.MIN, OpKind.MAX):
            return ops[1], de | ie, False
        first = next(b for b in ops if fmt.is_nan(b))
        return fmt.quiet(first), de | ie, False
    zero = [fmt.is_zero(b) for b in ops]
    signs = [fmt.sign_of(b) for b in ops]
    vals = [Fraction(0) if z else _value(fmt, b) for z, b in zip(zero, ops)]
    if kind in (OpKind.MIN, OpKind.MAX):
        x, y = vals
        take_a = x < y if kind is OpKind.MIN else x > y
        return (ops[0] if take_a else ops[1]), de, False
    if kind is OpKind.SQRT:
        if zero[0]:
            return ops[0], de, False
        if signs[0]:
            return fmt.indefinite, de | IE, False
        bits, flags, tiny = _round_sqrt(fmt, vals[0])
        return bits, de | flags, tiny
    if kind is OpKind.DIV:
        sign = signs[0] ^ signs[1]
        if zero[1]:
            if zero[0]:
                return fmt.indefinite, de | IE, False
            return fmt.inf(sign), de | ZE, False
        if zero[0]:
            return fmt.zero(sign), de, False
        bits, flags, tiny = _round(fmt, vals[0] / vals[1])
        return bits, de | flags, tiny
    if kind is OpKind.MUL:
        if zero[0] or zero[1]:
            return fmt.zero(signs[0] ^ signs[1]), de, False
        bits, flags, tiny = _round(fmt, vals[0] * vals[1])
        return bits, de | flags, tiny
    # Sums: a + b, a - b, and +-(a*b) +- c.
    if kind in (OpKind.ADD, OpKind.SUB):
        neg = kind is OpKind.SUB
        x, y = vals[0], -vals[1] if neg else vals[1]
        sx, sy = signs[0], signs[1] ^ neg
        both_zero = zero[0] and zero[1]
    else:
        neg_p, neg_c = _FMA[kind]
        x = -vals[0] * vals[1] if neg_p else vals[0] * vals[1]
        y = -vals[2] if neg_c else vals[2]
        sx, sy = signs[0] ^ signs[1] ^ neg_p, signs[2] ^ neg_c
        both_zero = (zero[0] or zero[1]) and zero[2]
    if both_zero:
        return fmt.zero(sx if sx == sy else 0), de, False
    if x + y == 0:
        return fmt.zero(0), de, False
    bits, flags, tiny = _round(fmt, x + y)
    return bits, de | flags, tiny


# ------------------------------------------------------------ strategies


def _pattern(fmt, sign, field, mant):
    return ((sign << (fmt.width - 1)) | (field << fmt.mant_bits)
            | (mant & fmt.mant_mask))


def _fields(fmt):
    """Exponent fields at the operand-window edges (and one beyond), and
    at unbiased exponents whose sums, products and quotients land near
    the result-window edges 2**+-100 (binary32) or 2**+-500 (binary64)."""
    window = WINDOW64 if fmt is BINARY64 else WINDOW32
    edges = {e + d for e in window for d in (-1, 0, 1)}
    reach = (0, 1, 50, 99, 100, 101) if fmt is BINARY32 else (
        0, 1, 250, 499, 500, 501)
    near = {fmt.bias + s * r + d for r in reach for s in (-1, 1)
            for d in (-1, 0)}
    return sorted(f for f in edges | near if 0 < f < fmt.exp_mask)


def _operand(fmt):
    finite = st.one_of(
        st.builds(lambda s, f, m: _pattern(fmt, s, f, m),
                  st.integers(0, 1), st.sampled_from(_fields(fmt)),
                  st.one_of(st.just(0), st.just(fmt.mant_mask),
                            st.integers(0, fmt.mant_mask))),
        # zeros and subnormals
        st.builds(lambda s, m: _pattern(fmt, s, 0, m),
                  st.integers(0, 1),
                  st.one_of(st.just(0), st.just(1),
                            st.integers(0, fmt.mant_mask))),
        # any finite pattern
        st.builds(lambda s, f, m: _pattern(fmt, s, f, m),
                  st.integers(0, 1), st.integers(0, fmt.exp_mask - 1),
                  st.integers(0, fmt.mant_mask)),
    )
    if fmt is BINARY64:
        return finite
    snan = st.builds(lambda s, m: _pattern(fmt, s, fmt.exp_mask, m),
                     st.integers(0, 1),
                     st.integers(1, fmt.quiet_bit - 1))
    return st.one_of(finite, finite, snan)


#: Short significands (at most 11 bits, so products of two fit binary32)
#: scaled by a power of two.
_SHORT = st.builds(lambda m, e: m * 2.0**e,
                   st.integers(-2047, 2047).filter(bool),
                   st.integers(-30, 30))


def _exact_lane(fmt, kind, arity):
    """Lanes whose exact result is representable (or exactly zero)."""
    s = _SHORT
    b = fmt.from_float
    if kind is OpKind.SQRT:
        return st.builds(lambda v: (b(v * v),), s)
    if kind is OpKind.DIV:
        return st.builds(lambda q, y: (b(q * y), b(y)), s, s)
    if kind in (OpKind.ADD, OpKind.SUB):
        # x and +-x: one of add/sub cancels exactly, the other doubles.
        return st.one_of(
            st.builds(lambda x, y: (b(x), b(y)), s, s),
            st.builds(lambda x, neg: (b(x), b(-x if neg else x)),
                      s, st.booleans()),
        )
    if arity == 3:
        # c = +-(a*b): one of the four FMA kinds cancels exactly.  Else
        # the sum is exact in binary64, and often too long for binary32.
        return st.one_of(
            st.builds(lambda x, y, neg: (b(x), b(y),
                                         b(-x * y if neg else x * y)),
                      s, s, st.booleans()),
            st.builds(lambda x, y, z: (b(x), b(y), b(z)), s, s, s),
        )
    return st.builds(lambda x, y: (b(x), b(y)), s, s)


#: (2**23 + x)(2**23 - y) = 2**46 + T, a small T of either sign.
_NEAR_ONE = [((1 << 23) + x, (1 << 23) - y)
             for x, y in ((1, 1), (17, 17), (361, 361), (2896, 2895))]


def _midpoint_lane():
    """binary32 FMA lanes ``a*b = 2**(k-24) + T*2**(k-70)``, ``c`` a
    binary32 value in [2**k, 2**(k+1)): ``c +- a*b`` is a binary32
    midpoint plus a residue below half a binary64 ulp."""
    def lane(pair, k, j, sc):
        m1, m2 = pair
        a = m1 * 2.0**-23
        b = m2 * 2.0**(k - 47)
        c = (1 + j * 2.0**-23) * 2.0**k * sc
        return tuple(BINARY32.from_float(v) for v in (a, b, c))
    return st.builds(lane, st.sampled_from(_NEAR_ONE),
                     st.integers(-60, 60), st.integers(1, (1 << 23) - 2),
                     st.sampled_from((-1.0, 1.0)))


_CASES = [(k, f) for k in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                          OpKind.SQRT, OpKind.MIN, OpKind.MAX)
          for f in (BINARY32, BINARY64)] + [(k, BINARY32) for k in _FMA]


def _lanes(kind, fmt):
    arity = 1 if kind is OpKind.SQRT else 3 if kind in _FMA else 2
    op = _operand(fmt)
    strata = [st.tuples(*[op] * arity), _exact_lane(fmt, kind, arity)]
    if kind in _FMA:
        strata.append(_midpoint_lane())
    return st.one_of(*strata)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_CASES), data=st.data())
def test_reference_equals_softfpu_equals_execute_batch(case, data):
    kind, fmt = case
    lanes = data.draw(st.lists(_lanes(kind, fmt), min_size=1, max_size=32))
    f = InstructionForm(f"{kind.value}{fmt.width}", kind, fmt)
    ops = tuple(np.array(col, dtype=np.uint64) for col in zip(*lanes))
    res = execute_batch(f, ops, _CTX)
    reps = _SCALAR_MAX_LANES // len(lanes) + 1
    wide = execute_batch(f, tuple(np.tile(o, reps) for o in ops), _CTX)
    for i, lane in enumerate(lanes):
        want = reference(kind, fmt, lane)
        if kind is OpKind.SQRT:
            r = _FPU.sqrt(fmt, lane[0], _CTX)
        elif kind in _FMA:
            neg_p, neg_c = _FMA[kind]
            r = _FPU.fma(fmt, *lane, _CTX, negate_product=neg_p,
                         negate_c=neg_c)
        else:
            r = getattr(_FPU, kind.name.lower())(fmt, *lane, _CTX)
        assert (r.bits, r.flags, r.tiny) == want, (kind, fmt.name, lane)
        got = (int(res.bits[i]), int(res.flags[i]), bool(res.tiny[i]))
        assert got == want, (kind, fmt.name, lane)
        for j in range(i, len(wide.bits), len(lanes)):
            got = (int(wide.bits[j]), int(wide.flags[j]), bool(wide.tiny[j]))
            assert got == want, (kind, fmt.name, lane, "tiled")
