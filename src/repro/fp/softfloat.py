"""Correctly-rounded software floating point with exact x64 flag reporting.

Every operation works on raw bit patterns and integer mantissas, never on
host floats, so results and flags are bit-exact and independent of the host
FPU.  This is the "hardware" of the simulated machine: the flags returned
here are what gets OR-ed into the simulated ``%mxcsr`` and what triggers
SIGFPE delivery when unmasked (paper section 3.2).

Semantics follow the Intel SDM for SSE scalar/packed operations:

* NaN propagation: if the first source is a NaN it is returned quieted;
  else if the second source is a NaN it is returned quieted; invalid
  operations with no NaN input produce the x64 "indefinite" QNaN.
* IE (Invalid) is raised for any SNaN operand and for the classic
  meaningless operations (inf-inf, 0*inf, 0/0, inf/inf, sqrt of a negative).
* DE (Denormal) is raised when a finite subnormal operand is consumed
  (suppressed by DAZ, which also zeroes the operand).
* min/max follow the x64 rule: if either operand is a NaN (or both are
  zeros of either sign) the *second* operand is returned; IE only on SNaN.
* ucomis (unordered compare) raises IE only on SNaN; comis on any NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fp.flags import DE, IE, PE, ZE
from repro.fp.formats import BINARY32, BINARY64, BinaryFormat
from repro.fp.rounding import RoundingMode, round_pack


@dataclass(frozen=True)
class FPContext:
    """Dynamic FP environment an operation executes under.

    Derived from the simulated MXCSR by the machine layer.  ``ftz``/``daz``
    are the flush-to-zero / denormals-are-zero control bits.
    """

    rmode: RoundingMode = RoundingMode.NEAREST
    ftz: bool = False
    daz: bool = False


#: The default, all-masked round-to-nearest context.
DEFAULT_CONTEXT = FPContext()


@dataclass(frozen=True)
class OpResult:
    """Result of one scalar operation.

    Attributes
    ----------
    bits:
        Result bit pattern under masked-exception semantics.
    flags:
        Exact condition codes the operation raises, as an int of
        :mod:`repro.fp.flags` bits (masked semantics; see ``tiny``).
    tiny:
        Tininess indicator, detected after rounding as x64 does (see
        :mod:`repro.fp.rounding`).  With the Underflow exception
        *unmasked*, x64 traps on tininess even when the result is exact;
        the machine layer consults this.
    """

    bits: int
    flags: int
    tiny: bool = False


# Classification tags used internally.
_ZERO, _FINITE, _INF, _NAN = range(4)


def _classify(fmt: BinaryFormat, bits: int, daz: bool) -> tuple[int, int, int]:
    """Classify an operand, applying DAZ.

    Returns ``(cls, effective_bits, flags)`` where ``flags`` carries DE when
    a denormal operand is consumed (and DAZ is off).
    """
    if fmt.is_nan(bits):
        return _NAN, bits, 0
    if fmt.is_inf(bits):
        return _INF, bits, 0
    if fmt.is_zero(bits):
        return _ZERO, bits, 0
    if fmt.is_subnormal(bits):
        if daz:
            return _ZERO, fmt.zero(fmt.sign_of(bits)), 0
        return _FINITE, bits, DE
    return _FINITE, bits, 0


def _nan_result(fmt: BinaryFormat, *operands: int) -> tuple[int, int]:
    """x64 NaN propagation: first NaN source, quieted; IE if any SNaN."""
    flags = 0
    result = None
    for bits in operands:
        if fmt.is_nan(bits):
            if fmt.is_snan(bits):
                flags |= IE
            if result is None:
                result = fmt.quiet(bits)
    assert result is not None
    return result, flags


class SoftFPU:
    """Stateless collection of correctly-rounded operations on bit patterns.

    All binary/unary arithmetic methods share the signature
    ``op(fmt, a_bits, b_bits, ctx) -> OpResult``.
    """

    # ------------------------------------------------------------------ add

    def add(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return self._addsub(fmt, a, b, ctx, negate_b=False)

    def sub(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return self._addsub(fmt, a, b, ctx, negate_b=True)

    def _addsub(
        self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext, negate_b: bool
    ) -> OpResult:
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        flags = fa | fb
        if ca == _NAN or cb == _NAN:
            bits, nf = _nan_result(fmt, a, b)
            return OpResult(bits, flags | nf)

        sa = fmt.sign_of(ea)
        sb = fmt.sign_of(eb) ^ (1 if negate_b else 0)

        if ca == _INF and cb == _INF:
            if sa != sb:
                return OpResult(fmt.indefinite, flags | IE)
            return OpResult(fmt.inf(sa), flags)
        if ca == _INF:
            return OpResult(fmt.inf(sa), flags)
        if cb == _INF:
            return OpResult(fmt.inf(sb), flags)

        if ca == _ZERO and cb == _ZERO:
            if sa == sb:
                return OpResult(fmt.zero(sa), flags)
            # +0 + -0 = +0 except round-down gives -0.
            sign = 1 if ctx.rmode == RoundingMode.DOWN else 0
            return OpResult(fmt.zero(sign), flags)
        if ca == _ZERO:
            rb = round_pack(fmt, ctx.rmode, sb, *_mant_exp(fmt, eb), ftz=ctx.ftz)
            return OpResult(rb.bits, flags | rb.flags, rb.tiny)
        if cb == _ZERO:
            ra = round_pack(fmt, ctx.rmode, sa, *_mant_exp(fmt, ea), ftz=ctx.ftz)
            return OpResult(ra.bits, flags | ra.flags, ra.tiny)

        ma, xa = _mant_exp(fmt, ea)
        mb, xb = _mant_exp(fmt, eb)
        # Exact integer alignment; arbitrary precision keeps this lossless.
        if xa > xb:
            ma <<= xa - xb
            exp = xb
        else:
            mb <<= xb - xa
            exp = xa
        va = -ma if sa else ma
        vb = -mb if sb else mb
        total = va + vb
        if total == 0:
            sign = 1 if ctx.rmode == RoundingMode.DOWN else 0
            return OpResult(fmt.zero(sign), flags)
        sign = 1 if total < 0 else 0
        r = round_pack(fmt, ctx.rmode, sign, abs(total), exp, ftz=ctx.ftz)
        return OpResult(r.bits, flags | r.flags, r.tiny)

    # ------------------------------------------------------------------ mul

    def mul(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        flags = fa | fb
        if ca == _NAN or cb == _NAN:
            bits, nf = _nan_result(fmt, a, b)
            return OpResult(bits, flags | nf)
        sign = fmt.sign_of(ea) ^ fmt.sign_of(eb)
        if (ca == _ZERO and cb == _INF) or (ca == _INF and cb == _ZERO):
            return OpResult(fmt.indefinite, flags | IE)
        if ca == _INF or cb == _INF:
            return OpResult(fmt.inf(sign), flags)
        if ca == _ZERO or cb == _ZERO:
            return OpResult(fmt.zero(sign), flags)
        ma, xa = _mant_exp(fmt, ea)
        mb, xb = _mant_exp(fmt, eb)
        r = round_pack(fmt, ctx.rmode, sign, ma * mb, xa + xb, ftz=ctx.ftz)
        return OpResult(r.bits, flags | r.flags, r.tiny)

    # ------------------------------------------------------------------ div

    def div(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        flags = fa | fb
        if ca == _NAN or cb == _NAN:
            bits, nf = _nan_result(fmt, a, b)
            return OpResult(bits, flags | nf)
        sign = fmt.sign_of(ea) ^ fmt.sign_of(eb)
        if ca == _INF and cb == _INF:
            return OpResult(fmt.indefinite, flags | IE)
        if ca == _ZERO and cb == _ZERO:
            return OpResult(fmt.indefinite, flags | IE)
        if ca == _INF:
            return OpResult(fmt.inf(sign), flags)
        if cb == _INF:
            return OpResult(fmt.zero(sign), flags)
        if cb == _ZERO:
            # finite nonzero / zero: DivideByZero, result is infinity.
            return OpResult(fmt.inf(sign), flags | ZE)
        if ca == _ZERO:
            return OpResult(fmt.zero(sign), flags)
        ma, xa = _mant_exp(fmt, ea)
        mb, xb = _mant_exp(fmt, eb)
        # Produce a quotient with at least p+3 significant bits plus sticky.
        shift = fmt.p + 3 + max(0, mb.bit_length() - ma.bit_length())
        q, rem = divmod(ma << shift, mb)
        r = round_pack(
            fmt, ctx.rmode, sign, q, xa - xb - shift, sticky=rem != 0, ftz=ctx.ftz
        )
        return OpResult(r.bits, flags | r.flags, r.tiny)

    # ----------------------------------------------------------------- sqrt

    def sqrt(self, fmt: BinaryFormat, a: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        flags = fa
        if ca == _NAN:
            bits, nf = _nan_result(fmt, a)
            return OpResult(bits, flags | nf)
        sign = fmt.sign_of(ea)
        if ca == _ZERO:
            return OpResult(fmt.zero(sign), flags)  # sqrt(+-0) = +-0, exact
        if sign:
            return OpResult(fmt.indefinite, flags | IE)
        if ca == _INF:
            return OpResult(fmt.pos_inf, flags)
        m, x = _mant_exp(fmt, ea)
        # Normalize so the exponent is even and the mantissa is wide enough
        # that isqrt yields >= p+2 result bits.
        extra = 2 * (fmt.p + 2)
        shift = extra + (x & 1)
        m <<= shift
        x -= shift
        root = _isqrt(m)
        sticky = root * root != m
        r = round_pack(fmt, ctx.rmode, 0, root, x // 2, sticky=sticky, ftz=ctx.ftz)
        return OpResult(r.bits, flags | r.flags, r.tiny)

    # ------------------------------------------------------------------ fma

    def fma(
        self,
        fmt: BinaryFormat,
        a: int,
        b: int,
        c: int,
        ctx: FPContext = DEFAULT_CONTEXT,
        negate_product: bool = False,
        negate_c: bool = False,
    ) -> OpResult:
        """Fused multiply-add: ``(+-)(a*b) (+-) c`` with a single rounding.

        Covers the vfmadd/vfmsub/vfnmadd/vfnmsub families via the two
        negation controls.
        """
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        cc, ec, fc = _classify(fmt, c, ctx.daz)
        flags = fa | fb | fc
        if ca == _NAN or cb == _NAN or cc == _NAN:
            # Invalid also fires if the product itself is 0*inf.
            extra = 0
            if (ca == _ZERO and cb == _INF) or (ca == _INF and cb == _ZERO):
                extra = IE
            bits, nf = _nan_result(fmt, a, b, c)
            return OpResult(bits, flags | nf | extra)
        psign = fmt.sign_of(ea) ^ fmt.sign_of(eb) ^ (1 if negate_product else 0)
        csign = fmt.sign_of(ec) ^ (1 if negate_c else 0)
        if (ca == _ZERO and cb == _INF) or (ca == _INF and cb == _ZERO):
            return OpResult(fmt.indefinite, flags | IE)
        if ca == _INF or cb == _INF:
            if cc == _INF and csign != psign:
                return OpResult(fmt.indefinite, flags | IE)
            return OpResult(fmt.inf(psign), flags)
        if cc == _INF:
            return OpResult(fmt.inf(csign), flags)
        # Exact product.
        if ca == _ZERO or cb == _ZERO:
            pm, px = 0, 0
        else:
            ma, xa = _mant_exp(fmt, ea)
            mb, xb = _mant_exp(fmt, eb)
            pm, px = ma * mb, xa + xb
        if cc == _ZERO:
            cm, cx = 0, 0
        else:
            cm, cx = _mant_exp(fmt, ec)
        if pm == 0 and cm == 0:
            if psign == csign:
                return OpResult(fmt.zero(psign), flags)
            sign = 1 if ctx.rmode == RoundingMode.DOWN else 0
            return OpResult(fmt.zero(sign), flags)
        if pm == 0:
            r = round_pack(fmt, ctx.rmode, csign, cm, cx, ftz=ctx.ftz)
            return OpResult(r.bits, flags | r.flags, r.tiny)
        if cm == 0:
            r = round_pack(fmt, ctx.rmode, psign, pm, px, ftz=ctx.ftz)
            return OpResult(r.bits, flags | r.flags, r.tiny)
        if px > cx:
            pm <<= px - cx
            exp = cx
        else:
            cm <<= cx - px
            exp = px
        total = (-pm if psign else pm) + (-cm if csign else cm)
        if total == 0:
            sign = 1 if ctx.rmode == RoundingMode.DOWN else 0
            return OpResult(fmt.zero(sign), flags)
        sign = 1 if total < 0 else 0
        r = round_pack(fmt, ctx.rmode, sign, abs(total), exp, ftz=ctx.ftz)
        return OpResult(r.bits, flags | r.flags, r.tiny)

    # -------------------------------------------------------------- min/max

    def min(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return self._minmax(fmt, a, b, ctx, want_min=True)

    def max(self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext = DEFAULT_CONTEXT) -> OpResult:
        return self._minmax(fmt, a, b, ctx, want_min=False)

    def _minmax(
        self, fmt: BinaryFormat, a: int, b: int, ctx: FPContext, want_min: bool
    ) -> OpResult:
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        flags = fa | fb
        if ca == _NAN or cb == _NAN:
            # x64 minsd/maxsd: result is the *second* operand, unmodified.
            if fmt.is_snan(a) or fmt.is_snan(b):
                flags |= IE
            return OpResult(b, flags)
        cmp = _compare_ordered(fmt, ea, eb)
        if cmp == 0:
            # Equal values (including +0 vs -0): x64 returns second operand.
            return OpResult(b, flags)
        take_a = (cmp < 0) == want_min
        return OpResult(a if take_a else b, flags)

    # -------------------------------------------------------------- compare

    def compare(
        self,
        fmt: BinaryFormat,
        a: int,
        b: int,
        ctx: FPContext = DEFAULT_CONTEXT,
        signal_qnan: bool = False,
    ) -> tuple[int, int]:
        """ucomis/comis-style compare.

        Returns ``(relation, flags)`` where relation is -1 (a<b), 0 (equal),
        1 (a>b), or 2 (unordered).  ``signal_qnan`` selects comis semantics
        (IE on any NaN) vs ucomis (IE on SNaN only).
        """
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        cb, eb, fb = _classify(fmt, b, ctx.daz)
        flags = fa | fb
        if ca == _NAN or cb == _NAN:
            if signal_qnan or fmt.is_snan(a) or fmt.is_snan(b):
                flags |= IE
            return 2, flags
        return _compare_ordered(fmt, ea, eb), flags

    # ---------------------------------------------------------- conversions

    def convert(
        self,
        src_fmt: BinaryFormat,
        dst_fmt: BinaryFormat,
        a: int,
        ctx: FPContext = DEFAULT_CONTEXT,
    ) -> OpResult:
        """Format conversion (cvtsd2ss / cvtss2sd)."""
        ca, ea, fa = _classify(src_fmt, a, ctx.daz)
        flags = fa
        sign = src_fmt.sign_of(a)
        if ca == _NAN:
            # Re-home the NaN payload into the destination format.
            if src_fmt.is_snan(a):
                flags |= IE
            payload_bits = src_fmt.mant_field(a)
            if dst_fmt.mant_bits >= src_fmt.mant_bits:
                payload = payload_bits << (dst_fmt.mant_bits - src_fmt.mant_bits)
            else:
                payload = payload_bits >> (src_fmt.mant_bits - dst_fmt.mant_bits)
            payload |= dst_fmt.quiet_bit
            bits = (
                (dst_fmt.sign_bit if sign else 0)
                | (dst_fmt.exp_mask << dst_fmt.mant_bits)
                | payload
            )
            return OpResult(bits, flags)
        if ca == _INF:
            return OpResult(dst_fmt.inf(sign), flags)
        if ca == _ZERO:
            return OpResult(dst_fmt.zero(sign), flags)
        m, x = _mant_exp(src_fmt, ea)
        r = round_pack(dst_fmt, ctx.rmode, sign, m, x, ftz=ctx.ftz)
        return OpResult(r.bits, flags | r.flags, r.tiny)

    def from_int(
        self,
        fmt: BinaryFormat,
        value: int,
        ctx: FPContext = DEFAULT_CONTEXT,
    ) -> OpResult:
        """Signed integer to float (cvtsi2sd / cvtsi2ss).  PE if inexact."""
        if value == 0:
            return OpResult(fmt.pos_zero, 0)
        sign = 1 if value < 0 else 0
        r = round_pack(fmt, ctx.rmode, sign, abs(value), 0)
        return OpResult(r.bits, r.flags, r.tiny)

    def to_int(
        self,
        fmt: BinaryFormat,
        a: int,
        ctx: FPContext = DEFAULT_CONTEXT,
        width: int = 32,
        truncate: bool = False,
    ) -> tuple[int, int]:
        """Float to signed integer (cvtps2dq / cvttss2si / cvtsd2si...).

        Returns ``(int_value, flags)``.  NaN, infinity, and out-of-range
        inputs raise IE and produce the "integer indefinite" (INT_MIN).
        """
        indefinite = -(1 << (width - 1))
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        flags = fa
        if ca == _NAN or ca == _INF:
            return indefinite, flags | IE
        if ca == _ZERO:
            return 0, flags
        sign = fmt.sign_of(ea)
        m, x = _mant_exp(fmt, ea)
        rmode = RoundingMode.ZERO if truncate else ctx.rmode
        from repro.fp.rounding import round_significand

        kept, inexact = round_significand(m, -x, sign, rmode, False)
        value = -kept if sign else kept
        lo, hi = indefinite, (1 << (width - 1)) - 1
        if value < lo or value > hi:
            return indefinite, flags | IE
        if inexact:
            flags |= PE
        return value, flags

    def round_to_integral(
        self,
        fmt: BinaryFormat,
        a: int,
        ctx: FPContext = DEFAULT_CONTEXT,
        rmode: RoundingMode | None = None,
        suppress_inexact: bool = False,
    ) -> OpResult:
        """roundps/roundsd-style round to nearest integral value."""
        ca, ea, fa = _classify(fmt, a, ctx.daz)
        flags = fa
        if ca == _NAN:
            bits, nf = _nan_result(fmt, a)
            return OpResult(bits, flags | nf)
        if ca in (_INF, _ZERO):
            return OpResult(a, flags)
        sign = fmt.sign_of(ea)
        m, x = _mant_exp(fmt, ea)
        use_mode = ctx.rmode if rmode is None else rmode
        from repro.fp.rounding import round_significand

        kept, inexact = round_significand(m, -x, sign, use_mode, False)
        if kept == 0:
            bits = fmt.zero(sign)
        else:
            r = round_pack(fmt, use_mode, sign, kept, 0)
            bits = r.bits
            # An integral value always fits exactly unless it overflows,
            # which cannot happen here (|a| < 2**emax already integral-safe
            # for any format where p <= emax; true for binary32/64).
        if inexact and not suppress_inexact:
            flags |= PE
        return OpResult(bits, flags)


def _mant_exp(fmt: BinaryFormat, bits: int) -> tuple[int, int]:
    """(mant, exp) of a finite nonzero value: value = +-mant * 2**exp."""
    _sign, mant, exp = fmt.decompose(bits)
    return mant, exp


def _compare_ordered(fmt: BinaryFormat, a: int, b: int) -> int:
    """Totally compare two non-NaN bit patterns by numeric value."""
    az, bz = fmt.is_zero(a), fmt.is_zero(b)
    if az and bz:
        return 0
    sa = fmt.sign_of(a)
    sb = fmt.sign_of(b)
    if az:
        return 1 if sb else -1
    if bz:
        return -1 if sa else 1
    if sa != sb:
        return -1 if sa else 1
    # Same sign, nonzero: magnitude order == bit-pattern order.
    mag = (a & ~fmt.sign_bit) - (b & ~fmt.sign_bit)
    if mag == 0:
        return 0
    result = 1 if mag > 0 else -1
    return -result if sa else result


def _isqrt(n: int) -> int:
    import math

    return math.isqrt(n)
