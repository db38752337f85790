"""FastSoftFPU must be indistinguishable from the canonical SoftFPU.

Every equivalence property draws its format first, binary64 or
binary32, so each one covers both host fast paths and their fallbacks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.fastpath import FastSoftFPU
from repro.fp.formats import BINARY32, BINARY64, float_to_bits32, float_to_bits64
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU

FAST = FastSoftFPU()
SLOW = SoftFPU()

FORMATS = [BINARY64, BINARY32]

contexts = st.builds(
    FPContext,
    rmode=st.sampled_from(list(RoundingMode)),
    ftz=st.booleans(),
    daz=st.booleans(),
)


def _bits32_with_exp(exp_fields):
    """binary32 patterns with the exponent field drawn from ``exp_fields``
    and a random sign and mantissa."""
    return st.builds(
        lambda s, e, m: (s << 31) | (e << 23) | m,
        st.integers(0, 1),
        st.sampled_from(exp_fields),
        st.integers(0, (1 << 23) - 1),
    )


#: Any bit pattern of the format.
ANY = {
    BINARY64: st.integers(min_value=0, max_value=(1 << 64) - 1),
    BINARY32: st.integers(min_value=0, max_value=(1 << 32) - 1),
}

#: The strata the fast paths accelerate.  binary64: mid-range values.
#: binary32: mid-range values of either sign; the operand window edges
#: (exponent field 27/28 and 226/227, with a neighbour either side);
#: operands whose products and quotients land near 2**+-100, the result
#: window edges; and short significands, whose sums, products and
#: quotients are often exact.
MIDRANGE = {
    BINARY64: st.floats(
        min_value=1e-100, max_value=1e100,
        allow_nan=False, allow_infinity=False,
    ).map(float_to_bits64),
    BINARY32: st.one_of(
        st.floats(
            min_value=-2.0**80, max_value=2.0**80, width=32,
            allow_nan=False, allow_infinity=False,
        ).map(float_to_bits32),
        _bits32_with_exp([26, 27, 28, 29, 225, 226, 227, 228]),
        _bits32_with_exp([76, 77, 78, 176, 177, 178]),
        st.builds(
            lambda m, e: float_to_bits32(m * 2.0**e),
            st.integers(-64, 64).filter(bool),
            st.integers(-40, 40),
        ),
    ),
}


def operands(strata, arity):
    """``(fmt, *bits)``: a format, then ``arity`` operands from its stratum."""
    return st.sampled_from(FORMATS).flatmap(
        lambda fmt: st.tuples(st.just(fmt), *[strata[fmt]] * arity)
    )


def _same(a, b):
    assert a.bits == b.bits
    assert a.flags == b.flags
    assert a.tiny == b.tiny


@settings(max_examples=200)
@given(operands(ANY, 2), contexts)
def test_add_equivalent(case, ctx):
    fmt, a, b = case
    _same(FAST.add(fmt, a, b, ctx), SLOW.add(fmt, a, b, ctx))


@settings(max_examples=200)
@given(operands(ANY, 2), contexts)
def test_sub_equivalent(case, ctx):
    fmt, a, b = case
    _same(FAST.sub(fmt, a, b, ctx), SLOW.sub(fmt, a, b, ctx))


@settings(max_examples=200)
@given(operands(ANY, 2), contexts)
def test_mul_equivalent(case, ctx):
    fmt, a, b = case
    _same(FAST.mul(fmt, a, b, ctx), SLOW.mul(fmt, a, b, ctx))


@settings(max_examples=200)
@given(operands(ANY, 2), contexts)
def test_div_equivalent(case, ctx):
    fmt, a, b = case
    _same(FAST.div(fmt, a, b, ctx), SLOW.div(fmt, a, b, ctx))


@settings(max_examples=200)
@given(operands(ANY, 1), contexts)
def test_sqrt_equivalent(case, ctx):
    fmt, a = case
    _same(FAST.sqrt(fmt, a, ctx), SLOW.sqrt(fmt, a, ctx))


@settings(max_examples=600)
@given(operands(MIDRANGE, 2))
def test_midrange_add_equivalent(case):
    """add and sub, including exact cancellation (a + -a and a - a)."""
    fmt, a, b = case
    _same(FAST.add(fmt, a, b), SLOW.add(fmt, a, b))
    _same(FAST.sub(fmt, a, b), SLOW.sub(fmt, a, b))
    minus_a = a ^ fmt.sign_bit
    _same(FAST.add(fmt, a, minus_a), SLOW.add(fmt, a, minus_a))
    _same(FAST.sub(fmt, a, a), SLOW.sub(fmt, a, a))


@settings(max_examples=600)
@given(operands(MIDRANGE, 2))
def test_midrange_mul_equivalent(case):
    fmt, a, b = case
    _same(FAST.mul(fmt, a, b), SLOW.mul(fmt, a, b))


@settings(max_examples=600)
@given(operands(MIDRANGE, 2))
def test_midrange_div_equivalent(case):
    """Includes exact quotients: the product divided by either factor."""
    fmt, a, b = case
    _same(FAST.div(fmt, a, b), SLOW.div(fmt, a, b))
    p = SLOW.mul(fmt, a, b).bits
    _same(FAST.div(fmt, p, b), SLOW.div(fmt, p, b))


@settings(max_examples=600)
@given(operands(MIDRANGE, 1))
def test_midrange_sqrt_equivalent(case):
    fmt, a = case
    _same(FAST.sqrt(fmt, a), SLOW.sqrt(fmt, a))
    sq = SLOW.mul(fmt, a, a).bits  # an exact root when a*a is exact
    _same(FAST.sqrt(fmt, sq), SLOW.sqrt(fmt, sq))


def test_exactness_detection_spot_checks():
    from repro.fp.flags import Flag
    from repro.fp.softfloat import OpResult

    for fmt in FORMATS:
        b = fmt.from_float
        # Exact cases: no PE.
        assert FAST.add(fmt, b(1.5), b(2.25)).flags == Flag.NONE
        assert FAST.mul(fmt, b(3.0), b(4.0)).flags == Flag.NONE
        assert FAST.div(fmt, b(6.0), b(2.0)).flags == Flag.NONE
        assert FAST.sqrt(fmt, b(9.0)).flags == Flag.NONE
        assert FAST.sub(fmt, b(1.5), b(1.5)) == OpResult(0, Flag.NONE)
        # Inexact cases: PE.
        assert Flag.PE in FAST.add(fmt, b(0.1), b(0.2)).flags
        assert Flag.PE in FAST.mul(fmt, b(0.1), b(0.1)).flags
        assert Flag.PE in FAST.div(fmt, b(1.0), b(3.0)).flags
        assert Flag.PE in FAST.sqrt(fmt, b(2.0)).flags

    # binary32 sums and products exact in binary64 but inexact once
    # narrowed (the last one a tie) must still raise PE.
    b = float_to_bits32
    one_ulp = 1.0 + 2.0**-23
    half_ulp = 1.0 + 2.0**-12
    assert Flag.PE in FAST.add(BINARY32, b(1.0), b(2.0**-30)).flags
    assert Flag.PE in FAST.mul(BINARY32, b(one_ulp), b(3.0)).flags
    assert Flag.PE in FAST.mul(BINARY32, b(half_ulp), b(half_ulp)).flags
    # Exact and inexact binary32 quotients and roots.
    assert FAST.div(BINARY32, b(3.0), b(2.0**-20)).flags == Flag.NONE
    assert Flag.PE in FAST.div(BINARY32, b(1.0), b(10.0)).flags
    assert FAST.sqrt(BINARY32, b(0.25)).flags == Flag.NONE
    # Results at the window edge still match the canonical softfloat.
    for x, y in ((2.0**50, 2.0**50), (2.0**-50, 2.0**-50), (1.5, 2.0**99)):
        _same(FAST.mul(BINARY32, b(x), b(y)), SLOW.mul(BINARY32, b(x), b(y)))
