"""Property-based tests: softfloat must agree bit-for-bit with the host FPU.

Python floats are IEEE binary64 with round-to-nearest-even, so host
arithmetic is an oracle for results (not flags) in the default context.
NumPy float32 provides the binary32 oracle.
"""

import math
import struct

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fp.flags import Flag
from repro.fp.formats import (
    BINARY32,
    BINARY64,
    bits32_to_float,
    bits64_to_float,
    float_to_bits32,
    float_to_bits64,
)
from repro.fp.softfloat import SoftFPU

FPU = SoftFPU()

# Any 64-bit pattern: normals, denormals, zeros, infs, NaNs.
bits64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
# Finite doubles only.
finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
# float32 values as Python floats.
finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


def _same64(bits: int, value: float) -> bool:
    """Compare result bits against a host float, treating all NaNs alike."""
    if BINARY64.is_nan(bits):
        return math.isnan(value)
    return bits == float_to_bits64(value)


@given(finite64, finite64)
def test_add_matches_host(a, b):
    r = FPU.add(BINARY64, float_to_bits64(a), float_to_bits64(b))
    assert _same64(r.bits, a + b)


@given(finite64, finite64)
def test_sub_matches_host(a, b):
    r = FPU.sub(BINARY64, float_to_bits64(a), float_to_bits64(b))
    assert _same64(r.bits, a - b)


@given(finite64, finite64)
def test_mul_matches_host(a, b):
    r = FPU.mul(BINARY64, float_to_bits64(a), float_to_bits64(b))
    assert _same64(r.bits, a * b)


@given(finite64, finite64)
def test_div_matches_host(a, b):
    assume(b != 0.0)
    r = FPU.div(BINARY64, float_to_bits64(a), float_to_bits64(b))
    assert _same64(r.bits, a / b)


@given(finite64)
def test_sqrt_matches_host(a):
    assume(a >= 0.0)
    r = FPU.sqrt(BINARY64, float_to_bits64(a))
    assert _same64(r.bits, math.sqrt(a))


@given(finite64, finite64, finite64)
def test_fma_matches_host(a, b, c):
    r = FPU.fma(BINARY64, float_to_bits64(a), float_to_bits64(b), float_to_bits64(c))
    expected = math.fma(a, b, c) if hasattr(math, "fma") else None
    if expected is None:  # pragma: no cover - py<3.13 fallback
        return
    # math.fma may raise on overflow in some versions; guard.
    assert _same64(r.bits, expected)


@given(finite32, finite32)
def test_add32_matches_numpy(a, b):
    fa, fb = np.float32(a), np.float32(b)
    with np.errstate(all="ignore"):
        expected = fa + fb
    r = FPU.add(BINARY32, float_to_bits32(float(fa)), float_to_bits32(float(fb)))
    if BINARY32.is_nan(r.bits):
        assert np.isnan(expected)
    else:
        assert r.bits == float_to_bits32(float(expected))


@given(finite32, finite32)
def test_mul32_matches_numpy(a, b):
    fa, fb = np.float32(a), np.float32(b)
    with np.errstate(all="ignore"):
        expected = fa * fb
    r = FPU.mul(BINARY32, float_to_bits32(float(fa)), float_to_bits32(float(fb)))
    if BINARY32.is_nan(r.bits):
        assert np.isnan(expected)
    else:
        assert r.bits == float_to_bits32(float(expected))


@given(finite32, finite32)
def test_div32_matches_numpy(a, b):
    fa, fb = np.float32(a), np.float32(b)
    assume(float(fb) != 0.0)
    with np.errstate(all="ignore"):
        expected = fa / fb
    r = FPU.div(BINARY32, float_to_bits32(float(fa)), float_to_bits32(float(fb)))
    if BINARY32.is_nan(r.bits):
        assert np.isnan(expected)
    else:
        assert r.bits == float_to_bits32(float(expected))


@given(finite64)
def test_narrow_matches_numpy(a):
    with np.errstate(all="ignore"):
        expected = np.float64(a).astype(np.float32)
    r = FPU.convert(BINARY64, BINARY32, float_to_bits64(a))
    if BINARY32.is_nan(r.bits):
        assert np.isnan(expected)
    else:
        assert r.bits == float_to_bits32(float(expected))


@given(finite32)
def test_widen_is_exact(a):
    fa = float(np.float32(a))
    r = FPU.convert(BINARY32, BINARY64, float_to_bits32(fa))
    assert r.flags & Flag.PE == Flag.NONE
    assert bits64_to_float(r.bits) == fa


# ---------------------------------------------------------------------------
# Flag-correctness properties.
# ---------------------------------------------------------------------------


@given(finite64, finite64)
def test_pe_flag_iff_result_differs_from_exact(a, b):
    """PE must be set exactly when the rounded sum differs from the true sum."""
    from fractions import Fraction

    r = FPU.add(BINARY64, float_to_bits64(a), float_to_bits64(b))
    if not BINARY64.is_finite(r.bits):
        return  # overflow cases always carry PE; checked elsewhere
    exact = Fraction(a) + Fraction(b)
    got = Fraction(bits64_to_float(r.bits))
    assert bool(r.flags & Flag.PE) == (exact != got)


@given(finite64, finite64)
def test_mul_pe_flag_exactness(a, b):
    from fractions import Fraction

    r = FPU.mul(BINARY64, float_to_bits64(a), float_to_bits64(b))
    if not BINARY64.is_finite(r.bits):
        return
    exact = Fraction(a) * Fraction(b)
    got = Fraction(bits64_to_float(r.bits))
    assert bool(r.flags & Flag.PE) == (exact != got)


@given(bits64, bits64)
def test_add_never_crashes_on_any_bit_pattern(a, b):
    """Total function: every 64-bit pattern pair must produce a result."""
    r = FPU.add(BINARY64, a, b)
    assert 0 <= r.bits < (1 << 64)


@given(bits64, bits64)
def test_div_never_crashes_on_any_bit_pattern(a, b):
    r = FPU.div(BINARY64, a, b)
    assert 0 <= r.bits < (1 << 64)


@given(bits64)
def test_sqrt_never_crashes_on_any_bit_pattern(a):
    r = FPU.sqrt(BINARY64, a)
    assert 0 <= r.bits < (1 << 64)


# SNaN payloads: exponent all-ones, quiet bit clear, nonzero payload.
snan64 = st.integers(min_value=1, max_value=(1 << 51) - 1).map(
    lambda payload: 0x7FF0000000000000 | payload
)


@given(snan64, bits64)
def test_snan_always_raises_invalid(a, b):
    assert BINARY64.is_snan(a)
    for op in (FPU.add, FPU.sub, FPU.mul, FPU.div):
        assert op(BINARY64, a, b).flags & Flag.IE
        assert op(BINARY64, b, a).flags & Flag.IE


@given(finite64, finite64)
def test_compare_antisymmetry(a, b):
    ra, _ = FPU.compare(BINARY64, float_to_bits64(a), float_to_bits64(b))
    rb, _ = FPU.compare(BINARY64, float_to_bits64(b), float_to_bits64(a))
    assert ra == -rb or (ra == 0 and rb == 0)


@given(finite64, finite64)
def test_min_max_pick_endpoints(a, b):
    ba, bb = float_to_bits64(a), float_to_bits64(b)
    lo = bits64_to_float(FPU.min(BINARY64, ba, bb).bits)
    hi = bits64_to_float(FPU.max(BINARY64, ba, bb).bits)
    assert {lo, hi} <= {a, b} or (a == b)
    assert lo == min(a, b)
    assert hi == max(a, b)


@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_from_int_matches_host(n):
    r = FPU.from_int(BINARY64, n)
    assert bits64_to_float(r.bits) == float(n)
    assert bool(r.flags & Flag.PE) == (int(float(n)) != n)


@given(finite64)
def test_to_int_truncation_matches_host(a):
    assume(abs(a) < 2**31 - 1)
    v, _ = FPU.to_int(BINARY64, float_to_bits64(a), truncate=True, width=64)
    assert v == int(a)


@given(finite64)
def test_roundtrip_through_struct(a):
    assert struct.unpack("<d", struct.pack("<d", a))[0] == a
    assert bits64_to_float(float_to_bits64(a)) == a
