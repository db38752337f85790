"""SoftFPU's flags against the host's: a differential property.

NumPy reads the host FPU's SSE status flags after every ufunc and
reports four of them through ``errstate``: invalid (IE), divide by zero
(ZE), overflow (OE) and underflow (UE).  So for add, sub, mul, div and
sqrt in binary32 and binary64, one element run through the matching
ufunc gives the hardware's answer, and ``SoftFPU`` must agree with it:
the same IE/ZE/OE/UE and the same result (any NaN for a NaN, since which
operand's payload a commutative ufunc propagates is up to its compiled
loop).  Operands are stratified on the tininess and overflow
boundaries: values ``2**e * (1 +- 2**-j)`` whose products, quotients
and sums land just below or above ``2**emin`` and the largest finite
value, including the products that round up to the minimum normal, where
x64 detects tininess after rounding and raises no Underflow.

What this cannot check: PE and DE, which ``errstate`` does not expose;
directed rounding, FTZ and DAZ, which NumPy does not let Python set
(the host runs round-to-nearest with both off); and NaN payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.flags import IE, OE, UE, ZE
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.softfloat import SoftFPU
from repro.isa.forms import OpKind

_FPU = SoftFPU()

_UFUNC = {
    OpKind.ADD: np.add, OpKind.SUB: np.subtract, OpKind.MUL: np.multiply,
    OpKind.DIV: np.divide, OpKind.SQRT: np.sqrt,
}

_DTYPES = {BINARY32: (np.float32, np.uint32), BINARY64: (np.float64, np.uint64)}

#: NumPy's floating-point error bits and the condition codes they report.
_NUMPY_FLAGS = ((1, ZE), (2, OE), (4, UE), (8, IE))

_VISIBLE = IE | ZE | OE | UE


def host(kind, fmt, ops):
    """``(result bits, IE|ZE|OE|UE)`` of one element on the host FPU."""
    ftype, utype = _DTYPES[fmt]
    args = [np.array([b], utype).view(ftype) for b in ops]
    raised = []
    with np.errstate(all="call", call=lambda _name, code: raised.append(code)):
        out = _UFUNC[kind](*args)
    code = 0
    for c in raised:
        code |= c
    flags = 0
    for bit, flag in _NUMPY_FLAGS:
        if code & bit:
            flags |= flag
    return int(out.view(utype)[0]), flags


def soft(kind, fmt, ops):
    r = getattr(_FPU, kind.value)(fmt, *ops)
    return r.bits, r.flags & _VISIBLE


def _assert_agree(kind, fmt, ops):
    want_bits, want_flags = host(kind, fmt, ops)
    bits, flags = soft(kind, fmt, ops)
    assert flags == want_flags, (kind, fmt.name, [hex(b) for b in ops])
    if fmt.is_nan(want_bits):
        assert fmt.is_nan(bits), (kind, fmt.name, [hex(b) for b in ops])
    else:
        assert bits == want_bits, (kind, fmt.name, [hex(b) for b in ops])


# ------------------------------------------------------------ strategies


def near_pow2(fmt, sign, e, s, j):
    """Bits of ``(-1)**sign * 2**e * (1 + s * 2**-j)``, for ``s`` in
    {-1, 0, 1}, ``1 <= j <= mant_bits`` and normal ``2**(e-1)``."""
    if s >= 0:
        field, mant = e + fmt.bias, (s << (fmt.mant_bits - j))
    else:  # 2**(e-1) * (2 - 2**(1-j))
        field = e - 1 + fmt.bias
        mant = fmt.mant_mask + 1 - (1 << (fmt.mant_bits + 1 - j))
    return (sign << (fmt.width - 1)) | (field << fmt.mant_bits) | mant


def _near(fmt, exps):
    return st.builds(near_pow2, st.just(fmt), st.integers(0, 1),
                     st.sampled_from(exps), st.sampled_from((-1, 0, 1)),
                     st.integers(1, fmt.mant_bits))


def _field_pattern(fmt, exps):
    """Any significand at an exponent of ``exps``."""
    return st.builds(
        lambda sign, e, m: ((sign << (fmt.width - 1))
                            | ((e + fmt.bias) << fmt.mant_bits) | m),
        st.integers(0, 1), st.sampled_from(exps),
        st.integers(0, fmt.mant_mask))


def _operands(kind, fmt):
    """Operand tuples whose results lean on the tininess and overflow
    boundaries, plus any bit patterns (zeros, subnormals, infinities,
    NaNs among them)."""
    lo, hi = fmt.emin, fmt.emax
    unit = [-2, -1, 0, 1]
    edges = [lo + 1, lo + 2, lo + 3, hi - 1, hi]
    anything = st.integers(0, (1 << fmt.width) - 1)
    if kind is OpKind.SQRT:
        return st.tuples(st.one_of(_near(fmt, edges + unit), anything))
    if kind is OpKind.MUL:
        # near 1 times near 2**emin or 2**emax, in either order; and
        # 2**ea * (1 - 2**-j) times 2**eb * (1 + 2**-j), whose product
        # 2**(ea+eb) * (1 - 2**-2j) rounds up to 2**(ea+eb) once 2j > p
        pair = st.tuples(_near(fmt, unit),
                         st.one_of(_near(fmt, edges),
                                   _field_pattern(fmt, edges)))
        exps = [(ea, t - ea) for t in (lo, lo + 1, hi, hi + 1)
                for ea in (-1, 0, 1) if lo <= t - ea <= hi]
        twin = st.builds(
            lambda e, j, sa, sb: (near_pow2(fmt, sa, e[0], -1, j),
                                  near_pow2(fmt, sb, e[1], 1, j)),
            st.sampled_from(exps), st.integers(1, fmt.mant_bits),
            st.integers(0, 1), st.integers(0, 1))
        pair = st.one_of(pair, pair.map(lambda p: p[::-1]), twin)
    elif kind is OpKind.DIV:
        pair = st.tuples(st.one_of(_near(fmt, edges),
                                   _field_pattern(fmt, edges)),
                         _near(fmt, unit))
    else:
        # near 2**emin plus near 2**emin; near 2**emax plus a last-bit term
        tail = [hi - fmt.p - 1, hi - fmt.p, hi - fmt.p + 1]
        pair = st.one_of(
            st.tuples(_near(fmt, edges[:3]), _near(fmt, edges[:3])),
            st.tuples(_near(fmt, edges[3:]), _near(fmt, tail + edges[3:])),
        )
    return st.one_of(pair, st.tuples(anything, anything))


_CASES = [(k, f) for k in _UFUNC for f in (BINARY32, BINARY64)]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=st.sampled_from(_CASES))
def test_softfpu_flags_equal_the_host_flags(data, case):
    kind, fmt = case
    _assert_agree(kind, fmt, data.draw(_operands(kind, fmt)))


def _below_one(fmt, j):
    return near_pow2(fmt, 0, 0, -1, j)


def _min_normal_times(fmt, j):
    return near_pow2(fmt, 0, fmt.emin, 1, j) if j else fmt.min_normal


@pytest.mark.parametrize("fmt, j, k, underflow", [
    # (1 - 2**-54) * 2**-1022 rounds up to 2**-1022 at 53 bits: not tiny
    (BINARY64, 27, 27, False),
    # (1 - 2**-26) * 2**-126, the binary32 analogue
    (BINARY32, 13, 13, False),
    # (1 - 2**-24) * 2**-126: 24 bits hold it, so it stays tiny; the
    # denormal grid rounds it up to 2**-126 inexactly
    (BINARY32, 12, 12, True),
    (BINARY32, 24, 0, True),
    # (1 - 2**-53) * 2**-1022, the binary64 analogue
    (BINARY64, 53, 0, True),
])
def test_product_rounding_up_to_the_minimum_normal(fmt, j, k, underflow):
    """``(1 - 2**-j) * ((1 + 2**-k) * 2**emin)`` rounds to the minimum
    normal; both sides raise Underflow exactly when the product rounded
    to ``p`` bits with an unbounded exponent stays below ``2**emin``."""
    a, b = _below_one(fmt, j), _min_normal_times(fmt, k)
    _assert_agree(OpKind.MUL, fmt, (a, b))
    _assert_agree(OpKind.MUL, fmt, (b, a))
    assert soft(OpKind.MUL, fmt, (a, b)) == (
        fmt.min_normal, UE if underflow else 0)
