"""The memoized softfloat must be indistinguishable from the reference.

:class:`repro.fp.memo.MemoSoftFPU` caches softfloat operations by their
exact inputs, so any divergence from :class:`SoftFPU` -- a NaN payload,
a signed zero, a missing sticky flag, a tininess bit -- would leak
straight into any result it served.  Each example runs the same
operation through the plain reference, a cold cache, and a warm cache
(same call twice), and requires bit-for-bit equal ``OpResult``s across
all four IEEE rounding modes and the FTZ/DAZ corners.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.formats import BINARY32, BINARY64
from repro.fp.memo import MemoSoftFPU
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0xFFF8000000000001,  # qNaNs (payloads differ)
    0x7FF4000000000000, 0xFFF0DEADBEEF0001,  # sNaNs (payloads differ)
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
]

_SPECIALS32 = [
    0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
    0x7FC00001, 0xFFA00001,  # qNaN/sNaN with payloads
    0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0x3F800000,
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)

contexts = st.builds(
    FPContext,
    rmode=st.sampled_from(list(RoundingMode)),
    ftz=st.booleans(),
    daz=st.booleans(),
)

_BINARY_OPS = ["add", "sub", "mul", "div", "min", "max"]


def _check(op_name, args, kwargs=None):
    """reference == cold cache == warm cache, as full OpResult objects."""
    kwargs = kwargs or {}
    ref = getattr(SoftFPU(), op_name)(*args, **kwargs)
    memo = MemoSoftFPU()
    cold = getattr(memo, op_name)(*args, **kwargs)
    warm = getattr(memo, op_name)(*args, **kwargs)
    assert cold == ref
    assert warm == ref
    assert memo.misses == 1 and memo.hits == 1
    return ref


@settings(max_examples=120, deadline=None)
@given(
    op=st.sampled_from(_BINARY_OPS),
    fmt=st.sampled_from([BINARY32, BINARY64]),
    data=st.data(),
    ctx=contexts,
)
def test_binary_ops_bit_identical(op, fmt, data, ctx):
    bits = bits32 if fmt is BINARY32 else bits64
    a, b = data.draw(bits), data.draw(bits)
    _check(op, (fmt, a, b, ctx))


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from([BINARY32, BINARY64]), data=st.data(), ctx=contexts)
def test_sqrt_and_round_bit_identical(fmt, data, ctx):
    bits = bits32 if fmt is BINARY32 else bits64
    a = data.draw(bits)
    _check("sqrt", (fmt, a, ctx))
    _check(
        "round_to_integral", (fmt, a, ctx),
        {"rmode": data.draw(st.sampled_from(list(RoundingMode))),
         "suppress_inexact": data.draw(st.booleans())},
    )


@settings(max_examples=60, deadline=None)
@given(
    fmt=st.sampled_from([BINARY32, BINARY64]),
    data=st.data(),
    ctx=contexts,
    neg_p=st.booleans(),
    neg_c=st.booleans(),
)
def test_fma_bit_identical(fmt, data, ctx, neg_p, neg_c):
    bits = bits32 if fmt is BINARY32 else bits64
    a, b, c = data.draw(bits), data.draw(bits), data.draw(bits)
    _check(
        "fma", (fmt, a, b, c, ctx),
        {"negate_product": neg_p, "negate_c": neg_c},
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ctx=contexts, signal=st.booleans())
def test_compare_and_converts_bit_identical(data, ctx, signal):
    a, b = data.draw(bits64), data.draw(bits64)
    _check("compare", (BINARY64, a, b, ctx), {"signal_qnan": signal})
    _check("convert", (BINARY64, BINARY32, a, ctx))
    f = data.draw(bits32)
    _check("convert", (BINARY32, BINARY64, f, ctx))
    _check(
        "to_int", (BINARY64, a, ctx),
        {"width": data.draw(st.sampled_from([32, 64])),
         "truncate": data.draw(st.booleans())},
    )
    n = data.draw(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
    _check("from_int", (BINARY64, n, ctx))


def test_context_is_part_of_the_key():
    """Same operand bits under different control words must not collide."""
    memo = MemoSoftFPU()
    subnormal = 0x0000000000000001
    one = 0x3FF0000000000000
    plain = memo.add(BINARY64, subnormal, one, FPContext())
    dazzed = memo.add(BINARY64, subnormal, one, FPContext(daz=True))
    assert memo.hits == 0 and memo.misses == 2
    assert plain == SoftFPU().add(BINARY64, subnormal, one, FPContext())
    assert dazzed == SoftFPU().add(
        BINARY64, subnormal, one, FPContext(daz=True)
    )
    assert plain.flags != dazzed.flags  # DE raised only without DAZ


def test_capacity_bounds_the_cache():
    memo = MemoSoftFPU(capacity=8)
    for i in range(64):
        memo.from_int(BINARY64, i)
    assert len(memo._cache) == 8
    assert memo.misses == 64
