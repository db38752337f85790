"""Batch softfloat must be bit-equivalent to the scalar SoftFPU.

Every lane of ``execute_batch`` -- result bit pattern, all six IEEE
condition flags, and the pre-rounding tininess bit -- must match the
scalar oracle over adversarial operands (NaN payloads including SNaNs,
signed zeros, subnormals, overflow boundaries) crossed with all four
rounding modes and the DAZ/FTZ context bits.  All three of its tiers
are pinned: the integer kernels are called directly at every lane
count, the host-EFT tier is checked lane by lane under round-to-nearest,
and the two sides of both crossovers must agree byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from repro.fp import batchfloat
from repro.fp.batchfloat import (
    _EFT_MIN_LANES,
    _FMA_NEGATE,
    _SCALAR_MAX_LANES,
    _vector_batch,
    batch_covered,
    batch_stats,
    execute_batch,
    reset_batch_stats,
)
from repro.fp.formats import BINARY64, float_to_bits64
from repro.fp.vectorfast import fast_operand_mask
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU
from repro.isa.forms import InstructionForm, OpKind, form

_FPU = SoftFPU()

_SPECIALS64 = [
    0x0000000000000000, 0x8000000000000000,  # +-0
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0xFFF8000000000001,  # qNaNs (payloads)
    0x7FF0000000000001, 0x7FF4000000000000,  # sNaNs
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # min/max normal
    0x7FE0000000000000, 0xFFEFFFFFFFFFFFFF,  # overflow boundaries
    0x3FF0000000000000, 0xBFE0000000000000,  # 1.0, -0.5
    0x3CB0000000000000, 0x4330000000000005,  # rounding-boundary magnitudes
]

_SPECIALS32 = [
    0x00000000, 0x80000000,  # +-0
    0x7F800000, 0xFF800000,  # +-inf
    0x7FC00000, 0xFFC00001,  # qNaNs (payloads)
    0x7F800001, 0x7FA00000,  # sNaNs
    0x00000001, 0x807FFFFF,  # subnormals
    0x00800000, 0x7F7FFFFF,  # min/max normal
    0x7F000000, 0xFF7FFFFF,  # overflow boundaries
    0x3F800000, 0xBF000000,  # 1.0, -0.5
    0x33800000, 0x4B7FFFFF,  # rounding-boundary magnitudes
]

bits64 = st.one_of(
    st.sampled_from(_SPECIALS64),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)
bits32 = st.one_of(
    st.sampled_from(_SPECIALS32),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)

#: Every batch-covered catalogue shape: all seven two/one-operand kinds
#: over both formats plus the four FMA variants (binary32 catalogue).
_MNEMONICS = [
    "addss", "subss", "mulss", "divss", "sqrtss", "minss", "maxss",
    "addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd",
    "addpd", "mulpd", "divpd", "sqrtpd",
    "vfmaddps", "vfmsubps", "vfnmaddps", "vfnmaddss", "vfmsubss",
    "vfmaddss",
]

contexts = st.builds(
    FPContext,
    rmode=st.sampled_from(list(RoundingMode)),
    ftz=st.booleans(),
    daz=st.booleans(),
)


def _scalar(kind, fmt, ops, ctx):
    if kind is OpKind.SQRT:
        return _FPU.sqrt(fmt, ops[0], ctx)
    two = {
        OpKind.ADD: _FPU.add, OpKind.SUB: _FPU.sub, OpKind.MUL: _FPU.mul,
        OpKind.DIV: _FPU.div, OpKind.MIN: _FPU.min, OpKind.MAX: _FPU.max,
    }
    if kind in two:
        return two[kind](fmt, ops[0], ops[1], ctx)
    neg_p, neg_c = _FMA_NEGATE[kind]
    return _FPU.fma(
        fmt, ops[0], ops[1], ops[2], ctx,
        negate_product=neg_p, negate_c=neg_c,
    )


def _draw_ops(data, f, n):
    bits = bits32 if f.fmt.width == 32 else bits64
    return tuple(
        np.array(
            data.draw(st.lists(bits, min_size=n, max_size=n)),
            dtype=np.uint64,
        )
        for _ in range(f.arity)
    )


def _assert_lanes_match_oracle(f, ops, res, ctx):
    for i in range(ops[0].shape[0]):
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        assert int(res.bits[i]) == oracle.bits, (f.mnemonic, lane, ctx)
        assert int(res.flags[i]) == int(oracle.flags), (f.mnemonic, lane, ctx)
        assert bool(res.tiny[i]) == oracle.tiny, (f.mnemonic, lane, ctx)


@settings(max_examples=120, deadline=None)
@given(
    mnemonic=st.sampled_from(_MNEMONICS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
    ctx=contexts,
)
def test_batch_lanes_bit_equal_scalar_softfpu(mnemonic, data, n, ctx):
    f = form(mnemonic)
    assert batch_covered(f)
    ops = _draw_ops(data, f, n)
    _assert_lanes_match_oracle(f, ops, execute_batch(f, ops, ctx), ctx)


@settings(max_examples=120, deadline=None)
@given(
    mnemonic=st.sampled_from(_MNEMONICS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
    ctx=contexts,
)
def test_vector_kernels_bit_equal_scalar_softfpu(mnemonic, data, n, ctx):
    """The NumPy kernels themselves, at lane counts execute_batch would
    hand to the scalar loop as well as above it."""
    f = form(mnemonic)
    ops = _draw_ops(data, f, n)
    _assert_lanes_match_oracle(f, ops, _vector_batch(f, ops, ctx), ctx)


def test_vector_mul_underflow_of_a_63_bit_product():
    """Two subnormals whose exact product fills 63 bits: the result
    lies far below half the smallest subnormal, so only rounding up
    reaches it.  A shift clamped one bit short once rounded it to the
    smallest subnormal under round-to-nearest too."""
    f = form("mulpd")
    ops = tuple(np.array([v], dtype=np.uint64)
                for v in (1681, 2743418214412486))
    for rmode in RoundingMode:
        ctx = FPContext(rmode=rmode)
        _assert_lanes_match_oracle(f, ops, _vector_batch(f, ops, ctx), ctx)


#: Lane counts on both sides of the EFT and scalar crossovers.
_CUTS = (_EFT_MIN_LANES - 1, _EFT_MIN_LANES,
         _SCALAR_MAX_LANES, _SCALAR_MAX_LANES + 1)


def _eft_eligible(f, ctx):
    return (f.fmt is BINARY64 and f.kind in batchfloat._EFT_KINDS
            and ctx.rmode == RoundingMode.NEAREST
            and not ctx.ftz and not ctx.daz)


@settings(max_examples=60, deadline=None)
@given(mnemonic=st.sampled_from(_MNEMONICS), data=st.data(), ctx=contexts)
def test_batch_methods_byte_identical_across_crossover(mnemonic, data, ctx):
    """The same lanes give the same BatchResult bytes on both sides of
    the EFT crossover and of the scalar crossover.  The operands mix
    specials, subnormals and out-of-window lanes into the EFT tier; a
    directed rounding mode or FTZ/DAZ must keep every call off it."""
    f = form(mnemonic)
    ops = _draw_ops(data, f, _CUTS[-1])
    with mock.patch.object(
        batchfloat, "vector_execute", wraps=batchfloat.vector_execute
    ) as spy:
        full = execute_batch(f, ops, ctx)
        for cut in _CUTS[:-1]:
            part = execute_batch(f, tuple(o[:cut] for o in ops), ctx)
            for name in ("bits", "flags", "tiny"):
                a = getattr(part, name)
                b = getattr(full, name)[:cut]
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), (name, mnemonic, cut, ctx)
    # Every cut but the smallest reaches the EFT crossover.
    assert spy.call_count == (3 if _eft_eligible(f, ctx) else 0), ctx


_WINDOW64 = st.builds(
    lambda sign, exp, mant: (sign << 63) | (exp << 52) | mant,
    st.integers(0, 1),
    st.integers(524, 1522),
    st.integers(0, (1 << 52) - 1),
)
#: Small integers: sums, products and many quotients and roots are exact.
_EXACT64 = st.integers(1, 1 << 20).map(lambda v: float_to_bits64(float(v)))


@settings(max_examples=60, deadline=None)
@given(
    mnemonic=st.sampled_from(
        ["addpd", "subpd", "mulpd", "divpd", "sqrtpd", "minpd", "maxpd"]
    ),
    data=st.data(),
    n=st.integers(min_value=_EFT_MIN_LANES, max_value=48),
)
def test_eft_tier_lanes_exact_under_round_to_nearest(mnemonic, data, n):
    """The EFT tier's lanes, certified or not, are bit- and flag-exact
    under round-to-nearest.  Operands lean on the certification window
    (exact and inexact in-window values) with specials mixed in."""
    f = form(mnemonic)
    ctx = FPContext()
    lanes = st.one_of(_WINDOW64, _EXACT64, bits64)
    ops = tuple(
        np.array(data.draw(st.lists(lanes, min_size=n, max_size=n)),
                 dtype=np.uint64)
        for _ in range(f.arity)
    )
    with mock.patch.object(
        batchfloat, "vector_execute", wraps=batchfloat.vector_execute
    ) as spy:
        res = execute_batch(f, ops, ctx)
    assert spy.call_count == 1
    _assert_lanes_match_oracle(f, ops, res, ctx)


def test_eft_tier_sends_a_wide_remainder_to_the_integer_kernels():
    """More than _SCALAR_MAX_LANES uncertified lanes in an EFT call run
    the integer kernels, not the scalar loop."""
    f = form("addsd")
    n = 2 * (_SCALAR_MAX_LANES + 1)
    specials = [0x7FF8000000000000, 0xFFF0000000000000, 0x0000000000000001]
    # Three lanes in four carry a NaN, an infinity or a subnormal.
    a = np.array([specials[i % 4 - 1] if i % 4 else 0x3FF8000000000000
                  for i in range(n)], dtype=np.uint64)
    b = np.full(n, 0x3FB999999999999A, np.uint64)  # 0.1
    assert int((~fast_operand_mask(a)).sum()) > _SCALAR_MAX_LANES
    ctx = FPContext()
    reset_batch_stats()
    res = execute_batch(f, (a, b), ctx)
    assert batch_stats()["scalar_lanes"] == 0
    _assert_lanes_match_oracle(f, (a, b), res, ctx)


def test_eft_tier_off_under_directed_rounding_or_ftz_daz():
    """Only round-to-nearest without FTZ/DAZ takes the EFT tier; every
    other context runs the scalar loop or the integer kernels, exactly."""
    f = form("mulpd")
    n = _SCALAR_MAX_LANES + 1
    a = np.array([0x3FF8000000000000 + i for i in range(n)], np.uint64)
    b = np.array([0x3FB999999999999A - i for i in range(n)], np.uint64)
    b[3] = 0x0000000000000001  # one subnormal lane
    ctxs = [FPContext(rmode=r) for r in RoundingMode
            if r != RoundingMode.NEAREST]
    ctxs += [FPContext(ftz=True), FPContext(daz=True)]
    for ctx in ctxs:
        for m in (_EFT_MIN_LANES, n):
            ops = (a[:m], b[:m])
            with mock.patch.object(
                batchfloat, "vector_execute", wraps=batchfloat.vector_execute
            ) as spy:
                res = execute_batch(f, ops, ctx)
            assert spy.call_count == 0, ctx
            _assert_lanes_match_oracle(f, ops, res, ctx)


def test_uncovered_form_raises():
    import pytest

    bad = form("ucomisd")
    assert not batch_covered(bad)
    with pytest.raises(NotImplementedError):
        execute_batch(bad, (np.zeros(1, np.uint64),) * 2, FPContext())


def test_batch_stats_account_lanes():
    reset_batch_stats()
    f = form("mulsd")
    for n in (8, _SCALAR_MAX_LANES + 1):
        ops = (
            np.full(n, 0x3FF0000000000000, np.uint64),
            np.full(n, 0x4000000000000000, np.uint64),
        )
        execute_batch(f, ops, FPContext())
    assert batch_stats() == {
        "batches": 2, "lanes": 8 + _SCALAR_MAX_LANES + 1, "scalar_lanes": 8,
    }


def test_fma64_runs_scalar_at_any_lane_count():
    """fma64 has no vector kernel: every lane takes the scalar loop."""
    f = InstructionForm("fma64", OpKind.FMADD, BINARY64, 1)
    n = _SCALAR_MAX_LANES + 5
    a = np.full(n, 0x3FF8000000000000, np.uint64)  # 1.5
    b = np.full(n, 0x3FB999999999999A, np.uint64)  # 0.1
    c = np.arange(n, dtype=np.uint64) << np.uint64(52)
    reset_batch_stats()
    res = execute_batch(f, (a, b, c), FPContext())
    assert batch_stats()["scalar_lanes"] == n
    _assert_lanes_match_oracle(f, (a, b, c), res, FPContext())
