"""Batch softfloat must be bit-equivalent to the scalar SoftFPU.

Every lane of ``execute_batch`` -- result bit pattern, all six IEEE
condition flags, and the pre-rounding tininess bit -- must match the
scalar oracle over adversarial operands (NaN payloads including SNaNs,
signed zeros, subnormals, overflow boundaries) crossed with all four
rounding modes and the DAZ/FTZ context bits.  Both of its methods are
pinned: the NumPy kernels are called directly at every lane count, and
the two sides of the scalar crossover must agree byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.batchfloat import (
    _FMA_NEGATE,
    _SCALAR_MAX_LANES,
    _vector_batch,
    batch_covered,
    batch_stats,
    execute_batch,
    reset_batch_stats,
)
from repro.fp.formats import BINARY64
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


@settings(max_examples=60, deadline=None)
@given(mnemonic=st.sampled_from(_MNEMONICS), data=st.data(), ctx=contexts)
def test_batch_methods_byte_identical_across_crossover(mnemonic, data, ctx):
    """The same lanes give the same BatchResult bytes at the largest
    scalar batch and the smallest vector batch."""
    f = form(mnemonic)
    ops = _draw_ops(data, f, _SCALAR_MAX_LANES + 1)
    small = execute_batch(f, tuple(o[:_SCALAR_MAX_LANES] for o in ops), ctx)
    big = execute_batch(f, ops, ctx)
    for name in ("bits", "flags", "tiny"):
        a = getattr(small, name)
        b = getattr(big, name)[:_SCALAR_MAX_LANES]
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), (name, mnemonic, ctx)


@settings(max_examples=60, deadline=None)
@given(
    mnemonic=st.sampled_from(
        ["addpd", "subpd", "mulpd", "divpd", "sqrtpd", "minpd", "maxpd"]
    ),
    data=st.data(),
    n=st.integers(min_value=1, max_value=48),
    rmode=st.sampled_from(list(RoundingMode)),
)
def test_vectorfast_certified_lanes_exact_all_rounding_modes(
    mnemonic, data, n, rmode
):
    """The EFT kernels' certified lanes must be bit- and flag-exact in
    every rounding mode (directed modes via residual-sign correction)."""
    from repro.fp import vectorfast

    f = form(mnemonic)
    ctx = FPContext(rmode=rmode)
    ops = [
        np.array(
            data.draw(st.lists(bits64, min_size=n, max_size=n)),
            dtype=np.uint64,
        )
        for _ in range(f.arity)
    ]
    bits, pe, certified = vectorfast.vector_execute(f.kind, ops, rmode)
    for i in range(n):
        if not certified[i]:
            continue
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        assert int(bits[i]) == oracle.bits, (mnemonic, lane, rmode)
        expected_pe = bool(int(oracle.flags) & 0x20)
        assert bool(pe[i]) == expected_pe, (mnemonic, lane, rmode)
        assert int(oracle.flags) & ~0x20 == 0, (mnemonic, lane, rmode)


def test_vectorfast_reject_stats_count_reasons():
    from repro.fp import vectorfast

    vectorfast.reset_reject_stats()
    # Lane 0: NaN operand.  Lane 1: both operands inside the exponent
    # window (2**400), but their product (2**800) exceeds the safe
    # result range.
    a = np.array([0x7FF8000000000000, 0x58F0000000000000], np.uint64)
    b = np.array([0x3FF0000000000000, 0x58F0000000000000], np.uint64)
    _, _, certified = vectorfast.vector_execute(form("mulpd").kind, [a, b])
    assert not certified.any()
    s = vectorfast.reject_stats()
    assert s["operand_window"] == 1  # the NaN lane
    assert s["result_range"] == 1  # overflow-bound product


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
