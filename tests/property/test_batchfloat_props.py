"""Batch softfloat must be bit-equivalent to the scalar SoftFPU.

Every lane of ``execute_batch`` -- result bit pattern, all six IEEE
condition flags, and the tininess bit -- must match the
scalar oracle over adversarial operands (NaN payloads including SNaNs,
signed zeros, subnormals, overflow boundaries) crossed with all four
rounding modes and the DAZ/FTZ context bits.  Its tiers are pinned: the
host loop at every lane count and context, the binary32 FMA EFT tier
lane by lane under round-to-nearest, and the two sides of the crossover
must agree byte for byte; every catalogue form, the per-form executor
tier included, must equal ``execute_form`` group by group.
"""

from array import array
from functools import reduce
from operator import or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import batchfloat
from repro.fp.batchfloat import (
    _SCALAR_MAX_LANES,
    BATCH_KINDS,
    batch_stats,
    execute_batch,
    reset_batch_stats,
)
from repro.fp.formats import (
    BINARY32, BINARY64, float_to_bits32, float_to_bits64)
from repro.fp.flags import PE
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext, SoftFPU
from repro.fp.vectorfast import vector_execute
from repro.isa.forms import (
    FMA_NEGATE, FORMS, INT_RESULT_KINDS, InstructionForm, OpKind, form,
    lane_typecodes)
from repro.isa.semantics import execute_form

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
    neg_p, neg_c = FMA_NEGATE[kind]
    return _FPU.fma(
        fmt, ops[0], ops[1], ops[2], ctx,
        negate_product=neg_p, negate_c=neg_c,
    )


def _draw_ops(data, f, n):
    bits = bits32 if f.fmt.width == 32 else bits64
    return tuple(
        array("Q", data.draw(st.lists(bits, min_size=n, max_size=n)))
        for _ in range(f.arity)
    )


def _assert_lanes_match_oracle(f, ops, res, ctx):
    for i in range(len(ops[0])):
        lane = tuple(int(o[i]) for o in ops)
        oracle = _scalar(f.kind, f.fmt, lane, ctx)
        assert int(res.bits[i]) == oracle.bits, (f.mnemonic, lane, ctx)
        assert int(res.flags[i]) == int(oracle.flags), (f.mnemonic, lane, ctx)
        assert bool(res.tiny[i]) == oracle.tiny, (f.mnemonic, lane, ctx)


@settings(max_examples=120, deadline=None)
@given(
    mnemonic=st.sampled_from(_MNEMONICS),
    data=st.data(),
    n=st.integers(min_value=1, max_value=_SCALAR_MAX_LANES + 16),
    ctx=contexts,
)
def test_batch_lanes_bit_equal_scalar_softfpu(mnemonic, data, n, ctx):
    f = form(mnemonic)
    assert f.kind in BATCH_KINDS
    ops = _draw_ops(data, f, n)
    _assert_lanes_match_oracle(f, ops, execute_batch(f, ops, ctx), ctx)


def test_vector_mul_underflow_of_a_63_bit_product():
    """Two subnormals whose exact product fills 63 bits: the result
    lies far below half the smallest subnormal, so only rounding up
    reaches it; rounding it to the smallest subnormal under
    round-to-nearest is the classic off-by-one of an int64 rounding
    shift.  One lane, and the lane tiled past the host-loop limit."""
    f = form("mulpd")
    lane = (1681, 2743418214412486)
    for n in (1, _SCALAR_MAX_LANES + 1):
        ops = tuple(array("Q", [v]) * n for v in lane)
        for rmode in RoundingMode:
            ctx = FPContext(rmode=rmode)
            _assert_lanes_match_oracle(f, ops, execute_batch(f, ops, ctx),
                                       ctx)


#: Lane counts on both sides of the crossover, and one lane.
_CUTS = (1, _SCALAR_MAX_LANES, _SCALAR_MAX_LANES + 1)


_FMA32 = ["vfmaddps", "vfmsubps", "vfnmaddps", "vfnmaddss", "vfmsubss",
          "vfmaddss"]


def _eft_eligible(f, ctx):
    return (f.fmt is BINARY32 and f.kind in FMA_NEGATE
            and ctx.rmode == RoundingMode.NEAREST
            and not ctx.ftz and not ctx.daz)


def _eft_spy():
    return mock.patch.object(
        batchfloat, "_eft_fma32", wraps=batchfloat._eft_fma32)


@settings(max_examples=60, deadline=None)
@given(mnemonic=st.sampled_from(_MNEMONICS), data=st.data(), ctx=contexts)
def test_batch_methods_byte_identical_across_crossover(mnemonic, data, ctx):
    """The same lanes give the same BatchResult bytes from the host loop
    (one lane, and ``_SCALAR_MAX_LANES``) and from the tier above it.
    The operands mix specials, subnormals and out-of-window lanes into
    both; only the call above the crossover may enter the EFT tier, and
    a directed rounding mode or FTZ/DAZ keeps every call off it."""
    f = form(mnemonic)
    ops = _draw_ops(data, f, _CUTS[-1])
    with _eft_spy() as spy:
        full = execute_batch(f, ops, ctx)
        for cut in _CUTS[:-1]:
            part = execute_batch(f, tuple(o[:cut] for o in ops), ctx)
            for name in ("bits", "flags", "tiny"):
                a = getattr(part, name)
                b = getattr(full, name)[:cut]
                assert type(a) is type(b), name
                assert a == b, (name, mnemonic, cut, ctx)
            assert part.bits.typecode == full.bits.typecode == "Q"
    assert spy.call_count == (1 if _eft_eligible(f, ctx) else 0), ctx


#: Round-to-nearest, where binary32 FMA may take the EFT tier, and
#: every context that keeps it off.
_TIER_CONTEXTS = [FPContext()] + [
    FPContext(rmode=r) for r in RoundingMode if r != RoundingMode.NEAREST
] + [FPContext(ftz=True), FPContext(daz=True)]


@settings(max_examples=12, deadline=None)
@given(mnemonic=st.sampled_from(_FMA32 + ["addsd", "divsd", "mulss"]),
       data=st.data(), ctx=st.sampled_from(_TIER_CONTEXTS))
def test_eft_tier_entered_only_above_the_host_loop(mnemonic, data, ctx):
    """Under round-to-nearest without FTZ/DAZ, binary32 FMA batches run
    the host loop up to ``_SCALAR_MAX_LANES`` lanes and the EFT tier from
    one lane more; no other form, and no other context, enters it.  Both
    sides of the limit are exact."""
    f = form(mnemonic)
    ops = _draw_ops(data, f, 2 * _SCALAR_MAX_LANES)
    for n in range(1, 2 * _SCALAR_MAX_LANES + 1):
        part = tuple(o[:n] for o in ops)
        with _eft_spy() as spy:
            res = execute_batch(f, part, ctx)
        assert spy.call_count == (
            n > _SCALAR_MAX_LANES and _eft_eligible(f, ctx)), (n, ctx)
        if n in _CUTS[1:]:
            _assert_lanes_match_oracle(f, part, res, ctx)


_WINDOW32 = st.builds(
    lambda sign, exp, mant: (sign << 31) | (exp << 23) | mant,
    st.integers(0, 1),
    st.integers(28, 226),
    st.integers(0, (1 << 23) - 1),
)
#: Small integers: sums and products are exact, and cancel exactly.
_EXACT32 = st.integers(-(1 << 10), 1 << 10).filter(bool).map(
    lambda v: float_to_bits32(float(v)))


@settings(max_examples=30, deadline=None)
@given(
    mnemonic=st.sampled_from(_FMA32),
    data=st.data(),
    n=st.integers(min_value=_SCALAR_MAX_LANES + 1,
                  max_value=_SCALAR_MAX_LANES + 16),
)
def test_eft_tier_lanes_exact_under_round_to_nearest(mnemonic, data, n):
    """The EFT tier's lanes, certified or not, are bit- and flag-exact
    under round-to-nearest.  Operands lean on the certification window
    (exact and inexact in-window values) with specials mixed in."""
    f = form(mnemonic)
    ctx = FPContext()
    lanes = st.one_of(_WINDOW32, _EXACT32, bits32)
    ops = tuple(
        array("Q", data.draw(st.lists(lanes, min_size=n, max_size=n)))
        for _ in range(f.arity)
    )
    with _eft_spy() as spy:
        res = execute_batch(f, ops, ctx)
    assert spy.call_count == 1
    _assert_lanes_match_oracle(f, ops, res, ctx)


def test_eft_tier_sends_a_wide_remainder_to_the_host_loop():
    """An EFT call's uncertified lanes run one host-loop call whatever
    their number, here more than ``_SCALAR_MAX_LANES``: each is one
    canonical SoftFPU call."""
    f = form("vfmaddps")
    n = 2 * _SCALAR_MAX_LANES
    specials = [0x7FC00000, 0xFF800000, 0x00000001]
    # Three lanes in four carry a NaN, an infinity or a subnormal.
    a = array("Q", [specials[i % 4 - 1] if i % 4 else 0x3FC00000
                    for i in range(n)])
    b = array("Q", [0x3DCCCCCD]) * n  # 0.1
    c = array("Q", [0x3F000000]) * n  # 0.5
    ctx = FPContext()
    reset_batch_stats()
    with mock.patch.object(batchfloat, "_scalar_batch",
                           wraps=batchfloat._scalar_batch) as loop:
        res = execute_batch(f, (a, b, c), ctx)
    assert loop.call_count == 1
    assert len(loop.call_args.args[2][0]) == 3 * n // 4 == 96
    assert batch_stats()["scalar_lanes"] == 96
    assert batch_stats()["vector_lanes"] == n
    _assert_lanes_match_oracle(f, (a, b, c), res, ctx)


def test_eft_tier_off_under_directed_rounding_or_ftz_daz():
    """Only round-to-nearest without FTZ/DAZ takes the EFT tier; every
    other context runs the host loop on both sides of the limit,
    exactly."""
    f = form("vfmaddps")
    n = _SCALAR_MAX_LANES + 1
    a = array("Q", [0x3FC00000 + i for i in range(n)])
    b = array("Q", [0x3DCCCCCD - i for i in range(n)])
    c = array("Q", [0xBF000000]) * n  # -0.5
    b[3] = 0x00000001  # one subnormal lane
    ctxs = [FPContext(rmode=r) for r in RoundingMode
            if r != RoundingMode.NEAREST]
    ctxs += [FPContext(ftz=True), FPContext(daz=True)]
    for ctx in ctxs:
        for m in (_SCALAR_MAX_LANES, n):
            ops = (a[:m], b[:m], c[:m])
            with _eft_spy() as spy:
                res = execute_batch(f, ops, ctx)
            assert spy.call_count == 0, ctx
            _assert_lanes_match_oracle(f, ops, res, ctx)


#: Float-to-int edges: either side of the int32 range (the integer
#: indefinite and IE), halves that each rounding mode takes its own way,
#: and magnitudes far past the range.
_F2I_EDGES = [2.0**31, -2.0**31, 2.0**31 - 1, 2.0**31 - 0.5, -2.0**31 - 1,
              -2.0**31 - 0.5, 2147483520.0, 1e10, -3e9, 0.5, 1.5, -2.5]

#: ``cvtsi2s*`` sources: the int64 extremes and the first integers that
#: binary32 and binary64 cannot hold.
_INT64S = st.one_of(
    st.sampled_from([0, 1, -1, (1 << 24) + 1, (1 << 53) + 1, -(1 << 53) - 1,
                     (1 << 63) - 1, -(1 << 63)]),
    st.integers(-(1 << 63), (1 << 63) - 1),
)


def _form_lanes(f):
    """One operand lane of ``f``: NaNs, sNaNs, infinities, subnormals and
    overflow boundaries, float-to-int edges, ordinary values and any bit
    pattern; int64 sources for ``cvtsi2s*``."""
    if f.kind is OpKind.CVT_I2F:
        return _INT64S
    if f.fmt is BINARY64:
        specials, to_bits, any_bits = _SPECIALS64, float_to_bits64, bits64
    else:
        specials, to_bits, any_bits = _SPECIALS32, float_to_bits32, bits32
    return st.one_of(
        st.sampled_from(specials),
        st.sampled_from([to_bits(v) for v in _F2I_EDGES]),
        st.floats(-1e6, 1e6, width=f.fmt.width).map(to_bits),
        any_bits,
    )


@settings(max_examples=200, deadline=None)
@given(mnemonic=st.sampled_from(sorted(FORMS)), data=st.data(),
       groups=st.integers(1, 3), ctx=contexts)
def test_every_form_batches_equal_to_execute_form_per_group(
        mnemonic, data, groups, ctx):
    """Every catalogue form, over 1-3 whole groups plus a tail group
    padded as ``FPBlock`` pads it: each group's results, its OR of lane
    flags (and ``BatchResult.group_flags``) and its tininess equal
    ``execute_form``'s, under every rounding mode, FTZ and DAZ.  Kinds
    off the host loop carry their group's codes and tininess on its
    first lane only; results are a ``'q'`` lane array for the
    integer-result kinds and a ``'Q'`` one otherwise."""
    f = form(mnemonic)
    lanes = f.lanes
    tail = data.draw(st.integers(0, lanes - 1))
    n = groups * lanes + tail
    cols = [data.draw(st.lists(_form_lanes(f), min_size=n, max_size=n))
            for _ in range(f.arity)]
    if tail:
        pad = 1 if f.kind is OpKind.CVT_I2F else (
            float_to_bits64(1.0) if f.fmt is BINARY64 else float_to_bits32(1.0))
        cols = [c + [pad] * (lanes - tail) for c in cols]
    op_code, res_code = lane_typecodes(f)
    ops = tuple(array(op_code, c) for c in cols)
    res = execute_batch(f, ops, ctx)
    # The results are the block's result lanes, signed for the
    # integer-result kinds; codes and tininess are lists.
    assert type(res.bits) is array and res.bits.typecode == res_code
    assert (res_code == "q") == (f.kind in INT_RESULT_KINDS)
    assert type(res.flags) is type(res.tiny) is list
    assert all(type(v) is int for v in res.flags)
    for lo in range(0, len(cols[0]), lanes):
        inputs = tuple(zip(*[c[lo:lo + lanes] for c in cols]))
        want = execute_form(f, inputs, ctx)
        hi = lo + lanes
        assert tuple(res.bits[lo:hi]) == want.results, (
            mnemonic, inputs, ctx)
        assert reduce(or_, res.flags[lo:hi]) == want.flags, (
            mnemonic, inputs, ctx)
        assert res.group_flags(lanes)[lo // lanes] == want.flags, mnemonic
        assert any(res.tiny[lo:hi]) == want.tiny, (
            mnemonic, inputs, ctx)
        if f.kind not in BATCH_KINDS:
            assert not any(res.flags[lo + 1:hi]), mnemonic
            assert not any(res.tiny[lo + 1:hi]), mnemonic


def test_batch_stats_account_lanes():
    """``vector_lanes`` counts the lanes of calls that ran the EFT tier,
    not those of other wide calls; ``scalar_lanes`` the lanes computed
    one SoftFPU call each: the host loop's uncertified lanes, and every
    lane under a directed rounding mode; certified lanes are free."""
    reset_batch_stats()
    wide = _SCALAR_MAX_LANES + 1
    f = form("mulsd")
    for n in (8, wide):
        ops = (
            array("Q", [0x3FF0000000000000]) * n,
            array("Q", [0x4000000000000000]) * n,
        )
        execute_batch(f, ops, FPContext())
    ops[0][:3] = array("Q", [0] * 3)  # three zero lanes: outside the window
    execute_batch(f, tuple(o[:8] for o in ops), FPContext())
    execute_batch(f, tuple(o[:5] for o in ops),
                  FPContext(rmode=RoundingMode.UP))
    fma = tuple(array("Q", [float_to_bits32(v)]) * wide
                for v in (1.5, 0.75, 0.25))
    execute_batch(form("vfmaddps"), fma, FPContext())
    execute_batch(form("vfmaddps"), fma, FPContext(rmode=RoundingMode.UP))
    assert batch_stats() == {
        "batches": 6, "lanes": 8 + wide + 8 + 5 + wide + wide,
        "vector_lanes": wide, "scalar_lanes": 3 + 5 + wide,
    }


def test_fma64_runs_scalar_at_any_lane_count():
    """fma64 has no host-loop certificate and never enters the EFT tier:
    every lane is one SoftFPU call, above the host-loop limit too."""
    f = InstructionForm("fma64", OpKind.FMADD, BINARY64, 1)
    n = _SCALAR_MAX_LANES + 5
    a = array("Q", [0x3FF8000000000000]) * n  # 1.5
    b = array("Q", [0x3FB999999999999A]) * n  # 0.1
    c = array("Q", [i << 52 for i in range(n)])
    reset_batch_stats()
    res = execute_batch(f, (a, b, c), FPContext())
    assert batch_stats()["scalar_lanes"] == n
    _assert_lanes_match_oracle(f, (a, b, c), res, FPContext())


# ------------------------------------------------------------ host loop


def _with_field(fmt, sign, field, mant):
    return ((sign << (fmt.width - 1)) | (field << fmt.mant_bits)
            | (mant & fmt.mant_mask))


_FIELDS = {
    BINARY64: [522, 523, 524, 1522, 1523, 1524],
    BINARY32: [26, 27, 28, 226, 227, 228],
}


def _leaning(fmt):
    """Operands that lean on the host loop's windows: the operand window
    edges, ordinary mid-range values, short significands (exact results),
    and any bit pattern."""
    to_bits = float_to_bits64 if fmt is BINARY64 else float_to_bits32
    return st.one_of(
        st.builds(lambda s, e, m: _with_field(fmt, s, e, m),
                  st.integers(0, 1),
                  st.sampled_from(_FIELDS[fmt]),
                  st.integers(0, fmt.mant_mask)),
        st.floats(-2.0**60, 2.0**60, width=fmt.width,
                  allow_nan=False, allow_infinity=False).map(to_bits),
        st.builds(lambda m, e: to_bits(m * 2.0**e),
                  st.integers(-64, 64), st.integers(-30, 30)),
        bits64 if fmt is BINARY64 else bits32,
    )


@settings(max_examples=60, deadline=None)
@given(mnemonic=st.sampled_from(_MNEMONICS), data=st.data(),
       n=st.integers(1, _SCALAR_MAX_LANES))
def test_host_loop_lanes_exact_under_round_to_nearest(mnemonic, data, n):
    """Every lane of the host loop, certified or not, is bit-, flag- and
    tiny-exact against SoftFPU under round-to-nearest."""
    f = form(mnemonic)
    lanes = st.lists(_leaning(f.fmt), min_size=n, max_size=n)
    ops = tuple(array("Q", data.draw(lanes)) for _ in range(f.arity))
    _assert_lanes_match_oracle(f, ops, execute_batch(f, ops, FPContext()),
                               FPContext())


@settings(max_examples=30, deadline=None)
@given(
    mnemonic=st.sampled_from(
        ["addsd", "subsd", "mulsd", "divsd", "sqrtsd", "minsd", "maxsd"]),
    data=st.data(),
    n=st.integers(1, 24),
)
def test_vector_execute_certified_lanes_exact(mnemonic, data, n):
    """``vectorfast.vector_execute`` (off the dispatch, still hooked by
    the benchmark ledger): every lane it certifies carries SoftFPU's
    bits, and PE as its only flag."""
    f = form(mnemonic)
    lanes = st.lists(_leaning(f.fmt), min_size=n, max_size=n)
    ops = tuple(np.array(data.draw(lanes), dtype=np.uint64)
                for _ in range(f.arity))
    bits, pe, certified = vector_execute(f.kind, ops)
    for i in np.nonzero(certified)[0]:
        oracle = _scalar(f.kind, f.fmt, tuple(int(o[i]) for o in ops),
                         FPContext())
        assert int(bits[i]) == oracle.bits, (mnemonic, i)
        assert (PE if pe[i] else 0) == oracle.flags, (mnemonic, i)
        assert not oracle.tiny


#: The operand windows as the contract states them: exponent fields
#: strictly inside, magnitudes [2**-499, 2**500) and [2**-99, 2**100).
_CONTRACT = {BINARY64: (523, 1523), BINARY32: (27, 227)}


@pytest.mark.parametrize("mnemonic", ["minsd", "maxss"])
def test_host_loop_certifies_exactly_the_operand_window(mnemonic):
    """A lane is certified (not counted in ``scalar_lanes``) iff both
    operands' exponent fields lie strictly inside the fast paths' window:
    the fields either side of each edge, with the smallest and largest
    significands, pin it exactly."""
    f = form(mnemonic)
    lo, hi = _CONTRACT[f.fmt]
    one = _with_field(f.fmt, 0, f.fmt.bias, 0)
    for field in _FIELDS[f.fmt]:
        for mant in (0, f.fmt.mant_mask):
            a = array("Q", [_with_field(f.fmt, s, field, mant)
                            for s in (0, 1)] * 2)
            b = array("Q", [one, one, a[0], a[1]])
            reset_batch_stats()
            res = execute_batch(f, (a, b), FPContext())
            inside = lo < field < hi
            assert batch_stats()["scalar_lanes"] == (0 if inside else 4), (
                field, mant)
            _assert_lanes_match_oracle(f, (a, b), res, FPContext())


def test_eft_tier_certifies_exactly_the_operand_window():
    """The EFT tier certifies an FMA32 lane only when every operand's
    exponent field lies strictly inside the window, at each position:
    the other operands are 0.5 (products) and 1.0 (addend), so every
    in-window result stays inside the result window."""
    f = form("vfmaddps")
    lo, hi = _CONTRACT[BINARY32]
    n = _SCALAR_MAX_LANES + 1
    for pos in range(3):
        for field in _FIELDS[BINARY32]:
            for mant in (0, BINARY32.mant_mask):
                ops = [array("Q", [float_to_bits32(v)]) * n
                       for v in (0.5, 0.5, 1.0)]
                ops[pos] = array(
                    "Q", [_with_field(BINARY32, 0, field, mant)]) * n
                certified = batchfloat._eft_fma32(f.kind, tuple(ops))[2]
                res = execute_batch(f, tuple(ops), FPContext())
                inside = lo < field < hi
                if pos < 2 or field < hi:
                    assert certified.all() == inside, (pos, field, mant)
                assert not certified.any() or inside, (pos, field, mant)
                _assert_lanes_match_oracle(f, ops, res, FPContext())


def _fma32_lane(mnemonic, a, b, c):
    f = form(mnemonic)
    ops = tuple(array("Q", [float_to_bits32(v)]) for v in (a, b, c))
    return f, ops


#: Significand pairs (2**23 + x)(2**23 - y) = 2**46 + T with a tiny T of
#: either sign: (x, x) gives T = -x*x, (2896, 2895) gives T = +4688.
_NEAR_ONE = [((1 << 23) + x, (1 << 23) - y)
             for x, y in ((1, 1), (300, 300), (2896, 2895))]


def test_fma32_midpoint_lanes_fall_back_and_stay_exact():
    """``+-c +- a*b`` whose binary64 sum lands on a binary32 midpoint with
    a nonzero residue (RN64 then RN32 would round twice): ``a*b`` is
    ``2**-24 + T*2**-70``, half an ulp of ``c`` in [1, 2) plus a residue
    below half a binary64 ulp, added to or taken from ``c``.  The host
    loop sends the lane to SoftFPU, which is exact; so does the EFT tier
    when the lanes ride one batch above the host loop's."""
    ctx = FPContext()
    cases = 0
    lanes = []
    for m1, m2 in _NEAR_ONE:
        a = m1 * 2.0**-23
        b = m2 * 2.0**-47
        for c in (1.0 + 2.0**-23, 1.5, 1.75 + 2.0**-22):
            # ab + c, c - ab, ab - c and -(ab + c).
            for mnemonic, cc in (("vfmaddss", c), ("vfnmaddss", c),
                                 ("vfmsubss", c), ("vfnmaddss", -c)):
                f, ops = _fma32_lane(mnemonic, a, b, cc)
                reset_batch_stats()
                res = execute_batch(f, ops, ctx)
                _assert_lanes_match_oracle(f, ops, res, ctx)
                assert batch_stats()["scalar_lanes"] == 1, (m1, m2, c)
                cases += 1
                if mnemonic == "vfmaddss":
                    lanes.append([int(o[0]) for o in ops])
    assert cases == 36
    # Nine vfmaddss midpoint lanes among in-window lanes of 1.5*0.75+0.25.
    ordinary = [float_to_bits32(v) for v in (1.5, 0.75, 0.25)]
    rows = lanes + [ordinary] * (_SCALAR_MAX_LANES + 1 - len(lanes))
    f = form("vfmaddss")
    ops = tuple(array("Q", col) for col in zip(*rows))
    reset_batch_stats()
    with _eft_spy() as spy:
        res = execute_batch(f, ops, ctx)
    assert spy.call_count == 1
    assert batch_stats()["scalar_lanes"] == len(lanes) == 9
    _assert_lanes_match_oracle(f, ops, res, ctx)


def test_certified_fma32_and_minmax_lanes_skip_the_canonical_softfloat():
    """In-window FMA32 and min/max lanes never reach ``SoftFPU.fma`` or
    ``SoftFPU._minmax``; a lane outside the window does."""
    ctx = FPContext()
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, (3, 24)) * np.exp2(rng.integers(-20, 20,
                                                                 (3, 24)))
    vals *= rng.choice([-1.0, 1.0], (3, 24))
    ops32 = tuple(array("Q", [float_to_bits32(float(v)) for v in row])
                  for row in vals)
    ops64 = tuple(array("Q", [float_to_bits64(float(v)) for v in row])
                  for row in vals[:2])
    with mock.patch.object(SoftFPU, "fma", autospec=True,
                           side_effect=SoftFPU.fma) as fma, \
            mock.patch.object(SoftFPU, "_minmax", autospec=True,
                              side_effect=SoftFPU._minmax) as minmax:
        for mnemonic in ("vfmaddps", "vfmsubps", "vfnmaddps", "vfmsubss"):
            f = form(mnemonic)
            _assert_lanes_match_oracle(f, ops32, execute_batch(f, ops32, ctx),
                                       ctx)
        for mnemonic, ops in (("minss", ops32[:2]), ("maxss", ops32[:2]),
                              ("minsd", ops64), ("maxsd", ops64)):
            f = form(mnemonic)
            _assert_lanes_match_oracle(f, ops, execute_batch(f, ops, ctx),
                                       ctx)
        # The oracle itself calls SoftFPU: count only execute_batch's calls.
        fma.reset_mock()
        minmax.reset_mock()
        wide = tuple(o * 3 for o in ops32)  # the EFT tier
        assert len(wide[0]) > _SCALAR_MAX_LANES
        for mnemonic in ("vfmaddps", "vfnmaddps"):
            execute_batch(form(mnemonic), ops32, ctx)
            execute_batch(form(mnemonic), wide, ctx)
        for mnemonic, ops in (("minss", ops32[:2]), ("maxsd", ops64)):
            execute_batch(form(mnemonic), ops, ctx)
        assert fma.call_count == 0 and minmax.call_count == 0
        zero = tuple(array("Q", o) for o in ops32)
        zero[2][7] = 0
        execute_batch(form("vfmaddps"), zero, ctx)
        execute_batch(form("minss"), zero[1:], ctx)
        assert fma.call_count == 1 and minmax.call_count == 1
