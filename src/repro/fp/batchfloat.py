"""Batch softfloat: the one entry point for batched FP execution.

:func:`execute_batch` computes, for a batch of same-form operands, the
result bit patterns and all six IEEE condition flags per lane --
bit-equivalent to :class:`repro.fp.softfloat.SoftFPU` including NaN
payload propagation, signed zeros, subnormals, all four rounding modes,
and DAZ/FTZ.  It is the emulate half of the storm fast path
(:mod:`repro.machine.storm`) and commits every covered chunk of
blockexec's quiescent fast path (:mod:`repro.machine.blockexec`).

It picks one of three tiers per call (DESIGN.md #15):

* **EFT:** binary64 add/sub/mul/div/sqrt/min/max under round-to-nearest
  without FTZ/DAZ, from :data:`_EFT_MIN_LANES` lanes up, run the host
  error-free transformations of :mod:`repro.fp.vectorfast`.  Their
  certified lanes carry PE or nothing; every other lane is recomputed
  by the scalar loop, or by the integer kernels when there are more
  than :data:`_SCALAR_MAX_LANES` of them.
* **Scalar:** batches of at most :data:`_SCALAR_MAX_LANES` lanes run
  one loop over the property-tested
  :class:`repro.fp.fastpath.FastSoftFPU`.  A NumPy kernel pays about
  80 ufunc dispatches per call whatever the lane count, while real
  application batches carry a handful of lanes.
* **Integer:** larger batches (the synthetic FMA storm's thousands of
  lanes) run the NumPy integer kernels, which keep the scalar loop for
  the lanes and forms they cannot compute: out-of-window div64/sqrt64
  and wide mul64 lanes, and fma64.

Kernel design notes (the equivalence arguments live in DESIGN.md #11):

* Everything is int64 component arithmetic on (sign, mant, exp)
  decompositions; no host-FPU rounding is ever architecturally visible.
* add/sub/fma sums use *jammed alignment*: operands are aligned to a
  common W-bit window (W = p+4 for add/sub, 52 for fma32) and discarded
  low bits are OR-ed into bit 0.  The anchor operand is never jammed;
  a jammed lane forces a final rounding shift >= 3, and the jam bit's
  odd parity keeps every lost-vs-half comparison identical to the exact
  computation, so ``round_pack`` decisions cannot diverge.
* mul64 splits 53-bit mantissas into 26/27-bit limbs and rounds the
  106-bit product via the sticky parameter; mul32/div32/sqrt32 products,
  quotients and roots fit int64 exactly.
* div64/sqrt64 use the host FPU *only* to propose a round-to-nearest
  candidate inside a certified mid-range exponent window; the exactly
  representable residual (classical division/sqrt residual theorems,
  computed with vectorfast's two-product) gives the inexact flag and
  the directed-mode +-1ulp correction.
* fma64 has no int64-exact kernel (no catalogue form needs one: every
  FMA form is binary32).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.fp.flags import DE, IE, OE, PE, UE, ZE
from repro.fp.formats import BINARY32, BINARY64, BinaryFormat
from repro.fp.fastpath import FastSoftFPU
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import FPContext
from repro.fp.vectorfast import _two_prod_err, vector_execute
from repro.isa.forms import InstructionForm, OpKind

_I = np.int64
_U = np.uint64

_FPU = FastSoftFPU()

#: Batches of at most this many lanes (outside the EFT tier) run the
#: scalar FastSoftFPU loop; larger ones run the integer kernels.  Set
#: from the per-form crossover table in DESIGN.md #15: the kernels start
#: to win at 16 lanes for min/max, 32-40 for FMA and for any form under
#: directed rounding, and 48-192 for the host-fast-path forms under
#: round-to-nearest.
_SCALAR_MAX_LANES = 32

#: binary64 batches of at least this many lanes of an EFT kind, under
#: round-to-nearest without FTZ/DAZ, run the host EFT kernels of
#: :mod:`repro.fp.vectorfast`.  Set from the crossover measured in
#: DESIGN.md #15 (amendment).
_EFT_MIN_LANES = 12

#: Kinds the EFT tier certifies (FMA has no vector EFT).
_EFT_KINDS: frozenset[OpKind] = frozenset(
    {
        OpKind.ADD,
        OpKind.SUB,
        OpKind.MUL,
        OpKind.DIV,
        OpKind.SQRT,
        OpKind.MIN,
        OpKind.MAX,
    }
)

#: Kinds execute_batch covers bit-exactly.
BATCH_KINDS: frozenset[OpKind] = _EFT_KINDS | {
    OpKind.FMADD,
    OpKind.FMSUB,
    OpKind.FNMADD,
    OpKind.FNMSUB,
}

#: Host-EFT certification window for div64/sqrt64 (biased exponent field
#: of every operand must lie strictly inside).  Inside it the candidate,
#: its +-1ulp neighbours, and the two_prod error terms are all normal,
#: so the residual sign is exact.  div shares vectorfast's window.
_DIV64_WIN = (523, 1523)
_SQRT64_WIN = (300, 1800)

_STATS = {"batches": 0, "lanes": 0, "scalar_lanes": 0}


def batch_stats() -> dict:
    """Batches, their lanes, and the lanes the scalar loop computed."""
    return dict(_STATS)


def reset_batch_stats() -> None:
    for k in _STATS:
        _STATS[k] = 0


def batch_covered(form: InstructionForm) -> bool:
    """True when :func:`execute_batch` handles this form bit-exactly."""
    return form.kind in BATCH_KINDS and form.fmt in (BINARY32, BINARY64)


@dataclass
class BatchResult:
    """Per-lane outcome of one batch execution.

    ``bits`` are uint64 result patterns (low ``width`` bits significant),
    ``flags`` int64 flag bits per lane, ``tiny`` the pre-rounding
    tininess indicator (the unmasked-UE corner).
    """

    bits: np.ndarray
    flags: np.ndarray
    tiny: np.ndarray


# --------------------------------------------------------------- plumbing


class _Fmt:
    """Precomputed per-format constants (plain ints + uint64 scalars)."""

    _CACHE: dict[int, "_Fmt"] = {}

    def __init__(self, fmt: BinaryFormat) -> None:
        self.fmt = fmt
        self.width = fmt.width
        self.p = fmt.p
        self.mant_bits = fmt.mant_bits
        self.exp_mask = fmt.exp_mask
        self.mant_mask = fmt.mant_mask
        self.bias = fmt.bias
        self.emin = fmt.emin
        self.emax = fmt.emax
        self.quiet_bit = fmt.quiet_bit
        self.min_normal = fmt.min_normal
        self.max_finite = fmt.max_finite
        self.sign_u = _U(fmt.sign_bit)
        self.pos_inf_u = _U(fmt.pos_inf)
        self.indefinite_u = _U(fmt.indefinite)
        self.quiet_u = _U(fmt.quiet_bit)
        self.value_mask_u = _U((1 << fmt.width) - 1)

    @classmethod
    def of(cls, fmt: BinaryFormat) -> "_Fmt":
        f = cls._CACHE.get(fmt.width)
        if f is None:
            f = cls._CACHE[fmt.width] = _Fmt(fmt)
        return f


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Per-element ``int.bit_length`` for non-negative int64 (no float
    detour: values >= 2**53 would lose bits)."""
    v = v.astype(_I, copy=True)
    n = np.zeros(v.shape, _I)
    for s in (32, 16, 8, 4, 2, 1):
        t = v >> s
        big = t != 0
        n[big] += s
        v = np.where(big, t, v)
    n += (v != 0).astype(_I)
    return n


def _shl(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``v << s`` with the shift clamped into [0, 63] (callers guarantee
    any clamped lane is either masked out or semantically saturated)."""
    return v << np.clip(s, 0, 63)


def _shr_jam(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Logical right shift OR-ing every lost bit into bit 0 (jamming)."""
    s = np.clip(s, 0, 63)
    lost = v & ((_I(1) << s) - _I(1))
    return (v >> s) | (lost != 0)


def _pack(F: _Fmt, sign: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Assemble uint64 bit patterns from a sign bit and the low field."""
    return (sign.astype(_U) << _U(F.width - 1)) | low.astype(_U)


def _zero_u(F: _Fmt, sign: np.ndarray) -> np.ndarray:
    return np.where(sign != 0, F.sign_u, _U(0))


def _inf_u(F: _Fmt, sign: np.ndarray) -> np.ndarray:
    return _zero_u(F, sign) | F.pos_inf_u


class _Cls:
    """Classified operand bundle (mirrors softfloat ``_classify``)."""

    __slots__ = ("u", "sign", "m", "x", "de", "nan", "snan", "inf",
                 "zero", "fin", "expf")


def _classify_batch(F: _Fmt, raw: np.ndarray, daz: bool) -> _Cls:
    u = raw.astype(_U, copy=False) & F.value_mask_u
    c = _Cls()
    c.u = u
    c.sign = ((u >> _U(F.width - 1)) & _U(1)).astype(_I)
    expf = ((u >> _U(F.mant_bits)) & _U(F.exp_mask)).astype(_I)
    mantf = (u & _U(F.mant_mask)).astype(_I)
    c.expf = expf
    special = expf == F.exp_mask
    c.nan = special & (mantf != 0)
    c.snan = c.nan & ((mantf & F.quiet_bit) == 0)
    c.inf = special & (mantf == 0)
    sub = (expf == 0) & (mantf != 0)
    zero = (expf == 0) & (mantf == 0)
    if daz:
        zero = zero | sub
        c.de = np.zeros(u.shape, np.bool_)
    else:
        c.de = sub
    c.zero = zero
    c.fin = ~special & ~zero
    m = np.where(expf > 0, mantf | _I(1 << F.mant_bits), mantf)
    c.m = np.where(c.fin, m, _I(0))
    x = np.where(
        expf > 0, expf - _I(F.bias + F.mant_bits), _I(F.emin - F.mant_bits)
    )
    c.x = np.where(c.fin, x, _I(0))
    return c


def _nan_select(F: _Fmt, ops: tuple[_Cls, ...]) -> tuple[np.ndarray, np.ndarray]:
    """x64 NaN propagation: first NaN source quieted; IE on any SNaN.

    Returns ``(result_bits, ie_mask)`` -- only meaningful on lanes where
    at least one operand is a NaN.
    """
    n = ops[0].u.shape[0]
    res = np.full(n, F.indefinite_u, _U)
    picked = np.zeros(n, np.bool_)
    snan = np.zeros(n, np.bool_)
    for c in ops:
        snan |= c.snan
        take = c.nan & ~picked
        res = np.where(take, c.u | F.quiet_u, res)
        picked |= take
    return res, snan


# ------------------------------------------------------- round-and-pack


def _round_sig_vec(mant, shift, sign, rmode, sticky):
    """Vectorized ``round_significand``; callers guarantee shift <= 63
    wherever the lane is live (clamping is semantics-preserving)."""
    neg = shift <= 0
    sp = np.clip(shift, 0, 63)
    lost = mant & ((_I(1) << sp) - _I(1))
    kept = mant >> sp
    left = _shl(mant, -shift)
    inexact = np.where(neg, sticky, sticky | (lost != 0))
    if rmode == RoundingMode.NEAREST:
        half = _I(1) << np.maximum(sp - 1, 0)
        bump = (lost > half) | ((lost == half) & (sticky | ((kept & 1) != 0)))
        bump &= sp > 0
    elif rmode == RoundingMode.UP:
        bump = (sign == 0) & inexact
    elif rmode == RoundingMode.DOWN:
        bump = (sign != 0) & inexact
    else:  # ZERO truncates
        bump = np.zeros(mant.shape, np.bool_)
    bump = bump & ~neg
    kept = np.where(neg, left, kept + bump.astype(_I))
    return kept, inexact


def _round_pack_vec(F, rmode, sign, mant, exp, sticky, ftz):
    """Vectorized ``round_pack``: exact (-1)**sign * mant * 2**exp (plus
    optional sticky residue) into format bits + flags + tiny.

    ``sign``/``mant``/``exp`` int64 arrays, ``sticky`` bool array.
    Returns ``(bits_u64, flags_i64, tiny_bool)``.
    """
    mant = mant.astype(_I, copy=True)
    exp = exp.astype(_I, copy=True)
    is_zero = mant == 0

    bl = _bit_length(mant)
    pre = sticky & (bl < F.p + 2) & ~is_zero
    scale = np.where(pre, _I(F.p + 2) - bl, _I(0))
    mant = _shl(mant, scale)
    exp -= scale
    bl = np.where(pre, _I(F.p + 2), bl)

    e_top = exp + bl - 1
    tiny = (e_top < F.emin) & ~is_zero

    # --- tiny branch (computed everywhere, selected at the end) ---------
    # Losing a whole 63-bit significand takes a 64-bit shift, past what
    # int64 can shift: jam such lanes down one bit first (a tiny result
    # keeps at least 10 bits below its rounding position, so bit 0 only
    # ever feeds the sticky bit).
    wide = bl > 62
    mant_t = np.where(wide, _shr_jam(mant, wide.astype(_I)), mant)
    exp_t = exp + wide
    shift_t = np.minimum(_I(F.emin - F.mant_bits) - exp_t, bl - wide + 1)
    kept_t, inex_t = _round_sig_vec(mant_t, shift_t, sign, rmode, sticky)
    carry_t = kept_t >= (_I(1) << _I(F.mant_bits))
    low_t = np.where(carry_t, _I(F.min_normal), kept_t)
    bits_t = _pack(F, sign, low_t)
    flags_t = np.where(inex_t, _I(UE | PE), _I(0))
    if ftz:
        bits_t = np.where(inex_t, _zero_u(F, sign), bits_t)

    # --- normal branch --------------------------------------------------
    shift_n = bl - F.p
    kept_n, inex_n = _round_sig_vec(mant, shift_n, sign, rmode, sticky)
    carry_n = kept_n >= (_I(1) << _I(F.p))
    kept_n = np.where(carry_n, kept_n >> 1, kept_n)
    e_fin = e_top + carry_n.astype(_I)
    over = e_fin > F.emax

    if rmode == RoundingMode.ZERO:
        saturate = np.ones(mant.shape, np.bool_)
    elif rmode == RoundingMode.DOWN:
        saturate = sign == 0
    elif rmode == RoundingMode.UP:
        saturate = sign != 0
    else:
        saturate = np.zeros(mant.shape, np.bool_)
    over_bits = np.where(
        saturate,
        _pack(F, sign, np.full(mant.shape, _I(F.max_finite))),
        _inf_u(F, sign),
    )

    biased = np.clip(e_fin + F.bias, 0, F.exp_mask)
    low_n = (biased << _I(F.mant_bits)) | (kept_n & _I(F.mant_mask))
    bits_n = np.where(over, over_bits, _pack(F, sign, low_n))
    flags_n = np.where(
        over, _I(OE | PE), np.where(inex_n, _I(PE), _I(0))
    )

    bits = np.where(tiny, bits_t, bits_n)
    flags = np.where(tiny, flags_t, flags_n)
    bits = np.where(is_zero, _zero_u(F, sign), bits)
    flags = np.where(is_zero, _I(0), flags)
    return bits, flags, tiny


# ------------------------------------------------------------ jammed sums


def _jammed_sum(F, W, sa, ma, xa, sb, mb, xb):
    """Signed sum of two (sign, mant, exp) lanes aligned into a W-bit
    window with jamming.  Returns ``(total_i64, base_exp)``; zero-operand
    lanes (m == 0) contribute nothing, so one-operand-zero lanes reduce
    to an exact round_pack of the other operand."""
    bla = _bit_length(ma)
    blb = _bit_length(mb)
    sentinel = _I(-1) << 40
    topa = np.where(ma > 0, xa + bla, sentinel)
    topb = np.where(mb > 0, xb + blb, sentinel)
    base = np.maximum(topa, topb) - W
    da = xa - base
    db = xb - base
    Ma = np.where(da >= 0, _shl(ma, da), _shr_jam(ma, -da))
    Mb = np.where(db >= 0, _shl(mb, db), _shr_jam(mb, -db))
    Ma = np.where(ma > 0, Ma, _I(0))
    Mb = np.where(mb > 0, Mb, _I(0))
    total = np.where(sa != 0, -Ma, Ma) + np.where(sb != 0, -Mb, Mb)
    return total, base


def _rz_zero_sign(rmode) -> int:
    """Sign of an exact-cancellation zero: -0 under round-down else +0."""
    return 1 if rmode == RoundingMode.DOWN else 0


# ------------------------------------------------------------- kernels
#
# Each kernel returns (bits_u64, flags_i64, tiny_bool, fallback_bool).
# Overrides are applied lowest-priority-first so later np.where wins,
# mirroring the scalar control flow run backwards.


def _addsub_kernel(F, A, B, ctx, negate_b):
    de = np.where(A.de | B.de, _I(DE), _I(0))
    sa = A.sign
    sb = B.sign ^ _I(1 if negate_b else 0)

    total, base = _jammed_sum(F, F.p + 4, sa, A.m, A.x, sb, B.m, B.x)
    sign_t = (total < 0).astype(_I)
    mag = np.abs(total)
    no_sticky = np.zeros(mag.shape, np.bool_)
    bits, rflags, tiny = _round_pack_vec(
        F, ctx.rmode, sign_t, mag, base, no_sticky, ctx.ftz
    )
    flags = de | rflags

    zs = _I(_rz_zero_sign(ctx.rmode))
    cancel = total == 0
    bits = np.where(cancel, _zero_u(F, np.broadcast_to(zs, mag.shape)), bits)
    flags = np.where(cancel, de, flags)
    tiny = tiny & ~cancel

    bothzero = A.zero & B.zero
    bz_sign = np.where(sa == sb, sa, np.broadcast_to(zs, sa.shape))
    bits = np.where(bothzero, _zero_u(F, bz_sign), bits)
    flags = np.where(bothzero, de, flags)

    b_inf = B.inf
    a_inf = A.inf
    inf_any = a_inf | b_inf
    inf_sign = np.where(a_inf, sa, sb)
    bits = np.where(inf_any, _inf_u(F, inf_sign), bits)
    flags = np.where(inf_any, de, flags)
    tiny = tiny & ~inf_any
    conflict = a_inf & b_inf & (sa != sb)
    bits = np.where(conflict, F.indefinite_u, bits)
    flags = np.where(conflict, de | _I(IE), flags)

    nan_bits, snan = _nan_select(F, (A, B))
    nan_any = A.nan | B.nan
    bits = np.where(nan_any, nan_bits, bits)
    flags = np.where(nan_any, de | np.where(snan, _I(IE), _I(0)), flags)
    tiny = tiny & ~nan_any
    return bits, flags, tiny, np.zeros(mag.shape, np.bool_)


def _mul_kernel(F, A, B, ctx):
    de = np.where(A.de | B.de, _I(DE), _I(0))
    sign = A.sign ^ B.sign
    n = A.u.shape[0]
    fallback = np.zeros(n, np.bool_)

    if F.width == 32:
        mant = A.m * B.m  # < 2**48: always exact in int64
        exp = A.x + B.x
        sticky = np.zeros(n, np.bool_)
    else:
        bla = _bit_length(A.m)
        blb = _bit_length(B.m)
        exact = bla + blb <= 63
        mant = np.where(exact, A.m * B.m, _I(0))
        exp = A.x + B.x
        sticky = np.zeros(n, np.bool_)
        limb = ~exact & (A.m >= _I(1 << 52)) & (B.m >= _I(1 << 52))
        if limb.any():
            M26 = _I((1 << 26) - 1)
            al, ah = A.m & M26, A.m >> 26
            bl_, bh = B.m & M26, B.m >> 26
            t0 = al * bl_
            t1 = ah * bl_ + al * bh
            t2 = ah * bh
            c0 = t0 + ((t1 & _I((1 << 24) - 1)) << 26)
            hi = (t2 << 2) + (t1 >> 24) + (c0 >> 50)
            st = (c0 & _I((1 << 50) - 1)) != 0
            mant = np.where(limb, hi, mant)
            exp = np.where(limb, A.x + B.x + 50, exp)
            sticky = np.where(limb, st, sticky)
        fallback = A.fin & B.fin & ~exact & ~limb

    bits, rflags, tiny = _round_pack_vec(
        F, ctx.rmode, sign, mant, exp, sticky, ctx.ftz
    )
    flags = de | rflags

    zero_any = (A.zero | B.zero)
    bits = np.where(zero_any, _zero_u(F, sign), bits)
    flags = np.where(zero_any, de, flags)
    tiny = tiny & ~zero_any

    inf_any = A.inf | B.inf
    bits = np.where(inf_any, _inf_u(F, sign), bits)
    flags = np.where(inf_any, de, flags)
    tiny = tiny & ~inf_any
    zero_inf = (A.zero & B.inf) | (A.inf & B.zero)
    bits = np.where(zero_inf, F.indefinite_u, bits)
    flags = np.where(zero_inf, de | _I(IE), flags)

    nan_bits, snan = _nan_select(F, (A, B))
    nan_any = A.nan | B.nan
    bits = np.where(nan_any, nan_bits, bits)
    flags = np.where(nan_any, de | np.where(snan, _I(IE), _I(0)), flags)
    tiny = tiny & ~nan_any
    fallback &= ~nan_any & ~inf_any & ~zero_any
    return bits, flags, tiny, fallback


def _directed_adjust(q_u, pos, inexact, rmode):
    """+-1ulp correction of an RN candidate for directed modes.

    ``pos`` = true value above the candidate.  Valid only where
    neighbours cannot cross zero/inf/subnormal boundaries (the windows
    guarantee that).  Returns adjusted uint64 bits.
    """
    qi = q_u.astype(_I)
    q_neg = qi < 0
    up = np.where(q_neg, _I(-1), _I(1))      # next_up = bits + up
    if rmode == RoundingMode.NEAREST:
        adj = _I(0)
    elif rmode == RoundingMode.UP:
        adj = np.where(pos, up, _I(0))
    elif rmode == RoundingMode.DOWN:
        adj = np.where(pos, _I(0), -up)
    else:  # ZERO: floor for positive, ceil for negative
        adj = np.where(
            q_neg, np.where(pos, up, _I(0)), np.where(pos, _I(0), -up)
        )
    return (qi + np.where(inexact, adj, _I(0))).astype(_U)


def _div_kernel(F, A, B, ctx):
    de = np.where(A.de | B.de, _I(DE), _I(0))
    sign = A.sign ^ B.sign
    n = A.u.shape[0]
    live = A.fin & B.fin

    if F.width == 32:
        blb = _bit_length(B.m)
        bla = _bit_length(A.m)
        shift = _I(F.p + 3) + np.maximum(_I(0), blb - bla)
        dividend = _shl(A.m, shift)
        divisor = np.where(B.m > 0, B.m, _I(1))
        q, rem = np.divmod(dividend, divisor)
        bits, rflags, tiny = _round_pack_vec(
            F, ctx.rmode, sign, q, A.x - B.x - shift, rem != 0, ctx.ftz
        )
        fallback = np.zeros(n, np.bool_)
    else:
        lo, hi = _DIV64_WIN
        win = (
            live
            & (A.expf > lo) & (A.expf < hi)
            & (B.expf > lo) & (B.expf < hi)
        )
        fa = A.u.view(np.float64)
        fb = B.u.view(np.float64)
        fb_safe = np.where(win, fb, 1.0)
        fa_safe = np.where(win, fa, 1.0)
        q = fa_safe / fb_safe
        p = q * fb_safe
        r = (fa_safe - p) - _two_prod_err(q, fb_safe, p)
        inexact = r != 0.0
        pos = (r > 0.0) != (fb_safe < 0.0)
        bits = _directed_adjust(q.view(_U), pos, inexact, ctx.rmode)
        rflags = np.where(inexact, _I(PE), _I(0))
        tiny = np.zeros(n, np.bool_)
        fallback = live & ~win
        bits = np.where(win, bits, _U(0))
        rflags = np.where(win, rflags, _I(0))
    flags = de | rflags

    a_inf, b_inf = A.inf, B.inf
    a_zero, b_zero = A.zero, B.zero
    bits = np.where(a_zero, _zero_u(F, sign), bits)
    flags = np.where(a_zero, de, flags)
    tiny = tiny & ~a_zero
    dbz = b_zero & A.fin
    bits = np.where(dbz, _inf_u(F, sign), bits)
    flags = np.where(dbz, de | _I(ZE), flags)
    tiny = tiny & ~dbz
    bits = np.where(b_inf, _zero_u(F, sign), bits)
    flags = np.where(b_inf, de, flags)
    bits = np.where(a_inf, _inf_u(F, sign), bits)
    flags = np.where(a_inf, de, flags)
    tiny = tiny & ~b_inf & ~a_inf
    indef = (a_inf & b_inf) | (a_zero & b_zero)
    bits = np.where(indef, F.indefinite_u, bits)
    flags = np.where(indef, de | _I(IE), flags)

    nan_bits, snan = _nan_select(F, (A, B))
    nan_any = A.nan | B.nan
    bits = np.where(nan_any, nan_bits, bits)
    flags = np.where(nan_any, de | np.where(snan, _I(IE), _I(0)), flags)
    tiny = tiny & ~nan_any
    return bits, flags, tiny, fallback


def _sqrt_kernel(F, A, ctx):
    de = np.where(A.de, _I(DE), _I(0))
    n = A.u.shape[0]
    sign = A.sign
    live = A.fin & (sign == 0)

    if F.width == 32:
        bl = _bit_length(A.m)
        t = _I(51) - bl
        t = t + ((A.x - t) & _I(1))
        mp = _shl(np.where(live, A.m, _I(1)), t)
        r = np.sqrt(mp.astype(np.float64)).astype(_I)
        r = np.where(r * r > mp, r - 1, r)
        r = np.where(r * r > mp, r - 1, r)
        r = np.where((r + 1) * (r + 1) <= mp, r + 1, r)
        r = np.where((r + 1) * (r + 1) <= mp, r + 1, r)
        sticky = r * r != mp
        bits, rflags, tiny = _round_pack_vec(
            F, ctx.rmode, np.zeros(n, _I), r, (A.x - t) >> 1, sticky, ctx.ftz
        )
        fallback = np.zeros(n, np.bool_)
    else:
        lo, hi = _SQRT64_WIN
        win = live & (A.expf > lo) & (A.expf < hi)
        fa = np.where(win, A.u.view(np.float64), 1.0)
        r = np.sqrt(fa)
        p = r * r
        d = (fa - p) - _two_prod_err(r, r, p)
        inexact = d != 0.0
        pos = d > 0.0
        bits = _directed_adjust(r.view(_U), pos, inexact, ctx.rmode)
        rflags = np.where(inexact, _I(PE), _I(0))
        tiny = np.zeros(n, np.bool_)
        fallback = live & ~win
        bits = np.where(win, bits, _U(0))
        rflags = np.where(win, rflags, _I(0))
    flags = de | rflags

    bits = np.where(A.zero, _zero_u(F, sign), bits)
    flags = np.where(A.zero, de, flags)
    tiny = tiny & ~A.zero
    neg = (sign != 0) & (A.fin | A.inf)
    bits = np.where(neg, F.indefinite_u, bits)
    flags = np.where(neg, de | _I(IE), flags)
    pinf = A.inf & (sign == 0)
    bits = np.where(pinf, F.pos_inf_u, bits)
    flags = np.where(pinf, de, flags)
    tiny = tiny & ~neg & ~pinf

    nan_bits, snan = _nan_select(F, (A,))
    bits = np.where(A.nan, nan_bits, bits)
    flags = np.where(A.nan, de | np.where(snan, _I(IE), _I(0)), flags)
    tiny = tiny & ~A.nan
    return bits, flags, tiny, fallback


def _fma_kernel(F, A, B, C, ctx, negate_product, negate_c):
    de = np.where(A.de | B.de | C.de, _I(DE), _I(0))
    psign = A.sign ^ B.sign ^ _I(1 if negate_product else 0)
    csign = C.sign ^ _I(1 if negate_c else 0)
    n = A.u.shape[0]

    pm = A.m * B.m  # binary32 only: < 2**48, exact
    px = A.x + B.x
    total, base = _jammed_sum(F, 52, psign, pm, px, csign, C.m, C.x)
    sign_t = (total < 0).astype(_I)
    mag = np.abs(total)
    no_sticky = np.zeros(n, np.bool_)
    bits, rflags, tiny = _round_pack_vec(
        F, ctx.rmode, sign_t, mag, base, no_sticky, ctx.ftz
    )
    flags = de | rflags

    zs = _I(_rz_zero_sign(ctx.rmode))
    cancel = total == 0
    bits = np.where(cancel, _zero_u(F, np.broadcast_to(zs, mag.shape)), bits)
    flags = np.where(cancel, de, flags)
    tiny = tiny & ~cancel
    bothzero = (pm == 0) & (C.m == 0) & ~A.nan & ~B.nan & ~C.nan \
        & ~A.inf & ~B.inf & ~C.inf
    bz_sign = np.where(psign == csign, psign, np.broadcast_to(zs, psign.shape))
    bits = np.where(bothzero, _zero_u(F, bz_sign), bits)
    flags = np.where(bothzero, de, flags)

    c_inf = C.inf
    bits = np.where(c_inf, _inf_u(F, csign), bits)
    flags = np.where(c_inf, de, flags)
    tiny = tiny & ~c_inf
    p_inf = A.inf | B.inf
    bits = np.where(p_inf, _inf_u(F, psign), bits)
    flags = np.where(p_inf, de, flags)
    tiny = tiny & ~p_inf
    conflict = p_inf & c_inf & (csign != psign)
    bits = np.where(conflict, F.indefinite_u, bits)
    flags = np.where(conflict, de | _I(IE), flags)
    zero_inf = (A.zero & B.inf) | (A.inf & B.zero)
    bits = np.where(zero_inf, F.indefinite_u, bits)
    flags = np.where(zero_inf, de | _I(IE), flags)

    nan_bits, snan = _nan_select(F, (A, B, C))
    nan_any = A.nan | B.nan | C.nan
    extra = np.where(zero_inf, _I(IE), _I(0))
    bits = np.where(nan_any, nan_bits, bits)
    flags = np.where(
        nan_any, de | np.where(snan, _I(IE), _I(0)) | extra, flags
    )
    tiny = tiny & ~nan_any
    return bits, flags, tiny, np.zeros(n, np.bool_)


def _minmax_kernel(F, A, B, want_min):
    de = np.where(A.de | B.de, _I(DE), _I(0))
    n = A.u.shape[0]
    mag_a = np.where(A.zero, _U(0), A.u & ~F.sign_u).astype(_I)
    mag_b = np.where(B.zero, _U(0), B.u & ~F.sign_u).astype(_I)
    sa, sb = A.sign, B.sign
    cmp_mag = np.sign(mag_a - mag_b)
    cmp_same = np.where(sa != 0, -cmp_mag, cmp_mag)
    az, bz = A.zero, B.zero
    cmp = np.where(
        az & bz,
        _I(0),
        np.where(
            az,
            np.where(sb != 0, _I(1), _I(-1)),
            np.where(
                bz,
                np.where(sa != 0, _I(-1), _I(1)),
                np.where(
                    sa != sb, np.where(sa != 0, _I(-1), _I(1)), cmp_same
                ),
            ),
        ),
    )
    take_a = ((cmp < 0) == want_min) & (cmp != 0)
    bits = np.where(take_a, A.u, B.u)
    nan_any = A.nan | B.nan
    bits = np.where(nan_any, B.u, bits)
    flags = de | np.where(nan_any & (A.snan | B.snan), _I(IE), _I(0))
    return bits, flags, np.zeros(n, np.bool_), np.zeros(n, np.bool_)


# ----------------------------------------------------------- entry point

#: (negate_product, negate_c) per FMA family kind (mirrors semantics).
_FMA_NEGATE = {
    OpKind.FMADD: (False, False),
    OpKind.FMSUB: (False, True),
    OpKind.FNMADD: (True, False),
    OpKind.FNMSUB: (True, True),
}


def _scalar_batch(kind, fmt, operands, ctx) -> BatchResult:
    """Every lane through :class:`FastSoftFPU`, one Python call each."""
    if kind in _FMA_NEGATE:
        neg_p, neg_c = _FMA_NEGATE[kind]
        op = partial(_FPU.fma, negate_product=neg_p, negate_c=neg_c)
    else:
        op = getattr(_FPU, kind.name.lower())
    bits, flags, tiny = [], [], []
    for lane in zip(*(o.tolist() for o in operands)):
        r = op(fmt, *lane, ctx)
        bits.append(r.bits)
        flags.append(r.flags)
        tiny.append(r.tiny)
    return BatchResult(
        np.array(bits, _U), np.array(flags, _I), np.array(tiny, np.bool_))


def _vector_batch(form, operands, ctx) -> BatchResult:
    """The NumPy kernels (any lane count; fma64 excluded), with the lanes
    a kernel cannot compute recomputed by :func:`_scalar_batch`."""
    kind = form.kind
    F = _Fmt.of(form.fmt)
    with np.errstate(all="ignore"):
        cls = tuple(_classify_batch(F, o, ctx.daz) for o in operands)
        if kind is OpKind.ADD:
            out = _addsub_kernel(F, cls[0], cls[1], ctx, False)
        elif kind is OpKind.SUB:
            out = _addsub_kernel(F, cls[0], cls[1], ctx, True)
        elif kind is OpKind.MUL:
            out = _mul_kernel(F, cls[0], cls[1], ctx)
        elif kind is OpKind.DIV:
            out = _div_kernel(F, cls[0], cls[1], ctx)
        elif kind is OpKind.SQRT:
            out = _sqrt_kernel(F, cls[0], ctx)
        elif kind is OpKind.MIN:
            out = _minmax_kernel(F, cls[0], cls[1], True)
        elif kind is OpKind.MAX:
            out = _minmax_kernel(F, cls[0], cls[1], False)
        else:
            neg_p, neg_c = _FMA_NEGATE[kind]
            out = _fma_kernel(F, cls[0], cls[1], cls[2], ctx, neg_p, neg_c)
    bits, flags, tiny, fallback = out
    if fallback.any():
        idx = np.nonzero(fallback)[0]
        _STATS["scalar_lanes"] += len(idx)
        sub = _scalar_batch(
            kind, form.fmt, tuple(o[idx] for o in operands), ctx)
        bits[idx] = sub.bits
        flags[idx] = sub.flags
        tiny[idx] = sub.tiny
    return BatchResult(bits, flags, tiny)


def execute_batch(
    form: InstructionForm,
    operands: tuple[np.ndarray, ...],
    ctx: FPContext,
) -> BatchResult:
    """Execute one batch: ``operands[i]`` is the uint64 bit-pattern array
    for operand position ``i`` (all the same length = total lane count).

    Bit-equivalent to running :class:`SoftFPU` per lane under ``ctx``.
    The tier is picked per call (DESIGN.md #15): the EFT kernels for
    at least :data:`_EFT_MIN_LANES` binary64 lanes of an EFT kind under
    round-to-nearest without FTZ/DAZ, with the lanes they cannot
    certify recomputed by the scalar loop, or by the integer kernels
    when there are more than :data:`_SCALAR_MAX_LANES` of them; else
    the scalar loop for at most :data:`_SCALAR_MAX_LANES` lanes (and
    fma64); else the integer kernels.
    """
    if not batch_covered(form):
        raise NotImplementedError(f"batchfloat does not cover {form}")
    n = operands[0].shape[0]
    _STATS["batches"] += 1
    _STATS["lanes"] += n
    if (
        n >= _EFT_MIN_LANES
        and form.kind in _EFT_KINDS
        and form.fmt is BINARY64
        and ctx.rmode == RoundingMode.NEAREST
        and not ctx.ftz
        and not ctx.daz
    ):
        bits, pe, certified = vector_execute(form.kind, operands)
        flags = np.where(pe, _I(PE), _I(0))
        tiny = np.zeros(n, np.bool_)
        if not certified.all():
            idx = np.nonzero(~certified)[0]
            sub_ops = tuple(o[idx] for o in operands)
            if len(idx) <= _SCALAR_MAX_LANES:
                _STATS["scalar_lanes"] += len(idx)
                sub = _scalar_batch(form.kind, form.fmt, sub_ops, ctx)
            else:
                sub = _vector_batch(form, sub_ops, ctx)
            bits[idx] = sub.bits
            flags[idx] = sub.flags
            tiny[idx] = sub.tiny
        return BatchResult(bits, flags, tiny)
    if n <= _SCALAR_MAX_LANES or (
        form.kind in _FMA_NEGATE and form.fmt.width == 64
    ):
        _STATS["scalar_lanes"] += n
        return _scalar_batch(form.kind, form.fmt, operands, ctx)
    return _vector_batch(form, operands, ctx)
