"""Rounding modes and the core round-and-pack routine.

``round_pack`` is the single funnel through which every arithmetic result
passes.  It converts an exact (or exact-plus-sticky) intermediate value
into a target-format bit pattern and reports exactly which of the
post-computation conditions (Overflow, Underflow, Inexact) the rounding
raised, under x64 MXCSR semantics:

* tininess is detected *after* rounding (SSE behavior): a result is tiny
  when the value, rounded to ``p`` significant bits with an unbounded
  exponent, is below ``2**emin``;
* with the Underflow exception masked, UE is flagged only when the result
  is both tiny and inexact;
* FTZ (flush-to-zero) replaces a tiny result with a signed zero and flags
  UE|PE (it only takes effect when UM is masked; the caller arranges that).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.fp.flags import OE, PE, UE
from repro.fp.formats import BinaryFormat


class RoundingMode(enum.IntEnum):
    """The four IEEE/x64 rounding modes, valued as MXCSR.RC encodings."""

    NEAREST = 0  #: round to nearest, ties to even (default)
    DOWN = 1  #: toward negative infinity
    UP = 2  #: toward positive infinity
    ZERO = 3  #: toward zero (truncate)


@dataclass(frozen=True)
class RoundedValue:
    """Outcome of :func:`round_pack`.

    Attributes
    ----------
    bits:
        The packed result under *masked* exception semantics.
    flags:
        Condition codes (an int of :mod:`repro.fp.flags` bits) under
        masked semantics (OE/UE/PE as appropriate).
    tiny:
        True when the result is tiny (detected after rounding, see the
        module docstring), *regardless* of inexactness.  The machine
        layer uses this for the unmasked-Underflow corner where even an
        exact denormal traps.
    """

    bits: int
    flags: int
    tiny: bool


def round_significand(
    mant: int, shift: int, sign: int, rmode: RoundingMode, sticky: bool
) -> tuple[int, bool]:
    """Shift ``mant`` right by ``shift`` bits with correct rounding.

    ``sticky`` indicates that nonzero value bits were already discarded
    below ``mant`` (e.g. a division remainder).  Returns
    ``(rounded_mantissa, inexact)``.
    """
    if shift <= 0:
        return mant << (-shift), sticky
    lost = mant & ((1 << shift) - 1)
    kept = mant >> shift
    inexact = sticky or lost != 0
    if not inexact:
        return kept, False
    if rmode == RoundingMode.NEAREST:
        half = 1 << (shift - 1)
        if lost > half or (lost == half and (sticky or (kept & 1))):
            kept += 1
    elif rmode == RoundingMode.UP:
        if not sign:
            kept += 1
    elif rmode == RoundingMode.DOWN:
        if sign:
            kept += 1
    # RoundingMode.ZERO truncates: nothing to do.
    return kept, inexact


def overflow_result(fmt: BinaryFormat, sign: int, rmode: RoundingMode) -> int:
    """The masked-overflow result: infinity or max-finite, per mode and sign."""
    if rmode == RoundingMode.ZERO:
        saturate = True
    elif rmode == RoundingMode.DOWN:
        saturate = sign == 0
    elif rmode == RoundingMode.UP:
        saturate = sign == 1
    else:
        saturate = False
    if saturate:
        return (fmt.sign_bit if sign else 0) | fmt.max_finite
    return fmt.inf(sign)


def round_pack(
    fmt: BinaryFormat,
    rmode: RoundingMode,
    sign: int,
    mant: int,
    exp: int,
    sticky: bool = False,
    ftz: bool = False,
) -> RoundedValue:
    """Round the exact value ``(-1)**sign * mant * 2**exp`` into ``fmt``.

    ``mant`` may have any bit length (>= 0); ``sticky`` marks discarded
    low-order value below ``2**exp``.
    """
    if mant == 0:
        # An exact zero (sticky can't be set for a zero intermediate in any
        # of our ops; sums that cancel exactly are truly exact).
        return RoundedValue(fmt.zero(sign), 0, False)

    if sticky and mant.bit_length() < fmt.p + 2:
        # Guarantee the rounding step sees a real right-shift so the sticky
        # residue participates in directed rounding decisions.
        scale = fmt.p + 2 - mant.bit_length()
        mant <<= scale
        exp -= scale

    nb = mant.bit_length()
    e_top = exp + nb - 1  # unbiased exponent of the leading bit

    tiny = e_top < fmt.emin
    if tiny and e_top == fmt.emin - 1:
        # Tininess after rounding: a value just below 2**emin that rounds
        # up to it at p bits is not tiny, and takes the normal path.
        up, _ = round_significand(mant, nb - fmt.p, sign, rmode, sticky)
        tiny = up.bit_length() <= fmt.p
    if tiny:
        # Denormalize: align mantissa so its LSB sits at 2**(emin - (p-1)).
        target_lsb_exp = fmt.emin - fmt.mant_bits
        shift = target_lsb_exp - exp
        kept, inexact = round_significand(mant, shift, sign, rmode, sticky)
        flags = 0
        if ftz and inexact:
            # Flush-to-zero (masked UM only): tiny result becomes signed zero.
            return RoundedValue(fmt.zero(sign), UE | PE, True)
        if kept >= (1 << fmt.mant_bits):
            # Rounding on the denormal grid carried into the normal range,
            # but rounding at p bits did not: min-normal, tiny, UE if
            # inexact.
            bits = (fmt.sign_bit if sign else 0) | fmt.min_normal
            if inexact:
                flags |= UE | PE
            return RoundedValue(bits, flags, True)
        if inexact:
            flags |= UE | PE
        bits = (fmt.sign_bit if sign else 0) | kept
        return RoundedValue(bits, flags, True)

    # Normal range: normalize to exactly p bits.
    shift = nb - fmt.p
    kept, inexact = round_significand(mant, shift, sign, rmode, sticky)
    if kept.bit_length() > fmt.p:
        # Rounding carried out: 0b111..1 + 1 -> 0b1000..0 (p+1 bits).
        kept >>= 1
        e_top += 1

    if e_top > fmt.emax:
        flags = OE | PE
        return RoundedValue(overflow_result(fmt, sign, rmode), flags, False)

    flags = PE if inexact else 0
    biased = e_top + fmt.bias
    bits = (
        (fmt.sign_bit if sign else 0)
        | (biased << fmt.mant_bits)
        | (kept & fmt.mant_mask)
    )
    return RoundedValue(bits, flags, False)
