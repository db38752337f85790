"""IEEE 754 binary interchange formats and bit-level encode/decode.

Values are carried through the simulator as raw bit patterns (Python ints)
so that NaN payloads, signed zeros, and denormals survive untouched --
exactly as they would in an XMM register.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BinaryFormat:
    """Description of one IEEE 754 binary format.

    Attributes
    ----------
    name:
        Human-readable name ("binary64").
    width:
        Total storage width in bits.
    p:
        Precision: significand length in bits *including* the implicit bit.
    emax:
        Maximum unbiased exponent of a normal number.
    """

    name: str
    width: int
    p: int
    emax: int

    # Derived constants: plain attributes set once in __post_init__
    # (excluded from equality, hashing and repr, which see only the four
    # defining fields above).
    bias: int = field(init=False, repr=False, compare=False)
    emin: int = field(init=False, repr=False, compare=False)
    mant_bits: int = field(init=False, repr=False, compare=False)
    exp_mask: int = field(init=False, repr=False, compare=False)
    mant_mask: int = field(init=False, repr=False, compare=False)
    sign_bit: int = field(init=False, repr=False, compare=False)
    quiet_bit: int = field(init=False, repr=False, compare=False)
    pos_inf: int = field(init=False, repr=False, compare=False)
    indefinite: int = field(init=False, repr=False, compare=False)
    max_finite: int = field(init=False, repr=False, compare=False)
    min_normal: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mant_bits = self.p - 1
        exp_mask = (1 << self.exp_bits) - 1
        mant_mask = (1 << mant_bits) - 1
        sign_bit = 1 << (self.width - 1)
        pos_inf = exp_mask << mant_bits
        quiet_bit = 1 << (mant_bits - 1)
        derived = {
            "bias": self.emax,
            # Minimum unbiased exponent of a normal number.
            "emin": 1 - self.emax,
            # Stored (explicit) significand bits.
            "mant_bits": mant_bits,
            "exp_mask": exp_mask,
            "mant_mask": mant_mask,
            "sign_bit": sign_bit,
            # The bit distinguishing a QNaN from an SNaN (MSB of the payload).
            "quiet_bit": quiet_bit,
            "pos_inf": pos_inf,
            # The x64 "QNaN floating-point indefinite" of invalid operations.
            "indefinite": sign_bit | pos_inf | quiet_bit,
            # Largest finite magnitude (positive sign).
            "max_finite": ((exp_mask - 1) << mant_bits) | mant_mask,
            "min_normal": 1 << mant_bits,
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def exp_bits(self) -> int:
        return self.width - self.p

    # ---- canonical special encodings -------------------------------------

    @property
    def pos_zero(self) -> int:
        return 0

    @property
    def neg_zero(self) -> int:
        return self.sign_bit

    @property
    def neg_inf(self) -> int:
        return self.sign_bit | self.pos_inf

    # ---- classification ---------------------------------------------------

    def sign_of(self, bits: int) -> int:
        return (bits >> (self.width - 1)) & 1

    def exp_field(self, bits: int) -> int:
        return (bits >> self.mant_bits) & self.exp_mask

    def mant_field(self, bits: int) -> int:
        return bits & self.mant_mask

    def is_nan(self, bits: int) -> bool:
        return self.exp_field(bits) == self.exp_mask and self.mant_field(bits) != 0

    def is_snan(self, bits: int) -> bool:
        return self.is_nan(bits) and not (bits & self.quiet_bit)

    def is_qnan(self, bits: int) -> bool:
        return self.is_nan(bits) and bool(bits & self.quiet_bit)

    def is_inf(self, bits: int) -> bool:
        return self.exp_field(bits) == self.exp_mask and self.mant_field(bits) == 0

    def is_zero(self, bits: int) -> bool:
        return (bits & ~self.sign_bit) == 0

    def is_subnormal(self, bits: int) -> bool:
        return self.exp_field(bits) == 0 and self.mant_field(bits) != 0

    def is_finite(self, bits: int) -> bool:
        return self.exp_field(bits) != self.exp_mask

    def quiet(self, bits: int) -> int:
        """Quiet a NaN by setting its quiet bit (x64 SNaN -> QNaN rule)."""
        return bits | self.quiet_bit

    # ---- (sign, mant, exp) <-> bits ----------------------------------------

    def decompose(self, bits: int) -> tuple[int, int, int]:
        """Decompose a finite nonzero value into ``(sign, mant, exp)``.

        The value equals ``(-1)**sign * mant * 2**exp`` with
        ``0 < mant < 2**p``.  Caller must ensure the value is finite nonzero.
        """
        sign = self.sign_of(bits)
        e = self.exp_field(bits)
        m = self.mant_field(bits)
        if e == 0:
            # subnormal: no implicit bit, exponent pinned at emin
            return sign, m, self.emin - self.mant_bits
        return sign, m | (1 << self.mant_bits), e - self.bias - self.mant_bits

    def zero(self, sign: int) -> int:
        return self.sign_bit if sign else 0

    def inf(self, sign: int) -> int:
        return self.neg_inf if sign else self.pos_inf

    def to_float(self, bits: int) -> float:
        """Convert a bit pattern of this format to a Python float (exact for
        binary64; exact value-wise for binary32)."""
        if self.width == 64:
            return bits64_to_float(bits)
        if self.width == 32:
            return bits32_to_float(bits)
        raise ValueError(f"unsupported width {self.width}")

    def from_float(self, value: float) -> int:
        """Encode a Python float into this format.

        For binary32 this uses round-to-nearest-even narrowing (the same as a
        C ``(float)`` cast); use :class:`repro.fp.softfloat.SoftFPU` when flag
        reporting matters.
        """
        if self.width == 64:
            return float_to_bits64(value)
        if self.width == 32:
            return float_to_bits32(value)
        raise ValueError(f"unsupported width {self.width}")


BINARY32 = BinaryFormat(name="binary32", width=32, p=24, emax=127)
BINARY64 = BinaryFormat(name="binary64", width=64, p=53, emax=1023)


def float_to_bits64(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits64_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & 0xFFFFFFFFFFFFFFFF))[0]


def float_to_bits32(value: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        # struct refuses out-of-range doubles; IEEE narrowing gives infinity.
        import numpy as np

        with np.errstate(over="ignore"):
            narrowed = np.float32(value)
        return struct.unpack("<I", narrowed.tobytes())[0]


def bits32_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits & 0xFFFFFFFF))[0]
