"""Unit tests for binary format descriptions and bit-level codecs."""

import math
import pickle

import pytest

from repro.fp.formats import (
    BINARY32,
    BINARY64,
    BinaryFormat,
    bits32_to_float,
    bits64_to_float,
    float_to_bits32,
    float_to_bits64,
)


class TestFormatParameters:
    def test_binary64_parameters(self):
        assert BINARY64.p == 53
        assert BINARY64.emax == 1023
        assert BINARY64.emin == -1022
        assert BINARY64.bias == 1023
        assert BINARY64.exp_bits == 11
        assert BINARY64.mant_bits == 52

    def test_binary32_parameters(self):
        assert BINARY32.p == 24
        assert BINARY32.emax == 127
        assert BINARY32.emin == -126
        assert BINARY32.exp_bits == 8
        assert BINARY32.mant_bits == 23

    def test_special_encodings_binary64(self):
        assert BINARY64.pos_inf == 0x7FF0000000000000
        assert BINARY64.neg_inf == 0xFFF0000000000000
        assert BINARY64.indefinite == 0xFFF8000000000000
        assert BINARY64.max_finite == 0x7FEFFFFFFFFFFFFF
        assert BINARY64.min_normal == 0x0010000000000000
        assert BINARY64.neg_zero == 0x8000000000000000

    def test_special_encodings_binary32(self):
        assert BINARY32.pos_inf == 0x7F800000
        assert BINARY32.indefinite == 0xFFC00000
        assert BINARY32.max_finite == 0x7F7FFFFF


@pytest.mark.parametrize("fmt", [BINARY32, BINARY64], ids=lambda f: f.name)
class TestDerivedConstants:
    """The derived constants are plain attributes set once; each equals
    its defining formula, and only the four defining fields take part
    in equality, hashing and repr."""

    def test_each_attribute_equals_its_formula(self, fmt):
        mant_bits = fmt.p - 1
        exp_mask = (1 << (fmt.width - fmt.p)) - 1
        sign_bit = 1 << (fmt.width - 1)
        expected = {
            "exp_mask": exp_mask,
            "mant_bits": mant_bits,
            "mant_mask": (1 << mant_bits) - 1,
            "bias": fmt.emax,
            "emin": 1 - fmt.emax,
            "sign_bit": sign_bit,
            "quiet_bit": 1 << (mant_bits - 1),
            "pos_inf": exp_mask << mant_bits,
            "indefinite": sign_bit | (exp_mask << mant_bits)
            | (1 << (mant_bits - 1)),
            "max_finite": ((exp_mask - 1) << mant_bits)
            | ((1 << mant_bits) - 1),
            "min_normal": 1 << mant_bits,
        }
        for name, value in expected.items():
            assert name in vars(fmt), name  # an attribute, not a property
            assert getattr(fmt, name) == value, name

    def test_equality_hash_and_repr_see_only_the_defining_fields(self, fmt):
        twin = BinaryFormat(fmt.name, fmt.width, fmt.p, fmt.emax)
        assert twin == fmt and twin is not fmt
        assert hash(twin) == hash(fmt)
        assert hash(fmt) == hash((fmt.name, fmt.width, fmt.p, fmt.emax))
        assert repr(fmt) == (
            f"BinaryFormat(name={fmt.name!r}, width={fmt.width}, "
            f"p={fmt.p}, emax={fmt.emax})"
        )
        assert fmt != BinaryFormat(fmt.name, fmt.width, fmt.p, fmt.emax + 1)
        back = pickle.loads(pickle.dumps(fmt))
        assert back == fmt and back.indefinite == fmt.indefinite

    def test_frozen(self, fmt):
        with pytest.raises(AttributeError):
            fmt.exp_mask = 0


class TestClassification:
    def test_nan_detection(self):
        qnan = BINARY64.indefinite
        snan = 0x7FF0000000000001
        assert BINARY64.is_nan(qnan) and BINARY64.is_qnan(qnan)
        assert BINARY64.is_nan(snan) and BINARY64.is_snan(snan)
        assert not BINARY64.is_snan(qnan)
        assert not BINARY64.is_nan(BINARY64.pos_inf)

    def test_quiet_converts_snan_to_qnan(self):
        snan = 0x7FF0000000000001
        assert BINARY64.is_qnan(BINARY64.quiet(snan))

    def test_zero_and_subnormal(self):
        assert BINARY64.is_zero(0)
        assert BINARY64.is_zero(BINARY64.neg_zero)
        assert BINARY64.is_subnormal(1)  # smallest positive denormal
        assert not BINARY64.is_subnormal(BINARY64.min_normal)
        assert not BINARY64.is_zero(1)

    def test_finite(self):
        assert BINARY64.is_finite(float_to_bits64(1.5))
        assert not BINARY64.is_finite(BINARY64.pos_inf)
        assert not BINARY64.is_finite(BINARY64.indefinite)


class TestDecompose:
    @pytest.mark.parametrize(
        "value",
        [1.0, -2.5, 0.1, 1e300, -1e-300, 5e-324, 2.2250738585072014e-308],
    )
    def test_decompose_reconstructs_value(self, value):
        bits = float_to_bits64(value)
        sign, mant, exp = BINARY64.decompose(bits)
        reconstructed = (-1) ** sign * mant * 2.0**exp
        assert reconstructed == value

    def test_decompose_subnormal_exponent_pinned(self):
        sign, mant, exp = BINARY64.decompose(1)
        assert (sign, mant) == (0, 1)
        assert exp == BINARY64.emin - BINARY64.mant_bits

    def test_decompose_normal_has_implicit_bit(self):
        bits = float_to_bits64(1.0)
        _, mant, _ = BINARY64.decompose(bits)
        assert mant == 1 << 52


class TestCodecs:
    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0, -1.5, 3.141592653589793, 1e308])
    def test_bits64_roundtrip(self, value):
        assert bits64_to_float(float_to_bits64(value)) == value

    def test_neg_zero_sign_preserved(self):
        assert math.copysign(1.0, bits64_to_float(BINARY64.neg_zero)) == -1.0

    @pytest.mark.parametrize("value", [0.0, 1.0, -2.5, 2.0**100])
    def test_bits32_roundtrip(self, value):
        assert bits32_to_float(float_to_bits32(value)) == value

    def test_bits32_overflow_narrows_to_inf(self):
        assert float_to_bits32(3.5e38) == BINARY32.pos_inf
        assert float_to_bits32(-3.5e38) == BINARY32.neg_inf

    def test_format_dispatch(self):
        assert BINARY64.to_float(float_to_bits64(2.5)) == 2.5
        assert BINARY32.from_float(1.5) == float_to_bits32(1.5)

    def test_nan_bits_survive_roundtrip(self):
        bits = 0x7FF8000000001234
        assert float_to_bits64(bits64_to_float(bits)) == bits
