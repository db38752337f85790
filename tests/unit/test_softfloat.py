"""Unit tests for the softfloat core: results and exact flag reporting."""

import math

import pytest

from repro.fp.flags import Flag
from repro.fp.formats import (
    BINARY32,
    BINARY64,
    bits64_to_float,
    float_to_bits32,
    float_to_bits64,
)
from repro.fp.rounding import RoundingMode
from repro.fp.softfloat import DEFAULT_CONTEXT, FPContext, OpResult, SoftFPU

FPU = SoftFPU()
SNAN64 = 0x7FF0000000000001
QNAN64 = 0x7FF8000000000000


def b(x: float) -> int:
    return float_to_bits64(x)


def f(bits: int) -> float:
    return bits64_to_float(bits)


class TestAdd:
    def test_exact_add_no_flags(self):
        r = FPU.add(BINARY64, b(1.0), b(2.0))
        assert f(r.bits) == 3.0
        assert r.flags == Flag.NONE

    def test_inexact_add_sets_pe(self):
        r = FPU.add(BINARY64, b(0.1), b(0.2))
        assert f(r.bits) == 0.1 + 0.2
        assert r.flags == Flag.PE

    def test_cancellation_is_exact(self):
        r = FPU.add(BINARY64, b(1.5), b(-1.5))
        assert f(r.bits) == 0.0
        assert r.flags == Flag.NONE

    def test_signed_zero_sum_default_is_positive(self):
        r = FPU.add(BINARY64, b(0.0), b(-0.0))
        assert r.bits == BINARY64.pos_zero

    def test_signed_zero_sum_round_down_is_negative(self):
        ctx = FPContext(rmode=RoundingMode.DOWN)
        r = FPU.add(BINARY64, b(0.0), b(-0.0), ctx)
        assert r.bits == BINARY64.neg_zero

    def test_exact_cancel_round_down_gives_neg_zero(self):
        ctx = FPContext(rmode=RoundingMode.DOWN)
        r = FPU.add(BINARY64, b(1.0), b(-1.0), ctx)
        assert r.bits == BINARY64.neg_zero

    def test_inf_plus_inf(self):
        r = FPU.add(BINARY64, BINARY64.pos_inf, BINARY64.pos_inf)
        assert r.bits == BINARY64.pos_inf
        assert r.flags == Flag.NONE

    def test_inf_minus_inf_is_invalid(self):
        r = FPU.add(BINARY64, BINARY64.pos_inf, BINARY64.neg_inf)
        assert r.bits == BINARY64.indefinite
        assert r.flags == Flag.IE

    def test_sub_inf_inf_is_invalid(self):
        r = FPU.sub(BINARY64, BINARY64.pos_inf, BINARY64.pos_inf)
        assert r.flags == Flag.IE

    def test_overflow_sets_oe_pe(self):
        big = b(1.7e308)
        r = FPU.add(BINARY64, big, big)
        assert r.bits == BINARY64.pos_inf
        assert r.flags == Flag.OE | Flag.PE

    def test_overflow_round_to_zero_saturates(self):
        ctx = FPContext(rmode=RoundingMode.ZERO)
        big = b(1.7e308)
        r = FPU.add(BINARY64, big, big, ctx)
        assert r.bits == BINARY64.max_finite
        assert r.flags == Flag.OE | Flag.PE

    def test_denormal_operand_sets_de(self):
        denorm = 1  # smallest positive subnormal
        r = FPU.add(BINARY64, denorm, b(1.0))
        assert r.flags & Flag.DE

    def test_daz_suppresses_de_and_zeroes_operand(self):
        ctx = FPContext(daz=True)
        r = FPU.add(BINARY64, 1, b(1.0), ctx)
        assert not r.flags & Flag.DE
        assert f(r.bits) == 1.0
        assert not r.flags & Flag.PE  # operand became exactly zero

    def test_snan_operand_invalid_and_quieted(self):
        r = FPU.add(BINARY64, SNAN64, b(1.0))
        assert r.flags & Flag.IE
        assert BINARY64.is_qnan(r.bits)

    def test_qnan_operand_propagates_without_invalid(self):
        r = FPU.add(BINARY64, QNAN64, b(1.0))
        assert r.flags == Flag.NONE
        assert BINARY64.is_qnan(r.bits)

    def test_underflow_flag_on_tiny_inexact(self):
        tiny = b(5e-324)
        third = b(1e-323 / 3)
        r = FPU.mul(BINARY64, b(0.5), tiny)
        # 0.5 * min-denormal rounds: tiny and inexact -> UE|PE (+DE operand)
        assert r.flags & Flag.UE and r.flags & Flag.PE
        assert r.tiny
        del third

    def test_exact_denormal_result_no_ue_but_tiny(self):
        # 2 * min-denormal is exactly representable: no UE flag (masked
        # semantics), but tiny=True so unmasked UM would trap.
        r = FPU.mul(BINARY64, b(2.0), 1)
        assert not r.flags & Flag.UE
        assert not r.flags & Flag.PE
        assert r.tiny


class TestMul:
    def test_exact_mul(self):
        r = FPU.mul(BINARY64, b(3.0), b(4.0))
        assert f(r.bits) == 12.0
        assert r.flags == Flag.NONE

    def test_inexact_mul(self):
        r = FPU.mul(BINARY64, b(0.1), b(0.1))
        assert f(r.bits) == 0.1 * 0.1
        assert r.flags == Flag.PE

    def test_zero_times_inf_invalid(self):
        r = FPU.mul(BINARY64, b(0.0), BINARY64.pos_inf)
        assert r.bits == BINARY64.indefinite
        assert r.flags == Flag.IE

    def test_sign_of_product(self):
        r = FPU.mul(BINARY64, b(-2.0), b(3.0))
        assert f(r.bits) == -6.0

    def test_mul_overflow(self):
        r = FPU.mul(BINARY64, b(1e200), b(1e200))
        assert r.bits == BINARY64.pos_inf
        assert r.flags == Flag.OE | Flag.PE

    def test_mul_underflow_ftz_flushes(self):
        ctx = FPContext(ftz=True)
        r = FPU.mul(BINARY64, b(1e-200), b(1e-200), ctx)
        assert r.bits == BINARY64.pos_zero
        assert r.flags == Flag.UE | Flag.PE

    def test_tininess_is_detected_after_rounding(self):
        # (1 - 2**-54) * 2**-1022 rounds up to 2**-1022 at 53 bits: not
        # tiny, so no UE, and FTZ leaves it alone.
        x, y = b(1 - 2.0**-27), b((1 + 2.0**-27) * 2.0**-1022)
        for ctx in (FPContext(), FPContext(ftz=True)):
            r = FPU.mul(BINARY64, x, y, ctx)
            assert r == OpResult(BINARY64.min_normal, Flag.PE, False)
        # Toward zero it stays below 2**-1022: the largest subnormal.
        r = FPU.mul(BINARY64, x, y, FPContext(rmode=RoundingMode.ZERO))
        assert r == OpResult(BINARY64.min_normal - 1, Flag.UE | Flag.PE, True)

    def test_carry_on_the_denormal_grid_can_still_be_tiny(self):
        # (1 - 2**-53) * 2**-1022 has 53 bits, so it stays below 2**-1022
        # after rounding; the denormal grid rounds it up to 2**-1022.
        x, y = b(1 - 2.0**-53), BINARY64.min_normal
        r = FPU.mul(BINARY64, x, y)
        assert r == OpResult(BINARY64.min_normal, Flag.UE | Flag.PE, True)
        r = FPU.mul(BINARY64, x, y, FPContext(ftz=True))
        assert r == OpResult(BINARY64.pos_zero, Flag.UE | Flag.PE, True)


class TestDiv:
    def test_exact_div(self):
        r = FPU.div(BINARY64, b(6.0), b(2.0))
        assert f(r.bits) == 3.0
        assert r.flags == Flag.NONE

    def test_inexact_div(self):
        r = FPU.div(BINARY64, b(1.0), b(3.0))
        assert f(r.bits) == 1.0 / 3.0
        assert r.flags == Flag.PE

    def test_divide_by_zero(self):
        r = FPU.div(BINARY64, b(1.0), b(0.0))
        assert r.bits == BINARY64.pos_inf
        assert r.flags == Flag.ZE

    def test_negative_divide_by_zero(self):
        r = FPU.div(BINARY64, b(-1.0), b(0.0))
        assert r.bits == BINARY64.neg_inf
        assert r.flags == Flag.ZE

    def test_zero_over_zero_invalid_not_ze(self):
        r = FPU.div(BINARY64, b(0.0), b(0.0))
        assert r.bits == BINARY64.indefinite
        assert r.flags == Flag.IE

    def test_inf_over_inf_invalid(self):
        r = FPU.div(BINARY64, BINARY64.pos_inf, BINARY64.neg_inf)
        assert r.flags == Flag.IE

    def test_zero_over_finite_is_zero(self):
        r = FPU.div(BINARY64, b(0.0), b(5.0))
        assert r.bits == BINARY64.pos_zero
        assert r.flags == Flag.NONE

    def test_finite_over_inf_is_zero(self):
        r = FPU.div(BINARY64, b(5.0), BINARY64.pos_inf)
        assert r.bits == BINARY64.pos_zero
        assert r.flags == Flag.NONE

    @pytest.mark.parametrize("num,den", [(1.0, 7.0), (2.0, 3.0), (10.0, 9.0), (1e10, 7e-3)])
    def test_div_matches_host(self, num, den):
        r = FPU.div(BINARY64, b(num), b(den))
        assert f(r.bits) == num / den


class TestSqrt:
    def test_exact_sqrt(self):
        r = FPU.sqrt(BINARY64, b(4.0))
        assert f(r.bits) == 2.0
        assert r.flags == Flag.NONE

    def test_inexact_sqrt(self):
        r = FPU.sqrt(BINARY64, b(2.0))
        assert f(r.bits) == math.sqrt(2.0)
        assert r.flags == Flag.PE

    def test_sqrt_negative_invalid(self):
        r = FPU.sqrt(BINARY64, b(-1.0))
        assert r.bits == BINARY64.indefinite
        assert r.flags == Flag.IE

    def test_sqrt_neg_zero_is_neg_zero(self):
        r = FPU.sqrt(BINARY64, BINARY64.neg_zero)
        assert r.bits == BINARY64.neg_zero
        assert r.flags == Flag.NONE

    def test_sqrt_inf(self):
        r = FPU.sqrt(BINARY64, BINARY64.pos_inf)
        assert r.bits == BINARY64.pos_inf
        assert r.flags == Flag.NONE

    @pytest.mark.parametrize("value", [2.0, 3.0, 0.5, 1e300, 1e-300, 123456.789])
    def test_sqrt_matches_host(self, value):
        r = FPU.sqrt(BINARY64, b(value))
        assert f(r.bits) == math.sqrt(value)


class TestFMA:
    def test_fused_single_rounding(self):
        # a*b exactly, plus c, rounded once: construct a case where fused
        # and unfused differ.
        a, bb, c = 1.0 + 2.0**-52, 1.0 + 2.0**-52, -(1.0 + 2.0**-51)
        r = FPU.fma(BINARY64, b(a), b(bb), b(c))
        expected = (
            2.0**-104
        )  # exact: (1+u)^2 - (1+2u) = u^2 where u = 2^-52
        assert f(r.bits) == expected
        assert r.flags == Flag.NONE

    def test_fnmadd(self):
        r = FPU.fma(BINARY64, b(2.0), b(3.0), b(10.0), negate_product=True)
        assert f(r.bits) == 4.0

    def test_fmsub(self):
        r = FPU.fma(BINARY64, b(2.0), b(3.0), b(1.0), negate_c=True)
        assert f(r.bits) == 5.0

    def test_zero_times_inf_plus_qnan_invalid(self):
        r = FPU.fma(BINARY64, b(0.0), BINARY64.pos_inf, QNAN64)
        assert r.flags & Flag.IE

    def test_inf_product_minus_inf_invalid(self):
        r = FPU.fma(BINARY64, BINARY64.pos_inf, b(1.0), BINARY64.neg_inf)
        assert r.flags == Flag.IE


class TestMinMax:
    def test_min_basic(self):
        r = FPU.min(BINARY64, b(1.0), b(2.0))
        assert f(r.bits) == 1.0
        assert r.flags == Flag.NONE

    def test_max_basic(self):
        r = FPU.max(BINARY64, b(1.0), b(2.0))
        assert f(r.bits) == 2.0

    def test_nan_returns_second_operand(self):
        r = FPU.min(BINARY64, QNAN64, b(3.0))
        assert f(r.bits) == 3.0
        assert r.flags == Flag.NONE
        r = FPU.min(BINARY64, b(3.0), QNAN64)
        assert BINARY64.is_qnan(r.bits)

    def test_snan_raises_invalid(self):
        r = FPU.max(BINARY64, SNAN64, b(1.0))
        assert r.flags & Flag.IE

    def test_equal_zeros_return_second(self):
        r = FPU.min(BINARY64, b(0.0), BINARY64.neg_zero)
        assert r.bits == BINARY64.neg_zero


class TestCompare:
    def test_ordered_relations(self):
        assert FPU.compare(BINARY64, b(1.0), b(2.0))[0] == -1
        assert FPU.compare(BINARY64, b(2.0), b(1.0))[0] == 1
        assert FPU.compare(BINARY64, b(1.0), b(1.0))[0] == 0

    def test_signed_zeros_compare_equal(self):
        assert FPU.compare(BINARY64, b(0.0), BINARY64.neg_zero)[0] == 0

    def test_ucomis_qnan_unordered_no_invalid(self):
        rel, flags = FPU.compare(BINARY64, QNAN64, b(1.0))
        assert rel == 2
        assert flags == Flag.NONE

    def test_ucomis_snan_invalid(self):
        rel, flags = FPU.compare(BINARY64, SNAN64, b(1.0))
        assert rel == 2
        assert flags == Flag.IE

    def test_comis_qnan_invalid(self):
        _, flags = FPU.compare(BINARY64, QNAN64, b(1.0), signal_qnan=True)
        assert flags == Flag.IE

    def test_negative_ordering(self):
        assert FPU.compare(BINARY64, b(-2.0), b(-1.0))[0] == -1
        assert FPU.compare(BINARY64, b(-1.0), b(1.0))[0] == -1


class TestConversions:
    def test_narrowing_inexact(self):
        r = FPU.convert(BINARY64, BINARY32, b(0.1))
        assert r.flags == Flag.PE
        import numpy as np

        assert r.bits == float_to_bits32(float(np.float32(0.1)))

    def test_narrowing_overflow(self):
        r = FPU.convert(BINARY64, BINARY32, b(1e300))
        assert r.bits == BINARY32.pos_inf
        assert r.flags & Flag.OE

    def test_widening_always_exact(self):
        r = FPU.convert(BINARY32, BINARY64, float_to_bits32(0.1))
        assert r.flags == Flag.NONE

    def test_nan_payload_quieted_on_convert(self):
        r = FPU.convert(BINARY64, BINARY32, SNAN64)
        assert r.flags & Flag.IE
        assert BINARY32.is_qnan(r.bits)

    def test_int_to_float_exact(self):
        r = FPU.from_int(BINARY64, 42)
        assert f(r.bits) == 42.0
        assert r.flags == Flag.NONE

    def test_int_to_float_inexact(self):
        huge = (1 << 60) + 1
        r = FPU.from_int(BINARY64, huge)
        assert r.flags == Flag.PE
        assert f(r.bits) == float(huge)

    def test_int_to_float32_inexact(self):
        r = FPU.from_int(BINARY32, 16777217)  # 2**24 + 1
        assert r.flags == Flag.PE

    def test_float_to_int_exact(self):
        v, flags = FPU.to_int(BINARY64, b(7.0))
        assert v == 7
        assert flags == Flag.NONE

    def test_float_to_int_inexact_rounds(self):
        v, flags = FPU.to_int(BINARY64, b(2.5))
        assert v == 2  # ties to even
        assert flags == Flag.PE

    def test_float_to_int_truncates(self):
        v, flags = FPU.to_int(BINARY64, b(2.9), truncate=True)
        assert v == 2
        assert flags == Flag.PE

    def test_float_to_int_negative_truncation(self):
        v, _ = FPU.to_int(BINARY64, b(-2.9), truncate=True)
        assert v == -2

    def test_float_to_int_nan_invalid(self):
        v, flags = FPU.to_int(BINARY64, QNAN64)
        assert v == -(1 << 31)
        assert flags == Flag.IE

    def test_float_to_int_overflow_invalid(self):
        v, flags = FPU.to_int(BINARY64, b(1e20))
        assert v == -(1 << 31)
        assert flags & Flag.IE

    def test_round_to_integral(self):
        r = FPU.round_to_integral(BINARY64, b(2.5))
        assert f(r.bits) == 2.0
        assert r.flags == Flag.PE

    def test_round_to_integral_exact(self):
        r = FPU.round_to_integral(BINARY64, b(4.0))
        assert f(r.bits) == 4.0
        assert r.flags == Flag.NONE

    def test_round_to_integral_suppress_inexact(self):
        r = FPU.round_to_integral(BINARY64, b(2.5), suppress_inexact=True)
        assert r.flags == Flag.NONE


class TestRoundingModes:
    @pytest.mark.parametrize(
        "mode,expected_sign",
        [
            (RoundingMode.NEAREST, 1),
            (RoundingMode.UP, 1),
            (RoundingMode.DOWN, -1),
            (RoundingMode.ZERO, 1),
        ],
    )
    def test_directed_rounding_of_tiny_sum(self, mode, expected_sign):
        # 1 + 2^-60 rounds differently per mode.
        ctx = FPContext(rmode=mode)
        r = FPU.add(BINARY64, b(1.0), b(2.0**-60), ctx)
        if mode == RoundingMode.UP:
            assert f(r.bits) > 1.0
        else:
            assert f(r.bits) == 1.0
        assert r.flags & Flag.PE
        del expected_sign

    def test_round_down_negative_magnitude_grows(self):
        ctx = FPContext(rmode=RoundingMode.DOWN)
        r = FPU.add(BINARY64, b(-1.0), b(-(2.0**-60)), ctx)
        assert f(r.bits) < -1.0
