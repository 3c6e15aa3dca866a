"""Tests for the IEEE-754 bit-level utilities and bits-of-error metric."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ieee import (
    DOUBLE_MAX,
    DOUBLE_MIN_SUBNORMAL,
    MAX_ERROR_BITS,
    bits_of_error,
    bits_of_error_single,
    bits_to_double,
    copysign_bit,
    double_exponent,
    double_to_bits,
    is_negative_zero,
    next_double,
    ordered_int,
    prev_double,
    significant_error,
    to_single,
    ulp,
    ulps_between,
)
from repro.ieee.float32 import FLOAT32_MAX

finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
any_doubles = st.floats(allow_nan=True, allow_infinity=True)


class TestBitCasts:
    def test_zero_pattern(self):
        assert double_to_bits(0.0) == 0
        assert double_to_bits(-0.0) == 1 << 63

    def test_one_pattern(self):
        assert double_to_bits(1.0) == 0x3FF0000000000000

    def test_inf_pattern(self):
        assert double_to_bits(math.inf) == 0x7FF0000000000000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bits_to_double(1 << 64)
        with pytest.raises(ValueError):
            bits_to_double(-1)

    @given(any_doubles)
    def test_roundtrip(self, x):
        back = bits_to_double(double_to_bits(x))
        assert back == x or (math.isnan(back) and math.isnan(x))

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_bits(self, bits):
        value = bits_to_double(bits)
        if not math.isnan(value):
            assert double_to_bits(value) == bits


class TestSignQueries:
    def test_negative_zero(self):
        assert is_negative_zero(-0.0)
        assert not is_negative_zero(0.0)
        assert not is_negative_zero(-1.0)

    def test_copysign_bit(self):
        assert copysign_bit(1.0) == 0
        assert copysign_bit(-1.0) == 1
        assert copysign_bit(-0.0) == 1
        assert copysign_bit(-math.inf) == 1


class TestExponent:
    def test_one(self):
        assert double_exponent(1.0) == 0

    def test_powers(self):
        assert double_exponent(8.0) == 3
        assert double_exponent(0.5) == -1

    def test_subnormal(self):
        assert double_exponent(DOUBLE_MIN_SUBNORMAL) == -1074

    def test_rejects_zero_and_specials(self):
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                double_exponent(bad)


class TestOrdering:
    def test_zeros_coincide(self):
        assert ordered_int(0.0) == ordered_int(-0.0) == 0

    def test_adjacent(self):
        assert ulps_between(1.0, math.nextafter(1.0, 2.0)) == 1

    def test_across_zero(self):
        # Distance from the smallest negative to the smallest positive
        # subnormal is exactly two steps.
        assert ulps_between(-DOUBLE_MIN_SUBNORMAL, DOUBLE_MIN_SUBNORMAL) == 2

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ordered_int(math.nan)

    @given(finite_doubles, finite_doubles)
    def test_order_agreement(self, x, y):
        assert (ordered_int(x) < ordered_int(y)) == (
            x < y and not (x == 0.0 and y == 0.0)
        )

    @given(finite_doubles)
    def test_next_prev_inverse(self, x):
        assert prev_double(next_double(x)) == x or x == 0.0 or next_double(x) == 0.0

    @given(finite_doubles)
    def test_next_is_one_ulp(self, x):
        succ = next_double(x)
        if not math.isinf(succ):
            assert ulps_between(x, succ) == 1

    def test_next_at_top(self):
        assert next_double(DOUBLE_MAX) == math.inf
        assert next_double(math.inf) == math.inf

    def test_ulp_of_one(self):
        assert ulp(1.0) == 2.0 ** -52


class TestBitsOfError:
    def test_exact_is_zero(self):
        assert bits_of_error(1.5, 1.5) == 0.0

    def test_one_ulp_is_one_bit(self):
        assert bits_of_error(1.0, math.nextafter(1.0, 2.0)) == 1.0

    def test_nan_is_max(self):
        assert bits_of_error(math.nan, 1.0) == MAX_ERROR_BITS
        assert bits_of_error(1.0, math.nan) == MAX_ERROR_BITS
        assert bits_of_error(math.nan, math.nan) == MAX_ERROR_BITS

    def test_total_loss(self):
        # 0 computed where 1 was expected: all bits wrong.
        assert bits_of_error(0.0, 1.0) > 60

    def test_sign_flip_is_large(self):
        assert bits_of_error(-1.0, 1.0) > 60

    def test_capped(self):
        # The ordered-int distance across the whole double range is just
        # under 2^64, so only NaNs reach the exact cap.
        assert bits_of_error(-math.inf, math.inf) > 63.9
        assert bits_of_error(-DOUBLE_MAX, DOUBLE_MAX) > 63.9
        assert bits_of_error(math.nan, 0.0) == MAX_ERROR_BITS

    @given(finite_doubles, finite_doubles)
    def test_symmetry(self, x, y):
        assert bits_of_error(x, y) == bits_of_error(y, x)

    @given(finite_doubles)
    def test_self_error_zero(self, x):
        assert bits_of_error(x, x) == 0.0

    def test_significance_threshold(self):
        assert significant_error(5.1)
        assert not significant_error(5.0)
        assert significant_error(2.0, threshold=1.0)


class TestSingle:
    def test_rounding(self):
        assert to_single(0.1) != 0.1
        assert to_single(1.5) == 1.5

    def test_single_error(self):
        exact = 0.1
        assert bits_of_error_single(to_single(0.1), to_single(exact)) == 0.0

    def test_single_nan(self):
        assert bits_of_error_single(math.nan, 1.0) == 32.0

    def test_overflow_midpoint_rounds_to_inf(self):
        # FLOAT32_MAX has an odd significand, so the tie with 2**128
        # goes to the even neighbour: infinity.
        midpoint = (FLOAT32_MAX + 2.0 ** 128) / 2
        assert to_single(midpoint) == math.inf
        assert to_single(-midpoint) == -math.inf

    def test_below_overflow_midpoint_rounds_to_max(self):
        midpoint = (FLOAT32_MAX + 2.0 ** 128) / 2
        assert to_single(math.nextafter(midpoint, 0.0)) == FLOAT32_MAX

    def test_overflow_to_signed_inf(self):
        assert to_single(1e39) == math.inf
        assert to_single(-1e39) == -math.inf
        assert to_single(3e38 + 3e38) == math.inf

    def test_non_finite_pass_through(self):
        assert to_single(math.inf) == math.inf
        assert to_single(-math.inf) == -math.inf
        assert math.isnan(to_single(math.nan))
