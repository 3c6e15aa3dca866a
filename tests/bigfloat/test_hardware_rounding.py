"""Property tests of ``BigFloat._to_hardware`` against ground truth.

The verification behind the `_to_hardware` audit: seeded random
mantissa/exponent sweeps compare ``to_float``/``to_single`` against
independent references —

* for binary64, ``float(Fraction)`` (CPython's correctly rounded
  int-division), checked bit-for-bit via ``struct``;
* for binary32, a from-scratch round-half-even implementation over
  exact ``Fraction`` arithmetic written here (NOT via a
  double→single cast, which would double-round), cross-checked
  against the platform's double→binary32 conversion (``struct``'s
  ``f`` format) where the value survives a single rounding.

The sweeps concentrate on the hard regions: the normal/subnormal
boundary, ``precision == 1`` (between the two smallest subnormals),
half-the-smallest-subnormal ties, and overflow ties at the top of the
range.  The audit found no double rounding; these tests pin that.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest

from repro.bigfloat import BigFloat

def bits64(value: float) -> bytes:
    return struct.pack("<d", value)


def platform_single(value: float) -> float:
    """The C double->float conversion: one round-half-even rounding."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:  # rounds beyond the binary32 range
        return math.copysign(math.inf, value)


def reference_double(value: Fraction) -> float:
    # CPython's Fraction->float is correctly rounded (integer division
    # of numerator by denominator with round-half-even); it raises on
    # overflow instead of returning inf.
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def reference_single(value: Fraction) -> float:
    """Correctly rounded binary32, derived from exact rationals."""
    if value == 0:
        return 0.0
    sign = -1.0 if value < 0 else 1.0
    magnitude = abs(value)
    exponent = magnitude.numerator.bit_length() \
        - magnitude.denominator.bit_length()
    if Fraction(2) ** exponent > magnitude:
        exponent -= 1
    elif Fraction(2) ** (exponent + 1) <= magnitude:
        exponent += 1
    precision = 24 if exponent >= -126 else exponent + 150
    if precision < 1:
        tiny = Fraction(2) ** -149
        if magnitude > tiny / 2:
            return sign * float(tiny)
        return sign * 0.0  # at or below the tie: even -> zero
    scaled = magnitude / (Fraction(2) ** (exponent - precision + 1))
    floor = scaled.numerator // scaled.denominator
    remainder = scaled - floor
    if remainder > Fraction(1, 2) or (
        remainder == Fraction(1, 2) and floor & 1
    ):
        floor += 1
    result = sign * floor * 2.0 ** (exponent - precision + 1)
    if abs(result) >= 2.0 ** 128:
        return sign * math.inf
    return result


class TestToFloatSweeps:
    def test_wide_random_sweep(self):
        rng = random.Random(20260729)
        for __ in range(4000):
            mant_bits = rng.randint(1, 120)
            man = rng.getrandbits(mant_bits) | 1
            exp = rng.randint(-1120, 1030 - mant_bits)
            sign = rng.randint(0, 1)
            value = BigFloat(sign, man, exp)
            expected = reference_double(
                (-1 if sign else 1) * Fraction(man) * Fraction(2) ** exp
            )
            assert bits64(value.to_float()) == bits64(expected), \
                f"sign={sign} man={man} exp={exp}"

    def test_subnormal_boundary_sweep(self):
        rng = random.Random(42)
        for __ in range(4000):
            mant_bits = rng.randint(1, 80)
            man = rng.getrandbits(mant_bits) | 1
            exp = rng.randint(-1140, -1000)
            value = BigFloat(0, man, exp)
            expected = reference_double(Fraction(man) * Fraction(2) ** exp)
            assert bits64(value.to_float()) == bits64(expected), \
                f"man={man} exp={exp}"

    def test_overflow_boundary_sweep(self):
        rng = random.Random(43)
        for __ in range(2000):
            mant_bits = rng.randint(1, 70)
            man = rng.getrandbits(mant_bits) | 1
            exp = rng.randint(960, 1030) - mant_bits
            value = BigFloat(0, man, exp)
            expected = reference_double(Fraction(man) * Fraction(2) ** exp)
            assert bits64(value.to_float()) == bits64(expected), \
                f"man={man} exp={exp}"

    @pytest.mark.parametrize("man,exp,expected", [
        (1, -1075, 0.0),                  # half smallest subnormal: tie->even->0
        (3, -1076, 2.0 ** -1074),         # 3/4 smallest: rounds up
        (1, -1076, 0.0),                  # quarter: down to zero
        (3, -1075, 2.0 ** -1073),         # 1.5 subnormals: tie->even->2
        (5, -1076, 2.0 ** -1074),         # 1.25 subnormals: down to 1
        (7, -1076, 2.0 ** -1073),         # 1.75 subnormals: up to 2
        (1, -1074, 2.0 ** -1074),         # the smallest subnormal exactly
        ((1 << 52) + 1, -1074, None),     # exactly representable normal
        ((1 << 53) - 1, -1075, 2.0 ** -1022),  # rounds up across boundary
        # Overflow ties at the very top: max + ulp/2 is a tie whose
        # even neighbour is max - ulp... below; max + ulp/2 exactly:
        ((1 << 54) - 1, 970, math.inf),   # maxfloat + ulp/2: tie -> inf side
        ((1 << 54) - 3, 970, None),       # maxfloat - ulp/2: tie -> even (max-ulp)
    ])
    def test_boundary_cases(self, man, exp, expected):
        value = BigFloat(0, man, exp).to_float()
        if expected is None:
            expected = reference_double(Fraction(man) * Fraction(2) ** exp)
        assert bits64(value) == bits64(expected)

    def test_precision_one_region_exhaustive(self):
        # Every value k/8 * 2^-1074 for k in 1..63: covers precision 1-3
        # of the subnormal lattice exhaustively.
        for k in range(1, 64):
            value = BigFloat(0, k, -1077)
            expected = reference_double(Fraction(k, 8) * Fraction(2) ** -1074)
            assert bits64(value.to_float()) == bits64(expected), f"k={k}"


class TestToSingleSweeps:
    def test_random_sweep_against_fraction_reference(self):
        rng = random.Random(7)
        for __ in range(4000):
            mant_bits = rng.randint(1, 60)
            man = rng.getrandbits(mant_bits) | 1
            exp = rng.randint(-165, 130 - mant_bits)
            sign = rng.randint(0, 1)
            value = BigFloat(sign, man, exp)
            fraction = (-1 if sign else 1) * Fraction(man) * Fraction(2) ** exp
            expected = reference_single(fraction)
            assert bits64(value.to_single()) == bits64(expected), \
                f"sign={sign} man={man} exp={exp}"

    def test_platform_crosscheck_single_rounding_cases(self):
        # Where the exact value fits a double exactly, double->float32
        # is a single rounding and the platform cast is a valid oracle.
        rng = random.Random(11)
        for __ in range(4000):
            mant_bits = rng.randint(1, 53)
            man = rng.getrandbits(mant_bits) | 1
            exp = rng.randint(-140, 120 - mant_bits)
            value = BigFloat(0, man, exp)
            as_double = math.ldexp(float(man), exp)
            if math.isinf(as_double) or as_double == 0.0:
                continue
            if BigFloat.from_float(as_double).key() != value.key():
                continue  # the double itself was rounded: skip
            expected = platform_single(as_double)
            assert bits64(value.to_single()) == bits64(expected), \
                f"man={man} exp={exp}"

    def test_single_subnormal_ties(self):
        tiny = 2.0 ** -149
        assert BigFloat(0, 1, -150).to_single() == 0.0        # tie -> even
        assert BigFloat(0, 3, -151).to_single() == tiny       # 3/4: up
        assert BigFloat(0, 3, -150).to_single() == 2 * tiny   # 1.5: tie -> even
        assert BigFloat(0, 1, -149).to_single() == tiny

    def test_single_overflow_tie(self):
        # max_float32 + ulp/2: tie between max (odd) and inf side.
        assert BigFloat(0, (1 << 25) - 1, 103).to_single() == math.inf
        below = BigFloat(0, (1 << 25) - 3, 103).to_single()
        assert below == platform_single(3.4028233e38)
