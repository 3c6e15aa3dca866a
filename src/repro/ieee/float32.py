"""Bit-level manipulation of IEEE-754 single-precision values.

The machine interpreter supports single-precision operands (the paper's
VEX machine distinguishes F32 and F64 values); these helpers round
doubles through the single format and measure single-precision ulps.
"""

from __future__ import annotations

import math
import struct

#: Largest finite single-precision value.
FLOAT32_MAX = struct.unpack("<f", struct.pack("<I", 0x7F7FFFFF))[0]

_SIGN_BIT32 = 1 << 31


def to_single(value: float) -> float:
    """Round a double to the nearest single-precision value (as a double).

    This is the rounding a store-to-float32 performs; the result is a
    Python float that is exactly representable in binary32 (or inf/NaN).
    Values whose binary32 rounding overflows map to a signed infinity:
    ``struct`` refuses exactly those, so this is round-to-nearest-even.
    """
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.copysign(math.inf, value)


def double_fits_single(value: float) -> bool:
    """True when ``value`` round-trips through binary32 unchanged."""
    if math.isnan(value):
        return True
    return to_single(value) == value and not (
        value == 0.0
        and math.copysign(1.0, value)
        != math.copysign(1.0, to_single(value))
    )


def single_to_bits(value: float) -> int:
    """The raw 32-bit pattern of ``value`` after rounding to binary32."""
    return struct.unpack("<I", struct.pack("<f", value))[0]


def bits_to_single(bits: int) -> float:
    """The single-precision value (widened to double) for a 32-bit pattern."""
    if not 0 <= bits < (1 << 32):
        raise ValueError(f"bit pattern out of range: {bits:#x}")
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _ordered_int32(value: float) -> int:
    if math.isnan(value):
        raise ValueError("ordered int is undefined for NaN")
    bits = single_to_bits(value)
    if bits & _SIGN_BIT32:
        return -(bits ^ _SIGN_BIT32)
    return bits


def ulps_between_single(a: float, b: float) -> int:
    """Ulp distance between two values measured in the binary32 lattice."""
    return abs(_ordered_int32(a) - _ordered_int32(b))
