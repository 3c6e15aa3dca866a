"""Local error (paper Section 4.2, following Herbie [29]).

Local error measures the error an operation's output would have *even
if its inputs were accurately computed and then rounded to native
floats*:

    local-error(f, v⃗) = E( F(⟦f⟧_R(v⃗)),  ⟦f⟧_F(F(v⃗)) )

Judging an operation this way avoids blaming innocent operations for
already-erroneous operands — the heart of Herbgrind's candidate
selection (operations whose local error exceeds Tℓ).

Special-value semantics (audited, pinned by
``tests/core/test_localerror_special.py``):

* NaN on either side — computed or rounded-real — is **maximal** error
  (:data:`repro.ieee.error.MAX_ERROR_BITS`).  This includes the
  both-NaN case: an operation invoked outside its real domain (the
  Gram-Schmidt ``0/0``, paper Section 7) is a root cause even though
  the float path "agrees", because invalid is invalid.
* Infinities live on the ulp lattice: agreement in sign is zero error,
  any disagreement saturates the cap.
* The metric never returns NaN or a negative value, so candidate
  ranking and the max/average aggregates in
  :class:`~repro.core.records.OpRecord` stay well defined.

The float-level entry points (:func:`rounded_local_error`,
:func:`rounded_total_error`) take already-rounded doubles so the
adaptive precision tiers can route the rounding of each shadow through
their escalation checks; :func:`local_error`/:func:`total_error` keep
the historical BigFloat signatures for fixed-tier callers.
"""

from __future__ import annotations

from typing import Sequence

from repro.bigfloat import BigFloat, Context, apply_double
from repro.ieee.error import bits_of_error_fast


def rounded_local_error(
    op: str, rounded_args: Sequence[float], exact_rounded: float
) -> float:
    """Bits of local error given pre-rounded argument/result doubles."""
    float_result = apply_double(op, rounded_args)
    return bits_of_error_fast(float_result, exact_rounded)


def rounded_total_error(float_value: float, exact_rounded: float) -> float:
    """Bits of error of a program value against its rounded shadow real."""
    return bits_of_error_fast(float_value, exact_rounded)


def local_error(
    op: str,
    shadow_args: Sequence[BigFloat],
    real_result: BigFloat,
    context: Context,
) -> float:
    """Bits of local error of one operation execution.

    ``real_result`` must be ⟦op⟧_R applied to ``shadow_args`` (the
    caller computes it anyway for shadow propagation, so it is passed
    in rather than recomputed).
    """
    rounded_args = [argument.to_float() for argument in shadow_args]
    return rounded_local_error(op, rounded_args, real_result.to_float())


def total_error(float_value: float, shadow_real: BigFloat) -> float:
    """Bits of error of a program value against its shadow real."""
    return rounded_total_error(float_value, shadow_real.to_float())
