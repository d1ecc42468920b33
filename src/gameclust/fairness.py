"""Fairness indices over per-objective improvements.

Jain's index rates how evenly a set of nonnegative values is spread:
1 when all values are equal, down to 1/n when a single value carries
everything.  The geometric mean index collapses the values into one
number; with two improvements measured in percent, 100 is the ideal.
Both indices presume finite, nonnegative shares and refuse NaN, ±inf
and negative values with ``ConfigError``.  ``improvement_indices``
clamps a finite negative improvement to zero, passes a non-finite one
on to that refusal, and gives no Jain index for a pair that clamps to
all zeros, where ``jain_index`` raises ``ConfigError``.
"""

from __future__ import annotations

import math
import sys
from typing import List, Optional, Sequence, Tuple

from .errors import ConfigError


def _validated(values: Sequence[float]) -> List[float]:
    xs = [float(v) for v in values]
    if not xs:
        raise ConfigError("need at least one value")
    if not all(math.isfinite(x) for x in xs):
        raise ConfigError(f"values must be finite, got {xs}")
    if any(x < 0 for x in xs):
        raise ConfigError(f"values must be nonnegative, got {xs}")
    return xs


def jain_index(values: Sequence[float]) -> float:
    """(sum x)^2 / (n * sum x^2), in [1/n, 1]; ``ConfigError`` when all values are zero or one is not finite.

    The values are first scaled by the power of two that brings the
    largest into [0.5, 1).  That scaling is exact, so it changes no result
    except where squares would leave the normal float range: tiny values
    whose squares lose precision as subnormals, or huge ones that overflow.
    """
    xs = _validated(values)
    largest = max(xs)
    if largest == 0:
        raise ConfigError("Jain's index is undefined for all-zero values")
    shift = math.frexp(largest)[1]
    xs = [math.ldexp(x, -shift) for x in xs]
    square_sum = sum(x * x for x in xs)
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


def geometric_mean_index(values: Sequence[float]) -> float:
    """n-th root of the product of the values; finite and, when every value is positive, nonzero.

    Where the plain product leaves the normal float range (it overflows,
    or every value is positive and it falls below the smallest normal
    float), the product is kept as a mantissa times a power of two, as
    ``jain_index`` scales, and the root is taken in that form.  Every
    product in range keeps the plain form's bits.
    """
    xs = _validated(values)
    product = math.prod(xs)
    if math.isinf(product) or (product < sys.float_info.min and min(xs) > 0):
        mantissa, exponent = 1.0, 0
        for x in xs:
            m, e = math.frexp(x)
            mantissa, carry = math.frexp(mantissa * m)
            exponent += e + carry
        whole_part, rest = divmod(exponent, len(xs))
        return math.ldexp(mantissa ** (1.0 / len(xs)) * 2.0 ** (rest / len(xs)), whole_part)
    return product ** (1.0 / len(xs))


def improvement_indices(sse_pct: Optional[float], l_pct: Optional[float]) -> Tuple[Optional[float], Optional[float]]:
    """(Jain, GMI) of the clamped pair; both None when either is, Jain None when both clamp to zero.

    Raises ``ConfigError`` when either improvement is NaN or infinite.
    """
    if sse_pct is None or l_pct is None:
        return None, None
    clamped = [max(0.0, x) if math.isfinite(x) else x for x in (float(sse_pct), float(l_pct))]
    jain = None if clamped == [0.0, 0.0] else jain_index(clamped)
    return jain, geometric_mean_index(clamped)
