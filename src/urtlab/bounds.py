"""Closed-form tail bounds for a node's child count.

The child count of node ``i`` after ``n`` attachment steps is a sum of
independent indicators with means ``1/(i+1), .., 1/n``; write ``s`` for its
expectation.  Chernoff's method gives the two quadratic-form bounds

    P(X >= a) <= exp(-(a - s)^2 / (2a))   for a > s,
    P(X <= a) <= exp(-(s - a)^2 / (2s))   for a < s,

and specializing ``a = t * ln(n)`` under the index cutoffs
``i > n^(1-t+eps)`` (late nodes, small mean) and ``i <= n^(1-t-eps) - 1``
(early nodes, large mean) yields closed forms that depend only on
``(n, t, eps)``.  Those are the contract-bearing bounds; the sharper raw
Chernoff product form is exposed for diagnostics only.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceGuardError

# terms of one expected_children sum: 5 ms per 10^6 terms, 0.5 s at this span (2 vCPU)
EXPECTED_CHILDREN_MAX_SPAN = 10**8
_SUM_BLOCK = 1 << 16  # terms per block of that sum


def expected_children(i: int, n: int) -> float:
    """``s = 1/(i+1) + .. + 1/n``: expected attachments node ``i`` gains.

    Satisfies ``log(n/(i+1)) <= s <= log(n/i)``.  The ``n - i`` terms are
    guarded to :data:`EXPECTED_CHILDREN_MAX_SPAN`.
    """
    i = int(i)
    n = int(n)
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if n - i > EXPECTED_CHILDREN_MAX_SPAN:
        raise ResourceGuardError(f"expected children are guarded to n - i <= "
                                 f"{EXPECTED_CHILDREN_MAX_SPAN:.0e} terms, got {n - i}")
    # summed upward: ascending magnitude keeps the float error ~1 ulp; cumsum adds
    # in sequence, so carrying the partial sum into each block gives a plain loop's bits
    total = 0.0
    for hi in range(n, i, -_SUM_BLOCK):
        terms = 1.0 / np.arange(hi, max(hi - _SUM_BLOCK, i), -1, dtype=float)
        terms[0] += total
        total = float(terms.cumsum()[-1])
    return total


def _quadratic_bound(gap: float, scale: float) -> float:
    """``exp(-gap^2 / (2 scale))`` for finite ``0 < gap <= scale``."""
    try:
        return math.exp(-(gap**2) / (2.0 * scale))
    except OverflowError:  # gap^2 past the double range: the same exponent, rearranged
        return math.exp(-0.5 * (gap / scale) * gap)


def upper_tail_bound(a: float, s: float) -> float:
    """Quadratic Chernoff bound on ``P(X >= a)`` for finite ``a > s > 0``."""
    a = float(a)
    s = float(s)
    if not (math.isfinite(a) and a > s > 0):
        raise ValueError(f"upper tail bound needs finite a > s > 0, got a={a}, s={s}")
    return _quadratic_bound(a - s, a)


def lower_tail_bound(a: float, s: float) -> float:
    """Quadratic Chernoff bound on ``P(X <= a)`` for finite ``0 <= a < s``."""
    a = float(a)
    s = float(s)
    if not (math.isfinite(s) and 0 <= a < s):
        raise ValueError(f"lower tail bound needs finite 0 <= a < s, got a={a}, s={s}")
    return _quadratic_bound(s - a, s)


def chernoff_upper_raw(a: float, s: float) -> float:
    """Raw product-form bound ``(e^(b-1) b^-b)^s`` with ``b = a/s``.

    Tighter than :func:`upper_tail_bound`; diagnostic only.
    """
    a = float(a)
    s = float(s)
    if not (math.isfinite(a) and a > s > 0):
        raise ValueError(f"raw Chernoff bound needs finite a > s > 0, got a={a}, s={s}")
    beta = a / s
    exponent = s * (beta - 1.0 - beta * math.log(beta))
    if not math.isfinite(exponent):  # b or b ln b past the double range: same exponent, by logs
        exponent = a - s - a * (math.log(a) - math.log(s))
    return math.exp(exponent)


def _check_n(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"index bounds need n >= 1, got n={n}")


def tail_bound_high_index(n: int, t: float, eps: float) -> float:
    """Bound on ``P(X > t ln n)`` valid for every node ``i > n^(1-t+eps)``:
    ``n^(-eps^2 / (2t))``.  Needs ``n >= 1`` and ``0 < eps < t < 1``.
    """
    _check_n(n)
    if not 0.0 < eps < t < 1.0:
        raise ValueError(f"high-index bound needs 0 < eps < t < 1, got t={t}, eps={eps}")
    return math.exp(-(eps**2) / (2.0 * t) * math.log(n))


def tail_bound_low_index(n: int, t: float, eps: float) -> float:
    """Bound on ``P(X <= t ln n)`` valid for every node
    ``i <= n^(1-t-eps) - 1``: ``n^(-eps^2 / (2(t+eps)))``.
    Needs ``n >= 1``, ``0 < t < 1`` and ``0 < eps < 1 - t``.
    """
    _check_n(n)
    if not 0.0 < t < 1.0:
        raise ValueError(f"low-index bound needs 0 < t < 1, got t={t}")
    if not 0.0 < eps < 1.0 - t:
        raise ValueError(f"low-index bound needs 0 < eps < 1 - t, got t={t}, eps={eps}")
    return math.exp(-(eps**2) / (2.0 * (t + eps)) * math.log(n))

