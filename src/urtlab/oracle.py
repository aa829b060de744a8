"""Ground-truth engines independent of the Monte Carlo paths.

* Exhaustive enumeration of all ``(n-1)!`` attachment sequences for small
  ``n`` gives exact rational laws of any registered tree statistic.
* Single-node laws at medium ``n`` are coefficients of one truncated
  product.  With ``prod_l (1 + w_l z) = sum_m e_m(w) z^m`` (elementary
  symmetric functions) and ``1 - 1/j + z/j = ((j-1)/j) (1 + z/(j-1))``:

  - ``P(level(i) = k) = e_{k-1}(1, 1/2, .., 1/(i-1)) / i`` for ``i >= 1``;
  - ``E|L_n(k)| = e_k(1, 1/2, .., 1/(n-1))``, the unsigned Stirling number
    of the first kind ``[n, k+1]`` over ``(n-1)!``;
  - the number ``X`` of nodes ``j = i+1..n`` attaching to node ``i`` has
    ``P(X = m) = (i/n) e_m(1/i, .., 1/(n-1))``, hence
    ``P(X <= c) = (i/n) sum_{m <= c} e_m`` and
    ``P(X > c) = (i/n) sum_{m > c} e_m``.

  :func:`_truncated_product` computes them all, in exact rationals up to
  ``n = 64`` and in double precision beyond.  The child-count laws of any
  set of nodes come from one blocked pass, :func:`_degree_law_sums`, at any
  ``n`` in O(block) memory plus O(1) per node, guarded by work alone.
"""

from __future__ import annotations

import inspect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .bijection import fixed_points_after_first, tree_to_permutation
from .errors import ResourceGuardError
from .moments import ExponentVector, VectorLike, falling_factorial
from .stats import degree_counts_in_level, exceedance_count, level_sizes, max_degree
from .tree import RecursiveTree, grow_from_sequence

ENUMERATION_MAX_NODES = 11  # 10! = 3.6M sequences
RATIONAL_DP_MAX_NODES = 64  # exact rational DP guard
DEGREE_TAIL_MAX_WORK = 10**8  # weights x coefficient rows in one pass of _degree_law_sums
_TAIL_BLOCK = 1 << 14  # weights per block of that pass


def enumerate_trees(n: int) -> Iterator[RecursiveTree]:
    """All recursive trees on ``n`` nodes, one per attachment sequence.

    Sequences are visited in lexicographic (mixed-radix) order: the digit
    for node ``i`` runs over ``0..i-1``.  Each tree occurs exactly once and
    carries probability ``1/(n-1)!`` under uniform growth.
    """
    n = int(n)
    if not 2 <= n <= ENUMERATION_MAX_NODES:
        raise ResourceGuardError(
            f"enumeration is guarded to 2 <= n <= {ENUMERATION_MAX_NODES}, got {n}"
        )
    for seq in itertools.product(*(range(i) for i in range(1, n))):
        yield grow_from_sequence(seq)


def tree_count(n: int) -> int:
    return math.factorial(n - 1)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of an integer statistic under uniform growth on ``n`` nodes."""

    n: int
    statistic: str
    support: dict[int, Fraction]

    def probability(self, value: int) -> Fraction:
        return self.support.get(value, Fraction(0))

    def expectation(self) -> Fraction:
        return sum((p * v for v, p in self.support.items()), start=Fraction(0))

    def factorial_moment(self, order: int) -> Fraction:
        return sum(
            (p * falling_factorial(v, order) for v, p in self.support.items()),
            start=Fraction(0),
        )

    def total_mass(self) -> Fraction:
        return sum(self.support.values(), start=Fraction(0))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "statistic": self.statistic,
            "support": {
                str(v): f"{p.numerator}/{p.denominator}"
                for v, p in sorted(self.support.items())
            },
        }


def _stat_level_degree_count(tree: RecursiveTree, d: int, k: int = 1) -> int:
    return degree_counts_in_level(tree, k).counts.get(d, 0)


def _stat_exceedance_count(tree: RecursiveTree, k: int, t: float) -> int:
    return exceedance_count(tree, k, t)


def _stat_level_size(tree: RecursiveTree, k: int) -> int:
    sizes = level_sizes(tree)
    return int(sizes[k]) if k < len(sizes) else 0


def _stat_max_degree(tree: RecursiveTree) -> int:
    return max_degree(tree)


def _stat_fixed_points(tree: RecursiveTree) -> int:
    return fixed_points_after_first(tree_to_permutation(tree))


STATISTICS = {
    "level_degree_count": _stat_level_degree_count,
    "exceedance_count": _stat_exceedance_count,
    "level_size": _stat_level_size,
    "max_degree": _stat_max_degree,
    "fixed_points": _stat_fixed_points,
}


def exact_statistic_distribution(n: int, statistic: str, **params) -> ExactDistribution:
    """Exact law of a registered statistic via full enumeration.

    Registered statistics: ``level_degree_count`` (params ``d``, optional
    ``k``), ``exceedance_count`` (``k``, ``t``), ``level_size`` (``k``),
    ``max_degree``, ``fixed_points``.
    """
    try:
        fn = STATISTICS[statistic]
    except KeyError:
        known = ", ".join(sorted(STATISTICS))
        raise ValueError(f"unknown statistic {statistic!r}; registered: {known}") from None
    try:
        inspect.signature(fn).bind(None, **params)
    except TypeError as exc:
        raise ValueError(f"statistic {statistic!r}: {exc}") from None
    counts: dict[int, int] = {}
    total = 0
    for tree in enumerate_trees(n):
        value = int(fn(tree, **params))
        counts[value] = counts.get(value, 0) + 1
        total += 1
    label = statistic if not params else (
        statistic + "(" + ", ".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"
    )
    return ExactDistribution(
        n=n,
        statistic=label,
        support={v: Fraction(c, total) for v, c in sorted(counts.items())},
    )


@lru_cache(maxsize=None)  # the enumeration guard keeps n, hence the cache, small
def _first_level_count_law(n: int) -> tuple:
    """Joint law of the first-level degree counts on ``n`` nodes, by enumeration.

    Each entry pairs one value of the counts, as sorted ``(d, X_d)`` pairs,
    with the number of attachment sequences that produce it; the numbers sum
    to ``(n-1)!``.
    """
    law = Counter(
        tuple(sorted(degree_counts_in_level(tree, 1).counts.items()))
        for tree in enumerate_trees(n)
    )
    return tuple(law.items())


def enumeration_moment(n: int, k: VectorLike) -> Fraction:
    """Brute-force joint factorial moment of the first-level degree counts.

    Averages ``prod_d (X_d)_{k_d}`` over every attachment sequence, where
    ``X_d`` counts level-1 nodes of degree ``d``.  This is the independent
    check for the recursion-based values in :mod:`urtlab.moments`.  The trees
    are enumerated once per ``n``; every exponent vector reduces over the
    tabulated joint law of the counts.
    """
    vec = ExponentVector.of(k)
    total = 0
    count = 0
    for pairs, trees in _first_level_count_law(int(n)):
        counts = dict(pairs)
        prod = trees
        for d, kd in enumerate(vec.k, start=1):
            if kd:
                prod *= falling_factorial(counts.get(d, 0), kd)
        total += prod
        count += trees
    return Fraction(total, count)


@dataclass(frozen=True)
class LevelDistribution:
    """Marginal law of one node's level under uniform growth.

    ``probs[k]`` is ``P(level(node) = k)`` for ``k = 0..kmax``; entries are
    :class:`fractions.Fraction` when ``exact`` else floats.  The mass sums
    to 1 whenever ``kmax`` is large enough to cover the support.
    """

    node: int
    probs: tuple
    exact: bool

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, k: int):
        return self.probs[k]

    def __iter__(self):
        return iter(self.probs)


def _weights(lo: int, hi: int, dtype):
    """The weights ``1/lo, .., 1/(hi-1)`` as ``(scale / j, scale)``: exact ones
    (dtype object) as Python ints over their least common multiple, which spares
    the passes the gcds of Fraction arithmetic, float ones as ``dtype`` over 1."""
    j = np.arange(lo, hi, dtype=dtype)
    if dtype is object:
        scale = math.lcm(*range(lo, hi))
        return scale // j, scale
    return 1.0 / j, 1.0


def _truncated_product(w: np.ndarray, order: int, start=None) -> Iterator[np.ndarray]:
    """Rows ``m = 0..order`` of the prefix elementary symmetric functions of ``w``.

    Entry ``j`` of row ``m`` is the coefficient of ``z^m`` in
    ``start(z) * prod_{l<j} (1 + w[l] z)`` for ``j = 0..len(w)``; with the
    default ``start = 1`` that is ``e_m(w[0], .., w[j-1])``.  Row ``m`` is
    ``start[m]`` plus the cumulative sum of ``w`` times row ``m-1``: the same
    passes run on float arrays and on object arrays of ints or Fractions, and
    memory stays at two rows."""
    if start is None:
        start = [1] + [0] * order
    row = np.full(w.size + 1, start[0], dtype=w.dtype)
    yield row
    for m in range(1, order + 1):
        row = np.concatenate(([start[m]], start[m] + np.cumsum(w * row[:-1])))
        yield row


def _truncated_total(lo: int, hi: int, dtype, order: int, block: int = 4096) -> list:
    """``e_0..e_order`` of the weights ``1/lo, .., 1/(hi-1)``, as Fractions for
    dtype object and as ``dtype`` otherwise.  The weights are made and carried
    block by block, so no temporary grows with ``hi - lo``."""
    num = Fraction if dtype is object else dtype
    e = None
    for b in range(lo, max(hi, lo + 1), block):
        w, scale = _weights(b, min(b + block, hi), dtype)
        start = None if e is None else [c * scale**m for m, c in enumerate(e)]
        rows = _truncated_product(w, order, start)
        e = [num(row[-1]) / scale**m for m, row in enumerate(rows)]
    return e


def level_pmf(i: int, kmax: int, exact: Union[bool, None] = None) -> LevelDistribution:
    """Distribution of node ``i``'s level, truncated at ``kmax``.

    ``P(level(i) = k) = e_{k-1}(1, 1/2, .., 1/(i-1)) / i`` for ``i >= 1``.
    ``exact=None`` selects rational arithmetic for ``i <= 64`` and double
    precision beyond.
    """
    i = int(i)
    if i < 0:
        raise ValueError(f"node index must be nonnegative, got {i}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if exact is None:
        exact = i <= RATIONAL_DP_MAX_NODES
    e = _truncated_total(1, i, object if exact else float, kmax)
    probs = e if i == 0 else [0 * e[0]] + [c / i for c in e[:-1]]  # the root has level 0
    return LevelDistribution(i, tuple(probs), exact)


def expected_level_size(n: int, k: int, exact: Union[bool, None] = None):
    """``E|L_n(k)| = e_k(1, 1/2, .., 1/(n-1))``, the expected size of level ``k``.

    Rational for ``n <= 64`` unless ``exact`` says otherwise.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    if exact is None:
        exact = n <= RATIONAL_DP_MAX_NODES
    return _truncated_total(1, n, object if exact else float, k)[k]


def _degree_law_sums(n: int, indices, threshold: float, upper: bool,
                     exact: Union[bool, None] = None, block: int = _TAIL_BLOCK) -> np.ndarray:
    """``(i/n) sum e_m(1/i, .., 1/(n-1))`` over ``m > threshold`` if ``upper``,
    else over ``m <= threshold``, for each ``i`` of the ascending ``indices``
    (a list, an int array or a ``range`` in ``1..n``), read at position ``n - i``
    of the rows of one descending pass over the weights, made and carried
    ``block`` at a time: memory is one block plus O(1) per node, and the work,
    longest span x rows, is guarded before any allocation.  ``exact=None``
    means rationals, in one block, for ``n <= 64``; float heads use long double.
    """
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    exact = n <= RATIONAL_DP_MAX_NODES if exact is None else exact
    head = Fraction(threshold >= 0) if exact else float(threshold >= 0)  # X is in 0..n-i
    at_once = 1 - head if upper else head
    span = n - int(indices[0])  # the longest
    if threshold < 0 or threshold >= span:
        return np.full(len(indices), at_once, dtype=type(at_once))
    order = top = math.floor(threshold)
    if upper:  # the last term the tail needs: e_{m+1} <= s e_m / (m+1) for any
        # s >= e_1 (e_1 e_m counts each monomial of e_{m+1} m+1 times), so from
        # a term e_{m0} of the sum, the terms past 2s whose ratio product is
        # below 2^-60 add up to under 2^-60 e_{m0}, below rounding
        s = 1 / (n - span) + math.log((n - 1) / (n - span))  # >= every e_1, <= span / i
        top, ratio = max(order + 1, math.ceil(s)), 1.0
        while top < span and (top < 2 * s or ratio > 2.0**-60):
            top += 1
            ratio *= s / top
    if span * (top + 1) > DEGREE_TAIL_MAX_WORK:  # before anything is allocated
        raise ResourceGuardError(f"degree tails are guarded to (n - i) x rows <= "
                                 f"{DEGREE_TAIL_MAX_WORK:.0e}, got {span} x {top + 1}")
    heads = exact or not upper  # in rationals a tail is the head's exact complement
    dtype = object if exact else np.longdouble if heads else float
    idx = (np.arange(indices.start, indices.stop, indices.step)  # asarray walks a range
           if isinstance(indices, range) else np.asarray(indices))
    idx = idx[: np.searchsorted(idx, n - threshold)]  # those with threshold < n - i
    sums, carry = np.zeros(idx.size, dtype=dtype), None
    block = span if exact else block  # rationals share one scale; float rows carry at 1.0
    for b0 in range(0, span, block):  # weights 1/(n-1-b0) down to 1/(n-b1)
        b1 = min(b0 + block, span)
        w, scale = _weights(n - b1, n - b0, dtype)
        here = slice(*np.searchsorted(idx, (n - b1, n - b0)))  # positions b0+1..b1
        at = n - b0 - idx[here]
        if at.size and at[0] - at[-1] == at.size - 1:  # a run of positions: read a view
            at = slice(at[0], at[-1] - 1, -1)
        rows = _truncated_product(w[::-1], order if heads else top, carry)
        carry, part = [], sums[here]
        for m, row in enumerate(rows):
            carry.append(row[-1])
            if (m <= order) == heads:  # exact row m carries scale**m: sum by Horner
                grown = part * scale + row[at] if exact else part + row[at]
                if b1 == span and not heads and not np.count_nonzero(grown != part):
                    break  # log-concave: the rest of the tail is below rounding
                part = grown
        sums[here] = part
    sums = sums * idx * Fraction(1, n * scale**order) if exact else sums * idx / n
    out = np.full(len(indices), at_once, dtype=type(at_once))  # last: 3 length-n arrays at most
    out[: idx.size] = 1 - sums if exact and upper else sums
    return out


def _degree_law(i: int, n: int, threshold: float, upper: bool):
    if not 1 <= int(i) < int(n):
        raise ValueError(f"need 1 <= i < n, got i={i}, n={n}")
    return _degree_law_sums(int(n), [int(i)], threshold, upper).tolist()[0]


def degree_head(i: int, n: int, threshold: float):
    """``P(X <= threshold)`` for the ``X`` of :func:`degree_tail`.

    ``(i/n) sum_{m <= threshold} e_m(1/i, .., 1/(n-1))``: a sum of positive
    coefficients, so a small head keeps its relative accuracy, where
    ``1 - degree_tail`` would cancel.  Rational for ``n <= 64``, float
    beyond; any span, in the pass and guard of :func:`degree_tail`.  The float passes
    run in long double (64-bit mantissa on x86-64): at ``n - i = 10^6`` the
    result stays within half a unit in the last place of 50-digit mpmath values.
    """
    return _degree_law(i, n, threshold, upper=False)


def degree_tail(i: int, n: int, threshold: float):
    """``P(X > threshold)`` for ``X = sum_{j=i+1}^{n} Bernoulli(1/j)``.

    ``X`` is the number of extra edges node ``i`` collects while nodes
    ``i+1..n`` attach; a node's total degree in an ``m``-node tree is
    ``1 + X`` with ``n = m - 1``, so ``P(deg > c)`` is
    ``degree_tail(i, m - 1, c - 1)``.

    ``P(X = m) = (i/n) e_m(1/i, .., 1/(n-1))``; rational arithmetic for
    ``n <= 64``, double precision beyond: within 7e-15 relative of 50-digit
    mpmath values at ``n - i = 10^6``.  Any span, in one pass of
    :func:`_degree_law_sums`.  A threshold below 0 or at least ``n - i``
    gives the exact 1 or 0 at once; otherwise the work, ``n - i`` times the
    rows read (``threshold + 1`` for the head, about ``threshold + 40`` for
    the tail), is guarded to :data:`DEGREE_TAIL_MAX_WORK`: 0.5 s at 5 ns per
    weight and row (2 s in the head's long double) on a 2-vCPU x86-64 host.
    """
    return _degree_law(i, n, threshold, upper=True)


def child_count_tails(n: int, threshold: float) -> np.ndarray:
    """Tails ``P(X_i > threshold)`` for every node ``i = 1..n-1`` at once.

    ``X_i = sum_{j=i+1}^{n-1} Bernoulli(1/j)`` is the child count of node
    ``i`` in an ``n``-node tree; ``P(X_i = m) = (i/(n-1)) e_m(1/i, ..,
    1/(n-2))``.  One pass of :func:`_degree_law_sums` serves every node in
    double precision; it holds three length-``n`` arrays besides one block
    of weights and is guarded like :func:`degree_tail`.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _degree_law_sums(n - 1, range(1, n), threshold, upper=True, exact=False)


def node_level_probabilities(n: int, k: int) -> np.ndarray:
    """``P(level(i) = k)`` for every node ``i = 1..n-1``; double precision."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"level must be >= 1 for non-root nodes, got {k}")
    *_, row = _truncated_product(_weights(1, n - 1, float)[0], k - 1)
    return row / np.arange(1, n)


def expected_exceedance_count(n: int, k: int, t: float) -> float:
    """Exact expectation of the number of level-``k`` nodes with degree
    above ``t * ln(n)`` in an ``n``-node tree.

    A node's level is decided by attachments up to its birth, its later
    child count by attachments after it, so the two factors of each term
    are independent:

        sum_{i>=1} P(level(i) = k) * P(X_i > t*ln(n) - 1).

    Double precision throughout; both factors are sums of positive
    truncated-product coefficients, accurate to rounding.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    threshold = t * math.log(n) - 1.0  # degree > t ln n  <=>  children > t ln n - 1
    tails = child_count_tails(n, threshold)
    levels = node_level_probabilities(n, k)
    return float(np.dot(levels, tails))
