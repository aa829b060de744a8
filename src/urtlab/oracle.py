"""Ground-truth engines independent of the Monte Carlo paths.

* Exhaustive enumeration of all ``(n-1)!`` attachment sequences for small
  ``n`` gives exact rational laws of any registered tree statistic.  The
  sequences come as arrays of ``_ENUMERATION_CHUNK`` rows in one order
  (:func:`_sequence_chunks`); :func:`enumerate_trees` grows a tree per row,
  while the joint law of the first-level degree counts, the check on
  :mod:`urtlab.moments`, is counted from the arrays in one pass that builds
  no tree and shares no code with :mod:`urtlab.stats`, in under 3 MiB at
  any ``n`` up to :data:`ENUMERATION_MAX_NODES`.
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

  :func:`_truncated_product` computes them all.  Every exact rational (the
  default up to ``n = 64``) comes from :func:`_truncated_total`, the one
  path over integer weights.  In floats, the child-count laws of any set of
  nodes come from one blocked pass, :func:`_degree_law_sums`, at any ``n`` in
  O(block) memory plus O(1) per node, guarded by work alone.  One node's
  terms ``e_m(1/i, .., 1/(n-1))`` do not depend on the threshold, so
  :func:`degree_tail` and :func:`degree_head` keep them per ``(n, i)`` and
  precision (:func:`_node_terms`): the first call pays one pass, later ones
  a sum of held terms, with every value bit for bit that of a fresh pass.
  Likewise :func:`expected_exceedance_count` keeps the tails of its last
  few ``(n, threshold)`` pairs, so every level ``k`` at one threshold
  shares one :func:`child_count_tails` pass.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Iterator, Union

import numpy as np

from .bijection import fixed_points_after_first, tree_to_permutation
from .errors import ResourceGuardError
from .moments import ExponentVector, VectorLike, falling_factorial
from .stats import degree_counts_in_level, exceedance_count, exceedance_threshold, max_degree
from .tree import RecursiveTree, grow_from_sequence

ENUMERATION_MAX_NODES = 11  # 10! = 3.6M sequences
RATIONAL_DP_MAX_NODES = 64  # exact rational DP guard
DEGREE_TAIL_MAX_WORK = 10**8  # weights x coefficient rows in one pass, and a node memo's rows
_TAIL_BLOCK = 1 << 14  # weights per block of that pass
_TOTAL_BLOCK = 4096  # weights per block of _truncated_total
_ENUMERATION_CHUNK = 1 << 13  # attachment sequences per array of the enumeration


def _enumeration_nodes(n: int) -> int:
    """``n`` as an int, refused below 2 nodes and past the enumeration guard."""
    n = int(n)
    if n < 2:
        raise ValueError(f"enumeration needs n >= 2 nodes, got {n}")
    if n > ENUMERATION_MAX_NODES:
        raise ResourceGuardError(
            f"enumeration is guarded to n <= {ENUMERATION_MAX_NODES}, got {n}"
        )
    return n


def _sequence_chunks(n: int) -> Iterator[np.ndarray]:
    """Every attachment sequence on ``n`` nodes, ``_ENUMERATION_CHUNK`` rows at a time.

    Row ``s`` (counting across chunks) is sequence ``s`` in lexicographic
    (mixed-radix) order: entry ``i-1``, node ``i``'s parent, is the digit of
    radix ``i`` of ``s``, and node ``n-1``'s digit runs fastest.  Each chunk
    is a fresh ``(rows, n-1)`` int64 array.
    """
    n = _enumeration_nodes(n)
    total = math.factorial(n - 1)
    for start in range(0, total, _ENUMERATION_CHUNK):
        index = np.arange(start, min(start + _ENUMERATION_CHUNK, total))
        rows = np.empty((index.size, n - 1), dtype=np.int64)
        for i in range(n - 1, 0, -1):
            index, rows[:, i - 1] = np.divmod(index, i)
        yield rows


def enumerate_trees(n: int) -> Iterator[RecursiveTree]:
    """All recursive trees on ``n`` nodes, one per attachment sequence.

    Sequences are visited in lexicographic (mixed-radix) order: the digit
    for node ``i`` runs over ``0..i-1``.  Each tree occurs exactly once and
    carries probability ``1/(n-1)!`` under uniform growth.
    """
    for rows in _sequence_chunks(n):
        for seq in rows.tolist():
            yield grow_from_sequence(seq)


def tree_count(n: int) -> int:
    return math.factorial(n - 1)


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of an integer statistic under uniform growth on ``n`` nodes."""

    n: int
    statistic: str
    support: dict[int, Fraction]

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


def _stat_level_size(tree: RecursiveTree, k: int) -> int:
    return degree_counts_in_level(tree, k).level_size


def _stat_fixed_points(tree: RecursiveTree) -> int:
    return fixed_points_after_first(tree_to_permutation(tree))


STATISTICS = {
    "level_degree_count": _stat_level_degree_count,
    "exceedance_count": exceedance_count,
    "level_size": _stat_level_size,
    "max_degree": max_degree,
    "fixed_points": _stat_fixed_points,
}


def checked_statistic(n: int, statistic: str, **params) -> Callable:
    """The function of a registered statistic, once ``n`` and ``params`` pass
    every check :func:`exact_statistic_distribution` makes before it enumerates."""
    _enumeration_nodes(n)
    try:
        fn = STATISTICS[statistic]
    except KeyError:
        known = ", ".join(sorted(STATISTICS))
        raise ValueError(f"unknown statistic {statistic!r}; registered: {known}") from None
    try:
        inspect.signature(fn).bind(None, **params)
    except TypeError as exc:
        raise ValueError(f"statistic {statistic!r}: {exc}") from None
    if params.get("k", 0) < 0:
        raise ValueError(f"statistic {statistic!r}: level k must be >= 0, got {params['k']}")
    if params.get("d", 1) < 1:  # at n >= 2 every node has an edge
        raise ValueError(f"statistic {statistic!r}: degree d must be >= 1, got {params['d']}")
    if not 0.0 < params.get("t", 0.5) < 1.0:
        raise ValueError(f"statistic {statistic!r}: t must lie in (0, 1), got {params['t']}")
    return fn


def exact_statistic_distribution(n: int, statistic: str, **params) -> ExactDistribution:
    """Exact law of a registered statistic via full enumeration.

    Registered statistics: ``level_degree_count`` (params ``d``, optional
    ``k``), ``exceedance_count`` (``k``, ``t``), ``level_size`` (``k``),
    ``max_degree``, ``fixed_points``.  A negative level ``k``, a degree
    ``d`` below 1, or a ``t`` outside (0, 1), is refused before anything is
    enumerated.
    """
    fn = checked_statistic(n, statistic, **params)
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

    Each entry pairs one value of the counts, as sorted ``(d, X_d)`` pairs
    with ``X_d > 0``, with the number of attachment sequences that produce
    it; the numbers sum to ``(n-1)!``.  One array pass over
    :func:`_sequence_chunks` builds no tree: a level-1 node is one whose
    parent is 0, and its degree is one more than its child count, which one
    offset ``bincount`` gives for every node of a chunk.  Every ``X_d`` is
    below ``n``, so a sequence's counts are the base-``n`` digits of one
    int64 code, the sum of ``n^c`` over its level-1 nodes with ``c``
    children, and the law is a count of codes.  A chunk's arrays take about
    0.35 KB a row at ``n = 11`` (a tracemalloc peak of 2.7 MiB), so the pass
    stays under 3 MiB at any ``n`` the guard admits.
    """
    # n^c for a level-1 node with c <= n - 2 children, and 0 at n - 1 for any other node
    power = np.append(n ** np.arange(n - 1, dtype=np.int64), 0)
    codes: Counter = Counter()
    for rows in _sequence_chunks(n):
        size = rows.shape[0]
        kids = np.bincount((rows + n * np.arange(size)[:, None]).ravel(),  # row r's parents + r*n
                           minlength=size * n).reshape(size, n)[:, 1:]
        kids[rows != 0] = n - 1
        codes.update(power[kids].sum(axis=1).tolist())  # np.unique's sort maps 0.4 MiB of code
    law = []
    for code, times in sorted(codes.items()):
        digits = [code // n**c % n for c in range(n - 1)]  # X_1 .. X_{n-1}
        law.append((tuple((c + 1, x) for c, x in enumerate(digits) if x), times))
    return tuple(law)


def enumeration_moment(n: int, k: VectorLike) -> Fraction:
    """Brute-force joint factorial moment of the first-level degree counts.

    Averages ``prod_d (X_d)_{k_d}`` over every attachment sequence, where
    ``X_d`` counts level-1 nodes of degree ``d``.  This is the independent
    check for the recursion-based values in :mod:`urtlab.moments`.  The
    sequences are counted once per ``n``, in one array pass that builds no
    tree and holds under 3 MiB (:func:`_first_level_count_law`); every
    exponent vector reduces over the tabulated joint law of the counts.
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


def _truncated_total(lo: int, hi: int, dtype, order: int) -> list:
    """``e_0..e_order`` of the weights ``1/lo, .., 1/(hi-1)``.  Exact ones (dtype
    object), the module's only rationals, come from one pass over Python ints
    scaled by the weights' lcm, which spares it the gcds of Fraction arithmetic;
    others are ``dtype``, made and carried ``_TOTAL_BLOCK`` at a time."""
    if dtype is object:
        scale = math.lcm(*range(lo, hi))
        rows = _truncated_product(scale // np.arange(lo, hi, dtype=object), order)
        return [Fraction(row[-1], scale**m) for m, row in enumerate(rows)]
    e = None
    for b in range(lo, max(hi, lo + 1), _TOTAL_BLOCK):
        w = 1.0 / np.arange(b, min(b + _TOTAL_BLOCK, hi), dtype=dtype)
        e = [dtype(row[-1]) for row in _truncated_product(w, order, e)]
    return e


def level_pmf(i: int, kmax: int, exact: Union[bool, None] = None) -> tuple:
    """``P(level(i) = k)`` for ``k = 0..kmax``: node ``i``'s level law under
    uniform growth, truncated at ``kmax``.

    ``P(level(i) = k) = e_{k-1}(1, 1/2, .., 1/(i-1)) / i`` for ``i >= 1``.
    Entries are :class:`fractions.Fraction` when ``exact``, else floats;
    ``exact=None`` selects rational arithmetic for ``i <= 64`` and double
    precision beyond.  The mass sums to 1 once ``kmax`` covers the support.
    """
    i = int(i)
    if i < 0:
        raise ValueError(f"node index must be nonnegative, got {i}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if exact is None:
        exact = i <= RATIONAL_DP_MAX_NODES
    e = _truncated_total(1, i, object if exact else float, kmax)
    return tuple(e if i == 0 else [0 * e[0]] + [c / i for c in e[:-1]])  # the root has level 0


def expected_level_size(n: int, k: int, exact: Union[bool, None] = None):
    """``E|L_n(k)| = e_k(1, 1/2, .., 1/(n-1))``, the expected size of level ``k``.

    Rational for ``n <= 64`` unless ``exact`` says otherwise; an exact 0 at
    once for ``k >= n``, where no node can be.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    if exact is None:
        exact = n <= RATIONAL_DP_MAX_NODES
    if k >= n:
        return Fraction(0) if exact else 0.0
    return _truncated_total(1, n, object if exact else float, k)[k]


def _law_rows(n: int, span: int, threshold: float, upper: bool, exact: bool):
    """``(at_once, order, top)``: the answer for a threshold outside ``0..span-1``
    (``order`` None if all get it), the head's last row, the tail's, guarded."""
    if math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold}")
    head = Fraction(threshold >= 0) if exact else float(threshold >= 0)  # X is in 0..n-i
    at_once = 1 - head if upper else head
    if threshold < 0 or threshold >= span:
        return at_once, None, None
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
    return at_once, order, top


def _descending_rows(n: int, span: int, rows: int, dtype, block: int) -> Iterator[tuple]:
    """``(b0, b1, m, row)``, ``m = 0..rows``, over the weights ``1/(n-1)`` down to
    ``1/(n-span)``, ``block`` at a time: entry ``p`` of a row of the block
    ``1/(n-1-b0) .. 1/(n-b1)`` is ``e_m`` of the first ``b0 + p`` weights."""
    carry = None
    for b0 in range(0, span, block):
        b1 = min(b0 + block, span)
        w = 1.0 / np.arange(n - b1, n - b0, dtype=dtype)
        start, carry = carry, []
        for m, row in enumerate(_truncated_product(w[::-1], rows, start)):
            carry.append(row[-1])
            yield b0, b1, m, row


@lru_cache(maxsize=128)
def _node_memo(n: int, i: int, dtype) -> list:
    return [()]  # one slot: the longest terms made so far


def _node_terms(n: int, i: int, dtype, rows: int) -> np.ndarray:
    """``e_0..e_R(1/i, .., 1/(n-1))``, ``R >= rows``, read-only, as rationals or
    from a pass in blocks of ``_TAIL_BLOCK``; ``e_m`` is the same whatever ``R``.
    More rows than held are made at least twice over, up to the span and to
    ``DEGREE_TAIL_MAX_WORK // span`` terms: at most about 10^4 terms of 16 bytes
    (span 10^4), so 160 KB an entry and 20 MB in all at worst."""
    memo = _node_memo(n, i, dtype)
    if len(memo[0]) <= rows:
        span = n - i
        rows = min(span, DEGREE_TAIL_MAX_WORK // span - 1, max(rows, 2 * len(memo[0])))
        terms = (_truncated_total(i, n, object, rows) if dtype is object else
                 [row[-1] for _, b1, _, row in _descending_rows(n, span, rows, dtype, _TAIL_BLOCK)
                  if b1 == span])
        memo[0] = np.array(terms, dtype=dtype)
        memo[0].flags.writeable = False
    return memo[0]


def _exact_law(n: int, i: int, order: int, upper: bool) -> Fraction:
    head = Fraction(i, n) * sum(_node_terms(n, i, object, order)[: order + 1])
    return 1 - head if upper else head


def _degree_law_sums(n: int, indices, threshold: float, upper: bool,
                     exact: Union[bool, None] = None, block: int = _TAIL_BLOCK) -> np.ndarray:
    """``(i/n) sum e_m(1/i, .., 1/(n-1))`` over ``m > threshold`` if ``upper``,
    else over ``m <= threshold``, for each ``i`` of the ascending ``indices``
    (a list, an int array or a ``range`` in ``1..n``); the work, longest span x
    rows, is guarded before any allocation.  ``exact=None`` means rationals for
    ``n <= 64``: a head is a sum of the node's memoized :func:`_node_terms`, a
    tail its complement.  Floats are read at position ``n - i`` of the rows of
    one :func:`_descending_rows` pass, in O(block) memory plus O(1) per node:
    tails in double, heads in long double.
    """
    exact = n <= RATIONAL_DP_MAX_NODES if exact is None else exact
    span = n - int(indices[0])  # the longest
    at_once, order, top = _law_rows(n, span, threshold, upper, exact)
    if order is None:
        return np.full(len(indices), at_once, dtype=type(at_once))
    idx = (np.arange(indices.start, indices.stop, indices.step)  # asarray walks a range
           if isinstance(indices, range) else np.asarray(indices))
    idx = idx[: np.searchsorted(idx, n - threshold)]  # those with threshold < n - i
    if exact:
        out = np.full(len(indices), at_once, dtype=object)
        for pos, i in enumerate(idx.tolist()):
            out[pos] = _exact_law(n, i, order, upper)
        return out
    dtype = float if upper else np.longdouble
    sums = np.zeros(idx.size, dtype=dtype)
    for b0, b1, m, row in _descending_rows(n, span, top if upper else order, dtype, block):
        if m == 0:  # a new block of weights 1/(n-1-b0) down to 1/(n-b1)
            here = slice(*np.searchsorted(idx, (n - b1, n - b0)))  # positions b0+1..b1
            at = n - b0 - idx[here]
            if at.size and at[0] - at[-1] == at.size - 1:  # a run of positions: read a view
                at = slice(at[0], at[-1] - 1, -1)
        if (m > order) == upper:  # rows past order make the tail, the rest the head
            grown = sums[here] + row[at]
            if b1 == span and upper and not np.count_nonzero(grown != sums[here]):
                break  # log-concave: the rest of the tail is below rounding
            sums[here] = grown
    sums = sums * idx / n
    out = np.full(len(indices), at_once, dtype=type(at_once))  # last: 3 length-n arrays at most
    out[: idx.size] = sums
    return out


def _degree_law(i: int, n: int, threshold: float, upper: bool):
    """One node's law, folded from its memoized :func:`_node_terms` in the order
    and with the stop of :func:`_degree_law_sums`, so bit for bit its value."""
    if not 1 <= int(i) <= int(n):  # at i = n, X = 0: the zero span is answered at once
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    i, n = int(i), int(n)
    exact = n <= RATIONAL_DP_MAX_NODES
    at_once, order, top = _law_rows(n, n - i, threshold, upper, exact)
    if order is None:
        return at_once
    if exact:
        return _exact_law(n, i, order, upper)
    dtype = float if upper else np.longdouble
    terms = _node_terms(n, i, dtype, top if upper else order)
    part = dtype(0)
    for m in range(order + 1, top + 1) if upper else range(order + 1):
        grown = part + terms[m]
        if upper and grown == part:
            break
        part = grown
    return float(part * i / n)


def degree_head(i: int, n: int, threshold: float):
    """``P(X <= threshold)`` for the ``X`` of :func:`degree_tail`.

    ``(i/n) sum_{m <= threshold} e_m(1/i, .., 1/(n-1))``: a sum of positive
    coefficients, so a small head keeps its relative accuracy, where
    ``1 - degree_tail`` would cancel.  Rational for ``n <= 64``, from
    :func:`_truncated_total`; float beyond, at any span, in the pass, guard
    and memo of :func:`degree_tail`, run in long double (64-bit mantissa on
    x86-64): at ``n - i = 10^6`` it stays within half a unit in the last
    place of 50-digit mpmath values.
    """
    return _degree_law(i, n, threshold, upper=False)


def degree_tail(i: int, n: int, threshold: float):
    """``P(X > threshold)`` for ``X = sum_{j=i+1}^{n} Bernoulli(1/j)``.

    ``X`` is the number of extra edges node ``i`` collects while nodes
    ``i+1..n`` attach; a node's total degree in an ``m``-node tree is
    ``1 + X`` with ``n = m - 1``, so ``P(deg > c)`` is
    ``degree_tail(i, m - 1, c - 1)``.

    ``P(X = m) = (i/n) e_m(1/i, .., 1/(n-1))``; for ``n <= 64`` the exact
    complement of :func:`degree_head`, in double precision beyond (any span,
    one pass of :func:`_descending_rows`), within 7e-15 relative of 50-digit
    mpmath values at ``n - i = 10^6``.  A threshold below 0 or at least ``n - i``
    gives the exact 1 or 0 at once; otherwise the work, ``n - i`` times the
    rows read (``threshold + 1`` for the head, about ``threshold + 40`` for
    the tail), is guarded to :data:`DEGREE_TAIL_MAX_WORK`: 0.5 s at 5 ns per
    weight and row (2 s in the head's long double) on a 2-vCPU x86-64 host.

    The first call per ``(n, i)`` and precision pays that pass and keeps its
    terms (:func:`_node_terms`): a later call costs O(rows) if they suffice,
    else a pass of twice the rows, so a sweep costs O(log(n - i)) passes.
    Every value is bit for bit that of a fresh pass.
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
    """``P(level(i) = k)`` for every node ``i = 1..n-1``; double precision,
    and exact zeros at once for ``k >= n``, past every node's level."""
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"level must be >= 1 for non-root nodes, got {k}")
    if k >= n:
        return np.zeros(n - 1)
    *_, row = _truncated_product(1.0 / np.arange(1, n - 1, dtype=float), k - 1)
    return row / np.arange(1, n)


@lru_cache(maxsize=4)  # levels k = 1, 2, .. at a grid of up to four t share each pass
def _exceedance_tails(n: int, threshold: float) -> np.ndarray:
    """:func:`child_count_tails`, read-only, kept for the last few calls: at
    most four length-``n`` arrays, about what one pass holds while it runs."""
    tails = child_count_tails(n, threshold)
    tails.flags.writeable = False
    return tails


def expected_exceedance_count(n: int, k: int, t: float) -> float:
    """Exact expectation of the number of level-``k`` nodes with degree
    above ``t * ln(n)`` in an ``n``-node tree.

    A node's level is decided by attachments up to its birth, its later
    child count by attachments after it, so the two factors of each term
    are independent:

        sum_{i>=1} P(level(i) = k) * P(X_i > t*ln(n) - 1).

    Double precision throughout; both factors are sums of positive
    truncated-product coefficients, accurate to rounding.  The tails of one
    threshold serve every ``k``: one :func:`child_count_tails` pass per
    ``(n, t)`` among the last four, each value bit for bit that of a fresh
    pass.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    threshold = exceedance_threshold(n, t) - 1.0  # degree > t ln n  <=>  children > t ln n - 1
    tails = _exceedance_tails(n, threshold)
    levels = node_level_probabilities(n, k)
    return float(np.dot(levels, tails))
