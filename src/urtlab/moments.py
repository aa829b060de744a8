"""Falling-factorial algebra and exact joint factorial moments of the
first-level degree counts.

Let ``X[n, d]`` be the number of level-1 nodes of degree ``d`` in a
uniformly grown tree on ``n`` nodes.  For an exponent vector
``k = (k_1, .., k_d)`` the joint factorial moment

    E(n, k) = E[ prod_i (X[n, i])_{k_i} ]

satisfies a one-step recursion in ``n``: conditioning on where node ``n``
attaches (the root, or a level-1 node of some degree ``j``) and collapsing
the resulting telescopes with the falling-factorial identities gives

    E(n+1, k) = (1 - K/n) E(n, k) + (1/n) * sum_j k_j E(n, move_j(k)),

where ``K = sum(k)``, ``move_1`` lowers ``k_1`` by one (attachment to the
root) and ``move_j`` for ``j >= 2`` replaces ``(k_{j-1}, k_j)`` by
``(k_{j-1}+1, k_j-1)`` (a degree ``j-1`` node became degree ``j``).  The
recursion is anchored at the deterministic two-node tree, where
``X[2, 1] = 1`` and all other counts vanish.  The exact sweep holds the row
``E(n, .)`` as integer numerators ``h`` over one common denominator ``D``:
one step is ``h' = (n-K) h + sum_j k_j h[move_j]`` over ``D' = n D``, in
integers.  Whenever ``D`` has doubled in bit length since it was last
reduced, numerators and ``D`` are divided by their gcd, so the integers stay
within about twice the size of the reduced values instead of growing as
``(n-1)!``.

Every exact value here is a :class:`fractions.Fraction` and the exact
recursion never touches floating point.  ``E(n, (1,)) == 1`` holds exactly
for every ``n >= 2``.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ResourceGuardError

# exact sweeps stop here: (1, 1, 1) takes 0.08 s at 4096 and 0.4 s at 10^4 (2 vCPU)
EXACT_MOMENT_GUARD_N = 10_000
# an exact sweep's integers grow with n, so its cost goes as closure size x n^2:
# a 462-vector closure took 0.56 s at n = 1000 and 1.75 s at 2000 (2 vCPU); the
# work is guarded to what 25 vectors cost at EXACT_MOMENT_GUARD_N
EXACT_MOMENT_MAX_WORK = 25 * EXACT_MOMENT_GUARD_N**2
# each kept row reduces one Fraction of about n log n bits per closure vector,
# which costs about n^2 / 20 of those work units: keeping every row of (1, 1, 1)'s
# 14-vector closure took 0.7 s to n = 2000 and 4.3 s to n = 4000 (2 vCPU), so a
# full kept-row budget costs about 1.6x a full sweep's; the kept rows get a
# budget of their own, so one row at any admitted n stays admitted
KEPT_ROW_WORK_DIVISOR = 32
# the closure of (0,..,0,k) grows about 4x per unit of k; this cap admits every
# vector of d <= 3 and total <= 16 (969), and with FLOAT_SWEEP_BLOCK it bounds the
# float sweep's values at closure size x (block + 1) doubles: 16 MiB here
MOMENT_CLOSURE_MAX = 1024
# steps of n per block of the float sweep
FLOAT_SWEEP_BLOCK = 2048
# a float block ends before a running product prod (1 - K/m) falls below
# exp(-600) = 1e-261, so that dividing by it leaves a finite, normal double
FLOAT_SWEEP_LOG_FLOOR = 600.0

VectorLike = Union["ExponentVector", Sequence[int]]


def falling_factorial(a: int, k: int) -> int:
    """``a (a-1) ... (a-k+1)`` with the empty product equal to 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out = 1
    for step in range(k):
        out *= a - step
    return out


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of the three falling-factorial identity checks."""

    shift_difference: bool  # (a+1)_k - (a)_k == k (a)_{k-1}
    product_shift: bool  # a[(a-1)_k (b+1)_l - (a)_k (b)_l] == l (a)_{k+1} (b)_{l-1} - k (a)_k (b)_l
    partial_sum: bool  # (k+1) * sum_{a=k}^n (a)_k == (n+1)_{k+1}

    def all_pass(self) -> bool:
        return self.shift_difference and self.product_shift and self.partial_sum


def check_falling_factorial_identities(a: int, b: int, k: int, l: int, n: int) -> IdentityCheck:
    """Evaluate both sides of the three identities exactly.

    Requires ``k >= 1`` (for the shift difference) and ``n >= k >= 0``
    (for the partial sum); ``l >= 0``.
    """
    if k < 1:
        raise ValueError(f"shift-difference identity needs k >= 1, got k={k}")
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    if n < k:
        raise ValueError(f"partial-sum identity needs n >= k, got n={n}, k={k}")

    shift = falling_factorial(a + 1, k) - falling_factorial(a, k) == k * falling_factorial(a, k - 1)

    lhs = a * (
        falling_factorial(a - 1, k) * falling_factorial(b + 1, l)
        - falling_factorial(a, k) * falling_factorial(b, l)
    )
    # l == 0 kills the first term before (b)_{l-1} would be needed
    first = 0 if l == 0 else l * falling_factorial(a, k + 1) * falling_factorial(b, l - 1)
    product = lhs == first - k * falling_factorial(a, k) * falling_factorial(b, l)

    total = sum(falling_factorial(x, k) for x in range(k, n + 1))
    psum = (k + 1) * total == falling_factorial(n + 1, k + 1)

    return IdentityCheck(shift, product, psum)


@dataclass(frozen=True)
class ExponentVector:
    """Nonnegative integer exponents ``(k_1, .., k_d)``, canonicalized.

    Trailing zeros are trimmed so that ``(1,)`` and ``(1, 0)`` denote the
    same moment; the all-zero vector canonicalizes to ``(0,)``.
    """

    k: tuple[int, ...]

    def __post_init__(self):
        k = tuple(int(x) for x in self.k)
        if len(k) < 1:
            raise ValueError("exponent vector needs at least one entry")
        if any(x < 0 for x in k):
            raise ValueError(f"exponents must be nonnegative, got {k}")
        while len(k) > 1 and k[-1] == 0:
            k = k[:-1]
        object.__setattr__(self, "k", k)

    @classmethod
    def of(cls, k: VectorLike) -> "ExponentVector":
        return k if isinstance(k, ExponentVector) else cls(tuple(k))

    @property
    def d(self) -> int:
        return len(self.k)

    @property
    def total(self) -> int:
        """The combined order ``K = sum(k)``."""
        return sum(self.k)

    def padded(self, d: int) -> tuple[int, ...]:
        if d < self.d:
            raise ValueError(f"cannot pad to length {d} < {self.d}")
        return self.k + (0,) * (d - self.d)

    def moves(self) -> list[tuple[int, "ExponentVector"]]:
        """Reduction moves of the recursion with their weights ``k_j``.

        Move 1 lowers ``k_1``; move ``j >= 2`` shifts one unit from ``k_j``
        to ``k_{j-1}``.  Moves that would drive an entry negative (zero
        weight) are omitted.
        """
        out = []
        for j, kj in enumerate(self.k):
            if kj == 0:
                continue
            if j == 0:
                moved = (self.k[0] - 1,) + self.k[1:]
            else:
                moved = self.k[: j - 1] + (self.k[j - 1] + 1, self.k[j] - 1) + self.k[j + 1 :]
            out.append((kj, ExponentVector(moved)))
        return out

    def __str__(self) -> str:
        return "-".join(str(x) for x in self.k)


def majorizes(upper: Sequence[int], lower: Sequence[int]) -> bool:
    """Suffix-sum dominance: is ``lower`` majorized by ``upper``?

    True iff every suffix sum of ``lower`` is at most the matching suffix
    sum of ``upper``.  The vectors must have equal length.
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if len(upper) != len(lower):
        raise ValueError(f"length mismatch: {len(upper)} vs {len(lower)}")
    su = sl = 0
    for u, x in zip(reversed(upper), reversed(lower)):
        su += u
        sl += x
        if sl > su:
            return False
    return True


def dependency_closure(k: VectorLike) -> frozenset[ExponentVector]:
    """Smallest move-closed set containing ``k``.

    Finite because every move strictly lowers the weighted total
    ``sum_j j * k_j``; guarded like every closure of :func:`_plan`.
    """
    return frozenset(v for v, _, _ in _plan([ExponentVector.of(k)]))


def _plan(targets: Iterable[ExponentVector]) -> list[tuple]:
    """The recursion over the union of the targets' dependency closures.

    One entry per closure vector, in sweep order: the vector, its total
    ``K`` and its moves as ``(k_j, position of move_j(k))``.  The closure is
    refused with :class:`ResourceGuardError` as soon as it passes
    :data:`MOMENT_CLOSURE_MAX` vectors, before it holds more.
    """
    seen = set(targets)
    stack = list(seen)
    while stack:
        for _, moved in stack.pop().moves():
            if moved not in seen:
                seen.add(moved)
                stack.append(moved)
                if len(seen) > MOMENT_CLOSURE_MAX:
                    raise ResourceGuardError(f"moment closures are guarded to "
                                             f"{MOMENT_CLOSURE_MAX} vectors, and this one has more")
    vectors = sorted(seen, key=lambda v: (v.d, v.k))
    index = {v: pos for pos, v in enumerate(vectors)}
    return [(v, v.total, [(weight, index[moved]) for weight, moved in v.moves()])
            for v in vectors]


def _base_value(v: ExponentVector) -> int:
    """E(2, v): the two-node tree has one level-1 node, of degree 1."""
    return int(v.k[0] <= 1 and all(x == 0 for x in v.k[1:]))


def _reduce(row: list[int], scale: int) -> tuple[list[int], int]:
    """The row's numerators and their common denominator, divided by their gcd."""
    g = math.gcd(scale, *row)
    return [h // g for h in row], scale // g


def _sweep(plan, n_max: int, snapshots: set[int]):
    """Run the recursion of ``plan`` from n=2 to n_max and keep the rows of
    ``snapshots``.  ``E(n, v) = row[v] / scale`` throughout; ``scale`` gains a
    factor n per step and is reduced with the row each time its bit length
    has doubled since the last reduction, which costs one gcd per doubling."""
    row = [_base_value(v) for v, _, _ in plan]
    scale = 1
    reduced_bits = 1
    kept = {}
    for n in range(2, n_max + 1):
        if n in snapshots:
            kept[n] = {v: Fraction(h, scale) for (v, _, _), h in zip(plan, row)}
        if n < n_max:
            stepped = []
            for h, (_, total, moves) in zip(row, plan):
                h *= n - total
                for weight, moved in moves:
                    h += row[moved] if weight == 1 else weight * row[moved]
                stepped.append(h)
            row = stepped
            scale *= n
            if scale.bit_length() >= 2 * reduced_bits:
                row, scale = _reduce(row, scale)
                reduced_bits = scale.bit_length()
    return kept


class MomentTable:
    """Exact moment values over the dependency closure of target vectors.

    Rows are kept for the requested ``n`` values only; the sweep itself
    always starts at the ``n = 2`` anchor.  Every stored value is an exact
    :class:`fractions.Fraction`.
    """

    def __init__(self, target: VectorLike, n_values: Iterable[int]):
        self._build([target], n_values)

    @classmethod
    def for_targets(cls, targets: Iterable[VectorLike], n_values: Iterable[int]) -> "MomentTable":
        """One table covering several vectors; a single shared sweep."""
        table = cls.__new__(cls)
        table._build(targets, n_values)
        return table

    def _build(self, targets: Iterable[VectorLike], n_values: Iterable[int]) -> None:
        vecs = [ExponentVector.of(t) for t in targets]
        if not vecs:
            raise ValueError("need at least one target vector")
        ns = sorted({int(n) for n in n_values})
        if not ns:
            raise ValueError("need at least one n value")
        if ns[0] < 2:
            raise ValueError(f"moments are anchored at n=2; got n={ns[0]}")
        if ns[-1] > EXACT_MOMENT_GUARD_N:
            raise ResourceGuardError(
                f"exact moments are guarded to n <= {EXACT_MOMENT_GUARD_N}, got n={ns[-1]}; "
                "factorial_moments_float serves larger n"
            )
        plan = _plan(vecs)
        if len(plan) * ns[-1] ** 2 > EXACT_MOMENT_MAX_WORK:
            raise ResourceGuardError(
                f"exact moments are guarded to closure size x n^2 <= {EXACT_MOMENT_MAX_WORK:.1e}, "
                f"got {len(plan)} x {ns[-1]}^2; factorial_moments_float serves it"
            )
        kept_work = len(plan) * sum(n * n for n in ns) // KEPT_ROW_WORK_DIVISOR
        if kept_work > EXACT_MOMENT_MAX_WORK:
            raise ResourceGuardError(
                f"exact moment tables are guarded to closure size x sum of kept n^2 / "
                f"{KEPT_ROW_WORK_DIVISOR} <= {EXACT_MOMENT_MAX_WORK:.1e}, got {kept_work:.1e} for "
                f"{len(plan)} vectors and {len(ns)} rows up to n={ns[-1]}; keep fewer n values"
            )
        self.n_values = ns
        self.vectors = [v for v, _, _ in plan]
        self._rows = _sweep(plan, ns[-1], set(ns))

    def value(self, n: int, k: VectorLike) -> Fraction:
        v = ExponentVector.of(k)
        try:
            return self._rows[int(n)][v]
        except KeyError:
            raise KeyError(f"table holds no value for n={n}, k={v}") from None

    def rows(self):
        """Yield (n, vector, value) in deterministic order."""
        for n in self.n_values:
            for v in self.vectors:
                yield n, v, self._rows[n][v]

    def write_csv(self, fh) -> None:
        """CSV rows ``n, k (dash-joined), numerator, denominator``, written in
        full at every n by way of Decimal, as in :func:`fraction_text`."""
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "numerator", "denominator"])
        writer.writerows((n, v, Decimal(val.numerator), Decimal(val.denominator))
                         for n, v, val in self.rows())


def fraction_text(value: Fraction) -> str:
    """``str(value)`` at every size.  str() of an int refuses more digits than
    sys.get_int_max_str_digits() (4300 by default), which E(n, (0, 0, 3)) passes
    from n = 4400 or so; the conversion to Decimal has no such limit."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def exact_factorial_moment(n: int, k: VectorLike) -> Fraction:
    """E(n, k) as an exact rational, for ``2 <= n <= EXACT_MOMENT_GUARD_N``.

    The bit cost of the integer sweep grows as ``n^2`` per closure vector,
    which is guarded to :data:`EXACT_MOMENT_MAX_WORK`; use
    :func:`factorial_moments_float` for large-``n`` reference values.
    """
    return MomentTable(k, [n]).value(n, k)


def _weighted_total(v: ExponentVector) -> int:
    """``sum_j j * k_j``: every move lowers it by exactly one, and E(m, v) = 0
    while ``m`` is at most this (a level-1 node of degree j spans j nodes)."""
    return sum(j * kj for j, kj in enumerate(v.k, start=1))


def _block_end(m0: int, n: int, peaks) -> int:
    """Largest block end ``m1 <= min(n, m0 + FLOAT_SWEEP_BLOCK)`` over which no
    layer's running product falls below ``exp(-FLOAT_SWEEP_LOG_FLOOR)``;
    ``peaks`` holds each layer's first nonzero step and largest total K."""
    largest = {}  # per first factor a, the largest K, whose product drops furthest
    for start, total in peaks:
        a = max(m0, start)
        largest[a] = max(largest.get(a, 0), total)

    def drop(stop):  # -log prod_{i=a}^{stop-1} (1 - K/i) = log (stop-1)_K - log (a-1)_K
        return max((math.lgamma(stop) - math.lgamma(stop - k) - math.lgamma(a) + math.lgamma(a - k)
                    for a, k in largest.items() if a < stop), default=0.0)

    lo, hi = m0 + 1, min(n, m0 + FLOAT_SWEEP_BLOCK)
    if drop(hi) <= FLOAT_SWEEP_LOG_FLOOR:
        return hi
    while lo < hi:  # one step drops the log by log(i / (i - K)) <= log(i): m0 + 1 is safe
        mid = (lo + hi + 1) // 2
        if drop(mid) <= FLOAT_SWEEP_LOG_FLOOR:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factorial_moments_float(n: int, targets: Iterable[VectorLike]) -> dict[ExponentVector, float]:
    """Double-precision evaluation of the recursion for several vectors.

    The closure vectors are walked in layers of equal weighted total
    ``sum_j j k_j``, since a layer reads only the one below it, over blocks
    of at most :data:`FLOAT_SWEEP_BLOCK` steps of ``n``.  Within a block each
    vector's step ``E(m+1) = a_m E(m) + b_m``, with ``a_m = 1 - K/m`` and
    ``b_m = S(m)/m`` known once the layer below is done, is solved at once:
    ``E(m+1) = P_m (E(m0) + sum_{i<=m} b_i / P_i)`` with the running product
    ``P_m = prod_{i<=m} a_i``.  A vector is exactly 0 up to ``m`` = its
    weighted total and starts one step later, where ``a_m > 0``, so every
    term is nonnegative and nothing cancels.  A block ends before any ``P``
    falls below ``exp(-FLOAT_SWEEP_LOG_FLOOR)``, so ``b / P`` stays finite.

    Over the 20 vectors of d <= 3 and total <= 3 the values are within
    2.3e-14 relative of the exact rationals at n = 4096, and within 3e-14 of
    one dense step ``row += (B @ row) / m`` per n at n = 10^5; use it where
    exact rationals are too costly.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"moments are anchored at the n=2 tree; got n={n}")
    wanted = [ExponentVector.of(t) for t in targets]
    plan = _plan(wanted)
    order = sorted(range(len(plan)), key=lambda pos: _weighted_total(plan[pos][0]))
    row_of = {pos: row for row, pos in enumerate(order)}
    # one layer per weighted total w >= 1: its rows [lo, hi), the first m with
    # E(m) != 0, its totals K as a column, and its moves padded to one count per
    # layer, as (weight column, source rows) per move slot; a padded move has
    # weight 0.  The w = 0 layer is (0,), whose row is 1 at every m.  S is summed
    # in place, slot by slot, so no temporary is larger than layer size x block
    layers = []
    for w_total, group in itertools.groupby(order, key=lambda pos: _weighted_total(plan[pos][0])):
        group = list(group)
        if w_total == 0:
            continue
        slots = max(len(plan[pos][2]) for pos in group)
        weights = np.zeros((len(group), slots))
        rows = np.zeros((len(group), slots), dtype=np.intp)
        for at, pos in enumerate(group):
            for slot, (w, moved) in enumerate(plan[pos][2]):
                weights[at, slot] = w
                rows[at, slot] = row_of[moved]
        totals = np.array([[float(plan[pos][1])] for pos in group])
        layers.append((row_of[group[0]], row_of[group[-1]] + 1, max(2, w_total + 1), totals,
                       [(weights[:, slot, None], rows[:, slot]) for slot in range(slots)]))

    peaks = [(start, int(totals.max())) for _, _, start, totals, _ in layers]
    vals = np.zeros((len(plan), FLOAT_SWEEP_BLOCK + 1))  # E(m0 .. m1) per row
    vals[:, 0] = [_base_value(plan[pos][0]) for pos in order]
    vals[:1] = 1.0  # the (0,) row, whenever the closure is not empty
    m0 = 2
    while m0 < n:
        m1 = _block_end(m0, n, peaks)
        span = m1 - m0
        steps = np.arange(m0, m1, dtype=float)
        for lo, hi, start, totals, moves in layers:
            if start > m1:
                break
            known = max(start - m0, 0)  # E at this offset is known; solve past it
            first = max(known - 1, 0)
            (w, rows), *rest = moves
            s = w * vals[rows, first:span]
            for w, rows in rest:
                s += w * vals[rows, first:span]
            if start > m0:  # E(start - 1) = 0, so E(start) = S(start - 1) / (start - 1)
                vals[lo:hi, known] = s[:, 0] / (start - 1)
                s = s[:, 1:]
            m = steps[known:]
            running = np.cumprod((m - totals) / m, axis=1)
            vals[lo:hi, known + 1:span + 1] = running * (
                vals[lo:hi, known, None] + np.cumsum(s / (m * running), axis=1))
        vals[:, 0] = vals[:, span]
        m0 = m1
    index = {v: row_of[pos] for pos, (v, _, _) in enumerate(plan)}
    return {t: float(vals[index[t], 0]) for t in wanted}
