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
``X[2, 1] = 1`` and all other counts vanish.  For ``H(n, k) = (n-1)! E(n, k)``
it reads ``H(n+1, k) = (n-K) H(n, k) + sum_j k_j H(n, move_j(k))`` in
integers, so the exact sweep divides only where it keeps a row.

Every exact value here is a :class:`fractions.Fraction` and the exact
recursion never touches floating point.  ``E(n, (1,)) == 1`` holds exactly
for every ``n >= 2``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ResourceGuardError

EXACT_MOMENT_MAX_N = 4096  # experiments take rational references up to here
# exact sweeps stop here: (1, 1, 1) takes 0.3 s at 4096 and 2.3 s at 10^4 (2 vCPU)
EXACT_MOMENT_GUARD_N = 10_000
# an exact sweep's integers grow with n, so its cost goes as closure size x n^2:
# a 462-vector closure took 1.0 s at n = 1000 and 4.0 s at 2000 (2 vCPU); the
# work is guarded to what 25 vectors cost at EXACT_MOMENT_GUARD_N
EXACT_MOMENT_MAX_WORK = 25 * EXACT_MOMENT_GUARD_N**2
# each kept row reduces one Fraction of about n log n bits per closure vector,
# which costs about n^2 / 32 of those work units: keeping every row of (1, 1, 1)'s
# 14-vector closure took 2.5 s to n = 2000 and 18 s to n = 4000 (2 vCPU); the
# kept rows get a budget of their own, so one row at any admitted n stays admitted
KEPT_ROW_WORK_DIVISOR = 32
# the closure of (0,..,0,k) grows about 4x per unit of k, and the float sweep's
# dense step matrix is its size squared in doubles: 8 MiB at this cap, which
# admits every vector of d <= 3 and total <= 16 (969)
MOMENT_CLOSURE_MAX = 1024

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


def _sweep(plan, n_max: int, snapshots: set[int]):
    """Run the recursion of ``plan`` on ``H(n, k) = (n-1)! E(n, k)`` from n=2
    to n_max, dividing by ``(n-1)!`` only in the rows kept for ``snapshots``."""
    row = [_base_value(v) for v, _, _ in plan]
    scale = 1  # (n-1)!
    kept = {}
    for n in range(2, n_max + 1):
        if n in snapshots:
            kept[n] = {v: Fraction(h, scale) for (v, _, _), h in zip(plan, row)}
        if n < n_max:
            row = [(n - total) * row[pos] + sum(weight * row[moved] for weight, moved in moves)
                   for pos, (_, total, moves) in enumerate(plan)]
            scale *= n
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
        """CSV rows ``n, k (dash-joined), numerator, denominator``."""
        writer = csv.writer(fh)
        writer.writerow(["n", "k", "numerator", "denominator"])
        for n, v, val in self.rows():
            writer.writerow([n, str(v), val.numerator, val.denominator])


def exact_factorial_moment(n: int, k: VectorLike) -> Fraction:
    """E(n, k) as an exact rational, for ``2 <= n <= EXACT_MOMENT_GUARD_N``.

    The bit cost of the integer sweep grows as ``n^2`` per closure vector,
    which is guarded to :data:`EXACT_MOMENT_MAX_WORK`; use
    :func:`factorial_moments_float` for large-``n`` reference values.
    """
    return MomentTable(k, [n]).value(n, k)


def factorial_moments_float(n: int, targets: Iterable[VectorLike]) -> dict[ExponentVector, float]:
    """Double-precision evaluation of the recursion for several vectors.

    One shared sweep over the union dependency closure: the step
    ``row += (B @ row) / m`` applies the move weights ``B`` in a single
    matrix-vector product, so large ``n`` costs seconds, not minutes.
    The recursion is numerically benign (values stay near [0, 1] with
    coefficients summing to 1), giving ~1e-11 accuracy even for ``n`` in
    the millions; use it where exact rationals are too costly.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"moments are anchored at the n=2 tree; got n={n}")
    wanted = [ExponentVector.of(t) for t in targets]
    plan = _plan(wanted)
    step = np.zeros((len(plan), len(plan)))
    for pos, (_, total, moves) in enumerate(plan):
        step[pos, pos] -= total
        for weight, moved in moves:
            step[pos, moved] += weight
    row = np.array([float(_base_value(v)) for v, _, _ in plan])
    moved = np.empty_like(row)  # one buffer for every step's (B @ row) / m
    for m in range(2, n):
        np.dot(step, row, out=moved)
        moved /= m
        row += moved
    index = {v: pos for pos, (v, _, _) in enumerate(plan)}
    return {t: float(row[index[t]]) for t in wanted}
