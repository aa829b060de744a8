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

# Exact probability/moment carrier used across the package.  The stdlib
# Fraction already guarantees reduced form and a positive denominator.
Rational = Fraction

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
    ``sum_j j * k_j``.
    """
    start = ExponentVector.of(k)
    seen = {start}
    stack = [start]
    while stack:
        for _, moved in stack.pop().moves():
            if moved not in seen:
                seen.add(moved)
                stack.append(moved)
    return frozenset(seen)


def _closure(targets: Iterable[ExponentVector]) -> list[ExponentVector]:
    """The union of the targets' dependency closures, in sweep order."""
    closure = set().union(*(dependency_closure(t) for t in targets))
    return sorted(closure, key=lambda v: (v.d, v.k))


def _base_value(v: ExponentVector) -> int:
    """E(2, v): the two-node tree has one level-1 node, of degree 1."""
    return int(v.k[0] <= 1 and all(x == 0 for x in v.k[1:]))


def _sweep(vectors: Iterable[ExponentVector], n_max: int, snapshots: set[int]):
    """Run the recursion on ``H(n, k) = (n-1)! E(n, k)`` from n=2 to n_max,
    dividing by ``(n-1)!`` only in the rows kept for ``snapshots``."""
    vectors = sorted(set(vectors), key=lambda v: (v.d, v.k))
    index = {v: pos for pos, v in enumerate(vectors)}
    steps = [(v.total, [(weight, index[moved]) for weight, moved in v.moves()])
             for v in vectors]
    row = [_base_value(v) for v in vectors]
    scale = 1  # (n-1)!
    kept = {}
    for n in range(2, n_max + 1):
        if n in snapshots:
            kept[n] = {v: Fraction(h, scale) for v, h in zip(vectors, row)}
        if n < n_max:
            row = [(n - total) * row[pos] + sum(weight * row[moved] for weight, moved in moves)
                   for pos, (total, moves) in enumerate(steps)]
            scale *= n
    return kept


class MomentTable:
    """Exact moment values over the dependency closure of target vectors.

    Rows are kept for the requested ``n`` values only; the sweep itself
    always starts at the ``n = 2`` anchor.  Every stored value is an exact
    :class:`fractions.Fraction`.
    """

    def __init__(self, target: VectorLike, n_values: Iterable[int]):
        self._build([ExponentVector.of(target)], n_values)
        self.target = ExponentVector.of(target)

    @classmethod
    def for_targets(cls, targets: Iterable[VectorLike], n_values: Iterable[int]) -> "MomentTable":
        """One table covering several vectors; a single shared sweep."""
        table = cls.__new__(cls)
        vecs = [ExponentVector.of(t) for t in targets]
        if not vecs:
            raise ValueError("need at least one target vector")
        table._build(vecs, n_values)
        table.target = vecs[0]
        return table

    def _build(self, targets: list[ExponentVector], n_values: Iterable[int]) -> None:
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
        self.n_values = ns
        self.vectors = _closure(targets)
        self._rows = _sweep(self.vectors, ns[-1], set(ns))

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

    def check_step_identity(self, n: int, k: VectorLike) -> bool:
        """Exact rearranged one-step identity between rows ``n`` and ``n+1``:

        ``(n)_K E(n+1,k) - (n-1)_K E(n,k) == (n-1)_{K-1} sum_j k_j E(n, move_j(k))``
        """
        v = ExponentVector.of(k)
        K = v.total
        lhs = falling_factorial(n, K) * self.value(n + 1, v) - falling_factorial(
            n - 1, K
        ) * self.value(n, v)
        rhs = falling_factorial(n - 1, K - 1) * sum(
            (weight * self.value(n, moved) for weight, moved in v.moves()),
            start=Fraction(0),
        )
        return lhs == rhs


def exact_factorial_moment(n: int, k: VectorLike) -> Fraction:
    """E(n, k) as an exact rational, for ``2 <= n <= EXACT_MOMENT_GUARD_N``.

    The bit cost of the integer sweep grows as ``n^2``; use
    :func:`factorial_moment_float` for large-``n`` reference values.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"moments are anchored at the n=2 tree; got n={n}")
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
    vectors = _closure(wanted)
    index = {v: i for i, v in enumerate(vectors)}
    size = len(vectors)
    step = np.zeros((size, size))
    for v in vectors:
        i = index[v]
        step[i, i] -= v.total
        for weight, moved in v.moves():
            step[i, index[moved]] += weight
    row = np.array([float(_base_value(v)) for v in vectors])
    for m in range(2, n):
        row += (step @ row) / m
    return {t: float(row[index[t]]) for t in wanted}


def factorial_moment_float(n: int, k: VectorLike) -> float:
    """Double-precision evaluation of the recursion for one vector."""
    target = ExponentVector.of(k)
    return factorial_moments_float(n, [target])[target]
