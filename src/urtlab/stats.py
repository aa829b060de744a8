"""Observables of a grown tree: level sizes, degree histograms, per-level
degree counts and the fraction of high-degree nodes per level.

The experiment kernels call these on the trees they grow.  Level-1
statistics never derive levels.  All functions are pure and never mutate
the tree, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyLevelError
from .tree import RecursiveTree, _writable


@dataclass(frozen=True)
class LevelDegreeProfile:
    """Degree counts restricted to one level.

    ``counts[d]`` is the number of level-``k`` nodes of total degree ``d``;
    the counts sum to ``level_size``.
    """

    k: int
    counts: dict[int, int]
    level_size: int

    def exceeding(self, threshold: float) -> int:
        """Number of the level's nodes whose degree is above ``threshold``."""
        return sum(c for d, c in self.counts.items() if d > threshold)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "level_size": self.level_size,
            "counts": {str(d): c for d, c in sorted(self.counts.items())},
        }


def level_sizes(tree: RecursiveTree) -> np.ndarray:
    """Node count per level, indexed by level; entries sum to ``n``."""
    return np.bincount(tree.level)


def exceedance_threshold(n: int, t: float) -> float:
    """``t * ln(n)``, the degree a node must pass to count as high.

    ``t`` must lie in (0, 1).  The threshold is evaluated in double
    precision; degrees are integers, so ties are impossible unless
    ``t * ln(n)`` happens to round to an exact integer.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    return t * math.log(n)


def high_degree_fraction(tree: RecursiveTree, k: int, t: float) -> float:
    """Fraction of level-``k`` nodes whose degree exceeds ``t * ln(n)``."""
    threshold = exceedance_threshold(tree.n, t)
    profile = degree_counts_in_level(tree, k)
    if profile.level_size == 0:
        raise EmptyLevelError(f"level {k} is empty (n={tree.n})")
    return profile.exceeding(threshold) / profile.level_size


def exceedance_count(tree: RecursiveTree, k: int, t: float) -> int:
    """Number of level-``k`` nodes with degree above ``t * ln(n)``.

    The numerator of :func:`high_degree_fraction`; defined (as 0) even for
    empty levels.
    """
    threshold = exceedance_threshold(tree.n, t)
    return degree_counts_in_level(tree, k).exceeding(threshold)


def degree_counts_in_level(tree: RecursiveTree, k: int) -> LevelDegreeProfile:
    """Histogram of degrees among level-``k`` nodes.

    An empty level yields empty counts with ``level_size`` 0.
    """
    degrees = tree.degree[tree.in_level(k)]
    binned = np.bincount(degrees)
    return LevelDegreeProfile(
        k=int(k),
        counts={int(d): int(binned[d]) for d in np.flatnonzero(binned)},
        level_size=int(degrees.size),
    )


def degree_histogram(tree: RecursiveTree) -> dict[int, int]:
    """Degree -> node count over the whole tree; values sum to ``n``."""
    binned = np.bincount(_writable(tree.degree))
    return {int(d): int(binned[d]) for d in np.flatnonzero(binned)}


def max_degree(tree: RecursiveTree) -> int:
    """Largest degree in the tree; needs at least one edge."""
    if tree.n < 2:
        raise ValueError("max_degree needs n >= 2 (a single node has no edges)")
    return int(tree.degree.max())
