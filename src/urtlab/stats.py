"""Observables of a grown tree: level sizes, degree histograms, per-level
degree counts and the fraction of high-degree nodes per level.

Most functions read a :class:`~urtlab.tree.RecursiveTree`; level-1
statistics never derive its levels.  The level statistics also come
streamed: :func:`streamed_level_profiles` and :func:`streamed_level_sizes`
read the uniform tree ``grow("uniform", n, seed)`` would hold from the same
draws, one block at a time, without ever holding its length-``n`` arrays.
Those draws and their levels come from :func:`urtlab.tree._uniform_levels`,
which owns the stream beside :func:`~urtlab.tree.grow`: nodes are born in
order, so its level pass derives levels from the draws as they come, and a
level array capped at ``max(k) + 1`` (one byte per node) is all the state
that grows with ``n``.  A degree profile then needs the ids of the level's
nodes and the parents of the next level's.  The pass hands over each
block's parent levels as it derives them, so the statistics read both off
those with no gather of their own.  The streamed and tree-read statistics
share one reduction, so their results are equal.  All functions are pure
and never mutate a tree, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EmptyLevelError
from .tree import _LEVEL_BLOCK, _MARK_CAP, RecursiveTree, _uniform_levels, _writable


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
    """Node count per level, indexed by level; entries sum to ``n``.

    Counted a block at a time: ``bincount`` casts the int32 levels to an
    int64 copy, which over the whole tree is 8 bytes per node.
    """
    level = tree.level
    sizes = np.zeros(int(level.max()) + 1, dtype=np.int64)
    for start in range(0, tree.n, _LEVEL_BLOCK):
        sizes += np.bincount(level[start:start + _LEVEL_BLOCK], minlength=sizes.size)
    return sizes


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

    An empty level yields empty counts with ``level_size`` 0; a negative
    one is refused.
    """
    if k < 0:
        raise ValueError(f"level k must be >= 0, got {k}")
    return _profile(k, tree.degree[tree.in_level(k)])


def _profile(k: int, degrees: np.ndarray) -> LevelDegreeProfile:
    """The profile of level ``k`` from the int64 degrees of its nodes."""
    binned = np.bincount(degrees)
    return LevelDegreeProfile(
        k=int(k),
        counts={int(d): int(binned[d]) for d in np.flatnonzero(binned)},
        level_size=int(degrees.size),
    )


def streamed_level_profiles(n: int, seed: int, ks: Iterable[int]) -> dict[int, LevelDegreeProfile]:
    """Degree profiles of levels ``ks`` of ``grow("uniform", n, seed)``, streamed.

    Equal to ``degree_counts_in_level(grow("uniform", n, seed), k)`` for
    each ``k``.  One pass collects the ids of each level-``k`` node and the
    parents of each level-``(k+1)`` node; a level-``k`` node's degree is its
    child count, plus its parent edge for ``k >= 1``.
    """
    ks = sorted({int(k) for k in ks})
    if not ks:
        raise ValueError("give at least one level k")
    if ks[0] < 0:
        raise ValueError(f"level k must be >= 0, got {ks[0]}")
    own = {k: [np.arange(1 if k == 0 else 0)] for k in ks}  # the root is level 0
    kids = {k: [np.empty(0, dtype=np.int64)] for k in ks}
    for start, parent, up in _uniform_levels(n, seed, ks[-1] + 1):
        for k in ks:
            own[k].append(np.flatnonzero(up == k - 1) + start)  # a level-k node's parent is at k - 1
            kids[k].append(parent[up == k])
    profiles = {}
    for k in ks:
        ids = np.concatenate(own[k])
        children = np.bincount(np.searchsorted(ids, np.concatenate(kids[k])), minlength=ids.size)
        profiles[k] = _profile(k, children + (k > 0))
    return profiles


def streamed_level_sizes(n: int, seed: int, top: int) -> np.ndarray:
    """Sizes of levels ``0..top`` of ``grow("uniform", n, seed)``, streamed;
    levels past the tree's height read 0."""
    if top < 0:
        raise ValueError(f"level k must be >= 0, got {top}")
    sizes = np.zeros(top + 1, dtype=np.int64)
    sizes[0] = 1
    cap = max(top, 1)
    for _, _, up in _uniform_levels(n, seed, cap):
        # up to _MARK_CAP few of a block's nodes have a parent below the cap; past it most do,
        # and filtering there anyway made _kernel_level_sizes at n = 10^6, k_grid (0, 10),
        # 4-16 % slower (CPU medians of 20 alternating rounds, 6 runs, 2 vCPU)
        low = up if cap > _MARK_CAP else up[up < top]
        sizes[1:] += np.bincount(low, minlength=top)[:top]  # parent level k - 1 counts for k
    return sizes


def degree_histogram(tree: RecursiveTree) -> dict[int, int]:
    """Degree -> node count over the whole tree; values sum to ``n``."""
    binned = np.bincount(_writable(tree.degree))
    return {int(d): int(binned[d]) for d in np.flatnonzero(binned)}


def max_degree(tree: RecursiveTree) -> int:
    """Largest degree in the tree; needs at least one edge."""
    if tree.n < 2:
        raise ValueError("max_degree needs n >= 2 (a single node has no edges)")
    return int(tree.degree.max())
