"""Swap encoding of recursive trees as permutations.

A tree on nodes ``0..n-1`` maps to a permutation of ``1..n``: starting from
the identity, each node ``i = 1..n-1`` with parent ``j`` swaps the entries
at (one-indexed) positions ``i+1`` and ``j+1``; attachment to the root
(``j = 0``) leaves the permutation unchanged at that step.  Position 1 is
never touched, so the image is exactly the set of permutations fixing
position 1, and the map carries the uniform tree law to the uniform law on
that image.

The subtree hanging off each level-1 node becomes one cycle of the image
permutation (restricted to positions ``2..n``), so degree-1 level-1 nodes
correspond one-to-one to fixed points at positions ``2..n``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NotInImageError
from .tree import RecursiveTree, grow_from_sequence


@dataclass(frozen=True)
class Permutation:
    """One-indexed permutation: ``values`` is a rearrangement of ``1..n``, ``n >= 1``."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0:
            raise ValueError("empty permutation")
        if sorted(self.values) != list(range(1, n + 1)):
            raise ValueError("values must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json(self) -> str:
        return json.dumps(list(self.values))


def tree_to_permutation(tree: RecursiveTree) -> Permutation:
    """Encode a tree by replaying its attachment swaps on the identity."""
    n = tree.n
    sigma = list(range(1, n + 1))
    parent = tree.parent
    for i in range(1, n):
        j = int(parent[i])
        if j:  # a root attachment leaves sigma unchanged
            sigma[i], sigma[j] = sigma[j], sigma[i]  # zero-based positions i+1, j+1
    return Permutation(tuple(sigma))


def permutation_to_tree(perm: Union[Permutation, Sequence[int]]) -> RecursiveTree:
    """Invert the swap encoding.

    Walks the steps backwards: once steps above ``i`` are undone, positions
    beyond ``i+1`` hold identity values again, so the entry ``i+1`` sits
    where step ``i`` left it and its position reveals node ``i``'s parent.
    Raises :class:`NotInImageError` if the permutation does not fix
    position 1 or an entry turns up where no step could have put it.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(int(v) for v in perm))
    n = perm.n
    if perm.values[0] != 1:
        raise NotInImageError("images of the tree map fix position 1")
    sigma = list(perm.values)
    position = [0] * (n + 1)  # value -> zero-based index
    for idx, v in enumerate(sigma):
        position[v] = idx
    parents = [0] * (n - 1)
    for i in range(n - 1, 0, -1):
        p = position[i + 1]
        if p == i:
            parents[i - 1] = 0
            continue
        if not 1 <= p < i:
            raise NotInImageError(
                f"entry {i + 1} found at position {p + 1}; no tree step places it there"
            )
        parents[i - 1] = p
        other = sigma[i]
        sigma[i], sigma[p] = sigma[p], other
        position[i + 1] = i
        position[other] = p
    return grow_from_sequence(parents)


def fixed_points_after_first(perm: Union[Permutation, Sequence[int]]) -> int:
    """Count the positions ``p in 2..n`` that ``perm`` fixes.

    Position 1 is excluded: every image permutation fixes it.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(int(v) for v in perm))
    values = np.asarray(perm.values[1:])
    return int((values == np.arange(2, perm.n + 1)).sum())
