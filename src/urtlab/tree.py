"""Growth and storage of random recursive trees.

A tree on nodes ``0..n-1`` stores one flat array, ``parent`` (int64,
``parent[0] == -1``).  Node ``i`` always attaches to a node with smaller
index, so ``parent[i] < i``.  Two more arrays are derived on first read and
cached: ``degree`` (int64; the parent edge counts toward a node's degree,
and the root's degree is its child count) and ``level`` (int32, distance
from the root).  Level 1, the root's children, is read off ``parent``
without deriving levels (:meth:`RecursiveTree.in_level`).  Every array a
tree hands out is read-only.

Two growth models are supported:

* ``UNIFORM`` - each new node picks its parent uniformly among existing
  nodes, independently of the past.
* ``PREFERENTIAL`` - starts from the single edge ``{0, 1}``; each new node
  picks an entry of the endpoint list (every edge contributes both of its
  endpoints), which makes the attachment probability proportional to the
  current degree (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).  The
  list is never built: each pick decodes by one XOR to a node index or a
  link to a parent it copies, and only the copies gather from ``parent``.

Both models draw their picks through one loop, :func:`_bounded_blocks`,
one block of nodes at a time: node ``i`` draws ``rng.integers(0, i)`` in
uniform growth and ``rng.integers(0, 2(i-1))`` in preferential growth.
The picks are numpy's own bounded draws: :class:`_Words` makes them by
Lemire's method, as numpy does, from the bit generator's raw 32-bit words,
in bulk rather than one element at a time, as views of one ``random_raw``
array per block; bounds and draws go to buffers reused from block to block,
so a block of draws is valid until the next is drawn.  Equality tests pin every draw,
and the generator's state after growth, to the installed numpy.  A call
whose largest bound reaches :data:`_VECTOR_TOP` goes through
``rng.integers`` itself, whole.

Copied parents and levels are both chains of links to earlier nodes, and
both come from one forward pass over blocks of nodes: since
``parent[i] < i``, everything before a block is final, and pointer jumping
over the block's own links leads each of its nodes out of it.  That costs
O(n) on uniform trees and O(n log block) at worst (a path), and holds only
block-sized arrays beside the result.  :func:`_level_pass` alone derives
levels, from a tree's parents or, in :func:`_uniform_levels`, which
owns the streamed statistics' draws beside :func:`grow`, straight from
the uniform draws.  Capped at a small level, as those statistics ask, the
pass walks no chains: a uniform tree at ``n = 10^6`` holds about 15
level-1 nodes and 100 at level 2, and the pass writes only those, reading
each node's parent level with one gather per block.

Growth is deterministic given ``(model, n, seed)``.  Trees are immutable
after growth and safe to share across processes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ResourceGuardError
from .rng import check_seed, generator

DETERMINISTIC = "deterministic"
# peak RSS per node over a 30-MiB interpreter, at 10^6 and 4 x 10^6 nodes:
# grow() 14 and 10 bytes for either model, then 27 and 22 once degrees and
# levels are read
GROWTH_BYTES_PER_NODE = 32
# peak RSS per node over a 30-MiB interpreter of the streamed statistics with
# 1-byte levels, at 10^6 and 4 x 10^6 nodes: 7.4-7.6 and 2.7 bytes, of which
# 1.0 grows with n and the rest is a fixed 6 MiB
STREAM_BYTES_PER_NODE = 3

_LEVEL_BLOCK = 1 << 14  # nodes per block of uniform draws and of the level pass
# _level_pass marks the levels below caps up to _MARK_CAP and walks chains
# past it, where the rounds of marks grow with chain depth.  CPU ms per
# replication on 2 vCPU, medians of 8 alternating in-process rounds at
# n = 10^3 / 10^4 / 10^5 / 10^6, chain walk against marks:
#   profile of level 5, cap 6   0.185 / 1.03 / 3.43 / 19.1    0.171 / 0.572 / 2.25 / 16.6
#   profile of level 6, cap 7   0.177 / 0.858 / 4.00 / 29.9   0.182 / 0.642 / 3.20 / 28.4
#   sizes to level 6, cap 6     0.203 / 0.633 / 2.45 / 19.0   0.199 / 0.371 / 1.82 / 15.3
#   sizes to level 7, cap 7     0.137 / 0.667 / 2.52 / 18.4   0.151 / 0.504 / 2.36 / 16.7
# streamed_level_profiles(n, seed, (k,)) and streamed_level_sizes(n, seed, k),
# 16 rounds, a chain walk at every cap past 2 with a second gather in the
# statistics against this constant:
#   profile k=1   0.175 / 0.281 / 1.29 / 14.7    0.172 / 0.269 / 1.14 / 14.0
#   profile k=2   0.292 / 1.52 / 4.57 / 18.7     0.205 / 0.425 / 2.03 / 12.7
#   profile k=3   0.170 / 1.03 / 4.44 / 17.0     0.137 / 0.294 / 2.25 / 13.4
#   profile k=5   0.186 / 0.814 / 3.90 / 18.9    0.171 / 0.515 / 2.53 / 16.3
#   profile k=10  0.176 / 0.813 / 5.12 / 39.6    0.183 / 0.838 / 4.90 / 37.1
#   profile k=20  0.259 / 0.741 / 3.61 / 32.5    0.252 / 0.701 / 3.27 / 30.0
#   profile k=40  0.253 / 0.710 / 4.50 / 18.8    0.259 / 0.653 / 3.71 / 19.3
#   sizes k=1     0.112 / 0.188 / 1.45 / 14.6    0.125 / 0.160 / 1.09 / 11.9
#   sizes k=2     0.214 / 0.875 / 2.80 / 24.9    0.113 / 0.160 / 0.945 / 15.5
#   sizes k=3     0.236 / 0.626 / 3.98 / 29.9    0.157 / 0.185 / 1.92 / 20.5
#   sizes k=5     0.147 / 0.963 / 2.46 / 18.5    0.125 / 0.383 / 1.52 / 13.6
#   sizes k=10    0.181 / 0.617 / 2.44 / 19.8    0.197 / 0.613 / 2.45 / 20.8
#   sizes k=20    0.150 / 0.675 / 2.31 / 17.0    0.151 / 0.668 / 2.29 / 18.1
#   sizes k=40    0.156 / 0.779 / 2.58 / 19.5    0.175 / 0.784 / 2.61 / 19.3
_MARK_CAP = 6

# _Words: each rejected word restarts the vector pass over the rest of the
# call, and consecutive bounds near T reject about T / 2^33 of their words.
# One block of 16,384 bounds up to T, vector pass against numpy, medians of
# 150 alternating draws per run on a shared 2-vCPU host, in us, and the runs
# the pass won: 195-248 against 394-414 (3 of 3) at T = 10^6, 256-314
# against 394-418 (3 of 3) at 2 x 10^6, 308-374 against 396-401 (3 of 3) at
# 3 x 10^6, 306-404 against 390-425 (2 of 3) at 3.5 x 10^6, 386-423 against
# 396-426 (2 of 3) at 4 x 10^6, 656-748 against 387-413 (0 of 3) at
# 8 x 10^6 and 14,000 against 410 (median of 5) at 10^8.  A restart costs
# the rest of the call, so a call's cost is quadratic where rejections are
# dense, near 2^31 (0.48 s against numpy's 0.6 ms per block): only tests
# that move this cutoff to 2^32 draw there by the vector pass.  A call whose
# largest bound reaches _VECTOR_TOP (at most 2^32) is numpy's
_VECTOR_TOP = 3_000_000

_MAGIC = b"URT1"
_HEADER = struct.Struct("<4sQBQ")  # magic, node count, model tag, seed
_DETERMINISTIC_FLAG = 0x80


class GrowthModel(Enum):
    """Attachment rule used while growing a tree."""

    UNIFORM = 0
    PREFERENTIAL = 1

    @classmethod
    def parse(cls, name: Union[str, "GrowthModel"]) -> "GrowthModel":
        if isinstance(name, GrowthModel):
            return name
        try:
            return cls[str(name).upper()]
        except KeyError:
            raise ValueError(f"unknown growth model {name!r}") from None

    @property
    def min_nodes(self) -> int:
        return 2 if self is GrowthModel.PREFERENTIAL else 1

    def node_count(self, n: int) -> int:
        """``n`` as an int, refused below :attr:`min_nodes`."""
        n = int(n)
        if n < self.min_nodes:
            raise ValueError(f"{self.name} growth needs n >= {self.min_nodes}, got {n}")
        return n


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, a writable array of its own that only the
    tree holds: the view's ``base`` is ``a``, which :func:`_writable` gives
    back to ``np.bincount``.  That copies any read-only input (1.3 ms and
    7.6 MiB per call at 10^6 nodes)."""
    view = a.view()
    view.setflags(write=False)
    return view


def _writable(view: np.ndarray) -> np.ndarray:
    """The writable array beneath a view made by :func:`_frozen`, for counting."""
    return view if view.flags.writeable or view.base is None else view.base


@dataclass(frozen=True)
class RecursiveTree:
    """A grown recursive tree plus the provenance needed to regrow it.

    ``seed`` is the 64-bit integer passed to :func:`grow`, or the string
    ``"deterministic"`` for trees built from an explicit parent sequence.
    ``degree`` and ``level`` are derived when first read.  The tree holds a
    copy of the ``parent`` it is given, so later writes to that array do not
    reach it.
    """

    parent: np.ndarray
    model: GrowthModel
    seed: Union[int, str]

    def __post_init__(self):
        object.__setattr__(self, "parent", _frozen(self.parent.copy()))

    @property
    def n(self) -> int:
        return self.parent.shape[0]

    @cached_property
    def degree(self) -> np.ndarray:
        return _frozen(_degrees_from_parents(_writable(self.parent)))

    @cached_property
    def level(self) -> np.ndarray:
        return _frozen(_levels_from_parents(self.parent))

    def in_level(self, k: int) -> np.ndarray:
        """Mask of the level-``k`` nodes; level 1 is ``parent == 0``, so it
        needs no levels."""
        return self.parent == 0 if k == 1 else self.level == k

    def parent_sequence(self) -> np.ndarray:
        """Attachment targets of nodes ``1..n-1`` (length ``n-1``)."""
        return self.parent[1:]

    def __repr__(self) -> str:  # arrays are too noisy for repr
        return f"RecursiveTree(n={self.n}, model={self.model.name}, seed={self.seed!r})"


def _adopted(parent: np.ndarray, model: GrowthModel, seed: Union[int, str]) -> RecursiveTree:
    """The tree on ``parent``, a writable array made for it that no caller
    holds, taken without the copy the constructor makes (7.6 MiB at 10^6)."""
    tree = object.__new__(RecursiveTree)
    vars(tree).update(parent=_frozen(parent), model=model, seed=seed)
    return tree


def _chain_ends(link: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Follow the links of the block of nodes ``start, start + 1, ...`` out of it.

    ``link[j] < start + j`` is where node ``start + j`` links to.  Pointer
    jumping over the block's own links returns, per node, the first link
    value below ``start`` on its chain (a caller's negative mark counts) and
    the hop count to it; each round touches only the chains still inside
    the block.  ``link`` is overwritten.
    """
    hops = np.ones(link.shape[0], dtype=np.int32)
    inside = np.flatnonzero(link >= start)
    while inside.size:
        at = link[inside] - start
        hops[inside] += hops[at]
        jumped = link[at]
        link[inside] = jumped
        inside = inside[jumped >= start]
    return link, hops


def _level_pass(blocks: Iterable[tuple[int, np.ndarray]], levels: np.ndarray,
                cap: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Write each ``(start, parent)`` block's levels into ``levels``, capped
    at ``cap`` (which stands for every level from ``cap`` on), then yield
    ``(start, parent, up)``: ``up`` holds each node's parent level where
    that is below ``cap``, and a value of at least ``cap`` otherwise.  The
    pass is done with a block before it asks for the next, which may reuse it.

    Up to :data:`_MARK_CAP` the block is filled with ``cap`` and only its
    nodes at levels ``1..cap-1``, the marks, are written.  Level 1 is
    ``parent == 0``.  Then one gather, ``up = levels[parent]``, is exact for
    every parent before the block and for level 1.  While a round makes new
    marks, the nodes past the first of them gather again.  Each such gather
    reaches one level deeper into the block, so there are at most
    ``cap - 2`` of them, and on a uniform tree most blocks past the first
    few make no mark.
    Past :data:`_MARK_CAP`, where those rounds grow with chain depth, one
    gather, ``levels[end] + hops`` from :func:`_chain_ends`, writes the
    block, capped in a wider type so no level wraps in a narrow ``levels``.
    """
    top = cap - 1
    for start, parent in blocks:
        stop = start + parent.size
        if cap > _MARK_CAP:
            end, up = _chain_ends(parent.copy(), start)
            up += levels[end]  # the block's levels, past cap where a capped end is
            levels[start:stop] = np.minimum(up, cap)
            up -= 1
        else:
            block = levels[start:stop]
            block.fill(cap)
            block[parent == 0] = 1
            up = levels[parent]
            first = 0
            while top > 1 and first < parent.size:
                low = np.flatnonzero(up[first:] < top) + first
                marks = low[block[low] == cap]
                if not marks.size:
                    break
                block[marks] = up[marks] + 1
                first = int(marks[0]) + 1
                up[first:] = levels[parent[first:]]
        yield start, parent, up


def _levels_from_parents(parent: np.ndarray) -> np.ndarray:
    """int32 root distances: the level pass over blocks of :data:`_LEVEL_BLOCK`
    nodes, with a cap no level reaches."""
    n = parent.shape[0]
    level = np.zeros(n, dtype=np.int32)
    blocks = ((start, parent[start:start + _LEVEL_BLOCK]) for start in range(1, n, _LEVEL_BLOCK))
    for _ in _level_pass(blocks, level, np.iinfo(np.int32).max):
        pass
    return level


def _degrees_from_parents(parent: np.ndarray) -> np.ndarray:
    """int64 degrees of a writable parent array, in bincount's own result."""
    degree = np.bincount(parent[1:], minlength=parent.shape[0])
    degree[1:] += 1  # parent edge
    return degree


class _Words:
    """The 32-bit word stream of ``rng``'s bit generator, drawn in bulk into
    numpy's own bounded integers.

    For one bound ``high`` in ``[2, 2^32)`` numpy's ``rng.integers(0, high)``
    is Lemire's multiply-and-reject (D. Lemire, "Fast random integer
    generation in an interval", ACM TOMACS 29(1), 2019): the next word ``w``
    is kept when the low half of ``w * high`` is at least ``2^32 mod high``,
    and the draw is its high half; otherwise the next word is tried.  A
    bound of 1 takes no word.  Words come low half first from each raw
    64-bit word, and an unused high half waits in the state as
    ``has_uint32`` and ``uinteger``.  An array of bounds is drawn element by
    element, so :meth:`draw` reads the words of a whole array as views of
    one ``random_raw`` array, tests all of the rest of the call at once and
    writes the draws into the caller's buffer.  It never takes more raw
    words than the bounds left must read, so at most the last high half is
    left over.  At the first rejected word the cursor moves back to the word
    after it, and the next pass restarts at the rejected element and runs
    over the whole rest of the call again.
    :meth:`integers` is the same draw for any bounds of at least 1, into a
    new array.

    Each call takes one path, chosen by its largest bound alone: below
    :data:`_VECTOR_TOP` the vector pass draws all of it; from there on, where
    rejections make the pass cost more than numpy's own loop, the state is
    synced and ``rng.integers`` draws all of it.

    Use it as a context manager: the pending half word is read on entry and
    written back on exit, so ``rng`` then stands where numpy's own draws
    would have left it, ``repr`` of its state included.  In between the
    generator's state is stale.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._bits = rng, rng.bit_generator

    def __enter__(self) -> "_Words":
        state = self._bits.state
        self._last = state["uinteger"]  # the last high half made; numpy keeps it once used
        # the words not yet read are _words[_head:]; a pending half word is the only one
        self._words = np.array([self._last], dtype=np.uint32)[:state["has_uint32"]]
        self._head = 0
        return self

    def __exit__(self, *exc) -> None:
        state = self._bits.state
        state["has_uint32"] = int(self._head < self._words.size)  # then that word is self._last
        state["uinteger"] = self._last
        self._bits.state = state

    def integers(self, highs: np.ndarray) -> np.ndarray:
        """``rng.integers(0, highs, dtype=np.int64)`` for int64 bounds ``highs >= 1``,
        value for value and word for word."""
        out = np.zeros(highs.size, dtype=np.int64)  # a bound of 1 draws 0 and takes no word
        if highs.size:
            drawn = np.flatnonzero(highs > 1)  # each element draws alone, so the rest close up
            out[drawn] = self.draw(highs[drawn], int(highs.max()), np.empty(drawn.size, np.int64))
        return out

    def draw(self, highs: np.ndarray, top: int, out: np.ndarray) -> np.ndarray:
        """Draw for int64 bounds ``highs`` in ``[2, top]`` into the int64 array
        ``out``, and return it."""
        if top >= _VECTOR_TOP:
            self.__exit__()
            out[:] = self._rng.integers(0, highs, dtype=np.int64)
            self.__enter__()
            return out
        highs, draws = highs.view(np.uint64), out.view(np.uint64)  # products need 64 bits
        pos = 0
        while pos < highs.size:
            if self._head == self._words.size:  # take only words the bounds left must read
                raw = self._bits.random_raw((highs.size - pos + 1) >> 1)
                self._last = int(raw[-1] >> 32)
                # low half first, as numpy takes them, on either byte order
                self._words, self._head = raw.astype("<u8", copy=False).view("<u4"), 0
            head = self._head
            stop = min(highs.size, pos + self._words.size - head)
            h = highs[pos:stop]
            product = np.multiply(self._words[head:head + h.size], h, out=draws[pos:stop])
            low = product.astype(np.uint32)
            # a word is rejected when its low half is below 2^32 mod h < h <= top
            near = np.flatnonzero(low < top) if low.min() < top else []
            j = next((int(j) for j in near if low[j] < (1 << 32) % int(h[j])), -1)
            if j < 0:
                self._head, pos = head + h.size, stop
            else:  # that element draws again from the next word, and the words after it follow
                self._head, pos = head + j + 1, pos + j
        np.right_shift(draws, 32, out=draws)  # each draw is the high half of its product
        return out


def _bounded_blocks(n: int, rng: np.random.Generator, first: int,
                    scale: int) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, draws)`` per block of :data:`_LEVEL_BLOCK` nodes of
    ``first..n-1``, where node ``i`` draws ``rng.integers(0, scale * (i -
    first + 1))``.  Bounds and draws go to two buffers, sized to a tree
    smaller than one block, so each block is valid until the next is drawn.
    The blocks concatenate to numpy's own draws for those bounds and leave
    ``rng`` in its state after them; the tests pin that to the installed numpy.
    """
    highs = scale * np.arange(1, min(_LEVEL_BLOCK, n - first) + 1)  # the block's bounds
    out = np.zeros(highs.size, dtype=np.int64)
    with _Words(rng) as words:
        for start in range(first, n, _LEVEL_BLOCK):
            size = min(_LEVEL_BLOCK, n - start)
            skip = int(highs[0] == 1)  # a bound of 1 takes no word and draws 0
            words.draw(highs[skip:size], int(highs[size - 1]), out[skip:size])
            yield start, out[:size]
            highs += scale * _LEVEL_BLOCK


def _uniform_blocks(n: int, rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, parent[start:stop])`` of uniform growth, drawn by :func:`_bounded_blocks`."""
    return _bounded_blocks(n, rng, 1, 1)


def _uniform_parents(n: int, rng: np.random.Generator) -> np.ndarray:
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    for start, block in _uniform_blocks(n, rng):
        parent[start:start + block.size] = block
    return parent


def _preferential_parents(n: int, rng: np.random.Generator) -> np.ndarray:
    """Endpoint-list growth, resolved without the endpoint list.

    The endpoint list holds both endpoints of every edge in insertion order:
    entry ``2e`` is ``parent[e+1]`` and entry ``2e+1`` is node ``e+1``.  Node
    ``i >= 2`` attaches to entry ``d_i``, uniform on ``[0, 2(i-1))``, drawn
    independently of earlier outcomes.  Entry ``d_i`` lies on the edge of
    node ``v = d_i // 2 + 1 < i``: an odd ``d_i`` is ``v`` itself, an even
    one copies ``parent[v]``.  :func:`_bounded_blocks` draws the picks of a
    block of nodes in one batch.  Each pick decodes, with no mask, to
    ``v ^ -(d_i & 1)``: an even pick keeps the link ``v``, an odd one
    becomes ``~v < 0``, a parent named outright, which ends its chain.
    :func:`_chain_ends` follows the copy links until each ends below the
    block; the named ends are written as ``~end``, and only the copies read
    ``parent`` at their end.

    The picks are numpy's ``rng.integers(0, 2 * np.arange(1, n - 1))``, so
    the parents equal those of the sequential list walk, draw for draw.
    """
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    for start, link in _bounded_blocks(n, rng, 2, 2):  # d_i
        odd = link & 1
        link >>= 1
        link += 1  # v, the node whose edge holds entry d_i
        link ^= np.negative(odd, out=odd)  # odd d_i: ~v; even: v
        end, _ = _chain_ends(link, start)
        copies = np.flatnonzero(end >= 0)
        block = parent[start:start + end.size]
        np.invert(end, out=block)  # a named end is ~parent; copies are overwritten next
        block[copies] = parent[end[copies]]  # a copied end is below start, so final
    return parent


def _guard_memory(need: int, doing: str) -> None:
    """Raise :class:`ResourceGuardError` when ``doing`` would take ``need``
    bytes, past physical memory; called before anything is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ResourceGuardError(f"{doing} needs about {need >> 20} MiB,"
                                 f" more than the {memory >> 20} MiB of physical memory")


def grow(model: Union[str, GrowthModel], n: int, seed: int) -> RecursiveTree:
    """Grow an ``n``-node tree under ``model`` from a 64-bit ``seed``.

    UNIFORM requires ``n >= 1``; PREFERENTIAL starts from the edge
    ``{0, 1}`` and requires ``n >= 2``.  Growth past physical memory at
    :data:`GROWTH_BYTES_PER_NODE` raises :class:`ResourceGuardError` before
    anything is allocated.
    """
    model = GrowthModel.parse(model)
    n = model.node_count(n)
    _guard_memory(n * GROWTH_BYTES_PER_NODE, f"growing {n} nodes")
    seed = check_seed(seed)
    sample = _uniform_parents if model is GrowthModel.UNIFORM else _preferential_parents
    return _adopted(sample(n, generator(seed)), model, seed)


def _uniform_levels(n: int, seed: int, cap: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """:func:`_level_pass` at ``cap`` over the blocks ``grow("uniform", n, seed)``
    draws, with levels in the smallest unsigned dtype that holds ``cap``.
    Growth past physical memory at :data:`STREAM_BYTES_PER_NODE` per byte
    of level raises before anything is allocated, as does ``n < 1``.
    """
    n = GrowthModel.UNIFORM.node_count(n)
    dtype = np.min_scalar_type(cap)
    _guard_memory(n * STREAM_BYTES_PER_NODE * dtype.itemsize, f"growing {n} nodes")
    levels = np.zeros(n, dtype=dtype)
    yield from _level_pass(_uniform_blocks(n, generator(seed)), levels, cap)


def _misplaced(seq: np.ndarray) -> np.ndarray:
    """Indices ``i-1`` of the entries ``seq[i-1]`` outside ``0..i-1``."""
    return np.flatnonzero((seq < 0) | (seq >= np.arange(1, seq.shape[0] + 1)))


def _parent_array(seq: np.ndarray) -> np.ndarray:
    """``[-1, *seq]`` as int64, once every ``seq[i-1]`` is checked to lie in ``0..i-1``."""
    n = seq.shape[0] + 1
    bad = _misplaced(seq)
    if bad.size:
        i = int(bad[0]) + 1
        raise ValueError(f"parents[{i - 1}]={int(seq[i - 1])} is not a valid target for node {i}")
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    parent[1:] = seq
    return parent


def grow_from_sequence(parents: Sequence[int]) -> RecursiveTree:
    """Build the tree in which node ``i`` attached to ``parents[i-1]``.

    The sequence lists attachment targets of nodes ``1..n-1``; entry ``i-1``
    must be a node index smaller than ``i``.  The result is tagged uniform
    and carries the ``"deterministic"`` seed marker.
    """
    parent = _parent_array(np.asarray(list(parents), dtype=np.int64))
    return _adopted(parent, GrowthModel.UNIFORM, DETERMINISTIC)


def validate(tree: RecursiveTree) -> list[str]:
    """Check all structural invariants; returns one diagnostic per violation.

    An empty list means the tree is internally consistent.
    """
    problems: list[str] = []
    n = tree.n
    if n < 1:
        return [f"node count must be >= 1, got {n}"]
    if tree.parent.shape != (n,):
        return [f"parent array has shape {tree.parent.shape}, expected ({n},)"]
    if tree.parent[0] != -1 or _misplaced(tree.parent[1:]).size:
        # degrees and levels are derived from valid parents only
        return ["parent[0] must be -1 and parent[i] must lie in {0..i-1} for every i >= 1"]
    for name, arr in (("degree", tree.degree), ("level", tree.level)):
        if arr.shape != (n,):
            return [f"{name} array has shape {arr.shape}, expected ({n},)"]

    if tree.level[0] != 0:
        problems.append(f"root level must be 0, got {int(tree.level[0])}")
    if n > 1:
        expected = tree.level[tree.parent[1:]] + 1
        if (tree.level[1:] != expected).any():
            bad = int(np.nonzero(tree.level[1:] != expected)[0][0]) + 1
            problems.append(
                f"level[{bad}]={int(tree.level[bad])} != level[parent]+1={int(expected[bad - 1])}"
            )

    recomputed = _degrees_from_parents(_writable(tree.parent))
    if (tree.degree != recomputed).any():
        bad = int(np.nonzero(tree.degree != recomputed)[0][0])
        problems.append(
            f"degree[{bad}]={int(tree.degree[bad])} != recomputed {int(recomputed[bad])}"
        )
    total = int(tree.degree.sum())
    if total != 2 * (n - 1):
        problems.append(f"degree sum {total} != 2(n-1) = {2 * (n - 1)}")
    if n >= 2 and (tree.degree < 1).any():
        problems.append("every node must have degree >= 1 when n >= 2")
    return problems


def save_tree(tree: RecursiveTree, path) -> None:
    """Write the binary dump: ``URT1`` magic, u64 n, u8 model tag, u64 seed,
    then ``n-1`` little-endian u32 parent entries.

    Trees with the ``"deterministic"`` seed marker set bit 7 of the model
    tag and store a zero seed.  Degrees and levels are recomputed on load.
    A tree past ``2^32 + 1`` nodes, whose parents run past u32, raises
    ``ValueError`` before the file is opened.
    """
    if tree.n > 2**32 + 1:
        raise ValueError(f"the dump stores parents as u32, so it holds at most 2^32 + 1 nodes, "
                         f"got n = {tree.n}")
    tag = tree.model.value
    if tree.seed == DETERMINISTIC:
        tag |= _DETERMINISTIC_FLAG
        seed = 0
    else:
        seed = int(tree.seed)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, tree.n, tag, seed))
        fh.write(tree.parent[1:].astype("<u4").tobytes())


def load_tree(path) -> RecursiveTree:
    """Read a tree written by :func:`save_tree`.

    The file size must equal the header plus ``4(n-1)`` bytes for the
    header's ``n``; that is checked before the parent section is read or
    allocated, so trailing bytes, ``n = 0`` or a corrupt huge ``n`` raise
    ``ValueError``, as does an entry outside ``0..i-1`` for its node ``i``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if head[:4] != _MAGIC:
            raise ValueError(f"bad magic {head[:4]!r}, expected {_MAGIC!r}")
        if len(head) < _HEADER.size:
            raise ValueError(f"truncated header: {len(head)} of {_HEADER.size} bytes")
        _, n, tag, seed = _HEADER.unpack(head)
        if n < 1:
            raise ValueError(f"header node count must be >= 1, got {n}")
        body = size - _HEADER.size
        if body != 4 * (n - 1):
            raise ValueError(
                f"header says n = {n}, which needs {4 * (n - 1)} bytes of parent entries, "
                f"but the file holds {body}"
            )
        raw = fh.read(body)
    model = GrowthModel(tag & ~_DETERMINISTIC_FLAG)
    stored: Union[int, str] = DETERMINISTIC if tag & _DETERMINISTIC_FLAG else int(seed)
    return _adopted(_parent_array(np.frombuffer(raw, dtype="<u4")), model, stored)
