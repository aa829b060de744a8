import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urtlab import (
    EmptyLevelError,
    degree_counts_in_level,
    degree_histogram,
    exceedance_count,
    grow,
    grow_from_sequence,
    high_degree_fraction,
    level_sizes,
    max_degree,
)
from urtlab import stats
from urtlab.tree import _LEVEL_BLOCK


def random_parent_sequences(max_n=40):
    """Strategy: valid attachment sequences (parents[i-1] < i)."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(*(st.integers(0, i - 1) for i in range(1, n)))
    )


def test_level_sizes_path_and_star():
    assert list(level_sizes(grow_from_sequence([0, 1, 2]))) == [1, 1, 1, 1]
    assert list(level_sizes(grow_from_sequence([0, 0, 0]))) == [1, 3]


def test_level_sizes_sum_to_n():
    t = grow("uniform", 4321, 8)
    sizes = level_sizes(t)
    assert sizes.sum() == t.n
    assert sizes[0] == 1


def test_high_degree_fraction_tiny_t_is_one():
    for seq in ([0], [0, 0], [0, 1, 2], [0, 0, 1, 3]):
        t = grow_from_sequence(seq)
        assert high_degree_fraction(t, 1, 1e-9) == 1.0


def test_high_degree_fraction_hand_cases():
    star3 = grow_from_sequence([0, 0])  # threshold 0.5*ln(3) ~ 0.549
    assert high_degree_fraction(star3, 1, 0.5) == 1.0
    path3 = grow_from_sequence([0, 1])  # threshold ~ 0.989, node 2 degree 1
    assert high_degree_fraction(path3, 2, 0.9) == 1.0


def test_high_degree_fraction_empty_level():
    with pytest.raises(EmptyLevelError):
        high_degree_fraction(grow_from_sequence([0, 0]), 2, 0.5)


def test_high_degree_fraction_t_domain():
    t = grow_from_sequence([0, 0])
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            high_degree_fraction(t, 1, bad)


def test_high_degree_fraction_nonincreasing_in_t():
    tree = grow("uniform", 2000, 5150)
    values = [high_degree_fraction(tree, 1, t) for t in np.linspace(0.05, 0.95, 19)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_degree_counts_in_level_hand_cases():
    p = degree_counts_in_level(grow_from_sequence([0, 0]), 1)
    assert p.counts == {1: 2} and p.level_size == 2
    p = degree_counts_in_level(grow_from_sequence([0, 1]), 1)
    assert p.counts == {2: 1} and p.level_size == 1
    star = grow_from_sequence([0] * 6)
    p = degree_counts_in_level(star, 0)
    assert p.counts == {6: 1} and p.level_size == 1


def test_degree_counts_in_level_empty_level():
    p = degree_counts_in_level(grow_from_sequence([0, 0]), 3)
    assert p.counts == {} and p.level_size == 0


def _refuse_draws(monkeypatch):
    def refuse(n, rng):
        raise AssertionError("drew before refusing")
    monkeypatch.setattr("urtlab.tree._uniform_blocks", refuse)


def test_negative_levels_are_refused_streamed_or_not(monkeypatch):
    with pytest.raises(ValueError, match="level k must be >= 0, got -1"):
        degree_counts_in_level(grow_from_sequence([0, 0]), -1)
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="level k must be >= 0, got -1"):
        stats.streamed_level_profiles(100, 1, (1, -1))
    for top in (-1, -5):
        with pytest.raises(ValueError, match=f"level k must be >= 0, got {top}$"):
            stats.streamed_level_sizes(100, 1, top)


def test_an_empty_list_of_levels_is_refused_before_any_draw(monkeypatch):
    """It raised IndexError, reading the largest of no levels."""
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="give at least one level k"):
        stats.streamed_level_profiles(100, 1, ())


@pytest.mark.parametrize("n", [0, -3])
def test_streamed_statistics_refuse_a_tree_without_nodes(monkeypatch, n):
    """n = 0 used to read as a lone root: ``streamed_level_sizes(0, 1, 1)`` was [1, 0]."""
    _refuse_draws(monkeypatch)
    message = f"UNIFORM growth needs n >= 1, got {n}"
    with pytest.raises(ValueError, match=message):
        stats.streamed_level_sizes(n, 1, 1)
    with pytest.raises(ValueError, match=message):
        stats.streamed_level_profiles(n, 1, (1,))
    with pytest.raises(ValueError, match=message):
        grow("uniform", n, 1)


def test_profile_json_shape():
    p = degree_counts_in_level(grow_from_sequence([0, 0, 1]), 1)
    d = p.to_dict()
    assert set(d) == {"k", "level_size", "counts"}
    assert all(isinstance(k, str) for k in d["counts"])


def test_degree_histogram_path_and_star():
    assert degree_histogram(grow_from_sequence([0, 1, 2])) == {1: 2, 2: 2}
    assert degree_histogram(grow_from_sequence([0, 0, 0])) == {1: 3, 3: 1}


def test_degree_histogram_large_uniform_tree_matches_geometric_limit():
    t = grow("uniform", 1_000_000, 271828)
    hist = degree_histogram(t)
    for d in range(1, 6):
        assert abs(hist[d] / t.n - 2.0**-d) < 0.01


def test_max_degree():
    assert max_degree(grow_from_sequence([0, 0, 0, 0])) == 4
    assert max_degree(grow_from_sequence([0, 1, 2, 3])) == 2
    with pytest.raises(ValueError):
        max_degree(grow("uniform", 1, 1))


@given(random_parent_sequences())
@settings(max_examples=60, deadline=None)
def test_histogram_identities(seq):
    tree = grow_from_sequence(seq)
    hist = degree_histogram(tree)
    sizes = level_sizes(tree)
    assert sum(hist.values()) == tree.n
    assert sum(d * c for d, c in hist.items()) == 2 * (tree.n - 1)
    assert sizes.sum() == tree.n
    # per-level degree counts refine the global histogram
    merged: dict[int, int] = {}
    for k in range(len(sizes)):
        for d, c in degree_counts_in_level(tree, k).counts.items():
            merged[d] = merged.get(d, 0) + c
    assert merged == hist


@given(random_parent_sequences(), st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_fraction_consistent_with_profile(seq, t):
    tree = grow_from_sequence(seq)
    profile = degree_counts_in_level(tree, 1)
    threshold = t * math.log(tree.n)
    manual = sum(c for d, c in profile.counts.items() if d > threshold)
    assert exceedance_count(tree, 1, t) == manual
    if profile.level_size:
        assert high_degree_fraction(tree, 1, t) == manual / profile.level_size


def test_level_sizes_count_blocks_without_an_int64_copy():
    """bincount casts int32 levels to an int64 copy: 7.6 MiB at 10^6 nodes."""
    tree = grow("uniform", 10**6, 2)
    tree.level
    tracemalloc.start()
    try:
        sizes = level_sizes(tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert np.array_equal(sizes, np.bincount(tree.level.astype(np.int64)))


def test_streamed_levels_past_one_byte_never_wrap(monkeypatch):
    """A path is as deep as a tree gets: its levels pass every cap, and caps
    past 255 need two bytes per node."""
    n = 3 * _LEVEL_BLOCK + 7
    path = np.arange(-1, n - 1)
    monkeypatch.setattr("urtlab.tree._uniform_blocks", lambda n, rng: (
        (start, path[start:start + _LEVEL_BLOCK].copy()) for start in range(1, n, _LEVEL_BLOCK)))
    tree = grow_from_sequence(path[1:])
    for ks in ((1,), (1, 2), (0, 254, 255), (255, 256, 300)):
        profiles = stats.streamed_level_profiles(n, 0, ks)
        assert profiles == {k: degree_counts_in_level(tree, k) for k in ks}
        assert list(stats.streamed_level_sizes(n, 0, max(ks))) == [1] * (max(ks) + 1)


def _assert_streamed_statistics_match(n, seed, tree):
    """Every cap from 1 to 13 takes one side of ``_MARK_CAP`` or the other."""
    sizes = level_sizes(tree)
    for top in range(13):
        want = {k: degree_counts_in_level(tree, k) for k in range(top + 1)}
        assert stats.streamed_level_profiles(n, seed, (top,)) == {top: want[top]}, top
        assert stats.streamed_level_profiles(n, seed, range(top + 1)) == want, top
        expected = [int(sizes[k]) if k < sizes.size else 0 for k in range(top + 1)]
        assert list(stats.streamed_level_sizes(n, seed, top)) == expected, top


@pytest.mark.parametrize("n", [2, 3, _LEVEL_BLOCK - 1, _LEVEL_BLOCK + 1, 3 * _LEVEL_BLOCK + 7, 10**5])
def test_streamed_statistics_match_the_grown_tree_at_every_cap(n):
    for seed in (0, 5, 2**63, 2**64 - 1):
        _assert_streamed_statistics_match(n, seed, grow("uniform", n, seed))


def _hung_off_chains(n):
    """The first block is three interleaved chains; past it, every fifth node
    hangs off one of nodes 0..59 and the next four each hang off the node
    before them."""
    parent = np.arange(-3, n - 3)
    parent[1:4] = 0
    later = np.arange(_LEVEL_BLOCK + 1, n)
    parent[later] = np.where(later % 5 == 0, later * 7919 % 60, later - 1)
    return parent


@pytest.mark.parametrize("shape", ["star", "hung_off_chains"])
def test_streamed_statistics_match_fixed_shapes_at_every_cap(monkeypatch, shape):
    """Marks in one block can hang off each other, which the draws rarely make."""
    n = 3 * _LEVEL_BLOCK + 7
    parent = np.zeros(n, dtype=np.int64) if shape == "star" else _hung_off_chains(n)
    parent[0] = -1
    monkeypatch.setattr("urtlab.tree._uniform_blocks", lambda n, rng: (
        (start, parent[start:start + _LEVEL_BLOCK].copy()) for start in range(1, n, _LEVEL_BLOCK)))
    _assert_streamed_statistics_match(n, 0, grow_from_sequence(parent[1:]))
