import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from urtlab import (
    DETERMINISTIC,
    GrowthModel,
    RecursiveTree,
    grow,
    grow_from_sequence,
    load_tree,
    save_tree,
    validate,
)
from urtlab import stats
from urtlab import tree as tree_module
from urtlab.rng import derive_seed, generator
from urtlab.tree import (
    _LEVEL_BLOCK,
    _VECTOR_TOP,
    _levels_from_parents,
    _preferential_parents,
    _uniform_parents,
    _Words,
)


def test_single_node_tree():
    t = grow("uniform", 1, 7)
    assert t.n == 1
    assert t.parent[0] == -1
    assert list(t.degree) == [0]
    assert list(t.level) == [0]
    assert validate(t) == []


def test_two_node_tree_is_forced():
    t = grow("uniform", 2, 12345)
    assert list(t.parent_sequence()) == [0]
    assert list(t.degree) == [1, 1]
    assert list(t.level) == [0, 1]


def test_three_node_root_attachment_frequency():
    # parent of node 2 is uniform on {0, 1}: binomial check at 4 sigma
    reps = 100_000
    hits = 0
    for r in range(reps):
        t = grow("uniform", 3, derive_seed(2024, r))
        hits += int(t.parent[2] == 0)
    p = hits / reps
    se = 0.5 / reps**0.5
    assert abs(p - 0.5) < 4 * se


def test_grow_determinism():
    a = grow("uniform", 500, 99)
    b = grow("uniform", 500, 99)
    assert (a.parent == b.parent).all()
    c = grow("preferential", 500, 99)
    d = grow("preferential", 500, 99)
    assert (c.parent == d.parent).all()
    assert (a.parent != c.parent).any()


def test_uniform_n4_sequences_are_equidistributed():
    # 6 attachment sequences; chi-square threshold at significance 1e-6
    reps = 100_000
    counts = {}
    for r in range(reps):
        t = grow("uniform", 4, derive_seed(31337, r))
        key = tuple(int(p) for p in t.parent_sequence())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = reps / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(1 - 1e-6, df=5)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 137, 1000, 10_000])
def test_grown_trees_validate_clean(n):
    for seed in (0, 1, 2**63, 2**64 - 1):
        assert validate(grow("uniform", n, seed)) == []
        if n >= 2:
            assert validate(grow("preferential", n, seed)) == []


def test_model_minimum_sizes():
    with pytest.raises(ValueError):
        grow("uniform", 0, 1)
    with pytest.raises(ValueError):
        grow("preferential", 1, 1)
    with pytest.raises(ValueError):
        grow("nonsense", 5, 1)
    with pytest.raises(ValueError):
        grow("uniform", 5, -3)
    with pytest.raises(ValueError):
        grow("uniform", 5, 2**64)


def test_preferential_initial_edge():
    t = grow("preferential", 2, 5)
    assert list(t.parent_sequence()) == [0]
    assert t.model is GrowthModel.PREFERENTIAL


def _sequential_preferential(n, rng):
    """Reference: walk the endpoint list one node at a time; returns (parents, endpoints).

    Draws every pick in one batch (``_preferential_parents`` draws the same
    stream block by block), then looks each pick up in the list built so far
    and appends ``(parent, i)`` to it.
    """
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    parent[1] = 0
    endpoints = [0] * (2 * (n - 1))
    endpoints[0] = 0
    endpoints[1] = 1
    if n > 2:
        draws = rng.integers(0, 2 * np.arange(1, n - 1), dtype=np.int64).tolist()
        for i in range(2, n):
            p = endpoints[draws[i - 2]]
            parent[i] = p
            endpoints[2 * (i - 1)] = p
            endpoints[2 * (i - 1) + 1] = i
    return parent, endpoints


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 1000, 2 + _LEVEL_BLOCK - 1, 2 + _LEVEL_BLOCK,
                               2 + _LEVEL_BLOCK + 1, 3 * _LEVEL_BLOCK + 7, 100_000])
def test_preferential_parents_match_sequential_walk(n):
    for seed in (0, 1, 404, 2**63, 2**64 - 1):
        expected, _ = _sequential_preferential(n, generator(seed))
        assert np.array_equal(_preferential_parents(n, generator(seed)), expected)


def test_preferential_parents_hold_little_beside_their_result():
    """The int64 result is 7.6 MiB at 10^6 nodes; draws and chains are block-sized.

    Drawing and resolving all n picks at once peaked at 31 MiB.
    """
    tracemalloc.start()
    try:
        _preferential_parents(10**6, generator(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_preferential_endpoint_list_tracks_edges():
    rng = generator(404)
    parent, endpoints = _sequential_preferential(200, rng)
    # final length is twice the edge count, and step i appended (parent, i)
    assert len(endpoints) == 2 * 199
    assert endpoints[0] == 0 and endpoints[1] == 1
    for i in range(2, 200):
        assert endpoints[2 * (i - 1)] == parent[i]
        assert endpoints[2 * (i - 1) + 1] == i
    # endpoint multiset after the last step equals the degree sequence
    counts = np.bincount(endpoints, minlength=200)
    tree = grow_from_sequence(parent[1:])
    assert (counts == tree.degree).all()


def test_preferential_attachment_is_degree_proportional():
    # after {0,1}, node 2 picks 0 or 1 with probability 1/2 each
    reps = 20_000
    hits = 0
    for r in range(reps):
        t = grow("preferential", 3, derive_seed(777, r))
        hits += int(t.parent[2] == 0)
    se = 0.5 / reps**0.5
    assert abs(hits / reps - 0.5) < 4 * se


def test_grow_from_sequence_examples():
    t = grow_from_sequence([0])
    assert t.n == 2 and list(t.parent_sequence()) == [0]
    assert t.seed == DETERMINISTIC

    star = grow_from_sequence([0, 0, 0])
    assert list(star.degree) == [3, 1, 1, 1]

    path = grow_from_sequence([0, 1, 2])
    assert list(path.level) == [0, 1, 2, 3]


def test_grow_from_sequence_rejects_forward_references():
    with pytest.raises(ValueError):
        grow_from_sequence([0, 2])
    with pytest.raises(ValueError):
        grow_from_sequence([1])
    with pytest.raises(ValueError):
        grow_from_sequence([0, -1])


def test_validate_reports_level_tampering():
    bad = grow_from_sequence([0, 0, 1])
    level = bad.level.copy()
    level[2] = 5
    bad.__dict__["level"] = level  # the derived-array cache
    problems = validate(bad)
    assert len(problems) == 1
    assert "level" in problems[0]


def test_validate_reports_degree_tampering():
    bad = grow_from_sequence([0, 0, 1])
    degree = bad.degree.copy()
    degree[0] += 2  # breaks both the recount and the handshake sum
    bad.__dict__["degree"] = degree  # the derived-array cache
    problems = validate(bad)
    assert any("degree" in p for p in problems)
    assert any("2(n-1)" in p for p in problems)


def test_validate_accepts_star():
    assert validate(grow_from_sequence([0, 0, 0, 0])) == []


B = _LEVEL_BLOCK


def _sequential_levels(parent):
    """Reference: ``level[i] = level[parent[i]] + 1``, one node at a time."""
    level = [0] * len(parent)
    for i, p in enumerate(parent.tolist()[1:], start=1):
        level[i] = level[p] + 1
    return np.asarray(level, dtype=np.int32)


def _shape(name, n):
    i = np.arange(n)
    parent = {
        "path": i - 1,
        "star": np.zeros(n, dtype=np.int64),
        "binary_heap": (i - 1) // 2,
        "caterpillar": np.where(i % 2 == 0, i - 2, i - 1),  # even spine, odd legs
        # every node of a block hangs off the last node of the block before
        "block_fan": (i - 1) // B * B,
    }[name].astype(np.int64)
    parent[0] = -1
    return parent


# 2_500_007: every call stays in the vector pass with bounds past 2.5 x 10^6;
# _VECTOR_TOP + 7: the last calls switch to numpy's own draws
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 1000, B - 1, B, B + 1, 3 * B + 7, 100_000,
                               2_500_007, _VECTOR_TOP + 7])
def test_blocked_uniform_parents_are_the_whole_draw(n):
    """Blocks of draws concatenate to one draw and leave the generator where it
    would, also where later blocks switch to numpy's own draws."""
    for seed in (0, 7, 2**63, 2**64 - 1):
        blocked, whole = generator(seed), generator(seed)
        parent = _uniform_parents(n, blocked)
        assert parent[0] == -1
        assert np.array_equal(parent[1:], whole.integers(0, np.arange(1, n), dtype=np.int64))
        assert repr(blocked.bit_generator.state) == repr(whole.bit_generator.state)
        assert blocked.integers(0, 2**63, size=4).tolist() == whole.integers(0, 2**63, size=4).tolist()


WORD_SEEDS = (0, 7, 2**63, 2**64 - 1)


WORD_CALLS = pytest.mark.parametrize("calls", [
    # about half the words are rejected, often several in a row
    [np.full(5000, 2**31 + 1)],
    [np.full(5000, 2**31 + 1), np.arange(2, 100)],
    # 999 words: the high half of the last raw word waits for the next call, then stays pending
    [np.arange(2, 1001), np.arange(3, 8), np.arange(2, 3)],
    # bounds of 2^32 and more take numpy's 64-bit path
    [np.arange(2**32 - 3, 2**32 + 3), np.arange(2, 9)],
    [np.zeros(0, dtype=np.int64), np.arange(1, 4), np.zeros(0, dtype=np.int64)],
    [np.array([1, 5, 1, 1, 3, 1])],
    [np.arange(1, B + 1), np.arange(B + 1, 2 * B + 1)],
    # bounds of 1 split a call that numpy draws whole; the next call draws on from its state
    [np.concatenate((np.full(5000, 2**31 + 1), [1], np.full(50, 2**31 + 1), [1], np.arange(2, 40))),
     np.arange(2, 30)],
    [np.arange(_VECTOR_TOP - 8, _VECTOR_TOP + 8), np.arange(2, 50)],
    # a full block just below the cutoff: the vector pass restarts at several rejections
    [np.arange(_VECTOR_TOP - B, _VECTOR_TOP)],
], ids=["rejections", "rejections_then_more", "odd_word_count", "straddling_2^32", "empty",
        "bounds_of_one", "uniform_blocks", "ones_around_numpy", "straddling_vector_top",
        "block_below_vector_top"])
PENDING = pytest.mark.parametrize("pending", [False, True], ids=["", "pending_half"])


def _check_words(calls, pending):
    """Each call equals numpy's own draw, and the generator ends in numpy's state."""
    for seed in WORD_SEEDS:
        ours, numpys = generator(seed), generator(seed)
        if pending:  # a 32-bit draw leaves the high half of its raw word pending
            ours.integers(0, 7, dtype=np.uint32)
            numpys.integers(0, 7, dtype=np.uint32)
        with _Words(ours) as words:
            for highs in calls:
                expected = numpys.integers(0, highs, dtype=np.int64)
                assert np.array_equal(words.integers(highs), expected)
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)


@WORD_CALLS
@PENDING
def test_words_draw_numpys_bounded_integers(calls, pending):
    _check_words(calls, pending)


@WORD_CALLS
@PENDING
def test_vector_pass_draws_numpys_bounded_integers(calls, pending, monkeypatch):
    """With the cutoff at 2^32 the vector pass draws every call below it,
    so its rejections and redraws are pinned too."""
    monkeypatch.setattr(tree_module, "_VECTOR_TOP", 1 << 32)
    _check_words(calls, pending)


# (lowest, highest) bound of each kind of run; bounds just past 2^31 reject
# about half their words, often several in a row
BOUND_RUNS = {
    "ones": (1, 1),
    "small": (2, 100),
    "past_2^31": (2**31 + 1, 2**31 + 64),
    "around_vector_top": (_VECTOR_TOP - 64, _VECTOR_TOP + 64),
}


@st.composite
def bounded_draw_calls(draw):
    """Random runs of bounds of each kind, cut into random calls."""
    runs = draw(st.lists(st.tuples(st.sampled_from(sorted(BOUND_RUNS)), st.integers(1, 700)),
                         min_size=1, max_size=6))
    values = np.random.default_rng(draw(st.integers(0, 2**32)))
    highs = np.concatenate([values.integers(*BOUND_RUNS[kind], size=size, endpoint=True)
                            for kind, size in runs])
    cuts = draw(st.lists(st.integers(0, highs.size), max_size=4))
    return np.split(highs, sorted(cuts))


@pytest.mark.parametrize("vector_top", [_VECTOR_TOP, 1 << 32])
@given(calls=bounded_draw_calls(), pending=st.booleans())
@settings(max_examples=40, deadline=None)
def test_words_draw_numpys_bounded_integers_on_random_calls(vector_top, calls, pending):
    """At the cutoff 2^32 the vector pass draws every call, rejections included."""
    with mock.patch.object(tree_module, "_VECTOR_TOP", vector_top):
        _check_words(calls, pending)


def test_blocks_are_read_before_the_next_is_drawn(monkeypatch):
    """Every consumer of a block of draws is done with it when the next is
    drawn: poisoning each block with -1 at that point changes no result."""
    n, seed = 3 * B + 7, 11

    def results():
        return (_uniform_parents(n, generator(seed)).tolist(),
                [stats.streamed_level_profiles(n, seed, ks) for ks in ((1,), (1, 2, 7))],
                [stats.streamed_level_sizes(n, seed, top).tolist() for top in (3, 8)],
                grow("preferential", n, seed).parent.tolist())

    draw = _Words.draw

    def poisoning(words, highs, top, out):
        if hasattr(words, "drawn"):
            words.drawn.fill(-1)
        words.drawn = out
        return draw(words, highs, top, out)

    expected = results()
    monkeypatch.setattr(_Words, "draw", poisoning)
    assert results() == expected


@pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 7, 10**6])
def test_preferential_parents_draw_numpys_words(n):
    for seed in WORD_SEEDS:
        ours, numpys = generator(seed), generator(seed)
        expected, _ = _sequential_preferential(n, numpys)
        assert np.array_equal(_preferential_parents(n, ours), expected)
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 3 * B + 7])
def test_levels_match_the_sequential_reference_on_uniform_trees(n):
    for seed in (0, 11):
        parent = _uniform_parents(n, generator(seed))
        level = _levels_from_parents(parent)
        assert level.dtype == np.int32
        assert np.array_equal(level, _sequential_levels(parent))


@pytest.mark.parametrize("name", ["path", "star", "binary_heap", "caterpillar", "block_fan"])
@pytest.mark.parametrize("n", [2, 3, B, B + 1, 3 * B + 7])
def test_levels_match_the_sequential_reference_on_fixed_shapes(name, n):
    parent = _shape(name, n)
    assert (parent[1:] < np.arange(1, n)).all() and (parent[1:] >= 0).all()
    assert np.array_equal(_levels_from_parents(parent), _sequential_levels(parent))


@pytest.mark.parametrize("name", ["uniform", "path", "block_fan"])
def test_loaded_trees_carry_the_sequential_levels(tmp_path, name):
    n = 3 * B + 7
    if name == "uniform":
        tree = grow("uniform", n, 29)
    else:
        tree = grow_from_sequence(_shape(name, n)[1:])
    path = tmp_path / f"{name}.urt"
    save_tree(tree, path)
    back = load_tree(path)
    assert np.array_equal(back.level, _sequential_levels(back.parent))
    assert validate(back) == []


def test_save_tree_refuses_parents_past_u32_before_opening_the_file(tmp_path):
    """Parents are stored as u32, so a node count past 2^32 + 1 would wrap them;
    no test can grow such a tree, so a stand-in carries the count."""
    path = tmp_path / "huge.urt"
    with pytest.raises(ValueError, match=r"at most 2\^32 \+ 1 nodes"):
        save_tree(SimpleNamespace(n=2**32 + 2), path)
    assert not path.exists()


def test_levels_of_a_million_node_path_are_fast():
    """The worst case: each block needs log2(block) jumping rounds."""
    parent = _shape("path", 10**6)
    start = time.perf_counter()
    level = _levels_from_parents(parent)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(level, np.arange(10**6))


def test_levels_hold_little_beside_their_result():
    """The int32 result is 3.8 MiB at 10^6 nodes; the pass adds block-sized arrays only."""
    parent = _uniform_parents(10**6, generator(3))
    tracemalloc.start()
    try:
        _levels_from_parents(parent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_binary_dump_round_trip(tmp_path):
    t = grow("preferential", 257, 864213)
    path = tmp_path / "tree.urt"
    save_tree(t, path)
    back = load_tree(path)
    assert back.n == t.n
    assert (back.parent == t.parent).all()
    assert (back.degree == t.degree).all()
    assert (back.level == t.level).all()
    assert back.model is t.model
    assert back.seed == t.seed


def test_binary_dump_deterministic_marker(tmp_path):
    t = grow_from_sequence([0, 1, 1])
    path = tmp_path / "det.urt"
    save_tree(t, path)
    back = load_tree(path)
    assert back.seed == DETERMINISTIC
    assert (back.parent == t.parent).all()


def test_binary_dump_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.urt"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(ValueError):
        load_tree(path)


def test_trees_are_immutable():
    t = grow("uniform", 10, 3)
    with pytest.raises(ValueError):
        t.parent[1] = 5


def test_derived_arrays_are_cached_read_only_and_owned():
    """Degrees stay bincount's int64, with no copy; levels are int32."""
    t = grow("uniform", 1000, 3)
    assert t.degree is t.degree and t.level is t.level
    assert t.degree.dtype == np.int64 and t.level.dtype == np.int32
    for arr in (t.parent, t.degree, t.level):
        with pytest.raises(ValueError):
            arr[1] = 5
    # built on another tree's read-only parents, a tree copies them to count from
    again = RecursiveTree(t.parent, t.model, t.seed)
    assert not np.shares_memory(again.parent, t.parent)
    assert np.array_equal(again.degree, t.degree) and np.array_equal(again.level, t.level)


def test_writes_to_the_callers_parents_do_not_reach_the_tree():
    """The tree viewed a writable array of the caller's without a copy."""
    p = np.array([-1, 0, 0, 1, 1])
    t = RecursiveTree(p, GrowthModel.UNIFORM, DETERMINISTIC)
    t.degree
    p[3] = 2
    p[4] = 3
    assert t.parent.tolist() == [-1, 0, 0, 1, 1]
    assert validate(t) == []
