import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from urtlab import (
    ResourceGuardError,
    degree_head,
    degree_tail,
    enumerate_trees,
    enumeration_moment,
    exact_statistic_distribution,
    expected_children,
    expected_exceedance_count,
    expected_level_size,
    grow,
    level_pmf,
)
from urtlab import oracle
from urtlab.oracle import child_count_tails, node_level_probabilities, tree_count
from urtlab.rng import derive_seed
from urtlab.stats import degree_counts_in_level, exceedance_count


def test_enumeration_counts():
    assert len(list(enumerate_trees(2))) == 1
    assert len(list(enumerate_trees(4))) == 6
    assert tree_count(5) == 24


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        list(enumerate_trees(12))
    with pytest.raises(ValueError, match="n >= 2"):
        list(enumerate_trees(1))


def test_enumeration_is_lexicographic_and_deterministic():
    seqs = [tuple(int(p) for p in t.parent_sequence()) for t in enumerate_trees(4)]
    assert seqs == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_first_level_degree_law_n3():
    dist = exact_statistic_distribution(3, "level_degree_count", d=1)
    assert dist.support == {0: Fraction(1, 2), 2: Fraction(1, 2)}
    assert dist.expectation() == 1
    dist2 = exact_statistic_distribution(3, "level_degree_count", d=2)
    assert dist2.support == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_max_degree_law_n2():
    dist = exact_statistic_distribution(2, "max_degree")
    assert dist.support == {1: Fraction(1)}


def test_first_level_leaf_expectation_is_one():
    for n in (2, 3, 4, 5, 6):
        dist = exact_statistic_distribution(n, "level_degree_count", d=1)
        assert dist.expectation() == 1


def test_unregistered_statistic():
    with pytest.raises(ValueError):
        exact_statistic_distribution(4, "entropy")


def test_all_registered_statistics_have_proper_laws():
    cases = {
        "level_degree_count": {"d": 1},
        "exceedance_count": {"k": 1, "t": 0.5},
        "level_size": {"k": 2},
        "max_degree": {},
        "fixed_points": {},
    }
    for n in (2, 5, 7):
        for name, params in cases.items():
            dist = exact_statistic_distribution(n, name, **params)
            assert dist.total_mass() == 1
            for p in dist.support.values():
                assert tree_count(n) % p.denominator == 0


def test_exact_distribution_json():
    d = exact_statistic_distribution(3, "level_degree_count", d=1).to_dict()
    assert d["support"] == {"0": "1/2", "2": "1/2"}


def test_level_pmf_base_cases():
    assert list(level_pmf(0, 3)) == [1, 0, 0, 0]
    assert level_pmf(1, 3)[1] == 1
    law2 = level_pmf(2, 3)
    assert law2[1] == Fraction(1, 2) and law2[2] == Fraction(1, 2)
    assert all(isinstance(p, Fraction) for p in law2)


def test_level_pmf_float_mode_flagged_and_normalized():
    law = level_pmf(200, 40)
    assert all(type(p) is float for p in law)
    assert abs(sum(law) - 1.0) < 1e-12


def test_level_pmf_matches_bernoulli_sum_construction():
    """Independent check: node i's level is 1 + sum of Bernoulli(1/j), j=2..i."""
    i = 30
    pmf = [1.0]
    for j in range(2, i + 1):
        p = 1.0 / j
        nxt = [0.0] * (len(pmf) + 1)
        for m, mass in enumerate(pmf):
            nxt[m] += mass * (1 - p)
            nxt[m + 1] += mass * p
        pmf = nxt
    law = level_pmf(i, len(pmf) + 1, exact=False)
    for k, mass in enumerate(pmf):
        assert abs(law[k + 1] - mass) < 1e-12


def test_degree_tail_single_indicator():
    for n in (2, 5, 30):
        assert degree_tail(n - 1, n, 0) == Fraction(1, n)
    assert degree_tail(99, 100, 0) == pytest.approx(0.01)


def test_degree_tail_hand_convolution():
    assert degree_tail(1, 3, 1) == Fraction(1, 6)
    assert degree_tail(1, 3, -0.5) == 1
    assert degree_tail(1, 3, 0) == Fraction(1, 2) + Fraction(1, 6) - Fraction(0)  # P(X>=1)


def test_degree_tail_monotone_and_bounded():
    prev = 1.1
    for threshold in range(-1, 12):
        tail = float(degree_tail(3, 200, threshold))
        assert 0.0 <= tail <= prev
        prev = tail


def test_degree_tail_guard_and_domain():
    """The work guard, (n - i) x rows, refuses before anything is allocated."""
    tracemalloc.start()
    try:
        for law, i, n, threshold in ((degree_head, 1, 10**6 + 1, 100),  # 10^6 x 101 rows
                                     (degree_tail, 1, 10**6 + 1, 90),  # 91 rows and the tail past them
                                     (degree_tail, 1, 10**9, 10**6),
                                     (degree_head, 5, 10**12, 1e6)):
            with pytest.raises(ResourceGuardError, match="degree tails are guarded"):
                law(i, n, threshold)
        with pytest.raises(ResourceGuardError, match="degree tails are guarded"):
            child_count_tails(10**8, 3.0)  # every node at once, 10^8 weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError):
        degree_tail(0, 10, 1)
    with pytest.raises(ValueError, match="need 1 <= i <= n"):
        degree_tail(11, 10, 1)
    assert degree_tail(10, 10, 1) == 0  # node n gains no children
    with pytest.raises(ValueError):
        degree_head(1, 10**6, math.nan)


def test_thresholds_outside_the_support_are_answered_at_once():
    """X takes the values 0..n-i, at any span."""
    for i, n in ((1, 30), (1, 10**6), (7, 10**12)):
        for threshold in (n - i, n - i + 0.5, 2 * n, math.inf):
            assert degree_tail(i, n, threshold) == 0 and degree_head(i, n, threshold) == 1
        assert degree_tail(i, n, -0.5) == 1 and degree_head(i, n, -0.5) == 0
    assert isinstance(degree_tail(1, 30, 29), Fraction)


def test_degree_tail_above_every_count_is_zero():
    for n in (30, 300):
        assert degree_tail(1, n, n) == 0 and degree_tail(1, n, math.inf) == 0


def test_degree_tail_mean_telescopes_to_harmonic_sum():
    i, n = 9, 100
    mean = sum(float(degree_tail(i, n, a)) for a in range(0, n - i + 1))
    assert abs(mean - expected_children(i, n)) < 1e-12


def test_child_count_tails_match_degree_tail():
    n = 50
    threshold = 1.4
    tails = child_count_tails(n, threshold)
    for i in (1, 2, 7, 20, n - 2):
        # node i of an n-node tree collects children during steps i+1..n-1
        assert tails[i - 1] == pytest.approx(float(degree_tail(i, n - 1, threshold)), abs=1e-13)
    assert tails[n - 2] == 0.0  # the last node never gains children


def test_one_pass_over_several_nodes_equals_their_single_node_calls():
    """The engine reads every node from one descending pass, within one block
    of weights and across 13 blocks of 800; a node whose support excludes
    the threshold, and the node i = n, are answered at once."""
    n = 10001
    indices = [1, 2, 7, 800, 801, 1600, 3333, 9000, 9990, 9995, 10000, n]
    for threshold in (0, 2.5, 6.4, 12):
        for upper, law in ((True, degree_tail), (False, degree_head)):
            one = [law(i, n, threshold) for i in indices[:-1]] + [float(not upper)]
            many = oracle._degree_law_sums(n, indices, threshold, upper)
            assert many.tolist() == pytest.approx(one, rel=1e-15, abs=0), threshold
            # blocks change the summation order, so compare passes in the same blocks
            one = [oracle._degree_law_sums(n, [i], threshold, upper, block=800)[0] for i in indices]
            many = oracle._degree_law_sums(n, indices, threshold, upper, block=800)
            assert many.tolist() == pytest.approx(one, rel=1e-15, abs=0), threshold
    n = 60  # rationals
    for threshold in (0, 2.5, 7):
        for upper, law in ((True, degree_tail), (False, degree_head)):
            many = oracle._degree_law_sums(n, range(1, n), threshold, upper)
            assert many.tolist() == [law(i, n, threshold) for i in range(1, n)]


def test_child_count_tails_past_ten_thousand_nodes():
    """All 10^6 nodes in one pass, in block memory beside three length-n arrays."""
    n = 10**6 + 1
    threshold = 0.5 * math.log(n) - 1
    tracemalloc.start()
    try:
        tails = child_count_tails(n, threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    for i in (1, 1000, 123_456, 999_990):
        assert tails[i - 1] == pytest.approx(float(degree_tail(i, n - 1, threshold)), rel=1e-15)


def test_node_level_probabilities_match_level_pmf():
    n = 40
    for k in (1, 2, 3):
        probs = node_level_probabilities(n, k)
        for i in (1, 5, 17, n - 1):
            assert probs[i - 1] == pytest.approx(float(level_pmf(i, k + 2, exact=False)[k]), abs=1e-13)


def test_levels_past_the_support_are_exact_zeros_at_once():
    """No node of an n-node tree sits at level n or deeper: no pass is run."""
    for n in (1, 2, 3, 100, 10**6):
        for k in (n, n + 1, 10**8):
            assert expected_level_size(n, k) == 0 and expected_level_size(n, k, exact=False) == 0.0
            assert isinstance(expected_level_size(n, k, exact=True), Fraction)
    probs = node_level_probabilities(100, 10**8)
    assert probs.shape == (99,) and not probs.any()
    assert node_level_probabilities(5, 4)[-1] == pytest.approx(1 / 24)  # the path 0-1-2-3-4


def test_expected_level_size_small_exact():
    assert expected_level_size(3, 1) == Fraction(3, 2)
    assert expected_level_size(3, 2) == Fraction(1, 2)
    assert expected_level_size(1, 0) == 1


def test_expected_level_sizes_partition_nodes():
    n = 2000
    total = sum(expected_level_size(n, k, exact=False) for k in range(40))
    assert abs(total - n) < 1e-10


def test_expected_exceedance_hand_case():
    # n=3, k=1, t=0.5: node 1 contributes 1, node 2 contributes 1/2
    assert expected_exceedance_count(3, 1, 0.5) == pytest.approx(1.5, abs=1e-14)


def test_expected_exceedance_tiny_t_reduces_to_level_size():
    for n, k in ((50, 1), (50, 2), (400, 1)):
        full = expected_exceedance_count(n, k, 1e-9)
        assert full == pytest.approx(float(expected_level_size(n, k, exact=False)), abs=1e-10)


def test_expected_exceedance_matches_enumeration():
    n, k, t = 7, 1, 0.3
    total = Fraction(0)
    count = 0
    for tree in enumerate_trees(n):
        total += exceedance_count(tree, k, t)
        count += 1
    assert expected_exceedance_count(n, k, t) == pytest.approx(float(total / count), abs=1e-12)


def test_level_and_child_count_are_independent_under_enumeration():
    """Joint law of (level(i), children(i)) factorizes; checked at n=7."""
    n, i = 7, 3
    joint: dict[tuple[int, int], int] = {}
    for tree in enumerate_trees(n):
        children = int(tree.degree[i]) - 1
        key = (int(tree.level[i]), children)
        joint[key] = joint.get(key, 0) + 1
    total = tree_count(n)
    level_marg: dict[int, int] = {}
    child_marg: dict[int, int] = {}
    for (lvl, ch), c in joint.items():
        level_marg[lvl] = level_marg.get(lvl, 0) + c
        child_marg[ch] = child_marg.get(ch, 0) + c
    for (lvl, ch), c in joint.items():
        assert Fraction(c, total) == Fraction(level_marg[lvl], total) * Fraction(
            child_marg[ch], total
        )


def test_enumeration_moment_against_marginal_factorial_moment():
    for n in (3, 5, 6):
        for d in (1, 2):
            for order in (1, 2):
                vec = (0,) * (d - 1) + (order,)
                dist = exact_statistic_distribution(n, "level_degree_count", d=d)
                assert enumeration_moment(n, vec) == dist.factorial_moment(order)


# Independent cross-checks of the truncated-product engines


def _rising_coefficients(lo, hi, order):
    """Integer coefficients of ``prod_{m=lo}^{hi-1} (m + z)`` up to ``z^order``."""
    coef = [1] + [0] * order
    for m in range(lo, hi):
        for k in range(order, 0, -1):
            coef[k] = m * coef[k] + coef[k - 1]
        coef[0] *= m
    return coef


def test_expected_level_size_is_a_stirling_number():
    """(n-1)! E|L_n(k)| = [n, k+1] for every n <= 64 and every level."""
    # [n, j] = (n-1) [n-1, j] + [n-1, j-1]: unsigned Stirling numbers of the first kind
    stirling = [[1]]
    for n in range(1, 65):
        prev = stirling[-1] + [0]
        stirling.append([(n - 1) * prev[j] + (prev[j - 1] if j else 0) for j in range(n + 1)])
    for n in range(1, 65):
        for k in range(n):
            value = expected_level_size(n, k)
            assert isinstance(value, Fraction)
            assert value * math.factorial(n - 1) == stirling[n][k + 1], (n, k)
        assert expected_level_size(n, n) == 0
    # past one block of weights the exact sweep carries rationals from block to block
    h1 = sum(Fraction(1, j) for j in range(1, 4200))
    h2 = sum(Fraction(1, j * j) for j in range(1, 4200))
    assert expected_level_size(4200, 2, exact=True) == (h1 * h1 - h2) / 2


def test_exact_degree_tail_equals_enumerated_child_count_law():
    for m in range(3, 9):  # trees on m nodes: degree_tail(i, m - 1, .) covers nodes i+1..m-1
        counts = {}
        for tree in enumerate_trees(m):
            for i in range(1, m - 1):
                key = (i, int(tree.degree[i]) - 1)
                counts[key] = counts.get(key, 0) + 1
        for i in range(1, m - 1):
            for a in (-1, 0, 0.5, 1, 2, 2.5, m):
                above = sum(c for (j, ch), c in counts.items() if j == i and ch > a)
                tail = degree_tail(i, m - 1, a)
                assert isinstance(tail, Fraction)
                assert tail == Fraction(above, tree_count(m)), (m, i, a)


def test_child_count_tails_against_rational_evaluation():
    n = 2001
    for threshold in (0.0, 3.0, 6.4, 12.0):
        tails = child_count_tails(n, threshold)
        c = math.floor(threshold)
        for i in (1, 2, 7, 100, 1000, 1990, n - 2):
            # P(X_i = m) = (i / (n-1)) [z^m] prod_{m=i}^{n-2} (m + z) / prod_{m=i}^{n-2} m
            coef = _rising_coefficients(i, n - 1, c)
            head = Fraction(sum(coef), math.prod(range(i, n - 1)))
            exact = 1 - Fraction(i, n - 1) * head
            assert abs(Fraction(float(tails[i - 1])) - exact) <= Fraction(1, 10**15), (threshold, i)


def test_float_level_profile_at_a_million_matches_closed_forms():
    n = 10**6
    p1, p2, p3 = (math.fsum(1.0 / j**r for j in range(1, n)) for r in (1, 2, 3))
    closed = {1: p1, 2: (p1 * p1 - p2) / 2, 3: (p1**3 - 3 * p1 * p2 + 2 * p3) / 6}
    for k, value in closed.items():
        assert expected_level_size(n, k, exact=False) == pytest.approx(value, rel=1e-13, abs=0)


def test_tiny_tails_keep_their_relative_accuracy():
    """Tails far below rounding of 1 come from the upper coefficients, not 1 - head."""
    i, n, c = 1500, 2000, 10
    coef = _rising_coefficients(i, n, n - i)
    exact = Fraction(i, n) * Fraction(sum(coef[c + 1:]), math.prod(range(i, n)))
    assert 0 < exact < 1e-12
    assert degree_tail(i, n, c) == pytest.approx(float(exact), rel=1e-12)
    assert child_count_tails(n + 1, c)[i - 1] == pytest.approx(float(exact), rel=1e-12)
    # the same across blocks of weights: 2501 weights in blocks of 800
    i, n = 7500, 10001
    exact = 1 - Fraction(i, n) * Fraction(sum(_rising_coefficients(i, n, c)), math.prod(range(i, n)))
    assert 0 < exact < 1e-12
    tail = oracle._degree_law_sums(n, [i], c, upper=True, block=800)[0]
    assert tail == pytest.approx(float(exact), rel=1e-12)


def test_degree_head_is_the_exact_complement_of_the_tail():
    for i, n in ((1, 2), (3, 10), (20, 64)):
        for a in (-1, 0, 1.5, 4, n):
            head = degree_head(i, n, a)
            assert isinstance(head, Fraction)
            assert head + degree_tail(i, n, a) == 1, (i, n, a)
    assert degree_head(5, 100, -0.5) == 0.0


def test_float_degree_head_against_rational_evaluation():
    """Small heads come from the head coefficients, not from 1 - tail, in one
    block of weights or carried across 3-4 blocks of 3000."""
    n = 10001
    for i in (1, 2, 7, 3333, n - 1):
        prod = math.prod(range(i, n))
        for a in (0, 1, 2.5, 3.0, 4.6, 12):
            # P(X <= a) = (i / n) sum_{m <= a} [z^m] prod_{m=i}^{n-1} (m + z) / prod m
            coef = _rising_coefficients(i, n, math.floor(min(a, n - i)))
            exact = Fraction(i, n) * Fraction(sum(coef), prod)
            for head in (degree_head(i, n, a),
                         oracle._degree_law_sums(n, [i], a, upper=False, block=3000)[0]):
                assert abs(Fraction(head) - exact) <= exact / 10**15, (i, a)


# sha256 of the float64 bytes of the values below: spans up to 10^4 fit one
# block of weights, so any change to how blocks are carried must leave every
# one of them bit for bit
SINGLE_BLOCK_SPANS = [(1, 100), (3, 200), (60, 65), (7, 2000), (999, 1000), (1, 10001),
                      (2, 10001), (3333, 10001), (9990, 10001)]
SINGLE_BLOCK_THRESHOLDS = [-0.5, 0, 1, 2.5, 3.0, 4.6, 7.9, 12, 25, 40]
SINGLE_BLOCK_DIGESTS = {
    "heads": "71b7da6974242acca63b2fb022c7742c68b8127a19a728c4ca7d452c9f48f62b",
    "tails": "9183f3b79469c30dd46e373beece9271cc42bcf57fac4b472967c79e53798d57",
    "sweeps": "3200727b2427d9218fdc1fcecf26fb6aa71e7a352df114b3445facd080272510",
}


def test_tails_up_to_a_span_of_ten_thousand_are_pinned_bit_for_bit():
    def grid(law):
        return [float(law(i, n, a)) for i, n in SINGLE_BLOCK_SPANS
                for a in SINGLE_BLOCK_THRESHOLDS + [n - i, n]]

    values = {
        "heads": grid(degree_head),
        "tails": grid(degree_tail),
        "sweeps": np.concatenate([child_count_tails(n, a) for n in (100, 2001, 10002)
                                  for a in (0.0, 3.0, 6.4, 12.0)]),
    }
    digests = {k: hashlib.sha256(np.asarray(v, dtype=np.float64).tobytes()).hexdigest()
               for k, v in values.items()}
    assert digests == SINGLE_BLOCK_DIGESTS


# sha256 of the str() of every Fraction below, one per line: the rational
# answers for n <= 64, on thresholds below 0, non-integer, and at or past the span
EXACT_NS = [1, 2, 3, 4, 7, 12, 30, 47, 64]
EXACT_DIGESTS = {
    "heads": "40927ee275118236d1f64885c3ac355bb63b33bbb3df007a85adc7b71ecbb47f",
    "tails": "3f13afce202d6b330c64108aa282c01952e0d36536a1c7147751d188fa3e6096",
    "sums": "986fe715231f8840a347c7daa7e0394b8f53a0c941f15667796f68541e78e07d",
    "level_sizes": "faab5127c56a931db6a7f3d43484e0fa23762f96452e44bde70605796ffc43f2",
    "level_pmfs": "663317c7cf1d26ffda851d237917ac156fbf1dfde64e7f8633413c5318a8aff1",
}


def _exact_thresholds(span):
    return [-1, -0.5, 0, 0.5, 1, 2.7, 3, 5.5, 9, span - 1, span - 0.5, span, span + 0.5, span + 3]


def test_exact_answers_are_pinned_to_their_fractions():
    def grid(law):
        return [law(i, n, a) for n in EXACT_NS for i in range(1, n + 1)
                for a in _exact_thresholds(n - i)]

    sums = []
    for n in EXACT_NS:
        for indices in (range(1, n + 1), list(range(n // 2 + 1, n + 1, 3)),
                        np.arange(1, n + 1, 2)):
            for a in _exact_thresholds(n - int(indices[0])):
                for upper in (True, False):
                    sums.extend(oracle._degree_law_sums(n, indices, a, upper).tolist())
    values = {
        "heads": grid(degree_head),
        "tails": grid(degree_tail),
        "sums": sums,
        "level_sizes": [expected_level_size(n, k) for n in range(1, 65) for k in range(n + 2)],
        "level_pmfs": [p for i in range(65) for p in level_pmf(i, 6)],
    }
    for key, v in values.items():
        assert all(type(x) is Fraction for x in v), key
    digests = {k: hashlib.sha256("\n".join(map(str, v)).encode()).hexdigest()
               for k, v in values.items()}
    assert digests == EXACT_DIGESTS


def test_memoized_node_laws_do_not_depend_on_the_order_of_thresholds():
    """Heads and tails from a node's memoized terms equal, bit for bit, a call
    made with the memo cleared (floats) or the sum of exact terms
    (rationals), whatever thresholds came before: spans inside one block of
    weights, across blocks, and rational."""
    def fresh(law, i, n, a):
        oracle._node_memo.cache_clear()
        return law(i, n, a)

    def rational(law, i, n, a):
        if a < 0 or a >= n - i:
            return Fraction(int(a >= 0) if law is degree_head else int(a < 0))
        order = math.floor(a)
        head = Fraction(i, n) * sum(oracle._truncated_total(i, n, object, order))
        return head if law is degree_head else 1 - head

    shuffled = np.random.default_rng(11)
    for i, n in ((7, 2000), (1, 10001), (1, 20001), (5, 40000), (3, 50), (20, 64), (1, 64)):
        thresholds = sorted({-0.5, 0, 1, 2.5, 4.6, 9, 17.3, 31, 45.5, min(n - i - 1, 99), n - i})
        reference = fresh if n > oracle.RATIONAL_DP_MAX_NODES else rational
        expected = {(law, a): reference(law, i, n, a)
                    for law in (degree_head, degree_tail) for a in thresholds}
        for order in (thresholds, thresholds[::-1], shuffled.permutation(thresholds).tolist()):
            oracle._node_memo.cache_clear()
            for a in order:
                for law in (degree_head, degree_tail):
                    got = law(i, n, a)
                    assert type(got) is type(expected[law, a])
                    assert got == expected[law, a], (law.__name__, i, n, a)


def test_a_threshold_sweep_runs_a_logarithmic_number_of_passes(monkeypatch):
    """60 heads and tails of one node at n = 2000, as criterion 04 reads
    them, make 7 passes over its weights: the tail's terms are made once and
    doubled once, the head's at most doubled per call."""
    passes = []
    product = oracle._truncated_product

    def counting(w, order, start=None):
        passes.append(order)
        return product(w, order, start)

    monkeypatch.setattr(oracle, "_truncated_product", counting)
    oracle._node_memo.cache_clear()
    try:
        for a in range(30):
            degree_tail(1, 2000, a)
            degree_head(1, 2000, a)
    finally:
        oracle._node_memo.cache_clear()
    assert len(passes) == 7, passes


def test_the_node_memo_is_guarded_bounded_and_read_only(monkeypatch):
    passes = []
    monkeypatch.setattr(oracle, "_truncated_product", lambda *args: passes.append(args))
    oracle._node_memo.cache_clear()
    with pytest.raises(ResourceGuardError, match="degree tails are guarded"):
        degree_tail(1, 10**9, 10**6)
    assert degree_tail(1, 10**9, 10**9) == 0 and degree_head(1, 10**9, -1) == 0
    assert passes == [] and oracle._node_memo.cache_info().currsize == 0
    monkeypatch.undo()
    # at most DEGREE_TAIL_MAX_WORK // span terms, where doubling would pass it
    monkeypatch.setattr(oracle, "DEGREE_TAIL_MAX_WORK", 10**6)
    oracle._node_memo.cache_clear()
    try:
        tails = [degree_tail(1, 10001, a) for a in (40, 70)]
        held = oracle._node_terms(10001, 1, float, 0)
        assert len(held) == 10**6 // 10000
        oracle._node_memo.cache_clear()
        assert tails[1] == degree_tail(1, 10001, 70)
        degree_head(3, 50, 4)
        for terms in (held, oracle._node_terms(50, 3, object, 0)):
            with pytest.raises(ValueError, match="read-only"):
                terms[0] = 0
    finally:
        oracle._node_memo.cache_clear()


def _binomial_acceptance(reps, p, alpha):
    """``[lo, hi]`` leaving at most ``alpha / 2`` of Binomial(reps, p) on each side."""
    pmf = [math.comb(reps, k) * p**k * (1 - p) ** (reps - k) for k in range(reps + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = reps, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_degree_tails_at_a_million_against_grown_trees():
    """Monte Carlo cross-check of the blocked tails and heads at n = 10^6.

    Each tree on n + 1 nodes, grown by ``grow``, gives one draw of
    node i's child count X over steps i+1..n.  The number of trees with
    X > threshold (tail) or X <= threshold (head) is then Binomial(reps, p)
    with p the oracle's value, and each check accepts the interval that
    leaves at most 1e-6 / 6 of that law outside, summed exactly: a correct
    oracle fails this test with probability at most 1e-6.
    """
    n, reps = 10**6, 120
    cases = [(1, 13.8, degree_tail), (14, 9.67, degree_head), (251, 6.9, degree_tail),
             (3981, 4.1, degree_head), (3981, 6.9, degree_tail), (10**5, 2.5, degree_head)]
    hits = [0] * len(cases)
    for r in range(reps):
        parent = grow("uniform", n + 1, derive_seed(2024, r)).parent
        for c, (i, threshold, law) in enumerate(cases):
            above = np.count_nonzero(parent == i) > threshold
            hits[c] += above == (law is degree_tail)
    for (i, threshold, law), k in zip(cases, hits):
        p = float(law(i, n, threshold))
        lo, hi = _binomial_acceptance(reps, p, 1e-6 / len(cases))
        assert lo <= k <= hi, (law.__name__, i, threshold, p, k, lo, hi)


def test_enumeration_moment_enumerates_once_per_n(monkeypatch):
    """One array pass over the sequences per n serves every exponent vector,
    and it grows no tree."""
    passes = []
    chunks = oracle._sequence_chunks

    def counting(n):
        passes.append(n)
        return chunks(n)

    def refuse(seq, *args):
        raise AssertionError("the law grew a tree")

    monkeypatch.setattr(oracle, "_sequence_chunks", counting)
    monkeypatch.setattr(oracle, "grow_from_sequence", refuse)
    oracle._first_level_count_law.cache_clear()
    try:
        values = [enumeration_moment(n, v)
                  for n in (6, 5) for v in ((1,), (0, 1), (2, 1), (0, 0, 3))]
    finally:
        oracle._first_level_count_law.cache_clear()
    assert passes == [6, 5]
    assert values[0] == values[4] == 1


@pytest.mark.parametrize("n", range(2, 10))
def test_first_level_count_law_equals_the_per_tree_law(n):
    """The array pass counts what one degree profile per grown tree counts,
    as exact integers; n = 9 spans five chunks."""
    oracle._first_level_count_law.cache_clear()
    law = oracle._first_level_count_law(n)
    per_tree = Counter(tuple(sorted(degree_counts_in_level(tree, 1).counts.items()))
                       for tree in enumerate_trees(n))
    assert dict(law) == per_tree
    assert len(law) == len(per_tree) and sum(times for _, times in law) == tree_count(n)


def test_enumeration_order_holds_across_chunks(monkeypatch):
    """Chunks of 7 rows cut the sequences mid-digit; the trees still come in
    lexicographic order, and the law is the one counted in one chunk."""
    whole = oracle._first_level_count_law(6)
    monkeypatch.setattr(oracle, "_ENUMERATION_CHUNK", 7)
    oracle._first_level_count_law.cache_clear()
    try:
        assert oracle._first_level_count_law(6) == whole
    finally:
        oracle._first_level_count_law.cache_clear()
    seqs = [tuple(tree.parent_sequence().tolist()) for tree in enumerate_trees(6)]
    assert seqs == list(itertools.product(*(range(i) for i in range(1, 6))))


def test_first_level_count_law_holds_its_memory_bound(monkeypatch):
    """The module docstring's bound, 3 MiB, at n = 10 (362,880 sequences);
    n = 11 runs through chunks of the same size."""
    oracle._first_level_count_law.cache_clear()
    tracemalloc.start()
    try:
        law = oracle._first_level_count_law(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        oracle._first_level_count_law.cache_clear()
    assert peak < 3 * 2**20, peak
    assert sum(times for _, times in law) == tree_count(10)
    sizes = []
    chunks = oracle._sequence_chunks

    def sized(n):
        for rows in chunks(n):
            sizes.append(rows.shape)
            yield rows

    monkeypatch.setattr(oracle, "_sequence_chunks", sized)
    try:
        law = oracle._first_level_count_law(11)
    finally:
        oracle._first_level_count_law.cache_clear()
    assert sum(times for _, times in law) == tree_count(11) == sum(rows for rows, _ in sizes)
    assert {shape for shape in sizes[:-1]} == {(oracle._ENUMERATION_CHUNK, 10)}


@pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
def test_exceedance_levels_share_one_tails_pass(monkeypatch, t):
    """Levels 1 and 2 at one threshold run one tails pass; each value equals,
    bit for bit, a call with the memo cleared and the reverse call order."""
    passes = []
    sums = oracle._degree_law_sums

    def counting(*args, **kwargs):
        passes.append(args[:3])
        return sums(*args, **kwargs)

    def fresh(k):
        oracle._exceedance_tails.cache_clear()
        return expected_exceedance_count(2000, k, t)

    monkeypatch.setattr(oracle, "_degree_law_sums", counting)
    try:
        alone = {k: fresh(k) for k in (1, 2)}
        oracle._exceedance_tails.cache_clear()
        passes.clear()
        shared = {k: expected_exceedance_count(2000, k, t) for k in (1, 2)}
        assert len(passes) == 1
        oracle._exceedance_tails.cache_clear()
        reverse = {k: expected_exceedance_count(2000, k, t) for k in (2, 1)}
        assert len(passes) == 2
    finally:
        oracle._exceedance_tails.cache_clear()
    assert shared == alone == reverse
