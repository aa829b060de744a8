import math
import time

import numpy as np
import pytest

from urtlab import bounds
from urtlab import (
    ResourceGuardError,
    chernoff_upper_raw,
    degree_head,
    degree_tail,
    expected_children,
    lower_tail_bound,
    tail_bound_high_index,
    tail_bound_low_index,
    upper_tail_bound,
)


def test_expected_children_values():
    assert expected_children(10, 10) == 0.0
    assert expected_children(1, 10) == pytest.approx(1.9289682539682538)
    with pytest.raises(ValueError):
        expected_children(11, 10)
    with pytest.raises(ValueError):
        expected_children(0, 10)


def test_expected_children_equals_the_left_to_right_sum_across_blocks(monkeypatch):
    """Blocked cumsums carry the partial sum, so every span, within one block
    or across many, gives the bits of adding 1/n, 1/(n-1), .. in order."""
    def plain(i, n):
        total = 0.0
        for j in range(n, i, -1):
            total += 1.0 / j
        return total

    cases = [(i, n) for n in (1, 2, 65_535, 65_536, 65_537, 200_003)
             for i in sorted({1, 2, n // 3 or 1, n - 65_536, n - 1, n}) if 1 <= i <= n]
    for i, n in cases:
        assert expected_children(i, n) == plain(i, n), (i, n)
    monkeypatch.setattr(bounds, "_SUM_BLOCK", 7)
    for i, n in [(1, 1), (1, 8), (1, 9), (3, 1000), (1, 5003), (2500, 5003)]:
        assert expected_children(i, n) == plain(i, n), (i, n)


def test_expected_children_span_guard():
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="guarded to n - i <= 1e"):
        expected_children(1, 10**12)
    assert time.perf_counter() - start < 0.1
    assert expected_children(10**12 - 5, 10**12) == pytest.approx(5e-12)


def test_expected_children_log_bracket():
    for i, n in [(1, 10), (3, 50), (17, 1000), (999, 1000)]:
        s = expected_children(i, n)
        assert math.log(n / (i + 1)) <= s <= math.log(n / i)


def test_upper_tail_bound_values_and_domain():
    assert upper_tail_bound(3, 1.5) == pytest.approx(math.exp(-0.375))
    assert upper_tail_bound(1.0 + 1e-12, 1.0) == pytest.approx(1.0)
    for a, s in [(1.0, 1.0), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0)]:
        with pytest.raises(ValueError):
            upper_tail_bound(a, s)


def test_lower_tail_bound_values_and_domain():
    assert lower_tail_bound(0, 2) == pytest.approx(math.exp(-1.0))
    assert lower_tail_bound(2.0 - 1e-12, 2.0) == pytest.approx(1.0)
    for a, s in [(2.0, 2.0), (3.0, 2.0), (-0.1, 2.0)]:
        with pytest.raises(ValueError):
            lower_tail_bound(a, s)


def test_bound_monotonicity():
    s = 2.0
    uppers = [upper_tail_bound(a, s) for a in np.linspace(2.1, 9.0, 30)]
    assert all(x > y for x, y in zip(uppers, uppers[1:]))
    lowers = [lower_tail_bound(a, s) for a in np.linspace(0.0, 1.9, 30)]
    assert all(x < y for x, y in zip(lowers, lowers[1:]))


def test_pair_bounds_hand_values():
    high, low = tail_bound_high_index(10**6, 0.5, 0.1), tail_bound_low_index(10**6, 0.5, 0.1)
    assert high == pytest.approx(math.exp(-0.01 * math.log(10**6)), rel=1e-12)
    assert high == pytest.approx(0.8710, abs=5e-5)
    assert low == pytest.approx(math.exp(-(0.01 / 1.2) * math.log(10**6)), rel=1e-12)
    assert low == pytest.approx(0.8913, abs=5e-5)


def test_pair_bounds_approach_one_for_tiny_eps():
    high, low = tail_bound_high_index(10**6, 0.5, 1e-9), tail_bound_low_index(10**6, 0.5, 1e-9)
    assert high == pytest.approx(1.0, abs=1e-9)
    assert low == pytest.approx(1.0, abs=1e-9)


def test_bounds_past_the_double_range():
    # a square or a ratio past the double range takes a rearranged exponent
    assert upper_tail_bound(1e200, 2.0) == 0.0
    assert chernoff_upper_raw(1e200, 2.0) == 0.0
    assert lower_tail_bound(0.0, 1e300) == 0.0
    a = 1e-4  # a/s = 1e306 and (a/s) ln(a/s) overflow; the exponent is a(1 - ln(a/s)) - s
    assert chernoff_upper_raw(a, 1e-310) == pytest.approx(math.exp(a * (1 - 306 * math.log(10))),
                                                          rel=1e-12)
    for bound, args in [(upper_tail_bound, (math.inf, 1.0)), (chernoff_upper_raw, (math.inf, 1.0)),
                        (lower_tail_bound, (0.0, math.inf)), (tail_bound_high_index, (0, 0.5, 0.1)),
                        (tail_bound_low_index, (0, 0.5, 0.1))]:
        with pytest.raises(ValueError):
            bound(*args)


def test_pair_bounds_domain():
    with pytest.raises(ValueError):
        tail_bound_high_index(100, 0.5, 0.6)  # eps >= t
    with pytest.raises(ValueError):
        tail_bound_low_index(100, 0.5, 0.5)  # eps >= 1 - t
    with pytest.raises(ValueError):
        tail_bound_high_index(100, 1.2, 0.1)
    with pytest.raises(ValueError):
        tail_bound_low_index(100, 0.0, 0.1)


def test_upper_bound_dominates_exact_tail_hand_case():
    # i=1, n=3: s = 5/6; P(X >= 2) = 1/6
    s = expected_children(1, 3)
    bound = upper_tail_bound(2, s)
    assert bound == pytest.approx(math.exp(-((2 - 5 / 6) ** 2) / 4), rel=1e-12)
    exact = float(degree_tail(1, 3, 1))  # P(X > 1) = P(X >= 2)
    assert bound >= exact
    assert bound == pytest.approx(0.7116, abs=5e-5)


def test_lower_bound_dominates_exact_tail_hand_case():
    # i=9, n=100: s = H_100 - H_9 = 2.358409..; P(X <= 1)
    s = expected_children(9, 100)
    assert s == pytest.approx(sum(1.0 / j for j in range(10, 101)), rel=1e-14)
    assert s == pytest.approx(2.3584, abs=5e-5)
    bound = lower_tail_bound(1, s)
    assert bound == pytest.approx(math.exp(-((s - 1) ** 2) / (2 * s)), rel=1e-12)
    exact_at_most_1 = 1.0 - float(degree_tail(9, 100, 1))
    assert bound >= exact_at_most_1


def test_quadratic_bounds_dominate_exact_tails_on_grid():
    """Zero violations across integer thresholds on both sides."""
    for n in (20, 100, 500, 2000):
        for i in sorted({1, 2, n // 20 or 1, n // 5 or 1, n // 2, n - 1}):
            s = expected_children(i, n)
            top = int(s + 6 * math.sqrt(s) + 3)
            for a in range(int(s) + 1, top):
                if a <= s:
                    continue
                exact = float(degree_tail(i, n, a - 1))  # P(X >= a)
                assert upper_tail_bound(a, s) >= exact - 1e-12, (n, i, a)
                raw = chernoff_upper_raw(a, s)
                assert raw >= exact - 1e-12, (n, i, a)
                assert raw <= upper_tail_bound(a, s) + 1e-12, (n, i, a)
            for a in range(0, int(math.ceil(s)) if s > 0 else 0):
                if a >= s:
                    continue
                exact = float(degree_head(i, n, a))  # P(X <= a)
                assert lower_tail_bound(a, s) >= exact - 1e-12, (n, i, a)


def test_raw_chernoff_value():
    # beta = 2: (e / 4)^s
    assert chernoff_upper_raw(3.0, 1.5) == pytest.approx((math.e / 4.0) ** 1.5, rel=1e-12)
    with pytest.raises(ValueError):
        chernoff_upper_raw(1.0, 1.5)

