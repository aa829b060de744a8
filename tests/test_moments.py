import hashlib
import io
import itertools
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urtlab import (
    ExponentVector,
    MomentTable,
    ResourceGuardError,
    check_falling_factorial_identities,
    dependency_closure,
    enumeration_moment,
    exact_factorial_moment,
    factorial_moments_float,
    falling_factorial,
    majorizes,
)
from urtlab import moments


def test_falling_factorial_values():
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 5) == 0  # a factor hits zero
    assert falling_factorial(-2, 3) == -24
    with pytest.raises(ValueError):
        falling_factorial(4, -1)


def test_identity_hand_examples():
    # (4)_2 - (3)_2 = 12 - 6 = 2 * (3)_1
    assert check_falling_factorial_identities(3, 0, 2, 0, 3).shift_difference
    # (2)_2 + (3)_2 = 8 = (4)_3 / 3
    assert check_falling_factorial_identities(0, 0, 2, 0, 3).partial_sum
    # a=4, b=2, k=1, l=2: both sides equal 40
    assert check_falling_factorial_identities(4, 2, 1, 2, 4).product_shift


def test_identity_preconditions():
    with pytest.raises(ValueError):
        check_falling_factorial_identities(3, 0, 0, 0, 3)  # k < 1
    with pytest.raises(ValueError):
        check_falling_factorial_identities(3, 0, 4, 0, 2)  # n < k
    with pytest.raises(ValueError):
        check_falling_factorial_identities(3, 0, 2, -1, 3)  # l < 0


def test_identities_on_randomized_tuples():
    rng = np.random.default_rng(6021023)
    for _ in range(1000):
        a = int(rng.integers(-50, 51))
        b = int(rng.integers(-50, 51))
        k = int(rng.integers(1, 7))
        l = int(rng.integers(0, 7))
        n = int(rng.integers(k, 41))
        assert check_falling_factorial_identities(a, b, k, l, n).all_pass()


def test_majorization_examples():
    # suffix sums of (1,0) are (0,1); of (0,1) are (1,1)
    assert majorizes((0, 1), (1, 0))
    assert not majorizes((1, 0), (0, 1))
    assert majorizes((2, 1), (2, 1))  # reflexive
    assert not majorizes((1, 0), (0, 2))
    with pytest.raises(ValueError):
        majorizes((1, 0), (1,))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_moves_are_majorized_by_source(k):
    vec = ExponentVector(tuple(k))
    for _, moved in vec.moves():
        d = max(vec.d, moved.d)
        assert majorizes(vec.padded(d), moved.padded(d))
        assert not majorizes(moved.padded(d), vec.padded(d)) or moved == vec


def test_exponent_vector_canonicalization():
    assert ExponentVector((1, 0)) == ExponentVector((1,))
    assert ExponentVector((0, 0, 0)) == ExponentVector((0,))
    assert ExponentVector((0, 1)).k == (0, 1)
    assert ExponentVector((2, 0, 1)).total == 3
    with pytest.raises(ValueError):
        ExponentVector((-1,))
    with pytest.raises(ValueError):
        ExponentVector(())


def test_dependency_closure_examples():
    assert dependency_closure((1,)) == {ExponentVector((1,)), ExponentVector((0,))}
    assert dependency_closure((0, 1)) == {
        ExponentVector((0, 1)),
        ExponentVector((1,)),
        ExponentVector((0,)),
    }
    assert dependency_closure((0, 0, 0)) == {ExponentVector((0,))}


def test_exact_moment_base_cases():
    assert exact_factorial_moment(2, (2,)) == 0
    assert exact_factorial_moment(3, (0, 1)) == Fraction(1, 2)
    for n in range(2, 51):
        assert exact_factorial_moment(n, (1,)) == 1
    with pytest.raises(ValueError):
        exact_factorial_moment(1, (1,))


def test_exact_moment_matches_enumeration_small():
    vectors = [(1,), (2,), (0, 1), (1, 1), (0, 0, 1), (2, 1), (1, 0, 1), (3,)]
    for n in (2, 3, 4, 5, 6):
        for k in vectors:
            assert exact_factorial_moment(n, k) == enumeration_moment(n, k), (n, k)


def test_convergence_toward_one():
    # E(n,(2,)) is exactly 1 from n=3 on; the others approach 1 strictly
    for k in [(2,), (1, 1), (0, 0, 1)]:
        e64 = abs(exact_factorial_moment(64, k) - 1)
        e4096 = abs(exact_factorial_moment(4096, k) - 1)
        if e64 == 0:
            assert e4096 == 0
        else:
            assert e4096 < e64


def test_table_rows_and_csv():
    table = MomentTable((0, 1), [2, 3, 4])
    rows = list(table.rows())
    assert (3, ExponentVector((0, 1)), Fraction(1, 2)) in rows
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "n,k,numerator,denominator"
    assert "3,0-1,1,2" in lines


def _sequential_moments(n, targets):
    """Reference: one dense step ``row += (B @ row) / m`` per n over the closure."""
    wanted = [ExponentVector.of(t) for t in targets]
    plan = moments._plan(wanted)
    step = np.zeros((len(plan), len(plan)))
    for pos, (_, total, moves) in enumerate(plan):
        step[pos, pos] -= total
        for weight, moved in moves:
            step[pos, moved] += weight
    row = np.array([float(moments._base_value(v)) for v, _, _ in plan])
    moved = np.empty_like(row)
    for m in range(2, n):
        np.dot(step, row, out=moved)
        moved /= m
        row += moved
    index = {v: pos for pos, (v, _, _) in enumerate(plan)}
    return {t: float(row[index[t]]) for t in wanted}


def assert_relatively_close(values, reference, tol):
    """Every value within ``tol`` relative of its reference; a zero must be exact."""
    assert values.keys() == reference.keys()
    for v, ref in reference.items():
        assert math.isclose(values[v], ref, rel_tol=tol, abs_tol=0.0), (v, values[v], ref)


# the closure of every first-level row at d_max = 3: d <= 3, total <= 3
FIRST_LEVEL_CLOSURE = sorted(dependency_closure((0, 0, 3)), key=lambda v: (v.d, v.k))
ORDER_6_CLOSURE = sorted(dependency_closure((0, 0, 6)), key=lambda v: (v.d, v.k))
PILOT_CLOSURE = sorted(dependency_closure((0, 0, 14)), key=lambda v: (v.d, v.k))


@pytest.mark.parametrize("vectors, size, n", [(FIRST_LEVEL_CLOSURE, 20, 100_000),
                                              (PILOT_CLOSURE, 680, 5000)],
                         ids=["first-level-1e5", "pilot-5000"])
def test_float_sweep_matches_the_sequential_steps(vectors, size, n):
    assert len(vectors) == size
    assert_relatively_close(factorial_moments_float(n, vectors), _sequential_moments(n, vectors),
                            1e-12)


def test_float_recursion_tracks_exact():
    for vectors, ns in ((FIRST_LEVEL_CLOSURE, (50, 600, 4096)), (ORDER_6_CLOSURE, (2000,))):
        table = MomentTable.for_targets(vectors, ns)
        for n in ns:
            exact = {v: float(table.value(n, v)) for v in vectors}
            assert_relatively_close(factorial_moments_float(n, vectors), exact, 1e-13)


@pytest.mark.parametrize("k", [1, 14, 100, 500])
def test_float_sweep_counts_fixed_points_over_its_whole_range(k):
    """d = 1 counts fixed points of a uniform permutation of n - 1, whose
    factorial moments are 1 up to order n - 1 and 0 past it; at k = 500 the
    running product of one 2048-step block would leave the double range."""
    target = ExponentVector((k,))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for n in (k, k + 1, 2000):
            if n >= 2:
                expected = 1.0 if k <= n - 1 else 0.0
                assert abs(factorial_moments_float(n, [target])[target] - expected) <= 1e-12


def test_moment_value_of_one_is_exact_not_approximate():
    value = exact_factorial_moment(1000, (1,))
    assert value == Fraction(1, 1)
    assert isinstance(value, Fraction)


def test_moment_table_equals_a_plain_rational_recursion():
    """Every closure vector of the first-level targets, every n <= 200."""
    targets = [ExponentVector(k) for k in itertools.product(range(4), repeat=3) if 1 <= sum(k) <= 3]
    table = MomentTable.for_targets(targets, range(2, 201))
    vectors = table.vectors
    row = {v: Fraction(int(v.k[0] <= 1 and not any(v.k[1:]))) for v in vectors}
    for n in range(2, 201):
        for v in vectors:
            assert table.value(n, v) == row[v], (n, v)
        row = {
            v: Fraction(n - v.total, n) * row[v]
            + sum(Fraction(w, n) * row[moved] for w, moved in v.moves())
            for v in vectors
        }


# sha256 of json.dumps of the float-recursion values at n = 5000 over every
# vector of d <= 3 and total <= 14 (the closure of the golden pilot's TV
# bound), in sweep order; numpy 2.4.6 on x86-64
PILOT_CLOSURE_FLOATS_N5000 = "2aed639b1a983ab1a984e3eb2e30c08926c802b2b5234954217bb2ea302989cf"


def test_float_recursion_is_pinned_bit_for_bit_on_the_pilot_closure():
    vectors = PILOT_CLOSURE
    assert len(vectors) == 680
    values = factorial_moments_float(5000, vectors)
    digest = hashlib.sha256(json.dumps([values[v] for v in vectors]).encode()).hexdigest()
    assert digest == PILOT_CLOSURE_FLOATS_N5000


def chain(length):
    """(0, .., 0, 1) whose closure is the chain of ``length`` vectors down to (0,)."""
    return (0,) * (length - 2) + (1,)


def test_exact_sweeps_are_guarded_by_closure_size_times_n_squared(monkeypatch):
    """Any closure of 25 vectors is served up to n = 10^4, a larger one is
    refused before its sweep starts."""
    sweeps = []
    monkeypatch.setattr(moments, "_sweep", lambda plan, n_max, kept: sweeps.append(len(plan)))
    assert len(dependency_closure(chain(25))) == 25
    MomentTable(chain(25), [10_000])
    MomentTable.for_targets([(1, 1, 1), (2, 0, 1)], [10_000])
    assert sweeps[0] == 25 and sweeps[1] <= 25
    for target, n in ((chain(26), 10_000), ((0, 0, 0, 0, 6), 2400)):
        with pytest.raises(ResourceGuardError, match="closure size x n"):
            MomentTable(target, [n])
    assert len(sweeps) == 2


def test_closures_are_refused_while_they_are_built():
    """The closure of (0,..,0,14) at d = 15 would hold about 10^8 vectors."""
    assert len(dependency_closure((0, 0, 0, 0, 0, 6))) == 924 <= moments.MOMENT_CLOSURE_MAX
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for call in (lambda: dependency_closure((0,) * 14 + (14,)),
                     lambda: factorial_moments_float(100, [(0,) * 14 + (14,)]),
                     lambda: exact_factorial_moment(100, (0,) * 10 + (10,))):
            with pytest.raises(ResourceGuardError, match="guarded to 1024 vectors"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**21
