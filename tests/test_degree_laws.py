"""Exact finite-n degree means of both growth models, from their master equations.

Let N_d(m) be the expected number of degree-d nodes in an m-node tree (the
parent edge counts toward a node's degree; the root's degree is its child
count).  Node m, the (m+1)-th, attaches as follows.

* Uniform: to each of the m nodes with chance 1/m.  A non-root node of
  degree d therefore moves to d + 1 with chance 1/m.  The root's degree is
  its child count, which follows C_{n-1} = sum_{j<n} Bernoulli(1/j), the
  cycle count of a uniform permutation of n - 1.
* Preferential: to node v with chance deg(v) / (2(m - 1)), every node alike,
  from the single edge {0, 1} on.

Both recursions are solved in ``Fraction``s.  They are held equal to the
means over every tree at small n, and the growth code is held to them in
law at n = 2000 by one Monte Carlo gate.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from urtlab import (ExperimentConfig, degree_histogram, enumerate_trees, grow_from_sequence,
                    run_experiment)


def uniform_degree_means(n, d_max):
    """E[# degree-d nodes] of an n-node uniform tree, d = 1..d_max."""
    nonroot = [Fraction(0)] * (d_max + 1)  # index d; degree 0 never occurs off the root
    for m in range(1, n):  # node m joins an m-node tree
        moved = [x / m for x in nonroot]
        nonroot = [nonroot[d] - moved[d] + (moved[d - 1] if d > 1 else 0) for d in range(d_max + 1)]
        nonroot[1] += 1
    # law of C_{n-1}, truncated at d_max: coefficients of prod_j (1 - 1/j + x/j)
    root = [Fraction(1)] + [Fraction(0)] * d_max
    for j in range(1, n):
        root = [root[c] * (1 - Fraction(1, j)) + (root[c - 1] / j if c else 0)
                for c in range(d_max + 1)]
    return [nonroot[d] + root[d] for d in range(1, d_max + 1)]


def preferential_degree_means(n, d_max):
    """E[# degree-d nodes] of an n-node preferential tree, d = 1..d_max, n >= 2."""
    count = [Fraction(0)] * (d_max + 1)
    count[1] = Fraction(2)  # the edge {0, 1}
    for m in range(2, n):  # node m joins an m-node tree with 2(m - 1) endpoints
        hit = [d * count[d] / (2 * (m - 1)) for d in range(d_max + 1)]
        count = [count[d] - hit[d] + (hit[d - 1] if d > 1 else 0) for d in range(d_max + 1)]
        count[1] += 1
    return count[1:]


def _mean_histogram(trees, d_max):
    total, sums = 0, [0] * d_max
    for tree in trees:
        hist = degree_histogram(tree)
        total += 1
        for d in range(1, d_max + 1):
            sums[d - 1] += hist.get(d, 0)
    return [Fraction(s, total) for s in sums]


def _preferential_trees(n):
    """Every pick sequence of endpoint-list growth, each with chance
    1 / (2^(n-2) (n-2)!): node i picks entry d of the list of 2(i - 1)."""
    for picks in itertools.product(*(range(2 * (i - 1)) for i in range(2, n))):
        endpoints, parents = [0, 1], [0]
        for i, d in enumerate(picks, start=2):
            parents.append(endpoints[d])
            endpoints += [endpoints[d], i]
        yield grow_from_sequence(parents)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_uniform_master_equation_equals_enumeration(n):
    assert uniform_degree_means(n, n - 1) == _mean_histogram(enumerate_trees(n), n - 1)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_preferential_master_equation_equals_enumeration(n):
    trees = list(_preferential_trees(n))
    assert len(trees) == 2 ** (n - 2) * math.factorial(n - 2)  # 3,840 at n = 7
    assert preferential_degree_means(n, n - 1) == _mean_histogram(trees, n - 1)


def test_master_equations_count_every_node():
    for n in (2, 3, 9, 40):
        assert sum(uniform_degree_means(n, n - 1)) == n
        assert sum(preferential_degree_means(n, n - 1)) == n


N, R, D_MAX, C_SE = 2000, 1000, 5, 4.0
ROWS = 2 * D_MAX


@pytest.mark.parametrize("model, means", [("uniform", uniform_degree_means),
                                          ("preferential", preferential_degree_means)])
def test_degree_fractions_match_the_exact_means(model, means):
    """The mean degree-d fraction over R trees is within C_SE of its SE of the exact mean.

    Each row's estimate is a mean of R independent fractions in [0, 1], so
    (estimate - exact) / SE is close to a standard normal at R = 1000 (the
    central limit theorem, with the sample SD in place of the true one).
    Under that approximation one row fails with chance 2(1 - Phi(4)) =
    6.3e-5.  The rows of a tree are correlated, so a union bound over the
    10 rows of both models gives a false-failure rate of at most 6.3e-4.
    """
    assert ROWS * 2 * norm.sf(C_SE) < 6.4e-4
    exact = [float(m) / N for m in means(N, D_MAX)]
    report = run_experiment(ExperimentConfig(
        experiment="degree_distribution", model=model, n_grid=(N,), replications=R,
        seed=20261019, d_max=D_MAX, workers=1))
    z = [(row["estimate"] - e) / row["se"] for row, e in zip(report.rows, exact)]
    assert len(z) == D_MAX and np.all(np.abs(z) < C_SE), z
