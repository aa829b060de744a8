"""False-failure rates of the benchmark's statistical checks.

Run from the repository root:

    python3 perfbench/false_failure.py [--datasets 100000] [--seed 1]

* ``poisson_first_level`` checks 22 rows (3 mean counts and the 19 joint
  factorial moments with d <= 3, K <= 3) against their exact values, each
  within c exact standard deviations of the mean, with c >= 5 chosen per
  row by ``workloads.limit_law_multiplier`` so that the row fails with
  probability at most 1e-8 under the Poisson(1) limit law (three
  independent Poisson(1) counts per replication).  This script prints the
  exact per-body rate (the sum over rows) and cross-checks it by drawing
  whole data sets from the limit law; it also reports how often a plain
  5-SE test with the sample SE would fail.  The finite-n law differs from
  the limit by O(log n / n), which moves the rates negligibly.
* ``exceedance_1e6`` and ``degree_laws_1e6`` have closed-form bounds
  (Bernstein and McDiarmid); they are printed, not simulated.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import (  # noqa: E402
    DEGREE_TOL, FIRST_LEVEL_ROWS, LEVEL_SD_LIMIT, SE_LIMIT, SIZES, limit_law_multiplier,
    second_moment_terms)

POISSON_REPS = SIZES["poisson_first_level"]["full"]["reps"]
EXCEEDANCE = SIZES["exceedance_1e6"]["full"]
DEGREE = SIZES["degree_laws_1e6"]["full"]


def poisson_null(datasets: int, seed: int, reps: int = POISSON_REPS, chunk: int = 500):
    """Data sets failing any check: as the benchmark checks, and with a 5-SE test."""
    rng = np.random.default_rng(seed)
    vectors = FIRST_LEVEL_ROWS
    multipliers = [limit_law_multiplier(vec, reps)[0] for vec in vectors]
    failed = failed_sample = 0
    done = 0
    while done < datasets:
        m = min(chunk, datasets - done)
        x = rng.poisson(1.0, size=(m, reps, 3))
        bad = np.zeros(m, dtype=bool)
        bad_sample = np.zeros(m, dtype=bool)
        for vec, c in zip(vectors, multipliers):
            prod = np.ones((m, reps))
            for d, kd in enumerate(vec):
                for step in range(kd):
                    prod *= x[:, :, d] - step
            miss = np.abs(prod.mean(axis=1) - 1.0)
            sd = math.sqrt((sum(w for w, _ in second_moment_terms(vec)) - 1.0) / reps)
            se = prod.std(axis=1, ddof=1) / math.sqrt(reps)
            bad |= miss > c * sd
            bad_sample |= miss > SE_LIMIT * se
        failed += int(bad.sum())
        failed_sample += int(bad_sample.sum())
        done += m
    return failed, failed_sample


def exceedance_bernstein(n: int, reps: int, c: float = LEVEL_SD_LIMIT, **_) -> float:
    """Bernstein bound on a c-SD miss of the mean level-1 size.

    Summed over the R trees, |L_1| is a sum of independent Bernoulli(1/j)
    with variance sigma^2 = R (H_{n-1} - H2_{n-1}); each term moves by at
    most 1, so P(|S - ES| >= c sigma) <= 2 exp(-(c^2 / 2) / (1 + c / (3 sigma))).
    """
    h1 = math.fsum(1.0 / j for j in range(1, n))
    h2 = math.fsum(1.0 / j / j for j in range(1, n))
    sigma = math.sqrt(reps * (h1 - h2))
    return 2.0 * math.exp(-(c * c / 2.0) / (1.0 + c / (3.0 * sigma)))


def degree_mcdiarmid(n: int, reps: int, tol: float) -> float:
    """McDiarmid bound on a ``tol`` miss of a uniform-model degree fraction.

    The estimate is a mean over R trees of N_d / n, a function of R (n - 1)
    independent parent choices; one choice moves it by at most 2 / (n R).
    The O(1/n) bias of E N_d / n against 2^-d is ignored, as it is below
    1e-5 at this n.
    """
    c = 2.0 / (n * reps)
    return 2.0 * math.exp(-2.0 * tol**2 / (reps * (n - 1) * c * c))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--datasets", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    exact = sum(limit_law_multiplier(vec, POISSON_REPS)[1] for vec in FIRST_LEVEL_ROWS)
    failed, failed_sample = poisson_null(args.datasets, args.seed)
    print(f"poisson_first_level: exact rate {exact:.1e} per body under the limit law "
          f"(22 rows, R={POISSON_REPS}); simulated: {failed}/{args.datasets} data sets "
          f"fail; a 5-SE test with the sample SE fails {failed_sample}/{args.datasets}")
    print(f"exceedance_1e6: Bernstein bound {exceedance_bernstein(**EXCEEDANCE):.1e} "
          f"per run of one body (n={EXCEEDANCE['n']}, R={EXCEEDANCE['reps']})")
    print(f"degree_laws_1e6 (uniform): McDiarmid bound "
          f"{degree_mcdiarmid(DEGREE['n'], DEGREE['reps'], DEGREE_TOL):.1e} per row")


if __name__ == "__main__":
    main()
