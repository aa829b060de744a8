"""The benchmark's workloads: sizes, inputs, bodies and checks in law.

A body is a dict of steps, each a call with no arguments that returns
JSON-able rows; the steps run in order and are timed one by one.  Steps call
urtlab only through module attributes (``experiments.run_experiment``,
``oracle.expected_level_size``, ...), so the tracer's wrappers see every
call.  The traced and untraced runs of one seed must return equal rows.
Checks hold in law, not by random stream: a sampler that is exact in law
passes them on any seed.

False-failure rates of the statistical checks (see ``false_failure.py``):

* ``poisson_first_level``: 22 rows with an exact column, each within c
  exact SD of the mean of R = 600 replications, c >= 5 set per row so that
  the row fails with probability <= 1e-8 under the Poisson(1) limit law:
  1.8e-7 per body in all.
* ``exceedance_1e6``: the k = 1 level size is a sum of independent
  Bernoulli(1/j), so its exact mean H_{n-1} and variance H_{n-1} - H2_{n-1}
  are known; Bernstein's inequality bounds a 6-SD miss by 2e-7 at R = 24.
  Rows with an ``exact_numerator`` column (none at n = 10^6 while the tail
  oracle is guarded to n <= 10^4) get a 5-SE test whose rate is not derived.
* ``degree_laws_1e6``: for uniform growth, McDiarmid's inequality (one
  parent choice moves a degree count by at most 2) bounds a 0.01 miss of one
  tree's degree fraction by 2 exp(-5e-5 n) = 4e-22 at n = 10^6.  No bound is
  derived for the preferential model; its observed misses are about 40x
  below the tolerance.
* ``exact_oracles``: deterministic, so no false failures; the float margins
  measured are 1e-14 against the 1e-12 tolerance.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from urtlab import bounds, cli, experiments, moments, oracle

SE_LIMIT = 5.0  # Monte Carlo estimates must lie within 5 standard errors
LEVEL_SD_LIMIT = 6.0  # mean level-1 size against H_{n-1}, in exact SD
ROW_FALSE_FAILURE = 1e-8  # per first-level moment row, under the limit law
MAX_MULTIPLIER = 40.0  # the sum law is tabulated up to this many SD
POISSON_SUPPORT = 30  # P(Poisson(1) >= 30) < 1e-32
FLOAT_TOL = 1e-12  # float engines against exact or closed-form values
BOUND_SLACK = 1e-12  # tail-bound domination, as in acceptance criterion 04
DEGREE_TOL = 0.01  # acceptance criterion 08

SIZES = {
    "poisson_first_level": {
        "full": {"n": 100_000, "reps": 600, "d_max": 3},
        "smoke": {"n": 10_000, "reps": 200, "d_max": 3},
    },
    "exceedance_1e6": {
        "full": {"n": 1_000_000, "reps": 24, "k": [1, 2], "t": 0.5},
        "smoke": {"n": 20_000, "reps": 16, "k": [1, 2], "t": 0.5},
    },
    "exact_oracles": {
        "full": {"enum_n": 7, "sweep_n": [50, 200, 1000, 2000], "exceed_n": 10_000,
                 "level_n": 100_000, "table_n": 2048},
        "smoke": {"enum_n": 5, "sweep_n": [50, 200], "exceed_n": 500,
                  "level_n": 1000, "table_n": 64},
    },
    "degree_laws_1e6": {
        "full": {"n": 1_000_000, "reps": 6, "d_max": 5},
        "smoke": {"n": 50_000, "reps": 4, "d_max": 5},
    },
}

# the 20 exponent vectors with d <= 3 and combined order K <= 3
SMALL_VECTORS = [v for v in itertools.product(range(4), repeat=3) if sum(v) <= 3]
# the rows of first_level_degrees at d_max = 3 that carry an exact column:
# the three mean counts, then every joint factorial moment with 1 <= K <= 3
FIRST_LEVEL_ROWS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [v for v in SMALL_VECTORS if sum(v)]


class Checks:
    """Counts correctness checks and keeps the labels of the failed ones.

    With ``wrong=True`` every reference is moved far outside its tolerance,
    so every check must fail; this proves the checks can fail at all.
    """

    def __init__(self, wrong: bool = False):
        self.wrong = wrong
        self.attempted = 0
        self.failed: list[str] = []

    def _record(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(label)
        return ok

    def within(self, label: str, value, reference, tol) -> bool:
        """``|value - reference| <= tol``; a missing value or tolerance fails."""
        if value is None or reference is None or tol is None:
            return self._record(False, label)
        if self.wrong:
            reference = reference + 2 * tol + 1
        return self._record(abs(value - reference) <= tol, label)

    def equal(self, label: str, value, reference) -> bool:
        if self.wrong:
            reference = reference + 1
        return self._record(value == reference, label)

    def at_most(self, label: str, value, limit) -> bool:
        """``value <= limit``; every caller passes a nonnegative ``value``."""
        if self.wrong:
            limit = limit - abs(limit) - 1
        return self._record(value <= limit, label)


def harmonic(n: int, order: int = 1) -> float:
    """``sum_{j=1}^{n} j^-order``, correctly rounded."""
    return math.fsum(1.0 / j**order for j in range(1, n + 1))


def check_mc_rows(rows, checks: Checks) -> None:
    """Every row with an exact column lies within 5 SE of it."""
    for row in rows:
        point = json.dumps(row.get("point"), sort_keys=True)
        if row.get("exact") is not None:
            se = row.get("se")
            checks.within(f"estimate {point}", row.get("estimate"), row["exact"],
                          None if se is None else SE_LIMIT * se)
        if row.get("exact_numerator") is not None:
            se = row.get("numerator_se")
            checks.within(f"numerator {point}", row.get("numerator_mean"),
                          row["exact_numerator"], None if se is None else SE_LIMIT * se)


# --------------------------------------------------------------------------
# poisson_first_level: theorem 3.1, first-level degree counts -> Poisson(1)

def second_moment_terms(k):
    """``E[prod_d (X_d)_{k_d}^2]`` as ``(weight, vector)`` terms of factorial moments.

    Uses ``(x)_a^2 = sum_i C(a, i)^2 i! (x)_{2a-i}`` in every coordinate.
    """
    per_coordinate = [[(math.comb(a, i) ** 2 * math.factorial(i), 2 * a - i)
                       for i in range(a + 1)] for a in k]
    for combo in itertools.product(*per_coordinate):
        yield math.prod(w for w, _ in combo), tuple(order for _, order in combo)


def _sum_law(one: np.ndarray, reps: int) -> np.ndarray:
    """Law of the sum of ``reps`` draws from the integer law ``one``.

    Laws live on ``[0, cap]`` with the last bin standing for ``>= cap``;
    convolutions go through the FFT and keep that convention.
    """
    cap = one.size - 1
    size = 1 << (2 * cap + 1).bit_length()

    def convolve(a, b):
        c = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
        c = np.clip(c[: 2 * cap + 1], 0.0, None)
        c[cap] += c[cap + 1 :].sum()
        return c[: cap + 1]

    total = np.zeros(cap + 1)
    total[0] = 1.0
    power = one
    while reps:
        if reps & 1:
            total = convolve(total, power)
        reps >>= 1
        if reps:
            power = convolve(power, power)
    return total


def limit_law_multiplier(k, reps: int, alpha: float = ROW_FALSE_FAILURE):
    """``(c, p)``: the smallest ``c >= 5`` on a 0.1 grid with ``p =
    P(|mean - 1| > c * sd) <= alpha``, where the mean is over ``reps``
    draws of ``prod_d (X_d)_{k_d}`` with independent Poisson(1) ``X_d`` (the
    limit law of the first-level counts) and ``sd`` its standard deviation.

    Third factorial moments are so skewed that a normal 5-SD test fails far
    more often than 5.7e-7; this computes the tail exactly instead.
    """
    sd = math.sqrt((sum(w for w, _ in second_moment_terms(k)) - 1.0) / reps)
    cap = int(reps * (1.0 + MAX_MULTIPLIER * sd)) + 2
    orders = [a for a in k if a]
    pmf = [math.exp(-1.0 - math.lgamma(x + 1)) for x in range(POISSON_SUPPORT)]
    one = np.zeros(cap + 1)
    for xs in itertools.product(range(POISSON_SUPPORT), repeat=len(orders)):
        value = math.prod(math.perm(x, a) for x, a in zip(xs, orders))
        one[min(value, cap)] += math.prod(pmf[x] for x in xs)
    law = _sum_law(one, reps)
    below = np.cumsum(law)
    c = SE_LIMIT
    while True:
        low = math.ceil(reps * (1.0 - c * sd)) - 1  # sums below the band
        high = math.floor(reps * (1.0 + c * sd))  # sums above it are > high
        p = (below[low] if low >= 0 else 0.0) + (1.0 - below[high])
        if p <= alpha or c >= MAX_MULTIPLIER:
            return c, p
        c = round(c + 0.1, 1)


def _moment_vector(point, d_max):
    """Exponent vector of a ``first_level_degrees`` row, padded to ``d_max``."""
    if point["kind"] == "mean_count":
        k = [0] * d_max
        k[point["d"] - 1] = 1
        return tuple(k)
    k = [int(x) for x in point["k_vector"].split("-")]
    return tuple(k + [0] * (d_max - len(k)))


def build_poisson_first_level(size, seed, workers):
    return experiments.ExperimentConfig(
        experiment="first_level_degrees", n_grid=(size["n"],), replications=size["reps"],
        seed=seed, d_max=size["d_max"], workers=workers)


def body_poisson_first_level(config):
    return {"report": lambda: experiments.run_experiment(config).rows}


def check_poisson_first_level(rows, size, checks):
    """Each row with an exact column lies within c exact SD of the mean.

    The sample SE of a third factorial moment is too skewed for a 5-SE test
    (a Poisson(1) null fails it about once in 250 rows), so the SD comes
    from the law instead: E[P^2] - E[P]^2 with E[P^2] from factorial moments
    of order up to 6, by the float recursion at the same n.  The multiplier
    c >= 5 holds the row's false-failure rate under the limit law to 1e-8.
    """
    rows = [row for row in rows["report"] if row.get("exact") is not None]
    vectors = {id(row): _moment_vector(row["point"], size["d_max"]) for row in rows}
    needed = {v for k in vectors.values() for _, v in second_moment_terms(k)}
    second = moments.factorial_moments_float(size["n"], sorted(needed))
    for row in rows:
        square = sum(w * second[moments.ExponentVector(v)]
                     for w, v in second_moment_terms(vectors[id(row)]))
        sd = math.sqrt(max(square - row["exact"] ** 2, 0.0) / size["reps"])
        c, _ = limit_law_multiplier(vectors[id(row)], size["reps"])
        checks.within(f"estimate {json.dumps(row['point'], sort_keys=True)}",
                      row["estimate"], row["exact"], c * sd)


# --------------------------------------------------------------------------
# exceedance_1e6: theorem 2.1 through the CLI, level-k exceedance -> (1-t)^k

def build_exceedance_1e6(size, seed, workers):
    out = Path(os.environ["PERFBENCH_TMP"]) / f"exceedance-{os.getpid()}.json"
    return [
        "experiment", "level_exceedance", "--n", str(size["n"]),
        "--k", ",".join(str(k) for k in size["k"]), "--t", str(size["t"]),
        "--reps", str(size["reps"]), "--seed", str(seed), "--workers", str(workers),
        "--out", str(out),
    ]


def _cli_experiment(argv):
    code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"urtlab experiment exited with code {code}")
    out = Path(argv[argv.index("--out") + 1])
    rows = json.loads(out.read_text())["rows"]
    out.unlink()
    return rows


def body_exceedance_1e6(argv):
    return {"report": lambda: _cli_experiment(argv)}


def check_exceedance_1e6(rows, size, checks):
    rows = rows["report"]
    check_mc_rows(rows, checks)
    n, reps = size["n"], size["reps"]
    h1, h2 = harmonic(n - 1), harmonic(n - 1, 2)
    for row in rows:
        point = json.dumps(row["point"], sort_keys=True)
        checks.equal(f"replications used {point}", row["replications_used"], reps)
        if row["point"]["k"] == 1:
            # |L_1| is a sum of independent Bernoulli(1/j), j = 1..n-1
            checks.within(f"level-1 size {point}", row["level_size_mean"], h1,
                          LEVEL_SD_LIMIT * math.sqrt((h1 - h2) / reps))


# --------------------------------------------------------------------------
# exact_oracles: enumeration, tail DPs and bounds, level profile, moment table

def build_exact_oracles(size, seed, workers):
    targets = [moments.ExponentVector(v) for v in FIRST_LEVEL_ROWS]
    return dict(size, vectors=SMALL_VECTORS, targets=targets)


def _bounds_against_tails(n):
    """Acceptance criterion 04 at one n: closed-form tail bounds against exact tails.

    Returns (tail or complementary tail, bound) pairs; each must satisfy
    ``value <= bound + 1e-12``.
    """
    pairs = []
    eps = 0.1
    log_n = math.log(n)
    for t in (0.3, 0.5, 0.7):
        tails = oracle.child_count_tails(n + 1, t * log_n)
        high = bounds.tail_bound_high_index(n, t, eps)
        low = bounds.tail_bound_low_index(n, t, eps)
        cut_high = n ** (1 - t + eps)
        cut_low = n ** (1 - t - eps) - 1
        for i in range(1, n + 1):
            if i > cut_high:
                pairs.append((float(tails[i - 1]), high))
            if i <= cut_low:
                pairs.append((1.0 - float(tails[i - 1]), low))
    for i in sorted({1, 2, n // 10 or 1, n // 3, n - 1}):
        s = bounds.expected_children(i, n)
        for a in range(int(s) + 1, int(s + 6 * math.sqrt(s) + 3)):
            if a > s:
                pairs.append((float(oracle.degree_tail(i, n, a - 1)),
                              bounds.upper_tail_bound(a, s)))
        for a in range(0, math.ceil(s)):
            if a < s:
                pairs.append((1.0 - float(oracle.degree_tail(i, n, a)),
                              bounds.lower_tail_bound(a, s)))
    return pairs


def _moments_by_enumeration(p):
    n = p["enum_n"]
    return {
        "enumerated": [str(oracle.enumeration_moment(n, v)) for v in p["vectors"]],
        "recursed": [str(moments.exact_factorial_moment(n, v)) for v in p["vectors"]],
    }


def _tail_weld():
    """The sweep's tails against the standalone convolution, as criterion 04 does."""
    return float(oracle.child_count_tails(2001, 3.0)[4]), float(oracle.degree_tail(5, 2000, 3.0))


def _moment_table(p):
    n = p["table_n"]
    table = moments.MomentTable.for_targets(p["targets"], [n])
    floats = moments.factorial_moments_float(n, p["targets"])
    return {str(v): (str(table.value(n, v)), floats[v]) for v in p["targets"]}


EXCEEDANCE_POINTS = [(k, t) for k in (1, 2) for t in (0.3, 0.5, 0.7)]


def body_exact_oracles(p):
    # short steps, so that each is timed between two nearby calibrations
    steps = {"moments": lambda: _moments_by_enumeration(p)}
    for n in p["sweep_n"]:
        steps[f"bounds n={n}"] = lambda n=n: _bounds_against_tails(n)
    steps["tail weld"] = _tail_weld
    for k, t in EXCEEDANCE_POINTS:
        steps[f"exceedance k={k} t={t}"] = (
            lambda k=k, t=t: oracle.expected_exceedance_count(p["exceed_n"], k, t))
    steps["level2"] = lambda: oracle.expected_level_size(p["level_n"], 2, exact=False)
    steps["table"] = lambda: _moment_table(p)
    return steps


def check_exact_oracles(rows, size, checks):
    found = rows["moments"]
    for v, a, b in zip(SMALL_VECTORS, found["enumerated"], found["recursed"]):
        checks.equal(f"moment {v} at n={size['enum_n']}", Fraction(b), Fraction(a))
    pairs = [pair for n in size["sweep_n"] for pair in rows[f"bounds n={n}"]]
    counters = {"bounds.checks": len(pairs), "bounds.violations": 0}
    for value, bound in pairs:
        if not checks.at_most("tail bound", value, bound + BOUND_SLACK):
            counters["bounds.violations"] += 1
    checks.within("child_count_tails against degree_tail", *rows["tail weld"], 1e-13)
    errors = []
    for key, (exact, value) in rows["table"].items():
        exact = float(Fraction(exact))
        errors.append(abs(value - exact) / abs(exact))
        checks.within(f"float moment {key}", value, exact, FLOAT_TOL * abs(exact))
    # E|L_n(2)| = e_2(1, 1/2, .., 1/(n-1)) = (H^2 - H2) / 2
    h1, h2 = harmonic(size["level_n"] - 1), harmonic(size["level_n"] - 1, 2)
    level2 = (h1 * h1 - h2) / 2
    errors.append(abs(rows["level2"] - level2) / level2)
    checks.within("expected_level_size(n, 2)", rows["level2"], level2, FLOAT_TOL * level2)
    h1, h2 = harmonic(size["exceed_n"] - 1), harmonic(size["exceed_n"] - 1, 2)
    level_sizes = {1: h1, 2: (h1 * h1 - h2) / 2}
    for k in (1, 2):
        values = [rows[f"exceedance k={k} t={t}"] for t in (0.3, 0.5, 0.7)]
        checks.at_most(f"exceedance count k={k} is nonnegative", 0.0, values[-1])
        checks.at_most(f"exceedance count k={k} within level size", values[0], level_sizes[k])
        for t, hi, lo in zip((0.5, 0.7), values, values[1:]):
            checks.at_most(f"exceedance count k={k} decreases at t={t}", lo, hi)
    counters["oracle.float_max_rel_err"] = max(errors)
    return counters


# --------------------------------------------------------------------------
# degree_laws_1e6: whole-tree degree fractions, both growth models

def build_degree_laws_1e6(size, seed, workers):
    return [
        experiments.ExperimentConfig(
            experiment="degree_distribution", n_grid=(size["n"],), replications=size["reps"],
            seed=seed, model=model, d_max=size["d_max"], workers=workers)
        for model in ("uniform", "preferential")
    ]


def body_degree_laws_1e6(configs):
    return {config.model: lambda config=config: experiments.run_experiment(config).rows
            for config in configs}


def check_degree_laws_1e6(rows, size, checks):
    rows = [row for model_rows in rows.values() for row in model_rows]
    check_mc_rows(rows, checks)
    for row in rows:
        point = json.dumps(row["point"], sort_keys=True)
        checks.within(f"degree fraction {point}", row["estimate"], row["limit"], DEGREE_TOL)


WORKLOADS = {
    name: (globals()[f"build_{name}"], globals()[f"body_{name}"], globals()[f"check_{name}"])
    for name in SIZES
}
