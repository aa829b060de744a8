"""Freeze the golden thresholds of acceptance criteria 07 and 08.

Criterion 07 draws R = 100,000 first-level degree tables (X_1, .., X_dmax)
at n = 10^5 and holds them to Poisson(1) statistics; the limit theorem
behind it comes without a convergence rate.  This script makes no
Monte Carlo run of the tree engine: each threshold below is computed from
the exact engines and from the threshold's own null distribution, and its
false-failure rate is recorded with it.

* TV distance of X_d to Poisson(1): delta_d + q.  delta_d bounds the TV
  between the exact n-node law of X_d and Poisson(1), from factorial
  moments of order 14 by the float recursion (Bonferroni truncation
  charged in full).  q is the 1 - alpha quantile of the TV of R
  multinomial draws from Poisson(1), over S = 4,000,000 simulated draws
  under PILOT_SEED; those draws are the only random numbers used.  By the
  triangle inequality a correct sampler exceeds delta_d + q only when its
  empirical law is more than q from the exact law, with probability about
  alpha = 1e-4 (q is taken under Poisson(1), within delta_d of that law),
  so the d_max TV checks fail falsely with probability d_max * alpha.
* Pairwise correlation of X_a and X_b: 1.5 * max(|rho_ab|, 4 / sqrt(R)),
  with rho_ab the exact correlation at n from the factorial moments of
  e_a, 2 e_a and e_a + e_b.  The sample correlation is close to
  N(rho_ab, 1/R), so each pair fails falsely with probability
  erfc((thr - rho) sqrt(R/2))/2 + erfc((thr + rho) sqrt(R/2))/2; at the
  floor (thr = 6/sqrt(R)) that is below 2e-9.
* Mean of X_1 at 4 standard errors: the two-sided normal rate
  erfc(4/sqrt(2)).
* Criterion 08's degree-fraction tolerance: the fixed 0.01 target at
  n = 10^6, 3 replications.

Regenerate with:  python scripts/calibrate_golden.py [--out PATH]
(a few seconds).  The committed tests/golden.json is its unedited output;
``quick`` stays false for the acceptance suite's check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from urtlab.experiments import _poisson1_pmf
from urtlab.moments import ExponentVector, factorial_moments_float
from urtlab.rng import generator

PILOT_SEED = 20250101  # seeds the multinomial null draws behind q
OUT = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
N = 100_000  # criterion 07's node count
REPLICATIONS = 100_000  # R: criterion 07's replications
D_MAX = 3
TV_ALPHA = 1e-4  # false-failure rate of each TV threshold
NULL_DRAWS = 4_000_000  # S: simulated multinomial samples behind q
MOMENT_ORDER = 14  # factorial moments behind delta_d


def exact_tv_bound(n: int, d: int, order: int = MOMENT_ORDER) -> float:
    """Upper bound on the TV between the exact law of X_d on n nodes and Poisson(1).

    With S_j = E[(X_d)_j] / j! from the factorial-moment recursion, the
    Bonferroni inequalities put P(X_d = m) within C(order, m) S_order of
    sum_{j=m}^{order-1} (-1)^(j-m) C(j, m) S_j, and P(X_d >= order) <= S_order.
    Both truncation terms are charged in full.
    """
    vectors = [ExponentVector((0,) * (d - 1) + (j,)) for j in range(1, order + 1)]
    moments = factorial_moments_float(n, vectors)
    s = [1.0] + [moments[v] / math.factorial(j) for j, v in enumerate(vectors, start=1)]
    total = s[order] + 1.0 - sum(_poisson1_pmf(m) for m in range(order))
    for m in range(order):
        p = sum((-1) ** (j - m) * math.comb(j, m) * s[j] for j in range(m, order))
        total += abs(p - _poisson1_pmf(m)) + math.comb(order, m) * s[order]
    return 0.5 * total


def exact_correlations(n: int, d_max: int) -> dict[str, float]:
    """Exact correlation of X_a and X_b on n nodes, for each pair a < b <= d_max.

    One float recursion over the vectors e_a, 2 e_a and e_a + e_b:
    E[X_a X_b] is the moment of e_a + e_b, and Var X_a = E(X_a)_2 + E X_a - (E X_a)^2.
    """
    def vec(*degrees: int) -> ExponentVector:
        k = [0] * d_max
        for d in degrees:
            k[d - 1] += 1
        return ExponentVector(tuple(k))

    degrees = range(1, d_max + 1)
    pairs = list(itertools.combinations(degrees, 2))
    m = factorial_moments_float(n, [vec(a) for a in degrees] + [vec(a, a) for a in degrees]
                                + [vec(a, b) for a, b in pairs])
    mean = {a: m[vec(a)] for a in degrees}
    var = {a: m[vec(a, a)] + mean[a] - mean[a] ** 2 for a in degrees}
    return {f"{a}-{b}": (m[vec(a, b)] - mean[a] * mean[b]) / math.sqrt(var[a] * var[b])
            for a, b in pairs}


def null_tv_quantile(reps: int, alpha: float, draws: int) -> float:
    """1 - alpha quantile of TV to Poisson(1) of R = reps exact Poisson(1) draws.

    Each of ``draws`` samples is one multinomial(reps) histogram over the
    values 0..20 and a remainder cell; half the L1 distance of its
    frequencies to the Poisson(1) cells is what
    ``total_variation_to_poisson1`` computes for those values.
    """
    cells = np.array([_poisson1_pmf(m) for m in range(21)])
    cells = np.append(cells, max(0.0, 1.0 - cells.sum()))
    rng = generator(PILOT_SEED)
    chunk = 50_000  # bounds memory: chunk x 22 counts at a time
    tv = np.concatenate([
        0.5 * np.abs(rng.multinomial(reps, cells, size=min(chunk, draws - start)) / reps
                     - cells).sum(axis=1)
        for start in range(0, draws, chunk)
    ])
    return float(np.quantile(tv, 1.0 - alpha, method="higher"))


def first_level_thresholds() -> dict:
    delta = {str(d): exact_tv_bound(N, d) for d in range(1, D_MAX + 1)}
    q = null_tv_quantile(REPLICATIONS, TV_ALPHA, NULL_DRAWS)
    rho = exact_correlations(N, D_MAX)
    corr_threshold = {p: 1.5 * max(abs(r), 4.0 / math.sqrt(REPLICATIONS)) for p, r in rho.items()}
    z = math.sqrt(REPLICATIONS / 2.0)
    rates = {
        "tv": D_MAX * TV_ALPHA,
        "mean_4se": math.erfc(4.0 / math.sqrt(2.0)),
        "correlation": sum(0.5 * math.erfc((t - rho[p]) * z) + 0.5 * math.erfc((t + rho[p]) * z)
                           for p, t in corr_threshold.items()),
    }
    rates["criterion_07"] = sum(rates.values())
    return {
        "n": N,
        "replications": REPLICATIONS,
        "d_max": D_MAX,
        "tv_alpha": TV_ALPHA,
        "null_draws": NULL_DRAWS,
        "null_tv_quantile": q,
        "moment_order": MOMENT_ORDER,
        "exact_tv_bound": delta,
        "tv_threshold": {d: delta[d] + q for d in delta},
        "exact_corr": rho,
        "corr_threshold": corr_threshold,
        "false_failure_rate": rates,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(OUT))
    args = parser.parse_args(argv)

    t0 = time.time()
    golden = {
        "pilot_seed": PILOT_SEED,
        "quick": False,
        "first_level_degrees": first_level_thresholds(),
        "degree_distribution": {"n": 1_000_000, "replications": 3, "tolerance": 0.01},
    }
    golden["pilot_runtime_s"] = round(time.time() - t0, 1)
    Path(args.out).write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {args.out} in {golden['pilot_runtime_s']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
