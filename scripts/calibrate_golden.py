"""Pilot runs that freeze the golden thresholds used by the test suite.

The limit theorems verified here come without convergence rates, so
finite-n tolerances cannot be derived a priori.  This script runs each
statistical check once under a dedicated pilot seed and records
thresholds with explicit slack:

* total-variation distances to Poisson(1): delta_d + q.  delta_d bounds
  the TV between the exact n-node law of X_d and Poisson(1), from the
  factorial-moment recursion (Bonferroni truncation counted as slack); q
  is the 1 - alpha quantile of the TV of R multinomial draws from
  Poisson(1), over S simulated draws.  By the triangle inequality a
  correct sampler exceeds a threshold only when its empirical law is more
  than q from the exact law, which happens with probability about
  alpha = 1e-4 (q is taken under Poisson(1), within delta_d of that law).
  The TV checks of criterion 07 thus fail falsely with probability at
  most d_max * alpha = 3e-4.  The pilot's own TV draws are recorded as
  headroom;
* pairwise correlations: 1.5 x max(pilot |corr|, 4/sqrt(R)) - the floor
  keeps a lucky near-zero pilot draw from freezing an unpassable bar, and
  holds each pair's false-failure rate below 2e-9 (6 standard errors);
* degree-distribution tolerance: the 0.01 target, with the pilot's
  observed deviations recorded to show the headroom (~50x).

Regenerate with:  python scripts/calibrate_golden.py [--quick]
(--quick shrinks replication counts ~100x for a smoke run; do not commit
its output; the acceptance suite checks this).  The committed
tests/golden.json was produced by a full run and records each stated
false-failure rate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from urtlab import ExperimentConfig, run_experiment
from urtlab.experiments import _poisson1_pmf
from urtlab.moments import ExponentVector, factorial_moments_float
from urtlab.rng import generator

PILOT_SEED = 20250101
OUT = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
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


def pilot_first_level(reps: int, draws: int, n: int = 100_000, d_max: int = 3) -> dict:
    cfg = ExperimentConfig(
        experiment="first_level_degrees", n_grid=(n,), replications=reps,
        seed=PILOT_SEED, d_max=d_max,
    )
    report = run_experiment(cfg)
    tv = {}
    corr = {}
    for row in report.rows:
        kind = row["point"].get("kind")
        if kind == "tv_poisson1":
            tv[str(row["point"]["d"])] = row["estimate"]
        elif kind == "correlation":
            corr[f"{row['point']['d1']}-{row['point']['d2']}"] = abs(row["estimate"])
    floor = 4.0 / math.sqrt(reps)
    corr_threshold = {p: 1.5 * max(v, floor) for p, v in corr.items()}
    delta = {d: exact_tv_bound(n, int(d)) for d in tv}
    q = null_tv_quantile(reps, TV_ALPHA, draws)
    # two-sided normal tails: the mean is checked at 4 SE, and sqrt(R) * corr
    # is close to N(0, 1) for counts whose exact correlation is ~0
    rates = {
        "tv": len(tv) * TV_ALPHA,
        "mean_4se": math.erfc(4.0 / math.sqrt(2.0)),
        "correlation": sum(math.erfc(t * math.sqrt(reps / 2.0))
                           for t in corr_threshold.values()),
    }
    rates["criterion_07"] = sum(rates.values())
    return {
        "n": n,
        "replications": reps,
        "d_max": d_max,
        "pilot_tv": tv,
        "pilot_abs_corr": corr,
        "tv_alpha": TV_ALPHA,
        "null_draws": draws,
        "null_tv_quantile": q,
        "moment_order": MOMENT_ORDER,
        "exact_tv_bound": delta,
        "tv_threshold": {d: delta[d] + q for d in tv},
        "corr_threshold": corr_threshold,
        "false_failure_rate": rates,
    }


def pilot_degree_distribution(reps: int, n: int = 1_000_000) -> dict:
    observed = {}
    for model in ("uniform", "preferential"):
        cfg = ExperimentConfig(
            experiment="degree_distribution", n_grid=(n,), replications=reps,
            seed=PILOT_SEED, model=model, d_max=5,
        )
        report = run_experiment(cfg)
        observed[model] = max(abs(r["estimate"] - r["limit"]) for r in report.rows)
    return {
        "n": n,
        "replications": reps,
        "tolerance": 0.01,
        "pilot_max_abs_diff": observed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke run, ~100x smaller")
    parser.add_argument("--out", default=str(OUT))
    args = parser.parse_args()

    scale = 100 if args.quick else 1
    t0 = time.time()
    golden = {
        "pilot_seed": PILOT_SEED,
        "quick": bool(args.quick),
        "first_level_degrees": pilot_first_level(100_000 // scale, NULL_DRAWS // scale),
        "degree_distribution": pilot_degree_distribution(3),
    }
    golden["pilot_runtime_s"] = round(time.time() - t0, 1)
    Path(args.out).write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {args.out} in {golden['pilot_runtime_s']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
