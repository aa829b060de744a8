"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run under the frozen seed 20250202; thresholds that
cannot be derived a priori come from tests/golden.json, written by
scripts/calibrate_golden.py from the exact engines and each threshold's
null distribution (seed 20250101 feeds only its multinomial null draws);
only the tests that read it fail when it is missing.  Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines as
they complete.
"""

import importlib.util
import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from urtlab import (
    ExperimentConfig,
    check_falling_factorial_identities,
    degree_counts_in_level,
    degree_head,
    degree_tail,
    enumerate_trees,
    enumeration_moment,
    exact_factorial_moment,
    expected_children,
    expected_level_size,
    fixed_points_after_first,
    permutation_to_tree,
    run_experiment,
    tail_bound_high_index,
    tail_bound_low_index,
    tree_to_permutation,
    upper_tail_bound,
    lower_tail_bound,
)
from urtlab.cli import cli_main
from urtlab.oracle import child_count_tails

ACCEPT_SEED = 20250202
GOLDEN_PATH = Path(__file__).parent / "golden.json"
PILOT_PATH = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_golden.py"


@pytest.fixture(scope="module")
def golden():
    try:
        return json.loads(GOLDEN_PATH.read_text())
    except (OSError, ValueError) as exc:
        pytest.fail(f"cannot read {GOLDEN_PATH} ({exc}); "
                    "regenerate it with: python scripts/calibrate_golden.py")


@contextmanager
def criterion(cid: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid:02d} {description}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    over = budget_s is not None and elapsed >= budget_s
    print(f"ACCEPTANCE {cid:02d} {description}: {'FAIL' if over else 'PASS'} ({elapsed:.1f}s)")
    assert not over, f"criterion {cid} exceeded its {budget_s}s budget"


def test_golden_file_comes_from_a_full_pilot(golden):
    """Simulation-free: the committed thresholds are not ``--quick`` output."""
    assert golden["quick"] is False
    first = golden["first_level_degrees"]
    assert first["replications"] == 100_000
    for d, threshold in first["tv_threshold"].items():
        assert threshold >= first["null_tv_quantile"], (d, threshold)


def test_golden_file_is_what_the_pilot_writes(golden, tmp_path):
    """The pilot, rerun in-process (a few seconds), writes the committed thresholds."""
    spec = importlib.util.spec_from_file_location("calibrate_golden", PILOT_PATH)
    pilot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pilot)
    out = tmp_path / "golden.json"
    assert pilot.main(["--out", str(out)]) == 0
    fresh = json.loads(out.read_text())
    assert fresh["degree_distribution"] == golden["degree_distribution"]
    fresh, first = fresh["first_level_degrees"], golden["first_level_degrees"]
    for key in ("corr_threshold", "null_tv_quantile", "exact_corr"):
        assert fresh[key] == first[key], key
    for key in ("tv_threshold", "false_failure_rate"):
        assert fresh[key].keys() == first[key].keys(), key
        for name, value in fresh[key].items():
            assert abs(value - first[key][name]) <= 1e-13, (key, name, value)


def _vectors_d3_k3():
    """All exponent vectors with d <= 3 and combined order K <= 3."""
    out = set()
    for k1, k2, k3 in itertools.product(range(4), repeat=3):
        if k1 + k2 + k3 <= 3:
            out.add((k1, k2, k3))
    return sorted(out)


def test_criterion_01_exact_moments_match_enumeration():
    with criterion(1, "recursion moments equal brute-force enumeration", 120):
        for n in range(2, 9):
            for vec in _vectors_d3_k3():
                assert exact_factorial_moment(n, vec) == enumeration_moment(n, vec), (
                    n,
                    vec,
                )
        for n in range(2, 9):
            value = exact_factorial_moment(n, (1,))
            assert value == Fraction(1, 1)


def test_criterion_02_bijection_suite():
    with criterion(2, "bijection round-trip, image, uniformity, fixed points", 60):
        for n in range(2, 9):
            seen = {}
            for tree in enumerate_trees(n):
                perm = tree_to_permutation(tree)
                assert perm.values[0] == 1
                back = permutation_to_tree(perm)
                assert (back.parent == tree.parent).all()
                x1 = degree_counts_in_level(tree, 1).counts.get(1, 0)
                assert fixed_points_after_first(perm) == x1
                seen[perm.values] = seen.get(perm.values, 0) + 1
            assert len(seen) == math.factorial(n - 1)
            assert set(seen.values()) == {1}  # exactly uniform pushforward


def test_criterion_03_identity_suite():
    with criterion(3, "falling-factorial identities on 1000 random tuples", 60):
        rng = np.random.default_rng(ACCEPT_SEED)
        for _ in range(1000):
            a = int(rng.integers(-50, 51))
            b = int(rng.integers(-50, 51))
            k = int(rng.integers(1, 7))
            l = int(rng.integers(0, 7))
            n = int(rng.integers(k, 41))
            result = check_falling_factorial_identities(a, b, k, l, n)
            assert result.all_pass(), (a, b, k, l, n)


def test_criterion_04_tail_bound_domination():
    with criterion(4, "zero bound violations against exact tails (n <= 2000)", 300):
        violations = 0
        checks = 0
        for n in (50, 200, 1000, 2000):
            log_n = math.log(n)
            for t in (0.3, 0.4, 0.5, 0.6, 0.7):
                eps = 0.1
                tails = child_count_tails(n + 1, t * log_n)  # P(X_i > t ln n), i=1..n
                high = tail_bound_high_index(n, t, eps)
                low = tail_bound_low_index(n, t, eps)
                cut_high = n ** (1 - t + eps)
                cut_low = n ** (1 - t - eps) - 1
                for i in range(1, n + 1):
                    if i > cut_high:
                        checks += 1
                        if tails[i - 1] > high + 1e-12:
                            violations += 1
                    if i <= cut_low:
                        checks += 1
                        if (1.0 - tails[i - 1]) > low + 1e-12:
                            violations += 1
        # spot-weld the sweep to the standalone convolution oracle
        assert child_count_tails(2001, 3.0)[4] == pytest.approx(
            float(degree_tail(5, 2000, 3.0)), abs=1e-13
        )
        # quadratic forms against exact tails at integer thresholds
        for n in (50, 200, 1000, 2000):
            for i in sorted({1, 2, n // 10 or 1, n // 3, n - 1}):
                s = expected_children(i, n)
                for a in range(int(s) + 1, int(s + 6 * math.sqrt(s) + 3)):
                    if a <= s:
                        continue
                    checks += 1
                    if upper_tail_bound(a, s) < float(degree_tail(i, n, a - 1)) - 1e-12:
                        violations += 1
                for a in range(0, math.ceil(s)):
                    if a >= s:
                        continue
                    checks += 1
                    if lower_tail_bound(a, s) < float(degree_head(i, n, a)) - 1e-12:
                        violations += 1
        assert checks > 10_000
        assert violations == 0


def test_criterion_05_cross_engine_exceedance_counts():
    with criterion(5, "MC exceedance counts within 4 SE of the DP oracle", 300):
        cfg = ExperimentConfig(
            experiment="level_exceedance",
            n_grid=(2000,),
            replications=2000,
            seed=ACCEPT_SEED,
            k_grid=(1, 2),
            t_grid=(0.3, 0.5, 0.7),
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 6
        for row in report.rows:
            assert row["replications_used"] == 2000
            spread = 4 * row["numerator_se"]
            assert abs(row["numerator_mean"] - row["exact_numerator"]) < spread, row


def test_criterion_06_exceedance_fraction_trend():
    with criterion(6, "|mean fraction - limit| strictly decreases in n", 1800):
        plan = [(10**3, 30_000), (10**4, 30_000), (10**5, 20_000), (10**6, 10_000)]
        gaps = []
        for n, reps in plan:
            assert reps >= 200
            cfg = ExperimentConfig(
                experiment="level_exceedance",
                n_grid=(n,),
                replications=reps,
                seed=ACCEPT_SEED,
                k_grid=(1,),
                t_grid=(0.5,),
            )
            row = run_experiment(cfg).rows[0]
            gaps.append(abs(row["estimate"] - row["limit"]))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_07_first_level_poisson_statistics(golden):
    with criterion(7, "first-level counts: mean, TV and correlation thresholds", 1200):
        golden = golden["first_level_degrees"]
        cfg = ExperimentConfig(
            experiment="first_level_degrees",
            n_grid=(golden["n"],),
            replications=golden["replications"],
            seed=ACCEPT_SEED,
            d_max=golden["d_max"],
        )
        report = run_experiment(cfg)
        rows = {(r["point"].get("kind"), r["point"].get("d"),
                 r["point"].get("d1"), r["point"].get("d2"),
                 r["point"].get("k_vector")): r for r in report.rows}
        mean1 = rows[("mean_count", 1, None, None, None)]
        assert abs(mean1["estimate"] - 1.0) < 4 * mean1["se"]
        for d, threshold in golden["tv_threshold"].items():
            tv = rows[("tv_poisson1", int(d), None, None, None)]["estimate"]
            assert tv < threshold, (d, tv, threshold)
        for pair, threshold in golden["corr_threshold"].items():
            d1, d2 = (int(x) for x in pair.split("-"))
            corr = rows[("correlation", None, d1, d2, None)]["estimate"]
            assert abs(corr) < threshold, (pair, corr, threshold)


def test_criterion_08_degree_distribution_limits(golden):
    with criterion(8, "degree fractions near both model limits at n=1e6", 600):
        golden = golden["degree_distribution"]
        for model in ("uniform", "preferential"):
            cfg = ExperimentConfig(
                experiment="degree_distribution",
                n_grid=(golden["n"],),
                replications=3,
                seed=ACCEPT_SEED,
                model=model,
                d_max=5,
            )
            report = run_experiment(cfg)
            assert len(report.rows) == 5
            for row in report.rows:
                assert abs(row["estimate"] - row["limit"]) < golden["tolerance"], row


def test_criterion_09_level_sizes():
    with criterion(9, "level sizes: 4-SE agreement and exact-ratio trend", 600):
        cfg = ExperimentConfig(
            experiment="level_sizes",
            n_grid=(2000,),
            replications=2000,
            seed=ACCEPT_SEED,
            k_grid=(1,),
        )
        row = run_experiment(cfg).rows[0]
        assert row["exact"] == pytest.approx(
            float(expected_level_size(2000, 1, exact=False)), rel=1e-12
        )
        assert abs(row["estimate"] - row["exact"]) < 4 * row["se"]

        for k in (1, 2, 3):
            drifts = []
            for n in (10**3, 10**4, 10**5, 10**6):
                exact = float(expected_level_size(n, k, exact=False))
                scale = math.log(n) ** k / math.factorial(k)
                drifts.append(abs(exact / scale - 1.0))
            assert all(a > b for a, b in zip(drifts, drifts[1:])), (k, drifts)


def test_criterion_10_reports_are_reproducible(tmp_path):
    with criterion(10, "same seed, any worker count: identical reports", 300):
        base = dict(
            experiment="level_exceedance",
            n_grid=(500,),
            replications=100,
            seed=ACCEPT_SEED,
            k_grid=(1, 2),
            t_grid=(0.4,),
        )
        one = run_experiment(ExperimentConfig(**base, workers=1))
        two = run_experiment(ExperimentConfig(**base, workers=2))
        rerun = run_experiment(ExperimentConfig(**base, workers=1))
        assert one.canonical_bytes() == rerun.canonical_bytes()
        assert one.canonical_bytes() == two.canonical_bytes()

        # end to end through the CLI and the written file
        files = []
        for tag, workers in (("a", "1"), ("b", "2")):
            out = tmp_path / f"rep_{tag}.json"
            code = cli_main([
                "experiment", "theorem21", "--n", "500", "--reps", "100",
                "--seed", str(ACCEPT_SEED), "--k", "1,2", "--t", "0.4",
                "--workers", workers, "--out", str(out),
            ])
            assert code == 0
            payload = json.loads(out.read_text())
            payload["runtime_ms"] = 0
            files.append(json.dumps(payload, sort_keys=True))
        assert files[0] == files[1]
