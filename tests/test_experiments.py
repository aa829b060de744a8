import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from urtlab import (
    ExperimentConfig,
    ExperimentReport,
    degree_counts_in_level,
    expected_exceedance_count,
    expected_level_size,
    grow,
    high_degree_fraction,
    level_sizes,
    run_experiment,
)
from urtlab import experiments
from urtlab.experiments import (
    ECHOED,
    EXPERIMENT_ALIASES,
    EXPERIMENTS,
    READS,
    _kernel_level_exceedance,
    degree_fraction_limit,
    resolve_workers,
    total_variation_to_poisson1,
)
from urtlab.rng import derive_seed
from urtlab.stats import exceedance_threshold
from urtlab.tree import _LEVEL_BLOCK


def small_config(**overrides):
    base = dict(
        experiment="level_exceedance",
        n_grid=(300,),
        replications=40,
        seed=90210,
        k_grid=(1,),
        t_grid=(0.5,),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_grid=())
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(t_grid=(1.5,))
    with pytest.raises(ValueError):
        small_config(model="preferential", n_grid=(1,))
    with pytest.raises(ValueError):
        run_experiment(small_config(experiment="nonsense"))
    with pytest.raises(ValueError):
        run_experiment(small_config(replications=2)).render("xml")


def test_kernel_matches_public_api():
    """The fast kernel and the public tree API see the same replication."""
    n, seed = 500, derive_seed(4242, 3)
    row = _kernel_level_exceedance(small_config(k_grid=(1, 2), t_grid=(0.4,)), n, seed)
    tree = grow("uniform", n, seed)
    for idx, k in enumerate((1, 2)):
        frac = high_degree_fraction(tree, k, 0.4)
        assert row[3 * idx + 2] == pytest.approx(frac, rel=1e-15)


def test_reports_are_bit_reproducible_across_worker_counts():
    cfg1 = small_config(workers=1)
    cfg2 = small_config(workers=2)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert r1.canonical_bytes() == r2.canonical_bytes()
    r3 = run_experiment(cfg1)
    assert r1.canonical_bytes() == r3.canonical_bytes()


def test_worker_count_is_clamped_to_cpus_and_replications(monkeypatch):
    """Only resolves the count: no pool is started with the huge request."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    assert resolve_workers(10**6) == 3
    assert resolve_workers(10**6, 2) == 2
    assert resolve_workers(None, 100) == 3
    assert resolve_workers(0, 100) == 1


def test_report_echoes_only_the_fields_the_experiment_reads():
    base = dict(experiment="degree_distribution", n_grid=(500,), replications=3, seed=1,
                d_max=2, workers=1)
    unread = run_experiment(ExperimentConfig(**base, k_grid=(7,), t_grid=(0.9,), eps=0.4))
    default = run_experiment(ExperimentConfig(**base))
    assert unread.canonical_bytes() == default.canonical_bytes()
    assert list(default.config) == list(ECHOED + ("replications", "seed", "model", "d_max"))
    for name in EXPERIMENTS:
        rep = run_experiment(small_config(experiment=name, k_grid=(2,), replications=2))
        assert set(rep.config) == set(ECHOED + READS[name]), name


def test_every_config_setting_but_the_worker_count_is_read_somewhere():
    """A config field that no experiment reads would be a setting that
    changes nothing; a READS entry that is no field would echo nothing."""
    fields = [field.name for field in dataclasses.fields(ExperimentConfig)]
    read = set(ECHOED).union(*READS.values())
    assert set(fields) - read == {"workers"}
    assert read <= set(fields)


def test_level_exceedance_tiny_threshold_is_degenerate_one():
    rep = run_experiment(small_config(t_grid=(1e-9,), replications=20))
    row = rep.rows[0]
    assert row["estimate"] == 1.0
    assert row["se"] == 0.0
    assert row["numerator_mean"] == pytest.approx(row["level_size_mean"], rel=1e-15)
    assert row["exact_numerator"] == pytest.approx(row["exact_level_size"], abs=1e-9)


def test_level_exceedance_numerator_tracks_exact():
    rep = run_experiment(small_config(n_grid=(500,), replications=400, t_grid=(0.5,)))
    row = rep.rows[0]
    assert row["exact_numerator"] == pytest.approx(
        expected_exceedance_count(500, 1, 0.5), abs=1e-9
    )
    spread = 4 * row["numerator_se"]
    assert abs(row["numerator_mean"] - row["exact_numerator"]) < spread


def test_first_level_degrees_report():
    cfg = ExperimentConfig(
        experiment="first_level_degrees", n_grid=(150,), replications=600,
        seed=777, d_max=3, workers=1,
    )
    rep = run_experiment(cfg)
    mean1 = [r for r in rep.rows if r["point"].get("kind") == "mean_count" and r["point"]["d"] == 1][0]
    assert mean1["exact"] == 1.0
    assert abs(mean1["estimate"] - 1.0) < 4 * mean1["se"]
    tv = [r for r in rep.rows if r["point"].get("kind") == "tv_poisson1"]
    assert len(tv) == 3 and all(0 <= r["estimate"] < 0.2 for r in tv)
    moments = [r for r in rep.rows if r["point"].get("kind") == "factorial_moment"]
    by_vec = {r["point"]["k_vector"]: r for r in moments}
    assert by_vec["1"]["exact"] == 1.0
    assert by_vec["0-1"]["exact"] == pytest.approx(148 / 149)  # (n-2)/(n-1) at n=150
    corr = [r for r in rep.rows if r["point"].get("kind") == "correlation"]
    assert {(r["point"]["d1"], r["point"]["d2"]) for r in corr} == {(1, 2), (1, 3), (2, 3)}


def test_first_level_degrees_dmax_guard():
    with pytest.raises(ValueError):
        run_experiment(
            ExperimentConfig(
                experiment="first_level_degrees", n_grid=(50,), replications=5,
                seed=1, d_max=7, workers=1,
            )
        )


def test_total_variation_helper():
    exact = np.random.default_rng(5).poisson(1.0, size=200_000)
    assert total_variation_to_poisson1(exact) < 0.01
    assert total_variation_to_poisson1(np.zeros(1000, dtype=int)) == pytest.approx(
        1 - math.exp(-1), abs=1e-12
    )


def test_degree_distribution_limits():
    assert degree_fraction_limit("uniform", 1) == 0.5
    assert degree_fraction_limit("preferential", 1) == pytest.approx(2 / 3)
    cfg = ExperimentConfig(
        experiment="degree_distribution", n_grid=(20_000,), replications=3,
        seed=31415, model="preferential", d_max=4, workers=1,
    )
    rep = run_experiment(cfg)
    for row in rep.rows:
        assert abs(row["estimate"] - row["limit"]) < 0.03
    # fractions over the full support sum to 1 (here: top of support is small)
    assert sum(r["estimate"] for r in rep.rows) < 1.0


def test_preferential_degree_report_is_bit_reproducible_across_worker_counts():
    reports = [
        run_experiment(ExperimentConfig(
            experiment="degree_distribution", n_grid=(3, 5000), replications=8,
            seed=27182, model="preferential", d_max=4, workers=workers,
        ))
        for workers in (1, 2)
    ]
    assert reports[0].canonical_bytes() == reports[1].canonical_bytes()


def test_level_sizes_k0_and_exact_column():
    cfg = ExperimentConfig(
        experiment="level_sizes", n_grid=(2000,), replications=300,
        seed=525600, k_grid=(0, 1), workers=1,
    )
    rep = run_experiment(cfg)
    k0 = rep.rows[0]
    assert k0["estimate"] == 1.0 and k0["se"] == 0.0 and k0["exact"] == 1.0
    k1 = rep.rows[1]
    assert k1["exact"] == pytest.approx(float(expected_level_size(2000, 1, exact=False)))
    assert abs(k1["estimate"] - k1["exact"]) < 4 * k1["se"]


def test_higher_level_requires_k_at_least_two():
    with pytest.raises(ValueError):
        run_experiment(
            ExperimentConfig(
                experiment="higher_level_small_degree", n_grid=(100,),
                replications=5, seed=2, k_grid=(1,), workers=1,
            )
        )


def test_higher_level_counts_bounded_by_level_size():
    cfg = ExperimentConfig(
        experiment="higher_level_small_degree", n_grid=(1000,), replications=50,
        seed=321, k_grid=(2, 3), d_max=2, workers=1,
    )
    rep = run_experiment(cfg)
    for row in rep.rows:
        assert row["count_mean"] >= 0.0
        assert row["count_mean"] <= row["level_k_mean"] + 1e-12
        assert row["proportion_scaled"] > 0.0


def test_higher_level_proportion_is_scaled_by_ln_n_over_k():
    """E|L_{k-1}| / E|L_k| ~ k / ln n, so a proportion at its heuristic value
    k / ln n reads 1 once scaled, at every level k."""
    n, d_max = 10**5, 1
    config = ExperimentConfig(experiment="higher_level_small_degree", n_grid=(n,),
                              replications=2, seed=1, k_grid=(2, 3), d_max=d_max, workers=1)
    size_k = 1000.0
    # per level: the degree-1 count, |L_{k-1}| and |L_k|
    columns = [c for k in (2, 3) for c in (size_k * k / math.log(n), 50.0, size_k)]
    table = np.array([columns, columns])  # two replications
    rows = experiments._higher_level_rows(config, n, table)
    assert [row["point"]["k"] for row in rows] == [2, 3]
    for row in rows:
        assert row["proportion"] == pytest.approx(row["point"]["k"] / math.log(n))
        assert row["proportion_scaled"] == pytest.approx(1.0)


def test_tail_vs_bound_exact_rows_dominate():
    cfg = ExperimentConfig(
        experiment="tail_vs_bound", n_grid=(500,), replications=5, seed=8,
        t_grid=(0.3, 0.5, 0.7), eps=0.1, workers=1,
    )
    rep = run_experiment(cfg)
    data_rows = [r for r in rep.rows if "margin" in r]
    assert data_rows, "expected comparison rows"
    assert all(r["mode"] == "exact" for r in data_rows)
    assert all(r["margin"] >= 0.0 for r in data_rows)
    assert all(r["margin"] == r["bound"] - r["estimate"] for r in data_rows)


def test_tail_vs_bound_skips_invalid_combinations():
    cfg = ExperimentConfig(
        experiment="tail_vs_bound", n_grid=(200,), replications=5, seed=8,
        t_grid=(0.95,), eps=0.1, workers=1,
    )
    rep = run_experiment(cfg)
    notes = [r for r in rep.rows if "note" in r]
    assert notes and any("skipped" in r["note"] for r in notes)


def test_tail_vs_bound_notes_a_side_without_admissible_nodes():
    """At n = 500, t = 0.5 and eps = 0.4 the low-index bound holds, but no
    node index i >= 1 satisfies i <= n^(1-t-eps) - 1 = 500^0.1 - 1."""
    rep = run_experiment(ExperimentConfig(
        experiment="tail_vs_bound", n_grid=(500,), replications=1, seed=1,
        t_grid=(0.5,), eps=0.4, workers=1,
    ))
    lower = [r for r in rep.rows if r["point"]["side"] == "lower"]
    assert lower == [{"point": {"n": 500, "t": 0.5, "eps": 0.4, "side": "lower"},
                      "note": "skipped: no admissible node indices"}]
    assert all("note" not in r for r in rep.rows if r["point"]["side"] == "upper")


def test_aliases_cover_spec_ids():
    assert EXPERIMENT_ALIASES["theorem21"] in EXPERIMENTS
    assert EXPERIMENT_ALIASES["theorem31"] in EXPERIMENTS
    rep = run_experiment(small_config(experiment="theorem21", replications=5))
    assert rep.experiment == "level_exceedance"


def test_alias_and_canonical_id_give_the_same_report():
    alias = run_experiment(small_config(experiment="theorem21", replications=5))
    canonical = run_experiment(small_config(experiment="level_exceedance", replications=5))
    assert alias.config["experiment"] == "level_exceedance"
    assert alias.canonical_bytes() == canonical.canonical_bytes()
    with pytest.raises(ValueError, match="unknown experiment 'theorem99'; known: "):
        small_config(experiment="theorem99")


def test_report_serialization_round_trip(tmp_path):
    rep = run_experiment(small_config(replications=5))
    path = tmp_path / "report.json"
    path.write_text(rep.render("json"))
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == "urt-report/1"
    assert loaded["seed"] == 90210
    assert loaded["rows"] == rep.rows
    csv_text = rep.to_csv()
    assert csv_text.startswith("# schema: urt-report/1")
    header = csv_text.splitlines()[1]
    assert header.split(",")[:3] == ["n", "k", "t"]


B = _LEVEL_BLOCK
STREAM_KS, STREAM_TS, STREAM_DMAX = (1, 2, 3), (0.3, 0.5), 6


def _grown_kernel_tuples(n, seed):
    """The four level kernels' tuples, from ``grow()`` and the tree statistics."""
    tree = grow("uniform", n, seed)
    profiles = {k: degree_counts_in_level(tree, k) for k in range(max(STREAM_KS) + 1)}
    exceedance = []
    for k in STREAM_KS:
        size = profiles[k].level_size
        for t in STREAM_TS:
            num = profiles[k].exceeding(exceedance_threshold(n, t))
            exceedance.extend((float(num), float(size), num / size if size else float("nan")))
    first = [profiles[1].counts.get(d, 0) for d in range(1, STREAM_DMAX + 1)]
    sizes = level_sizes(tree)
    by_level = [float(sizes[k]) if k < sizes.size else 0.0 for k in (0,) + STREAM_KS]
    higher = []
    for k in STREAM_KS[1:]:
        higher.extend(float(profiles[k].counts.get(d, 0)) for d in range(1, STREAM_DMAX + 1))
        higher.extend((float(profiles[k - 1].level_size), float(profiles[k].level_size)))
    return exceedance, first, by_level, higher


@pytest.mark.parametrize("n", [2, 3, 5, 17, 1000, B - 1, B, B + 1, 3 * B + 7, 100_000])
def test_streamed_kernels_match_grown_trees_across_block_edges(n):
    """The streamed level kernels read the draws ``grow()`` makes, block by block."""
    for seed in (0, 7, 2**63, 2**64 - 1):
        exceedance, first, by_level, higher = _grown_kernel_tuples(n, seed)
        config = small_config(k_grid=STREAM_KS, t_grid=STREAM_TS, d_max=STREAM_DMAX)
        assert np.array_equal(experiments._kernel_level_exceedance(config, n, seed), exceedance,
                              equal_nan=True)
        assert experiments._kernel_first_level_degrees(config, n, seed) == tuple(first)
        sizes_config = small_config(experiment="level_sizes", k_grid=(0,) + STREAM_KS)
        assert experiments._kernel_level_sizes(sizes_config, n, seed) == tuple(by_level)
        assert experiments._kernel_higher_level(
            small_config(k_grid=STREAM_KS[1:], d_max=STREAM_DMAX), n, seed) == tuple(higher)


@pytest.mark.parametrize("kernel, cfg", [
    ("_kernel_first_level_degrees", dict(d_max=6)),
    ("_kernel_level_exceedance", dict(k_grid=(2,), t_grid=(0.5,))),
    ("_kernel_level_sizes", dict(experiment="level_sizes", k_grid=(0, 1, 9))),
    ("_kernel_higher_level", dict(k_grid=(2, 3), d_max=6)),
])
def test_streamed_kernels_hold_no_length_n_int64_array(kernel, cfg):
    """Growing the tree peaked at 22.9 MiB at 10^6 nodes; the streamed kernels
    hold a 1-byte level per node and block-sized arrays."""
    tracemalloc.start()
    try:
        getattr(experiments, kernel)(small_config(**cfg), 10**6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20
