"""The experiment driver: rows pinned across refactors, one pool per run.

``PINNED`` holds the sha256 of ``json.dumps(report.rows)`` for a fixed
matrix of configs: every experiment, both growth models where the
experiment grows both, and an n grid that gives ``tail_vs_bound`` exact
rows on both sides of n - i = 10^4, where the tails span more than one
block of weights, and note rows; ``first_level_degrees`` runs once on
the rational moment path (n <= 4096) and once on the float recursion past
it.  A change to the driver, the kernels, the growth primitives, the
moment sweeps or the exact tails that moves one row changes its digest;
the n = 500 rows of ``tail_vs_bound`` carry a digest of their own.
``tail_vs_bound`` simulates nothing, so it opens no pool at any n, and it
reads all the nodes of one (n, t, side) from one pass of the oracle's
degree-law engine.
"""

import hashlib
import json
import math
import multiprocessing.pool
import os
from dataclasses import replace

import pytest

from urtlab import ExperimentConfig, run_experiment
from urtlab import experiments
from urtlab.errors import ResourceGuardError

MATRIX = {
    "level_exceedance": dict(
        experiment="level_exceedance", n_grid=(300, 800), replications=12, seed=11,
        k_grid=(1, 2), t_grid=(0.3, 0.6)),
    "first_level_degrees": dict(
        experiment="first_level_degrees", n_grid=(150, 400), replications=12, seed=12,
        d_max=3),
    "first_level_degrees_float": dict(
        experiment="first_level_degrees", n_grid=(5000,), replications=8, seed=18, d_max=4),
    "degree_distribution_uniform": dict(
        experiment="degree_distribution", n_grid=(50, 2000), replications=8, seed=13,
        d_max=4),
    "degree_distribution_preferential": dict(
        experiment="degree_distribution", n_grid=(50, 2000), replications=8, seed=13,
        model="preferential", d_max=4),
    "level_sizes": dict(
        experiment="level_sizes", n_grid=(300, 1000), replications=8, seed=14,
        k_grid=(0, 1, 2)),
    "higher_level_small_degree": dict(
        experiment="higher_level_small_degree", n_grid=(300, 1000), replications=8,
        seed=16, k_grid=(2, 3), d_max=2),
    "tail_vs_bound": dict(
        experiment="tail_vs_bound", n_grid=(500, 30_000), replications=8, seed=17,
        t_grid=(0.3, 0.5, 0.95), eps=0.1),
}

PINNED = {
    "level_exceedance": "1a4d812444bbf35d619ce63b4778eaa53be00e96b2fd2b867f6087d3ab1bfb8c",
    "first_level_degrees": "5528e8828ddbc881ea030e0d3080737b1ae4f62214f93e9aca1b100ce79b333a",
    "first_level_degrees_float": "2938bb2f69450e0678599b1ee6ba34635baf25a415d7eed16684367d2f75a751",
    "degree_distribution_uniform": "2bd474f36a6b578bf7798f64e1d78474b850ef5930b7bee03c7b7333c2c54a59",
    "degree_distribution_preferential": "6ecdb2da81f0db79599db1cf25ff489d6250decbee82b1a8a6025ca3ecb9baae",
    "level_sizes": "ad530d594d1f7a6e0a932eb666552b8c872d740c2fd988932bb0f3c7c29d8967",
    "higher_level_small_degree": "cc9f2fc26d347a673b66463af5a66d66fe6558b50a148837394c7d3d6a3f291c",
    "tail_vs_bound": "32a07ab76345371797e833c8874c4c352722841a3006f452ac67f061f0c68ef5",
}


def rows_digest(report) -> str:
    return hashlib.sha256(json.dumps(report.rows).encode()).hexdigest()


def test_the_table_the_settings_and_the_pins_name_the_same_experiments():
    """An experiment added or removed touches the table, its settings and a pin."""
    assert set(experiments.READS) == set(experiments.EXPERIMENTS)
    assert set(experiments.EXPERIMENTS) == {config["experiment"] for config in MATRIX.values()}


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_rows_are_pinned_for_one_and_two_workers(case):
    one, two = (run_experiment(ExperimentConfig(**MATRIX[case], workers=w)) for w in (1, 2))
    assert rows_digest(one) == PINNED[case]
    assert one.canonical_bytes() == two.canonical_bytes()


TAIL_VS_BOUND_N500 = "91e84942785b0a94c5a0126e2cd5bec25973650ce1e34f7218adbe94a2af3020"


def test_tail_vs_bound_matrix_has_exact_and_note_rows():
    rep = run_experiment(ExperimentConfig(**MATRIX["tail_vs_bound"], workers=1))
    data = [row for row in rep.rows if "note" not in row]
    assert data and all(row["mode"] == "exact" and row["se"] is None for row in data)
    assert all(row["exact"] == row["estimate"] and row["margin"] >= 0 for row in data)
    assert any(row["point"]["n"] - row["point"]["i"] > 10_000 for row in data)
    assert any("note" in row for row in rep.rows)
    rows500 = [row for row in rep.rows if row["point"]["n"] == 500]
    assert hashlib.sha256(json.dumps(rows500).encode()).hexdigest() == TAIL_VS_BOUND_N500


def test_tail_vs_bound_makes_one_engine_call_per_case(monkeypatch):
    """One pass per (n, t, side) that is not a note row, whatever its node count."""
    calls = []
    engine = experiments._degree_law_sums

    def counting(n, indices, threshold, upper, **kwargs):
        calls.append((n, threshold, upper, len(indices)))
        return engine(n, indices, threshold, upper, **kwargs)

    monkeypatch.setattr(experiments, "_degree_law_sums", counting)
    rep = run_experiment(ExperimentConfig(**MATRIX["tail_vs_bound"], workers=1))
    cases = {}
    for row in rep.rows:
        if "note" not in row:
            p = row["point"]
            key = (p["n"], p["t"] * math.log(p["n"]), p["side"] == "upper")
            cases[key] = cases.get(key, 0) + 1
    assert calls == [(*key, count) for key, count in cases.items()]
    assert max(count for _, _, _, count in calls) > 1


def test_a_run_opens_at_most_one_pool(monkeypatch):
    """Two workers over a multi-n grid share one pool, whose workers keep
    their freed heap; tail_vs_bound opens none."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    created = []
    init = multiprocessing.pool.Pool.__init__

    def counting_init(self, *args, **kwargs):
        created.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    run_experiment(ExperimentConfig(**MATRIX["level_exceedance"], workers=2))
    assert len(created) == 1
    assert created[0][1] is experiments._keep_freed_heap  # each worker's set-up
    rep = run_experiment(ExperimentConfig(**MATRIX["tail_vs_bound"], workers=2))
    assert {row.get("mode") for row in rep.rows} == {"exact", None}
    assert len(created) == 1


def _count_kernel_calls(monkeypatch) -> list:
    """Patch a wrapper onto the level_exceedance kernel; return the list of
    the n it is called at, one entry per replication."""
    calls = []
    kernel = experiments._kernel_level_exceedance

    def counting(config, n, seed):
        calls.append(n)
        return kernel(config, n, seed)

    monkeypatch.setattr(experiments, "_kernel_level_exceedance", counting)
    return calls


def test_a_grid_past_the_memory_guard_replicates_no_smaller_n(monkeypatch):
    """The largest n replicates first, so its growth guard refuses before
    any kernel runs at the grid's smaller n."""
    calls = _count_kernel_calls(monkeypatch)
    config = ExperimentConfig(experiment="level_exceedance", n_grid=(1000, 10**12),
                              replications=3, seed=1, workers=1)
    with pytest.raises(ResourceGuardError, match="physical memory"):
        run_experiment(config)
    assert calls == [10**12]


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_the_memory_guard_counts_the_values_each_kernel_returns(case, monkeypatch):
    """The width an experiment gives :func:`experiments._run` is its table's."""
    widths, tables = [], []
    run, replicate = experiments._run, experiments._replicate

    def recording_run(config, kernel, summarise, width=0):
        widths.append(width)
        return run(config, kernel, summarise, width)

    def recording_replicate(*args):
        tables.append(replicate(*args))
        return tables[-1]

    monkeypatch.setattr(experiments, "_run", recording_run)
    monkeypatch.setattr(experiments, "_replicate", recording_replicate)
    run_experiment(ExperimentConfig(**{**MATRIX[case], "replications": 2}, workers=1))
    assert [table.shape for table in tables] == [(2, *widths)] * len(tables)
    assert tables or widths == [0]


def test_replications_past_physical_memory_derive_no_seed(monkeypatch):
    """At 1 MiB of memory, 10^4 replications of 12 values are refused before
    any seed is derived, and 100 still run."""
    sysconf = os.sysconf
    pages = (1 << 20) // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
    config = ExperimentConfig(**{**MATRIX["level_exceedance"], "replications": 100}, workers=1)
    assert len(run_experiment(config).rows) == 8

    def refusing(*args):
        raise AssertionError("a seed was derived")

    monkeypatch.setattr(experiments, "derive_seed", refusing)
    with pytest.raises(ResourceGuardError, match="running 10000 replications needs about 6 MiB"):
        run_experiment(replace(config, replications=10**4))


# sha256 of the rows of level_exceedance at n_grid=(500, 200, 500), 3 replications, seed 1,
# as they were when every grid entry was replicated in turn
REPEATED_N_ROWS = "8473ef706d7046d254a2dfd7d9099a1e139d346d7578e7ae2bac0187734209a4"


def test_a_repeated_n_replicates_once_and_reports_twice(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    rep = run_experiment(ExperimentConfig(experiment="level_exceedance", n_grid=(500, 200, 500),
                                          replications=3, seed=1, workers=1))
    assert calls == [500] * 3 + [200] * 3
    assert [row["point"]["n"] for row in rep.rows] == [500, 200, 500]
    assert rep.rows[0] == rep.rows[2]
    assert rows_digest(rep) == REPEATED_N_ROWS
