import json
import struct
import time
import tracemalloc

import pytest

from urtlab.cli import cli_main
from urtlab import experiments
from urtlab.tree import load_tree


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_on_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_no_arguments_is_invalid(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "generate" in out


def test_generate_prints_parent_sequence(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "6", "--seed", "42")
    assert code == 0
    parents = json.loads(out)
    assert len(parents) == 5
    assert all(parents[i] <= i for i in range(5))
    assert "# urtlab generate" in err and '"seed": 42' in err


def test_generate_stats_pipeline(tmp_path, capsys):
    tree_file = tmp_path / "t.urt"
    code, _, _ = run_cli(capsys, "generate", "--model", "preferential", "--n", "500",
                         "--seed", "7", "--out", str(tree_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "stats", "--in", str(tree_file), "--k", "1,2", "--t", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 500
    assert payload["model"] == "preferential"
    assert sum(payload["level_sizes"]) == 500
    assert sum(payload["degree_histogram"].values()) == 500
    assert payload["max_degree"] >= 2
    assert len(payload["exceedance_fractions"]) == 2


def _tree_file(tmp_path, n, parents, extra=b""):
    """A URT1 dump with header node count ``n`` (uniform, seed 0) and the given parents."""
    path = tmp_path / "t.urt"
    body = struct.pack(f"<{len(parents)}I", *parents)
    path.write_bytes(struct.pack("<4sQBQ", b"URT1", n, 0, 0) + body + extra)
    return path


def _assert_bad_tree_file(capsys, path, message):
    with pytest.raises(ValueError, match=message):
        load_tree(path)
    code, out, err = run_cli(capsys, "stats", "--in", str(path))
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


def test_load_tree_rejects_trailing_bytes(tmp_path, capsys):
    path = _tree_file(tmp_path, 4, [0, 0, 1], extra=b"\x00")
    _assert_bad_tree_file(capsys, path, "needs 12 bytes of parent entries, but the file holds 13")


def test_load_tree_rejects_zero_nodes(tmp_path, capsys):
    _assert_bad_tree_file(capsys, _tree_file(tmp_path, 0, []), "node count must be >= 1, got 0")


def test_load_tree_refuses_a_corrupt_huge_n_before_allocating(tmp_path, capsys):
    path = _tree_file(tmp_path, 2**62, [0, 0, 1])
    tracemalloc.start()
    try:
        _assert_bad_tree_file(capsys, path, f"header says n = {2**62}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_stats_from_seed(capsys):
    code, out, _ = run_cli(capsys, "stats", "--model", "uniform", "--n", "100", "--seed", "3")
    assert code == 0
    assert json.loads(out)["n"] == 100


def test_stats_without_input_is_invalid(capsys):
    code, _, err = run_cli(capsys, "stats", "--model", "uniform")
    assert code == 1
    assert "error" in err


def test_bijection_forward_and_inverse(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--parents", "0,1")
    assert code == 0
    assert json.loads(out) == [1, 3, 2]
    code, out, _ = run_cli(capsys, "bijection", "--perm", "1,3,2")
    assert code == 0
    assert json.loads(out) == [0, 1]


def test_bijection_fixed_points_and_errors(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--perm", "1,2,3", "--fixed-points")
    assert code == 0
    assert out.strip() == "2"
    code, _, err = run_cli(capsys, "bijection", "--perm", "2,1")
    assert code == 1
    assert "position 1" in err
    code, _, _ = run_cli(capsys, "bijection", "--perm", "1,2", "--parents", "0")
    assert code == 1


def test_moments_prints_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "moments", "--n", "3", "--k", "0,1")
    assert code == 0
    assert out.strip() == "1/2"
    code, out, _ = run_cli(capsys, "moments", "--n", "9", "--k", "1")
    assert code == 0
    assert out.strip() == "1"


def test_moments_invalid_n(capsys):
    code, _, _ = run_cli(capsys, "moments", "--n", "1", "--k", "1")
    assert code == 1


def test_moments_table_csv(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "moments", "--n", "4", "--k", "0,1", "--table",
                         "--ns", "2,3,4", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "n,k,numerator,denominator"
    assert "3,0-1,1,2" in lines


def test_moments_beyond_the_exact_guard_exits_2(capsys):
    """The guard is checked before the sweep starts, so these return at once."""
    code, out, err = run_cli(capsys, "moments", "--n", "1000000", "--k", "1")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "guarded to n <= 10000" in err
    code, _, err = run_cli(capsys, "moments", "--n", "4", "--k", "1", "--table",
                           "--ns", "4,20001")
    assert code == 2 and "Traceback" not in err


def test_enumerate_rejects_parameters_the_statistic_does_not_take(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4", "--statistic", "max_degree",
                             "--k", "1")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "unexpected keyword argument 'k'" in err
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--statistic",
                           "level_degree_count")
    assert code == 1 and "missing a required argument: 'd'" in err


def test_enumerate_distribution(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--statistic",
                           "level_degree_count", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == {"0": "1/2", "2": "1/2"}
    assert payload["expectation"] == "1/1"


def test_enumerate_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "12")
    assert code == 2
    assert "guard" in err


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--i", "1", "--n", "3", "--a", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == pytest.approx(5 / 6)
    assert payload["exact_tail_geq_a"] == pytest.approx(1 / 6)
    assert payload["upper_tail_bound"] == pytest.approx(0.7116, abs=5e-5)
    assert payload["upper_tail_bound"] >= payload["exact_tail_geq_a"]

    code, out, _ = run_cli(capsys, "bounds", "--n", "1000000", "--t", "0.5", "--eps", "0.1")
    payload = json.loads(out)
    assert code == 0
    assert payload["high_index_bound"] == pytest.approx(0.8710, abs=5e-5)
    assert payload["low_index_bound"] == pytest.approx(0.8913, abs=5e-5)


def test_bounds_small_exact_head_keeps_its_digits(capsys):
    # P(X <= 0) = P(no node after 2 attaches to it) = 2 / 10001; 1 - P(X > 0) cancels
    code, out, _ = run_cli(capsys, "bounds", "--i", "2", "--n", "10001", "--a", "0")
    assert code == 0
    assert json.loads(out)["exact_tail_leq_a"] == pytest.approx(2 / 10001, rel=1e-15)


def test_bounds_prints_exact_tails_at_any_span(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--i", "1", "--n", "1000000", "--a", "20")
    assert code == 0
    payload = json.loads(out)
    geq, leq = payload["exact_tail_geq_a"], payload["exact_tail_leq_a"]
    assert 0 < geq < 1 and 0 < leq < 1 and geq + leq > 1  # both hold P(X = 20)
    assert payload["upper_tail_bound"] >= geq


def test_bounds_threshold_past_the_support_is_immediate(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bounds", "--i", "1", "--n", "1000000", "--a", "2000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    payload = json.loads(out)
    assert payload["exact_tail_geq_a"] == 0.0 and payload["exact_tail_leq_a"] == 1.0


def test_bounds_past_the_work_guard_exits_2(capsys):
    code, out, err = run_cli(capsys, "bounds", "--i", "1", "--n", "1000000", "--a", "500")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "degree tails are guarded" in err


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "1000000000000", "--seed", "1"),
    ("stats", "--n", "1000000000000", "--seed", "1"),
    ("experiment", "level_exceedance", "--n", "1000000000000", "--reps", "4", "--seed", "1",
     "--workers", "1"),
    ("experiment", "level_exceedance", "--n", "1000000000000", "--reps", "4", "--seed", "1",
     "--workers", "2"),
])
def test_growth_past_physical_memory_exits_2_before_allocating(capsys, monkeypatch, argv):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)  # the last case uses a pool
    monkeypatch.delenv("URT_THREADS", raising=False)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "physical memory" in err and "Traceback" not in err
    assert peak < 2**20


def test_bounds_rejects_a_nan_threshold(capsys):
    code, out, err = run_cli(capsys, "bounds", "--i", "1", "--n", "3", "--a", "nan")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "threshold must be a number" in err


def test_bounds_domain_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "bounds", "--n", "100", "--t", "0.5", "--eps", "0.9")
    assert code == 1


def test_bounds_without_work_is_invalid(capsys):
    code, _, _ = run_cli(capsys, "bounds")
    assert code == 1


def test_experiment_json_report(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, _, err = run_cli(
        capsys, "experiment", "theorem31", "--n", "200", "--reps", "50",
        "--dmax", "2", "--seed", "42", "--workers", "1", "--out", str(out_file),
    )
    assert code == 0
    assert "# urtlab experiment" in err
    payload = json.loads(out_file.read_text())
    assert payload["schema"] == "urt-report/1"
    assert payload["experiment"] == "first_level_degrees"
    assert payload["seed"] == 42
    assert payload["rows"]


def test_experiment_file_omits_execution_settings(tmp_path, capsys):
    """Output path and worker count reach the stderr echo, not the report."""
    texts = []
    for tag, workers in (("a", "1"), ("b", "2")):
        out_file = tmp_path / f"r_{tag}.json"
        code, _, err = run_cli(
            capsys, "experiment", "theorem21", "--n", "100", "--reps", "8",
            "--seed", "5", "--workers", workers, "--out", str(out_file),
        )
        assert code == 0
        assert f'"workers": {workers}' in err and str(out_file) in err
        payload = json.loads(out_file.read_text())
        assert "workers" not in payload["config"] and "out" not in payload["config"]
        payload["runtime_ms"] = 0
        texts.append(json.dumps(payload, sort_keys=True))
    assert texts[0] == texts[1]


def test_experiment_echo_shows_the_clamped_worker_count(capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    monkeypatch.delenv("URT_THREADS", raising=False)
    code, _, err = run_cli(capsys, "experiment", "max_degree", "--n", "50", "--reps", "4",
                           "--seed", "1", "--workers", "1000000")
    assert code == 0
    assert '"workers": 1, "format": "json"' in err


def test_experiment_csv_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "degree_distribution", "--n", "500", "--reps", "3",
        "--seed", "1", "--dmax", "2", "--workers", "1", "--format", "csv",
    )
    assert code == 0
    assert out.startswith("# schema: urt-report/1")


def test_experiment_refuses_a_model_it_does_not_grow(capsys):
    """Only degree_distribution grows preferential trees; the rest would
    simulate uniform trees under a config that says otherwise."""
    uniform_only = sorted(e for e, fields in experiments.READS.items() if "model" not in fields)
    assert len(uniform_only) == 6
    for experiment in uniform_only + ["theorem21"]:
        code, out, err = run_cli(capsys, "experiment", experiment, "--n", "50", "--reps", "4",
                                 "--seed", "1", "--k", "2", "--model", "preferential",
                                 "--workers", "1")
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "grows uniform trees only" in err


@pytest.mark.parametrize("n", ["500", "20000"])
def test_level_exceedance_refuses_levels_below_one_before_simulating(capsys, monkeypatch, n):
    """At n <= 10^4 the oracle would refuse k < 1 only after the replications;
    past it nothing would, and a k = -1 row would be written."""
    calls = []
    monkeypatch.setattr(experiments, "_kernel_level_exceedance",
                        lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "experiment", "level_exceedance", "--n", n, "--k=-1,0",
                             "--reps", "4", "--seed", "1", "--workers", "1")
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "levels k >= 1" in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_experiment_rejects_a_non_finite_eps_up_front(capsys, monkeypatch, eps):
    calls = []
    monkeypatch.setattr(experiments, "_degree_law_sums", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "experiment", "tail_vs_bound", "--n", "500", "--reps", "2",
                             "--seed", "1", "--eps", eps, "--workers", "1")
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "eps must be finite" in err


def test_experiment_invalid_grid(capsys):
    code, _, _ = run_cli(capsys, "experiment", "level_exceedance", "--n", "100",
                         "--reps", "5", "--seed", "1", "--t", "1.5", "--workers", "1")
    assert code == 1


def test_experiment_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "experiment", "mystery", "--n", "100",
                         "--reps", "5", "--seed", "1")
    assert code == 1
