import argparse
import csv
import dataclasses
import json
import os
import re
import struct
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest

from urtlab import cli as cli_module
from urtlab.cli import build_parser, cli_main
from urtlab import experiments, moments, stats
from urtlab import tree as tree_module
from urtlab.bijection import fixed_points_after_first, tree_to_permutation
from urtlab.tree import grow_from_sequence, load_tree, save_tree


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


def test_load_tree_rejects_a_truncated_header(tmp_path, capsys):
    path = tmp_path / "t.urt"
    path.write_bytes(b"URT1" + bytes(6))
    _assert_bad_tree_file(capsys, path, "truncated header: 10 of 21 bytes")


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


def test_load_tree_names_the_node_whose_parent_is_not_earlier(tmp_path, capsys):
    path = _tree_file(tmp_path, 4, [0, 0, 7])
    _assert_bad_tree_file(capsys, path, r"parents\[2\]=7 is not a valid target for node 3")


def test_stats_from_a_file_echoes_the_tree_it_read(tmp_path, capsys):
    """The echo names the loaded tree, not the --model default; --n and
    --seed beside --in would be ignored, so they are refused."""
    tree_file = tmp_path / "t.urt"
    code, _, _ = run_cli(capsys, "generate", "--model", "preferential", "--n", "50",
                         "--seed", "7", "--out", str(tree_file))
    assert code == 0
    code, _, err = run_cli(capsys, "stats", "--in", str(tree_file))
    assert code == 0
    assert '"model": "preferential", "n": 50, "seed": 7' in err
    for extra in (["--n", "7"], ["--seed", "9"], ["--n", "7", "--seed", "9"]):
        code, out, err = run_cli(capsys, "stats", "--in", str(tree_file), *extra)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "drop --n and --seed" in err


def test_stats_refuses_a_model_beside_in(tmp_path, capsys):
    """The file fixes the model; a --model beside --in would be ignored."""
    tree_file = tmp_path / "t.urt"
    assert run_cli(capsys, "generate", "--n", "50", "--seed", "7", "--out", str(tree_file))[0] == 0
    for model in ("uniform", "preferential"):
        code, out, err = run_cli(capsys, "stats", "--in", str(tree_file), "--model", model)
        assert code == 1 and out == ""
        assert err.count("error:") == 1 and "drop --model" in err
    code, _, err = run_cli(capsys, "stats", "--n", "50", "--seed", "7", "--model", "preferential")
    assert code == 0 and '"model": "preferential"' in err


def test_stats_refuses_thresholds_without_levels(capsys):
    code, out, err = run_cli(capsys, "stats", "--n", "100", "--seed", "1", "--t", "0.5")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "--t needs --k" in err


@pytest.mark.parametrize("argv", [
    ["stats", "--n", "50", "--seed", "3", "--k", "1,2", "--t", "0.5"],
    ["enumerate", "--n", "5", "--statistic", "max_degree"],
    ["bounds", "--i", "3", "--n", "100", "--a", "4"],
    ["moments", "--n", "10", "--k", "1,1"],
    ["moments", "--k", "1", "--table", "--ns", "4,5"],
    ["experiment", "degree_distribution", "--n", "50", "--reps", "3", "--seed", "1",
     "--workers", "1", "--format", "csv"],
])
def test_out_file_holds_the_stdout_payload(tmp_path, capsys, argv):
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "payload.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == printed.encode()
    assert f'"out": {json.dumps(str(path))}' in err


def _fail(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("argv", [
    ["experiment", "level_sizes", "--n", "50", "--reps", "2", "--seed", "1"],
    ["moments", "--n", "10", "--k", "1"],
])
@pytest.mark.parametrize("where, reason", [
    ("missing/x.json", "no directory {tmp}/missing"),
    (".", "it is a directory"),
])
def test_an_unwritable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                     where, reason):
    """Exit 1 and one error line, before the echo; nothing is replicated or
    computed, and no file or directory is made."""
    monkeypatch.setattr(experiments, "_replicate", _fail)
    monkeypatch.setattr(cli_module, "exact_factorial_moment", _fail)
    out_path = tmp_path / where
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == f"error: cannot write --out {out_path}: {reason.format(tmp=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("extra", [(), ("--fixed-points",)], ids=["permutation", "fixed_points"])
def test_bijection_reads_a_tree_file_as_it_reads_parents(tmp_path, capsys, extra):
    path = tmp_path / "t.urt"
    save_tree(grow_from_sequence([0, 0, 1]), path)
    code, from_file, _ = run_cli(capsys, "bijection", "--in", str(path), *extra)
    assert code == 0
    code, from_parents, _ = run_cli(capsys, "bijection", "--parents", "0,0,1", *extra)
    assert code == 0
    perm = tree_to_permutation(grow_from_sequence([0, 0, 1]))
    expected = str(fixed_points_after_first(perm)) if extra else perm.to_json()
    assert from_file == from_parents == expected + "\n"


def test_an_empty_permutation_is_refused_in_both_modes(capsys):
    """``--fixed-points`` counted the fixed points of no permutation as 0."""
    for extra in ((), ("--fixed-points",)):
        code, out, err = run_cli(capsys, "bijection", "--perm", "", *extra)
        assert code == 1 and out == "", extra
        assert err.count("error:") == 1 and "empty permutation" in err, extra


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


def test_moments_refuses_ns_without_table(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "100", "--k", "1", "--ns", "5,6")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "--ns needs --table" in err


@pytest.mark.parametrize("argv", [
    ["--n", "100", "--k", "1", "--table", "--ns", "5,6"],
    ["--k", "1"],
    ["--k", "1", "--table"],
], ids=["both", "neither", "neither_with_table"])
def test_moments_takes_exactly_one_of_n_and_ns(capsys, argv):
    """--n once went unread beside --table --ns, while the echo reported it."""
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "exactly one of --n and --ns" in err
    assert "Traceback" not in err


def test_moments_table_at_n_alone(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "3", "--k", "0,1", "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,numerator,denominator" and "3,0-1,1,2" in lines
    assert '"n": 3' in err


def test_moments_table_csv(tmp_path, capsys):
    out_file = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "moments", "--k", "0,1", "--table",
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
    code, _, err = run_cli(capsys, "moments", "--k", "1", "--table", "--ns", "4,20001")
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize("k, guard", [
    ("0,0,0,0,6", "closure size x n^2"),  # 462 vectors: 0.56 s at n = 1000, 1.75 s at 2000
    (",".join(["0"] * 14 + ["14"]), "guarded to 1024 vectors"),  # about 10^8 vectors
])
def test_moments_closure_guards_exit_2_at_once(capsys, k, guard):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "moments", "--n", "10000" if "6" in k else "100", "--k", k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and guard in err and "Traceback" not in err
    assert peak < 2 * 2**20


def test_moments_table_kept_rows_are_guarded(capsys, monkeypatch):
    """Each kept row reduces one Fraction per closure vector: every n up to 4000
    took 4.3 s for (1, 1, 1), so every n up to 10^4 is refused before the sweep."""
    sweeps = []
    real_sweep = moments._sweep

    def sweep(plan, n_max, kept):
        assert len(kept) <= 3, "every n up to 10^4 reached the sweep"
        sweeps.append(n_max)
        return real_sweep(plan, n_max, kept)

    monkeypatch.setattr(moments, "_sweep", sweep)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "moments", "--k", "1,1,1", "--table",
                             "--ns", ",".join(map(str, range(2, 10_001))))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and sweeps == []
    assert err.count("error:") == 1 and "sum of kept n^2" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "moments", "--k", "1,1,1", "--table",
                           "--ns", "2,100,1000")
    assert code == 0 and len(sweeps) == 1 and out.count("\n") == 1 + 3 * 14


def _parse_fraction(numerator, denominator="1"):
    """int() of a string refuses more than 4300 digits; Decimal does not."""
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator)))


def test_moments_print_whole_values_past_the_int_digit_limit(capsys):
    """E(10^4, (1, 1, 1)) has about 6,500 digits above and below the bar, past
    str()'s 4300: both paths once exited 1, the table after a partial CSV."""
    table = moments.MomentTable((1, 1, 1), [2, 10_000])
    exact = moments.exact_factorial_moment(10_000, (1, 1, 1))
    assert table.value(10_000, (1, 1, 1)) == exact and exact.denominator > 10**4300
    code, out, err = run_cli(capsys, "moments", "--n", "10000", "--k", "1,1,1")
    assert code == 0 and "error" not in err
    assert _parse_fraction(*out.strip().split("/")) == exact
    code, out, err = run_cli(capsys, "moments", "--k", "1,1,1", "--table", "--ns", "2,10000")
    assert code == 0 and "error" not in err
    header, *rows = csv.reader(out.splitlines())
    assert header == ["n", "k", "numerator", "denominator"]
    assert [(int(n), k, _parse_fraction(num, den)) for n, k, num, den in rows] == [
        (n, str(v), value) for n, v, value in table.rows()]


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


@pytest.mark.parametrize("n", ["0", "1"])
def test_enumerate_below_two_nodes_is_a_domain_error(capsys, n):
    """Too few nodes is a bad input (exit 1), not a resource guard (exit 2)."""
    code, out, err = run_cli(capsys, "enumerate", "--n", n)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "n >= 2" in err and "Traceback" not in err


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
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "physical memory" in err and "Traceback" not in err
    assert peak < 2**20


def test_replications_past_physical_memory_exit_2_before_any_seed(capsys, monkeypatch):
    """With 1 MiB of memory, 10^5 replications of one value each are refused
    after the echo, before a seed is derived or a replication runs."""
    sysconf = os.sysconf
    pages = (1 << 20) // sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
    monkeypatch.setattr(experiments, "derive_seed", _fail)
    monkeypatch.setattr(experiments, "_replicate", _fail)
    code, out, err = run_cli(capsys, "experiment", "level_sizes", "--n", "50", "--reps", "100000",
                             "--seed", "1")
    assert code == 2 and out == ""
    echo, error = err.splitlines()
    assert echo.startswith("# urtlab experiment")
    assert error == ("error: running 100000 replications needs about 16 MiB, "
                     "more than the 1 MiB of physical memory")


@pytest.mark.parametrize("work", [("--a", "3"), ("--t", "0.5", "--eps", "0.1")])
def test_bounds_expected_children_past_its_span_guard_exits_2(capsys, work):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--i", "1", "--n", "1000000000000", *work)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "expected children are guarded" in err


@pytest.mark.parametrize("a, message", [
    ("nan", "threshold must be a number"),
    ("inf", "needs finite a > s > 0"),
    ("1e200", None),  # finite: both upper bounds underflow to 0
], ids=["nan", "inf", "1e200"])
def test_bounds_rejects_a_nan_threshold(capsys, a, message):
    code, out, err = run_cli(capsys, "bounds", "--i", "1", "--n", "3", "--a", a)
    assert "NaN" not in out + err and "Infinity" not in out + err
    if message is None:
        assert code == 0 and "error:" not in err
        payload = json.loads(out)
        assert payload["upper_tail_bound"] == payload["chernoff_upper_raw"] == 0.0
        return
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and message in err


@pytest.mark.parametrize("n, eps, message", [
    ("100", "0.9", "0 < eps < t < 1"),
    ("0", "0.1", "n >= 1, got n=0"),
], ids=["eps-past-t", "n-zero"])
def test_bounds_domain_error_exit_code(capsys, n, eps, message):
    code, out, err = run_cli(capsys, "bounds", "--n", n, "--t", "0.5", "--eps", eps)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and message in err


@pytest.mark.parametrize("a, geq", [("1", 0.0), ("0", 1.0)])
def test_bounds_at_the_last_node_gives_exact_tails(capsys, a, geq):
    """Node n gains no children: X = 0, no Chernoff bound applies at s = 0,
    and both exact tails are printed."""
    code, out, err = run_cli(capsys, "bounds", "--i", "10", "--n", "10", "--a", a)
    assert code == 0 and "error:" not in err
    payload = json.loads(out)
    assert payload["s"] == 0.0
    assert payload["exact_tail_geq_a"] == geq and payload["exact_tail_leq_a"] == 1.0
    assert not {"upper_tail_bound", "chernoff_upper_raw", "lower_tail_bound"} & payload.keys()


@pytest.mark.parametrize("argv, message", [
    (["--a", "3", "--t", "0.5", "--n", "100", "--eps", "0.1"], "--a needs --i"),
    (["--i", "5", "--n", "100", "--eps", "0.1"], "--eps needs --t"),
    (["--i", "5", "--a", "3"], "--i needs --n"),
    (["--t", "0.5"], "--t needs --n"),
    (["--t", "0.5", "--n", "100"], "--t needs --eps"),
])
def test_bounds_refuses_a_flag_without_the_one_it_needs(capsys, argv, message):
    """--a and --eps were echoed and then ignored without --i and --t."""
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and f"error: {message}\n" in err


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
    code, _, err = run_cli(capsys, "experiment", "degree_distribution", "--n", "50", "--reps",
                           "4", "--seed", "1", "--workers", "1000000")
    assert code == 0
    assert '"workers": 1, "format": "json"' in err


def test_experiment_echo_shows_the_workers_that_run(capsys, monkeypatch):
    """Fewer than four replications, or no simulation at all, run in process:
    the echo reads 1 there, and a pool opens exactly when it reads more."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    pools = []
    context = experiments.get_context()

    def pool(workers, *setup):
        pools.append(workers)
        return context.Pool(workers, *setup)

    monkeypatch.setattr(experiments, "get_context", lambda: SimpleNamespace(Pool=pool))
    for argv, workers in ((("level_exceedance", "--reps", "3"), 1),
                          (("tail_vs_bound", "--reps", "5"), 1),
                          (("level_exceedance", "--reps", "8"), 2)):
        pools.clear()
        code, _, err = run_cli(capsys, "experiment", *argv, "--n", "100", "--seed", "1",
                               "--workers", "2")
        assert code == 0, argv
        assert f'"workers": {workers}, ' in err, argv
        assert pools == ([workers] if workers > 1 else []), argv


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
    assert uniform_only == sorted(set(experiments.EXPERIMENTS) - {"degree_distribution"})
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


def test_level_exceedance_past_the_support_reports_at_once(capsys):
    """No node of a 100-node tree is at level 10^8: the exact columns are 0."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "experiment", "level_exceedance", "--n", "100",
                             "--k", "100000000", "--reps", "2", "--seed", "1", "--workers", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "error" not in err
    (row,) = json.loads(out)["rows"]
    assert row["exact_numerator"] == 0.0 and row["exact_level_size"] == 0.0
    assert row["replications_used"] == 0


@pytest.mark.parametrize("n, k", [("100", "100000000"), ("1000", "500"), ("1000", "2,171")])
def test_level_sizes_refuses_a_level_without_a_double_scale(capsys, monkeypatch, n, k):
    """(ln n)^k/k! underflows, or k! overflows a double from k = 171 on:
    refused before anything is simulated."""
    calls = []
    monkeypatch.setattr(experiments, "_kernel_level_sizes", lambda *args: calls.append(args))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "experiment", "level_sizes", "--n", n, "--k", k,
                             "--reps", "2", "--seed", "1", "--workers", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "does not fit a normal double" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_experiment_rejects_a_non_finite_eps_up_front(capsys, monkeypatch, eps):
    calls = []
    monkeypatch.setattr(experiments, "_degree_law_sums", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "experiment", "tail_vs_bound", "--n", "500", "--reps", "2",
                             "--seed", "1", "--eps", eps, "--workers", "1")
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "eps must be finite" in err


@pytest.mark.parametrize("experiment", ["level_exceedance", "degree_distribution", "tail_vs_bound"])
def test_experiment_flags_left_out_take_the_config_defaults(capsys, experiment):
    """The parser holds no defaults of its own: a run without the optional
    flags echoes and reports ``ExperimentConfig``'s."""
    defaults = experiments.ExperimentConfig(experiment, (60,), 2, 1).to_dict()
    code, out, err = run_cli(capsys, "experiment", experiment, "--n", "60", "--reps", "2",
                             "--seed", "1")
    assert code == 0
    (echo,) = [line for line in err.splitlines() if line.startswith("# urtlab experiment ")]
    echo = json.loads(echo[len("# urtlab experiment "):])
    for field in experiments.READS[experiment]:
        assert echo[field] == defaults[field], field
    config = json.loads(out)["config"]
    assert experiments.READS[experiment]
    for field in experiments.READS[experiment]:
        assert config[field] == defaults[field], field


@pytest.mark.parametrize("flag", ["--k", "--t"])
def test_experiment_refuses_an_empty_grid(capsys, flag):
    code, out, err = run_cli(capsys, "experiment", "level_exceedance", "--n", "100",
                             "--reps", "5", "--seed", "1", flag, "", "--workers", "1")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "grid must be nonempty" in err


@pytest.mark.parametrize("argv, line", [
    (["higher_level_small_degree"], "this experiment needs levels k >= 2, got --k 1"),
    (["level_exceedance", "--k=-1,2"], "this experiment needs levels k >= 1, got --k -1,2"),
    (["level_exceedance", "--t", "0.5,1.5"], "t values must lie in (0, 1), got --t 0.5,1.5"),
    (["level_exceedance", "--k", ""], "--k grid must be nonempty"),
    (["first_level_degrees", "--dmax", "0"], "the degree cap must be >= 1, got --dmax 0"),
    (["degree_distribution", "--reps", "0"],
     "an experiment needs at least one replication, got --reps 0"),
    (["first_level_degrees", "--dmax", "7"], "this experiment caps the degree at 6, got --dmax 7"),
    (["degree_distribution", "--n", "10", "--dmax", "11"],
     "--dmax 11 exceeds the largest n=10, and a degree is at most n - 1"),
    (["tail_vs_bound", "--eps", "nan"], "eps must be finite, got --eps nan"),
    (["level_exceedance", "--k", "0"], "this experiment needs levels k >= 1, got --k 0"),
    (["level_sizes", "--k=-1"], "level k must be >= 0, got -1 in --k -1"),
    (["level_sizes", "--n", "100", "--k", "100000000"],
     "level k=100000000 at n=100: (ln n)^k/k! does not fit a normal double, "
     "so no ratio to it can be formed"),
    (["level_exceedance", "--n", "100000,1"],
     "experiment 'level_exceedance' needs n >= 2, got 1 in --n 100000,1"),
    (["level_sizes", "--model", "preferential"],
     "experiment 'level_sizes' grows uniform trees only; --model preferential applies to "
     "degree_distribution"),
])
def test_experiment_refusals_give_the_flag_as_typed(capsys, monkeypatch, argv, line):
    """Refusals printed the grids as Python tuples, and config fields in
    place of flags; the runners refused after the echo.  Every refusal is
    now the one stderr line: no echo, no pool, no kernel call."""
    calls = []
    for name in [name for name in vars(experiments) if name.startswith("_kernel_")]:
        monkeypatch.setattr(experiments, name, lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "_degree_law_sums", lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "get_context", lambda: calls.append("pool"))
    code, out, err = run_cli(capsys, "experiment", "--n", "50", "--reps", "4", "--seed", "1",
                             "--workers", "2", *argv)
    assert code == 1 and out == "" and calls == []
    assert err == f"error: {line}\n"


def test_tail_vs_bound_runs_without_reps_or_seed(capsys):
    """Both flags were required of every experiment, though this one reads neither."""
    code, out, err = run_cli(capsys, "experiment", "tail_vs_bound", "--n", "500")
    assert code == 0 and "error" not in err
    report = json.loads(out)
    assert report["config"] == {"experiment": "tail_vs_bound", "n_grid": [500], "t_grid": [0.5],
                                "eps": 0.1}
    assert report["seed"] is None and report["rows"]
    assert all("seed" not in row for row in report["rows"])
    code, out, _ = run_cli(capsys, "experiment", "tail_vs_bound", "--n", "500", "--format", "csv")
    assert code == 0 and out.splitlines()[0].endswith(", seed: null")


@pytest.mark.parametrize("experiment", ["level_exceedance", "degree_distribution"])
@pytest.mark.parametrize("missing", ["--reps", "--seed"])
def test_a_simulating_experiment_refuses_a_missing_reps_or_seed(capsys, monkeypatch,
                                                                experiment, missing):
    calls = []
    for name in [name for name in vars(experiments) if name.startswith("_kernel_")]:
        monkeypatch.setattr(experiments, name, lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "get_context", lambda: calls.append("pool"))
    given = [arg for flag, value in (("--reps", "4"), ("--seed", "1")) if flag != missing
             for arg in (flag, value)]
    code, out, err = run_cli(capsys, "experiment", experiment, "--n", "50", "--workers", "2",
                             *given)
    assert code == 1 and out == "" and calls == []
    assert err == f"error: experiment {experiment!r} needs {missing}\n"


@pytest.mark.parametrize("experiment", sorted(experiments.EXPERIMENTS))
def test_the_experiment_echo_holds_the_report_config(capsys, experiment):
    """The stderr line dumped every config field, read or not."""
    code, out, err = run_cli(capsys, "experiment", experiment, "--n", "60", "--reps", "2",
                             "--seed", "1", "--k", "2", "--dmax", "2", "--workers", "1")
    assert code == 0
    (echo,) = [line for line in err.splitlines() if line.startswith("# urtlab experiment ")]
    echo = json.loads(echo[len("# urtlab experiment "):])
    for execution in ("id", "workers", "out", "format"):
        echo.pop(execution, None)
    assert echo == json.loads(out)["config"]


@pytest.mark.parametrize("argv, line", [
    (["experiment", "level_exceedance", "--n", "1e3", "--reps", "2", "--seed", "1"],
     "--n takes comma-separated integers, got --n 1e3"),
    (["stats", "--n", "10", "--seed", "1", "--k", "1.5"],
     "--k takes comma-separated integers, got --k 1.5"),
    (["stats", "--n", "10", "--seed", "1", "--k", "1", "--t", "abc"],
     "--t takes comma-separated numbers, got --t abc"),
    (["moments", "--n", "5", "--k", "1,x"], "--k takes comma-separated integers, got --k 1,x"),
    (["moments", "--k", "1", "--table", "--ns", "3,y"],
     "--ns takes comma-separated integers, got --ns 3,y"),
    (["bijection", "--parents", "0,a"],
     "--parents takes comma-separated integers, got --parents 0,a"),
    (["bijection", "--perm", "1,b"], "--perm takes comma-separated integers, got --perm 1,b"),
])
def test_a_list_that_does_not_parse_is_refused_with_its_flag(capsys, argv, line):
    """The refusal was Python's own message, which names no flag."""
    assert run_cli(capsys, *argv) == (1, "", f"error: {line}\n")


def test_experiment_flags_are_the_config_settings():
    """``FLAGS`` names a flag for every config field but the experiment, and
    the ``experiment`` command takes those flags and its own two."""
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for action in commands.choices["experiment"]._actions
             for flag in action.option_strings}
    assert flags == set(experiments.FLAGS.values()) | {"-h", "--help", "--out", "--format"}
    fields = {field.name for field in dataclasses.fields(experiments.ExperimentConfig)}
    assert set(experiments.FLAGS) == fields - {"experiment"}


def test_experiment_invalid_grid(capsys):
    code, _, _ = run_cli(capsys, "experiment", "level_exceedance", "--n", "100",
                         "--reps", "5", "--seed", "1", "--t", "1.5", "--workers", "1")
    assert code == 1


def test_experiment_unknown_id(capsys):
    code, _, _ = run_cli(capsys, "experiment", "mystery", "--n", "100",
                         "--reps", "5", "--seed", "1")
    assert code == 1


@pytest.mark.parametrize("params", [
    ["enumerate", "--n", "4", "--statistic", "level_size"],
    ["enumerate", "--n", "4", "--statistic", "level_degree_count", "--d", "1"],
    ["enumerate", "--n", "4", "--statistic", "exceedance_count", "--t", "0.5"],
    ["stats", "--n", "10", "--seed", "1"],
    ["stats", "--n", "10", "--seed", "1", "--t", "0.5"],
    ["experiment", "level_sizes", "--n", "100", "--reps", "2", "--seed", "1"],
])
def test_enumerate_refuses_a_negative_level(capsys, monkeypatch, params):
    """So do stats, which answered level -1 with an empty profile, and
    level_sizes, before anything is simulated."""
    calls = []
    monkeypatch.setattr(experiments, "_kernel_level_sizes", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, *params, "--k", "-1")
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "level k must be >= 0, got -1" in err


@pytest.mark.parametrize("argv, code, line", [
    (["stats", "--n", "10", "--seed", "1", "--k=-1"], 1, "level k must be >= 0, got -1"),
    (["stats", "--n", "10", "--seed", "1", "--k", "1", "--t", "1.5"], 1,
     "t must lie in (0, 1), got 1.5"),
    (["enumerate", "--n", "4", "--statistic", "level_size", "--k=-1"], 1,
     "statistic 'level_size': level k must be >= 0, got -1"),
    (["enumerate", "--n", "4", "--statistic", "max_degree", "--k", "1"], 1,
     "statistic 'max_degree': got an unexpected keyword argument 'k'"),
    (["enumerate", "--n", "4", "--statistic", "exceedance_count", "--k", "1", "--t", "1.5"], 1,
     "statistic 'exceedance_count': t must lie in (0, 1), got 1.5"),
    (["enumerate", "--n", "12"], 2, "enumeration is guarded to n <= 11, got 12"),
    (["stats", "--n", "10", "--seed", "1", "--k", "9", "--t", "0.5"], 1, "level 9 is empty (n=10)"),
    # an all-zero law: at n >= 2 no node has degree below 1
    (["enumerate", "--n", "4", "--statistic", "level_degree_count", "--d", "0"], 1,
     "statistic 'level_degree_count': degree d must be >= 1, got 0"),
    (["enumerate", "--n", "4", "--statistic", "level_degree_count", "--d=-1"], 1,
     "statistic 'level_degree_count': degree d must be >= 1, got -1"),
    (["bijection", "--perm", "2,1"], 1, "images of the tree map fix position 1"),
    (["bijection", "--perm", "1,1"], 1, "values must be a permutation of 1..n"),
    (["bijection", "--parents", "0,5"], 1, "parents[1]=5 is not a valid target for node 2"),
    (["moments", "--n", "1", "--k", "1"], 1, "moments are anchored at n=2; got n=1"),
    (["moments", "--n", "20000", "--k", "1"], 2,
     "exact moments are guarded to n <= 10000, got n=20000; factorial_moments_float serves "
     "larger n"),
    (["bounds", "--i", "5", "--n", "3"], 1, "need 1 <= i <= n, got i=5, n=3"),
    (["bounds", "--i", "1", "--n", "1000000", "--a", "500"], 2,
     "degree tails are guarded to (n - i) x rows <= 1e+08, got 999999 x 513"),
    (["bounds", "--n", "100", "--t", "0.5", "--eps", "0.7"], 1,
     "high-index bound needs 0 < eps < t < 1, got t=0.5, eps=0.7"),
])
def test_stats_and_enumerate_refuse_before_the_echo(capsys, argv, code, line):
    """Both echoed their settings and then refused a level or threshold, as
    bijection, moments and bounds did a setting they could not run."""
    got, out, err = run_cli(capsys, *argv)
    assert (got, out, err) == (code, "", f"error: {line}\n")


@pytest.mark.parametrize("flag", ["--t=1.5", "--k=-5", "--dmax=0", "--eps=nan", "--reps=0",
                                  "--seed=-1", "--k=", "--t="])
def test_experiment_leaves_settings_it_never_reads_unchecked(capsys, flag):
    """degree_distribution reads neither t nor k, and level_sizes reads no
    degree cap: an unread --t 1.5 was once refused while --k -5 ran, and an
    empty --k or --t grid was refused wherever it was given.  tail_vs_bound
    reads neither the replication count nor the seed: it refused --reps 0,
    and echoed the seed and wrote it on every row."""
    argv = ["experiment", "degree_distribution", "--n", "50", "--reps", "2", "--seed", "1",
            "--workers", "1"]
    if flag.startswith("--dmax"):
        argv[1] = "level_sizes"
    if flag.startswith(("--reps", "--seed")):
        argv = ["experiment", "tail_vs_bound", "--n", "500", "--workers", "1"]
    reports = []
    for extra in ([], [flag]):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        reports.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out))
    assert reports[1] == reports[0]


@pytest.mark.parametrize("argv", [
    ["degree_distribution", "--n", "10", "--reps", "1", "--seed", "1", "--dmax", "1000000000"],
    ["higher_level_small_degree", "--n", "10", "--reps", "1", "--seed", "1", "--k", "2",
     "--dmax", "100000000"],
])
def test_experiment_refuses_a_dmax_past_every_degree_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "experiment", *argv, "--workers", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "exceeds the largest n=10" in err


@pytest.mark.parametrize("experiment", ["level_exceedance", "first_level_degrees"])
def test_level_experiments_refuse_one_node_before_simulating(capsys, monkeypatch, experiment):
    """The references start at n = 2; every n = 10^5 replication used to run first."""
    calls = []
    kernel = f"_kernel_{experiment}"
    monkeypatch.setattr(experiments, kernel, lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, "experiment", experiment, "--n", "100000,1", "--reps", "4",
                             "--seed", "1", "--workers", "1")
    assert code == 1 and out == "" and calls == []
    assert err.count("error:") == 1 and "needs n >= 2, got 1" in err and "Traceback" not in err


def test_level_one_statistics_never_derive_levels(capsys, monkeypatch):
    """Level 1 is read off the parents; degree laws and fixed points need no levels.

    The four level kernels stream capped levels, so none of them derives a
    tree's levels at any k.  Up to a cap of ``_MARK_CAP`` the level pass
    marks the low levels and walks no chains; past it, it walks them in
    blocks.  Preferential growth walks its copy links at every k.
    """
    def refuse(parent):
        raise AssertionError("levels were derived")

    walks = []
    chain_ends = tree_module._chain_ends

    def watch(link, start):
        walks.append(start)
        return chain_ends(link, start)

    monkeypatch.setattr(tree_module, "_levels_from_parents", refuse)
    monkeypatch.setattr(tree_module, "_chain_ends", watch)
    # a profile of level k caps levels at k + 1; level sizes up to k cap them at k
    marked, walked = str(tree_module._MARK_CAP - 1), str(tree_module._MARK_CAP)
    sized, sized_past = str(tree_module._MARK_CAP), str(tree_module._MARK_CAP + 1)
    for argv, walk in ((("experiment", "first_level_degrees", "--n", "500"), False),
                       (("experiment", "level_exceedance", "--n", "500", "--k", "1",
                         "--t", "0.3,0.6"), False),
                       (("experiment", "degree_distribution", "--n", "500"), False),
                       (("experiment", "degree_distribution", "--n", "500",
                         "--model", "preferential"), True),
                       (("experiment", "level_exceedance", "--n", "500", "--k", f"2,{marked}"), False),
                       (("experiment", "level_exceedance", "--n", "500", "--k", f"2,{walked}"), True),
                       (("experiment", "level_sizes", "--n", "500", "--k", f"0,1,{sized}"), False),
                       (("experiment", "level_sizes", "--n", "500", "--k", f"0,{sized_past}"), True),
                       (("experiment", "higher_level_small_degree", "--n", "500",
                         "--k", f"2,{marked}"), False),
                       (("experiment", "higher_level_small_degree", "--n", "500",
                         "--k", f"2,{walked}"), True)):
        walks.clear()
        code, _, err = run_cli(capsys, *argv, "--reps", "4", "--seed", "1", "--workers", "1")
        assert code == 0 and "error" not in err, argv
        assert bool(walks) == walk, argv
    code, out, err = run_cli(capsys, "enumerate", "--n", "6", "--statistic", "fixed_points")
    assert code == 0 and json.loads(out)["expectation"] == "1/1"
