"""urtlab benchmark: end-to-end and per-layer metrics for four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload poisson_first_level --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload body, each time in a fresh process with
the pool at ``min(2, nproc)`` workers, until ``--seconds`` is used up (at
least twice), and reports medians over the repetitions:

    wall_s       wall time of the body (time to a result at the stated n and R)
    setup_s      spawn of the workload process until urtlab is imported and
                 the inputs are built
    cpu_s        user + sys time of the body, pool workers included
    peak_rss_mb  peak RSS of the process and its workers
    pass_rate    checks passed / checks attempted, over the whole run

``--trace 1`` reports the per-layer metrics instead.  It runs the body on
one seed: twice single-worker with every span of ``tracing.SPANS``
installed, twice single-worker with only the ``_replicate`` span (in the
order traced, untraced, untraced, traced), and, for the Monte Carlo
workloads, once at the timed worker count with only that span.  Traced
against untraced gives the tracing overhead, single-worker against the
timed worker count the pool speed-up; the rows of all runs must be equal.

``--smoke`` runs every workload at a small size; ``--wrong-reference``
shifts every reference value of the checks so that all of them must fail.
The last line of standard output is the JSON result.  Sizes, checks and
their false-failure rates are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("poisson_first_level", "exceedance_1e6", "exact_oracles", "degree_laws_1e6")
MONTE_CARLO = ("poisson_first_level", "exceedance_1e6", "degree_laws_1e6")
MIN_REPS = 2
# child.calibrate() on the host this benchmark was built on (2 vCPU at 2.0
# GHz) when no other tenant slowed it; timings are scaled to that speed
CALIBRATION_REF_S = 0.016
DEADLINE_S = 170.0  # every process started is ended before this


class BenchError(RuntimeError):
    pass


def rep_seed(seed: int, rep: int) -> int:
    """64-bit experiment seed for repetition ``rep`` of a run."""
    digest = hashlib.sha256(f"urtlab-bench:{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    # URT_THREADS silently overrides --workers inside urtlab
    env.pop("URT_THREADS", None)
    # pool workers x BLAS threads must stay within nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_TMP"] = tmp
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run one workload process; return its result with ``setup_s`` added."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(spec["tmp"]), cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['workload']} did not finish before the deadline") from None
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{spec['workload']} exited with code {proc.returncode}:\n{tail}")
    result = json.loads(out.strip().splitlines()[-1])
    cal = result["calibration_s"]
    result["raw_setup_s"] = result["ready_monotonic"] - started
    result["setup_s"] = result["raw_setup_s"] * CALIBRATION_REF_S / cal[0]
    # each step is scaled by the machine speed measured just before and after it
    scales = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(cal, cal[1:])]
    steps = result["steps"]
    for key in ("wall_s", "user_s", "sys_s"):
        result["raw_" + key] = sum(step[key] for step in steps)
        result[key] = sum(step[key] * scale for step, scale in zip(steps, scales))
    result["minflt"] = sum(step["minflt"] for step in steps)
    return result


def _spec(args, seed: int, workers: int, spans) -> dict:
    return {
        "workload": args.workload,
        "size": "smoke" if args.smoke else "full",
        "seed": seed,
        "workers": workers,
        "spans": list(spans),
        "wrong_reference": args.wrong_reference,
        "tmp": args.tmp,
    }


def timed_run(args, workers: int, deadline: float):
    runs = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(spawn(_spec(args, rep_seed(args.seed, len(runs)), workers, ()), deadline))
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
        if len(runs) >= MIN_REPS and now - start + (now - began) > args.seconds:
            break
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    def median(key):
        return statistics.median(r[key] for r in runs)

    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "cpu_s": (statistics.median(r["user_s"] + r["sys_s"] for r in runs), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MiB"),
        "pass_rate": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }
    notes = {
        "repetitions": len(runs),
        "wall_s_each": [round(r["wall_s"], 4) for r in runs],
        "user_s_median": median("user_s"),
        "sys_s_median": median("sys_s"),
        "uncalibrated_medians": {key: median("raw_" + key)
                                 for key in ("wall_s", "setup_s", "user_s", "sys_s")},
        "calibration_s_median": statistics.median(c for r in runs for c in r["calibration_s"]),
    }
    return runs, attempted, failed, metrics, notes


def _span_value(trace, name, field="total_s", per_call=False, scale=1e3):
    """Span statistic, or None when the entry point no longer exists."""
    if name in trace["absent"]:
        return None
    span = trace["spans"].get(name)
    if not span or not span["count"]:
        return 0.0
    value = span[field] * scale
    return value / span["count"] if per_call else value


def _mean(values):
    values = list(values)
    return None if None in values else sum(values) / len(values)


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


def layer_metrics(traced, single, pooled, workers):
    """Per-layer metrics; ``None`` marks an entry point that is gone.

    ``traced`` and ``single`` are two single-worker runs each, with every
    span and with the ``_replicate`` span only; spans come from the first
    traced run.
    """
    tr = traced[0]["trace"]

    def per_call(name, field="total_s", scale=1e3):
        return _span_value(tr, name, field, per_call=True, scale=scale)

    def total(name, field="total_s", scale=1e3):
        return _span_value(tr, name, field, scale=scale)

    rep1 = _mean(_span_value(run["trace"], "experiments.replicate") for run in single)
    rep2 = _span_value(pooled["trace"], "experiments.replicate") if pooled else 0.0
    kernels = [tr["spans"].get(f"experiments.kernel_{k}", {}).get("count", 0)
               for k in ("first_level_degrees", "level_exceedance", "degree_distribution")]
    sweeps = tr["sweeps"]
    no_sweep = "moments.sweep" in tr["absent"]
    counters = traced[0]["counters"]
    timed = pooled or single[0]
    # uncalibrated: a single-worker step lasts long enough that the speed
    # measured at its ends misrepresents it, and ABBA order cancels drift
    traced_wall = sum(run["raw_wall_s"] for run in traced)
    single_wall = sum(run["raw_wall_s"] for run in single)
    return {
        "rng.derive_seed_ms": (total("rng.derive_seed"), "ms"),
        "tree.uniform_parents_ms": (per_call("tree.uniform_parents"), "ms/call"),
        "tree.uniform_parents_minflt": (per_call("tree.uniform_parents", "minflt", 1), "faults/call"),
        "tree.levels_ms": (per_call("tree.levels"), "ms/call"),
        "tree.levels_minflt": (per_call("tree.levels", "minflt", 1), "faults/call"),
        "tree.preferential_parents_ms": (per_call("tree.preferential_parents"), "ms/call"),
        "tree.grow_from_sequence_us": (per_call("tree.grow_from_sequence", scale=1e6), "us/call"),
        "stats.degree_counts_in_level_us": (
            per_call("stats.degree_counts_in_level", scale=1e6), "us/call"),
        "oracle.trees_enumerated": (total("tree.grow_from_sequence", "count", 1.0), "count"),
        "experiments.grow_arrays_self_ms": (per_call("experiments.grow_arrays", "self_s"), "ms/call"),
        "experiments.kernel_first_level_degrees_ms": (
            per_call("experiments.kernel_first_level_degrees", "self_s"), "ms/rep"),
        "experiments.kernel_level_exceedance_ms": (
            per_call("experiments.kernel_level_exceedance", "self_s"), "ms/rep"),
        "experiments.kernel_degree_distribution_ms": (
            per_call("experiments.kernel_degree_distribution", "self_s"), "ms/rep"),
        "experiments.replicate_ms": (rep2 if pooled else rep1, "ms"),
        "experiments.pool_speedup": (_ratio(rep1, rep2), "x"),
        "experiments.dispatch_overhead_ms": (
            None if rep1 is None or rep2 is None else rep2 - rep1 / workers, "ms"),
        "experiments.reduce_ms": (total("experiments.runner", "self_s"), "ms"),
        "experiments.reps": (float(sum(kernels)), "count"),
        "moments.factorial_moments_float_ms": (per_call("moments.factorial_moments_float"), "ms/call"),
        "moments.moment_table_ms": (total("moments.moment_table"), "ms"),
        "moments.closure_size": (None if no_sweep else float(max((s[0] for s in sweeps), default=0)),
                                 "count"),
        "moments.sweep_steps": (None if no_sweep else float(sum(c * max(0, n - 2) for c, n in sweeps)),
                                "count"),
        "oracle.enumeration_moment_ms": (per_call("oracle.enumeration_moment"), "ms/call"),
        "oracle.expected_exceedance_count_ms": (
            per_call("oracle.expected_exceedance_count"), "ms/call"),
        "oracle.child_count_tails_ms": (total("oracle.child_count_tails"), "ms"),
        "oracle.node_level_probabilities_ms": (total("oracle.node_level_probabilities"), "ms"),
        "oracle.expected_level_size_ms": (per_call("oracle.expected_level_size"), "ms/call"),
        "oracle.degree_tail_ms": (total("oracle.degree_tail"), "ms"),
        "oracle.float_max_rel_err": (counters.get("oracle.float_max_rel_err", 0.0), "ratio"),
        "bounds.checks": (float(counters.get("bounds.checks", 0)), "count"),
        "bounds.violations": (float(counters.get("bounds.violations", 0)), "count"),
        "bounds.expected_children_ms": (total("bounds.expected_children"), "ms"),
        "cli.overhead_ms": (total("cli.cli_main", "self_s"), "ms"),
        "process.user_s": (timed["user_s"], "s"),
        "process.sys_s": (timed["sys_s"], "s"),
        "process.minor_faults": (float(timed["minflt"]), "count"),
        "tracing.overhead_pct": (100.0 * (traced_wall - single_wall) / single_wall, "%"),
    }


def traced_run(args, workers: int, deadline: float):
    from tracing import SPANS

    seed = rep_seed(args.seed, 0)
    traced_spec = _spec(args, seed, 1, SPANS)
    single_spec = _spec(args, seed, 1, ["experiments.replicate"])
    # traced, untraced, untraced, traced: a drift in machine speed cancels
    order = [traced_spec, single_spec, single_spec, traced_spec]
    traced_a, single_a, single_b, traced_b = [spawn(spec, deadline) for spec in order]
    pooled = None
    if args.workload in MONTE_CARLO:
        pooled = spawn(_spec(args, seed, workers, ["experiments.replicate"]), deadline)
    runs = [r for r in (traced_a, single_a, single_b, traced_b, pooled) if r]
    # reproducibility: the single-worker traced rows equal the timed run's rows
    same_rows = len({r["rows_digest"] for r in runs}) == 1
    if args.wrong_reference:
        same_rows = not same_rows
    attempted = sum(r["attempted"] for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + (0 if same_rows else 1)
    notes = {
        "rows_equal_across_runs": same_rows,
        "absent_entry_points": traced_a["trace"]["absent"],
        "spans": traced_a["trace"]["spans"],
        "raw_wall_s_traced_single_single_traced_pooled": [r["raw_wall_s"] for r in runs],
    }
    metrics = layer_metrics((traced_a, traced_b), (single_a, single_b), pooled, workers)
    return runs, attempted, failed, metrics, notes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "urtlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for a quick check")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="shift every reference value; every check must then fail")
    args = parser.parse_args(argv)

    if not (SRC / "urtlab" / "__init__.py").is_file():
        print(f"error: no urtlab sources under {SRC}", file=sys.stderr)
        return 2
    workers = min(2, os.cpu_count() or 1)
    deadline = time.monotonic() + DEADLINE_S
    args.tmp = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    try:
        if args.trace:
            runs, attempted, failed, metrics, notes = traced_run(args, workers, deadline)
        else:
            runs, attempted, failed, metrics, notes = timed_run(args, workers, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)

    provenance = dict(
        runs[0]["provenance"],
        nproc=os.cpu_count(),
        workers=workers,
        git_commit=_git_commit(),
        source_digest=_source_digest(),
        seed=args.seed,
        experiment_seeds=[r["seed"] for r in runs],
    )
    print(f"# workload {args.workload} ({'smoke' if args.smoke else 'full'} size), "
          f"trace {args.trace}")
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in notes.items():
        print(f"# {key} " + json.dumps(value, sort_keys=True))
    labels = [label for r in runs for label in r["failed_labels"]]
    if labels:
        print("# failed checks (first few) " + json.dumps(labels[:10]))
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>14s} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": 0.0 if value is None else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
