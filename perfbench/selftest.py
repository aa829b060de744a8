"""Self-test of the benchmark at smoke size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that

* a timed and a traced run print every metric of ``BENCHMARK.json`` by
  name with its unit, and pass their checks, on the default seed and on a
  held-out seed;
* a run whose reference values are deliberately wrong fails every check;

and, once, that the benchmark exits non-zero without printing a result in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 20251017)  # default seed, held-out seed


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def expect_metrics(result: dict, declared: list) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return [] if want == got else [f"metrics {sorted(got.items())} != {sorted(want.items())}"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            for seed in SEEDS:
                proc = run(["--workload", workload, "--seed", str(seed),
                            "--trace", str(trace), "--smoke"])
                label = f"{workload} trace={trace} seed={seed}"
                if proc.returncode != 0:
                    problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                found = expect_metrics(result, declared)
                if not result["correct"] or result["failed"]:
                    found.append(f"checks failed: {result['failed']}/{result['attempted']}")
                problems += [f"{label}: {p}" for p in found]
                print(f"{'FAIL' if found else 'PASS'} {label}", flush=True)
        proc = run(["--workload", workload, "--seed", "1", "--trace", "0", "--smoke",
                    "--wrong-reference"])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = (proc.returncode == 0 and not result["correct"]
                  and result["failed"] == result["attempted"] > 0)
        if not caught:
            problems.append(f"{workload}: wrong references not caught: {result}")
        print(f"{'PASS' if caught else 'FAIL'} {workload} wrong references fail every check",
              flush=True)

    bare = Path(tempfile.mkdtemp(prefix=".perfbench_selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                    "--trace", "0"], cwd=bare)
        refused = proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if not refused:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"{'PASS' if refused else 'FAIL'} refuses to run without the sources", flush=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
