"""One workload process: import urtlab, build inputs, run the body once.

Usage (started by ``run.py``, not by hand): ``python3 child.py SPEC_JSON``.
The spec names the workload, size, seed and worker count, and which spans
to trace.  The process prints one JSON line: the monotonic time at which
set-up ended, each body step's wall, user and sys time (pool workers
included, since they are reaped before a step returns), the calibration
times around the steps, peak RSS, minor faults, the correctness checks, a
digest of the body's rows and the span table.

Calibration: the host this benchmark was built on changes speed by up to
1.6x within seconds (other tenants share its cores), which moves every
timing of a run together.  So a fixed interpreter loop is timed (best of
three) before the first step and after every step; ``run.py`` scales each
step's times by the loop's reference time over the mean of the loop times
around that step.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time

CALIBRATION_LOOP = 200_000


def _usage():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "user_s": me.ru_utime + kids.ru_utime,
        "sys_s": me.ru_stime + kids.ru_stime,
        "minflt": me.ru_minflt + kids.ru_minflt,
        "maxrss_kib": max(me.ru_maxrss, kids.ru_maxrss),
    }


def _resolved_workers(experiments, requested: int):
    resolve = getattr(experiments, "resolve_workers", None)
    return resolve(requested) if resolve else None


def calibrate(rounds: int = 3) -> float:
    """Best-of-``rounds`` seconds of a fixed interpreter loop."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def main(spec: dict) -> dict:
    import numpy as np

    import urtlab
    from urtlab import experiments
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, Checks

    name = spec["workload"]
    size = SIZES[name][spec["size"]]
    build, body, check = WORKLOADS[name]
    tracer = Tracer(spec["spans"]) if spec["spans"] else None
    inputs = build(size, spec["seed"], spec["workers"])
    ready = time.monotonic()

    calibration = [calibrate()]
    steps = []
    rows = {}
    for step, run in body(inputs).items():
        before = _usage()
        t0 = time.perf_counter()
        rows[step] = run()
        wall = time.perf_counter() - t0
        after = _usage()
        steps.append({key: after[key] - before[key] for key in ("user_s", "sys_s", "minflt")})
        steps[-1]["wall_s"] = wall
        calibration.append(calibrate())
    usage = _usage()
    if tracer:
        tracer.remove()  # the checks below must not count as spans

    checks = Checks(wrong=spec["wrong_reference"])
    counters = check(rows, size, checks) or {}
    return {
        "ready_monotonic": ready,
        "steps": steps,
        "calibration_s": calibration,
        "peak_rss_mb": usage["maxrss_kib"] / 1024.0,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "failed_labels": checks.failed[:5],
        "rows_digest": hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest(),
        "counters": counters,
        "trace": tracer.to_dict() if tracer else None,
        "seed": spec["seed"],
        "provenance": {
            "size": size,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "urtlab": urtlab.__version__,
            "resolved_workers": _resolved_workers(experiments, spec["workers"]),
            "urt_threads_env": os.environ.get("URT_THREADS"),
        },
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
