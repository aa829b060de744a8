"""Seeded Monte Carlo experiments with exact-oracle reference columns.

Every experiment takes an :class:`ExperimentConfig` and produces an
:class:`ExperimentReport` whose rows pair an estimate with its standard
error, an exact reference where an oracle applies, and the limiting value
the estimate approaches.  Replication ``r`` always uses the seed derived
from ``(master, r)``, and aggregation reduces the per-replication table in
replication order, so a report is a pure function of ``(config, seed)``:
the worker count changes wall time only.

:class:`ExperimentConfig` refuses every setting an experiment cannot run
when it is built, and names each by its command-line flag (:data:`FLAGS`),
so no run that starts refuses its settings.  It requires the replication
count and the seed, and checks them, the ranges of t, eps, ``d_max`` and k,
and that a grid is nonempty, only where the experiment reads them
(:data:`READS`): a setting it never reads changes nothing in the report.

Each :data:`EXPERIMENTS` entry is one call of :func:`_run`, naming a
picklable per-replication kernel of ``(config, n, seed)``, which reads its
settings from the config by name, the count of values it returns, and a
rows builder that turns the ``(replications x columns)`` table at that ``n``
into report rows; ``tail_vs_bound`` has no kernel, as its rows are exact,
and derives no seed.  ``_run`` refuses a replication count whose seeds and
table would pass physical memory before it derives any seed.  It then
replicates each distinct n of the grid once, the largest first, and builds
the rows in grid order: the memory guards grow with n, so a grid whose
largest n is past them refuses before any replication runs.
It opens one process pool for the whole run when :func:`run_workers`, the
count the command line echoes, is above 1.  A kernel makes one
:mod:`urtlab.stats` call and packs the result into a tuple.  The four
level kernels (``level_exceedance``, ``first_level_degrees``,
``level_sizes`` and ``higher_level_small_degree``) call the streamed level
statistics, which read the draws of ``grow("uniform", n, seed)`` a block
at a time and hold one byte of level per node, never the tree's
length-``n`` arrays; ``degree_distribution`` needs every degree, so it
grows the tree with :func:`urtlab.tree.grow`.

:data:`READS` lists the config fields each experiment reads beyond its
id and grid (:data:`ECHOED`), and :meth:`ExperimentConfig.to_dict` holds
exactly those: it is the one echo, of the report and of the command line.
``tail_vs_bound`` reads neither the replication count nor the seed, so its
report's seed is None and its rows carry none.  Only
``degree_distribution`` reads ``model``: it grows preferential trees too,
and the other experiments refuse any model but uniform.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from functools import partial
from multiprocessing import get_context
from typing import Callable, Optional

import numpy as np

from . import bounds as bnd
from . import oracle
from .moments import ExponentVector, MomentTable, factorial_moments_float, falling_factorial
from .oracle import _degree_law_sums
from .rng import check_seed, derive_seed
from .stats import (degree_histogram, exceedance_threshold, streamed_level_profiles,
                    streamed_level_sizes)
from .tree import GrowthModel, _guard_memory, grow

SCHEMA = "urt-report/1"
ECHOED = ("experiment", "n_grid")  # in every report's config echo
POOL_MIN_REPLICATIONS = 4  # fewer replications run in process
# level_exceedance rows carry exact_numerator up to this n: past it the tails cost
# ~1 s per point at 10^6, and the benchmark's 5-SE check on the count has no derived rate
EXACT_NUMERATOR_MAX_N = 10_000
EXACT_MOMENT_MAX_N = 4096  # first_level_degrees, its only reader, takes rational moments up to here

# config fields each experiment reads besides ECHOED; its report echoes them too,
# and one left unset is refused
READS = {
    "level_exceedance": ("replications", "seed", "k_grid", "t_grid"),
    "first_level_degrees": ("replications", "seed", "d_max"),
    "degree_distribution": ("replications", "seed", "model", "d_max"),
    "level_sizes": ("replications", "seed", "k_grid"),
    "higher_level_small_degree": ("replications", "seed", "k_grid", "d_max"),
    "tail_vs_bound": ("t_grid", "eps"),
}


# the command-line flag of each setting; the experiment is the command's id
FLAGS = {"n_grid": "--n", "replications": "--reps", "seed": "--seed", "model": "--model",
         "k_grid": "--k", "t_grid": "--t", "d_max": "--dmax", "eps": "--eps",
         "workers": "--workers"}
GRIDS = {"n_grid": int, "k_grid": int, "t_grid": float}  # comma-separated on the command line


def _flag_text(field: str, value) -> str:
    """A setting as its flag takes it, e.g. ``--reps 0`` or ``--k 1,2``."""
    return f"{FLAGS[field]} " + (",".join(map(str, value)) if field in GRIDS else str(value))


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, replication and worker settings for one experiment run; building
    one refuses any setting the experiment cannot run."""

    experiment: str
    n_grid: tuple[int, ...]
    replications: Optional[int] = None
    seed: Optional[int] = None
    model: str = "uniform"
    k_grid: tuple[int, ...] = (1,)
    t_grid: tuple[float, ...] = (0.5,)
    d_max: int = 3
    eps: float = 0.1
    workers: Optional[int] = None

    def __post_init__(self):
        name = EXPERIMENT_ALIASES.get(self.experiment, self.experiment)
        if name not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {known}")
        object.__setattr__(self, "experiment", name)
        reads = READS[name]  # a setting is required and checked only where read
        unset = [FLAGS[field] for field in reads if getattr(self, field) is None]
        if unset:
            raise ValueError(f"experiment {name!r} needs {' and '.join(unset)}")
        for grid, kind in GRIDS.items():
            values = tuple(kind(x) for x in getattr(self, grid))  # a tuple keeps it hashable
            if not values and grid in ECHOED + reads:
                raise ValueError(f"{FLAGS[grid]} grid must be nonempty")
            object.__setattr__(self, grid, values)
        if "replications" in reads and self.replications < 1:
            raise ValueError("an experiment needs at least one replication, "
                             f"got {_flag_text('replications', self.replications)}")
        if "seed" in reads:
            check_seed(self.seed)
        model = GrowthModel.parse(self.model)
        object.__setattr__(self, "model", model.name.lower())
        if model is not GrowthModel.UNIFORM and "model" not in reads:
            growers = ", ".join(e for e, fields in READS.items() if "model" in fields)
            raise ValueError(f"experiment {name!r} grows uniform trees only; "
                             f"{_flag_text('model', self.model)} applies to {growers}")
        if "t_grid" in reads and any(not 0.0 < t < 1.0 for t in self.t_grid):
            raise ValueError(f"t values must lie in (0, 1), got {_flag_text('t_grid', self.t_grid)}")
        if "eps" in reads and not math.isfinite(self.eps):
            raise ValueError(f"eps must be finite, got {_flag_text('eps', self.eps)}")
        # the level references start at n = 2
        least_n = 2 if name in ("level_exceedance", "first_level_degrees") else model.min_nodes
        if min(self.n_grid) < least_n:
            raise ValueError(f"experiment {name!r} needs n >= {least_n}, got {min(self.n_grid)} "
                             f"in {_flag_text('n_grid', self.n_grid)}")
        dmax = _flag_text("d_max", self.d_max)
        if "d_max" in reads and self.d_max < 1:
            raise ValueError(f"the degree cap must be >= 1, got {dmax}")
        if name == "first_level_degrees" and self.d_max > 6:
            raise ValueError(f"this experiment caps the degree at 6, got {dmax}")
        if (name in ("degree_distribution", "higher_level_small_degree")
                and self.d_max > max(self.n_grid)):
            raise ValueError(f"{dmax} exceeds the largest n={max(self.n_grid)}, "
                             "and a degree is at most n - 1")
        least_k = {"level_exceedance": 1, "higher_level_small_degree": 2}.get(name)
        if least_k is not None and min(self.k_grid) < least_k:
            raise ValueError(f"this experiment needs levels k >= {least_k}, "
                             f"got {_flag_text('k_grid', self.k_grid)}")
        if name == "level_sizes":
            if min(self.k_grid) < 0:
                raise ValueError(f"level k must be >= 0, got {min(self.k_grid)} "
                                 f"in {_flag_text('k_grid', self.k_grid)}")
            for n, k in itertools.product(self.n_grid, self.k_grid):
                _level_scale(n, k)

    def to_dict(self) -> dict:
        """The settings the run reads, :data:`ECHOED` and :data:`READS`, in field order."""
        echoed = ECHOED + READS[self.experiment]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()
                if k in echoed}


@dataclass
class ExperimentReport:
    """Aggregate results: config echo, rows, seed and wall time.

    The config echo is :meth:`ExperimentConfig.to_dict`: settings the
    experiment never reads (the worker count among them) change nothing in
    the rows, so they stay out of the report.  The seed is the master seed,
    or None where the experiment reads none.
    """

    experiment: str
    config: dict
    rows: list[dict]
    seed: Optional[int]
    runtime_ms: int

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "experiment": self.experiment,
            "config": self.config,
            "rows": self.rows,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def canonical_bytes(self) -> bytes:
        """Serialization with wall time zeroed: the reproducibility surface.

        Two runs with the same config and seed must agree on these bytes
        regardless of worker count; ``runtime_ms`` is the one field that
        legitimately varies.
        """
        return replace(self, runtime_ms=0).to_json().encode()

    def to_csv(self) -> str:
        """Rows flattened to CSV; the first line carries schema and seed."""
        flat_rows = [{**row["point"], **{k: v for k, v in row.items() if k != "point"}}
                     for row in self.rows]
        columns = list(dict.fromkeys(key for flat in flat_rows for key in flat))
        buf = io.StringIO()
        seed = json.dumps(self.seed)  # null where the experiment reads no seed
        buf.write(f"# schema: {SCHEMA}, experiment: {self.experiment}, seed: {seed}\n")
        writer = csv.writer(buf)
        writer.writerow(columns)
        for flat in flat_rows:
            writer.writerow(["" if flat.get(c) is None else flat.get(c) for c in columns])
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(requested: Optional[int], replications: Optional[int] = None) -> int:
    """Worker count: ``requested``, which defaults to the usable CPUs, clamped
    to at least 1 and at most the usable CPUs and ``replications``, so a
    typo cannot start more processes than there is work or hardware for.
    """
    cap = _usable_cpus()
    if replications is not None:
        cap = min(cap, replications)
    wanted = cap if requested is None else int(requested)
    return max(1, min(wanted, cap))


def run_workers(config: ExperimentConfig) -> int:
    """Processes that replicate ``config``: 1, in process, when it reads no
    replication count, as nothing is simulated, or reads fewer than
    :data:`POOL_MIN_REPLICATIONS`; otherwise :func:`resolve_workers`.  A
    pool opens only when this is above 1."""
    if ("replications" not in READS[config.experiment]
            or config.replications < POOL_MIN_REPLICATIONS):
        return 1
    return resolve_workers(config.workers, config.replications)


def _keep_freed_heap() -> None:
    """Pool worker set-up: map and free 16 MiB, never touched.  glibc then
    raises its mmap threshold to that size and its trim threshold to twice
    it, so a replication's arrays come from the heap and stay there when
    freed, not handed back and faulted in again by the next replication.
    Without it the thresholds a worker inherits depend on what ran before
    the fork: 600 first-level replications at n = 10^5 took 4k faults, or
    33k-59k as the directory the same code ran from changed.  Elsewhere
    than glibc this is one short-lived allocation."""
    np.empty(16 << 20, dtype=np.uint8)


def _replicate(call: Callable, seeds: list[int], pool, workers: int) -> np.ndarray:
    """Per-replication rows, always ordered by replication index."""
    if pool is None:
        return np.asarray([call(s) for s in seeds])
    return np.asarray(pool.map(call, seeds, chunksize=max(1, len(seeds) // (workers * 8))))


def _run(config: ExperimentConfig, kernel: Optional[Callable], summarise: Callable,
         width: int = 0) -> ExperimentReport:
    """Replicate ``kernel(config, n, seed)`` at each distinct n of the grid,
    the largest first, and report the rows in grid order.

    ``summarise(config, n, table)`` builds the rows at ``n`` from the
    per-replication table, which is ``None`` when there is no kernel and
    nothing is simulated.  Where replication seeds are derived, every row
    ends with the master seed, added here.  A kernel returns ``width``
    values; replications whose seeds, rows and table would pass physical
    memory raise :class:`ResourceGuardError` before any seed is derived.
    """
    t0 = time.perf_counter()
    workers = run_workers(config)
    tables = dict.fromkeys(config.n_grid)  # one per distinct n
    seed = None if kernel is None else config.seed  # the master seed, where one is read
    if kernel is not None:
        # peak RSS per replication of level_exceedance at n = 2, 10^5 or 2 x 10^5
        # replications against 10^3, in process (and at 10^5 in a pool of 2):
        # 267-288 bytes at 3 values a row, 1,571 at 30 and 3,010-3,065 at 60
        _guard_memory(config.replications * (128 + 48 * width),
                      f"running {config.replications} replications")
        # replication r has the same seed at every n; derived before the pool
        # forks (after it, each worker's peak RSS grew by 5 MiB at n = 10^6)
        seeds = [derive_seed(seed, r) for r in range(config.replications)]
        opened = get_context().Pool(workers, _keep_freed_heap) if workers > 1 else nullcontext()
        with opened as pool:
            for n in sorted(tables, reverse=True):  # a guard refuses the largest n first
                tables[n] = _replicate(partial(kernel, config, n), seeds, pool, workers)
    rows = [row if seed is None else {**row, "seed": seed}
            for n in config.n_grid for row in summarise(config, n, tables[n])]
    return ExperimentReport(
        experiment=config.experiment,
        config=config.to_dict(),
        rows=rows,
        seed=seed,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def _row(point: dict, estimate, se=None, exact=None, limit=None, **extra) -> dict:
    """One report row: the columns every row shares, in order, then its own;
    a NaN estimate or SE reads None.  :func:`_run` adds the seed where one is read."""
    return {"point": point, "estimate": _clean(estimate), "se": _clean(se), "exact": exact,
            "limit": limit, **extra}


def _mean_se(values: np.ndarray) -> tuple[float, Optional[float]]:
    values = np.asarray(values, dtype=float)
    used = values[~np.isnan(values)]
    if used.size == 0:
        return float("nan"), None
    mean = float(used.mean())
    if used.size < 2:
        return mean, None
    return mean, float(used.std(ddof=1) / math.sqrt(used.size))


def _clean(x):
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


# --------------------------------------------------------------------------
# level exceedance: share of level-k nodes with degree above t*ln(n)

def _kernel_level_exceedance(config, n, seed):
    profiles = streamed_level_profiles(n, seed, config.k_grid)
    out = []
    for k in config.k_grid:
        profile = profiles[k]
        size = profile.level_size
        for t in config.t_grid:
            num = profile.exceeding(exceedance_threshold(n, t))
            out.extend((float(num), float(size), num / size if size else float("nan")))
    return tuple(out)


def _level_exceedance_rows(config, n, table):
    """Mean exceedance fraction per (n, k, t) against the (1-t)^k asymptote.

    Rows carry the mean and SE of both the fraction and the raw exceedance
    count, plus the exact expected count where the DP oracle is in range.
    """
    rows = []
    for col, (k, t) in enumerate(itertools.product(config.k_grid, config.t_grid)):
        nums, sizes, fracs = table[:, 3 * col : 3 * col + 3].T
        frac_mean, frac_se = _mean_se(fracs)
        num_mean, num_se = _mean_se(nums)
        exact_numerator = exact_level_size = None
        if n <= EXACT_NUMERATOR_MAX_N:
            exact_numerator = float(oracle.expected_exceedance_count(n, k, t))
            exact_level_size = float(oracle.expected_level_size(n, k, exact=False))
        # exact stays None: no engine computes the fraction's finite-n expectation yet
        rows.append(_row(
            {"n": n, "k": k, "t": t}, frac_mean, frac_se, limit=(1.0 - t) ** k,
            numerator_mean=_clean(num_mean), numerator_se=_clean(num_se),
            exact_numerator=exact_numerator, level_size_mean=_clean(np.mean(sizes)),
            exact_level_size=exact_level_size,
            replications_used=int(np.count_nonzero(~np.isnan(fracs)))))
    return rows


# --------------------------------------------------------------------------
# first-level degree counts: Poisson(1) limit and joint factorial moments

def _kernel_first_level_degrees(config, n, seed):
    counts = streamed_level_profiles(n, seed, (1,))[1].counts
    return tuple(counts.get(d, 0) for d in range(1, config.d_max + 1))


def _poisson1_pmf(m: int) -> float:
    return math.exp(-1.0) / math.factorial(m)


def total_variation_to_poisson1(values: np.ndarray) -> float:
    """TV distance between the empirical law of ``values`` and Poisson(1)."""
    values = np.asarray(values, dtype=np.int64)
    top = int(values.max(initial=0))
    hist = np.bincount(values, minlength=top + 1) / values.size
    tv = 0.5 * sum(abs(hist[m] - _poisson1_pmf(m)) for m in range(top + 1))
    tail = 1.0 - sum(_poisson1_pmf(m) for m in range(top + 1))
    return float(tv + 0.5 * tail)


def _moment_vectors(d_max: int) -> list[ExponentVector]:
    span = min(d_max, 3)
    vecs = {ExponentVector(k) for k in itertools.product(range(4), repeat=span) if 1 <= sum(k) <= 3}
    return sorted(vecs, key=lambda v: (v.total, v.d, v.k))


def _first_level_degrees_rows(config, n, table):
    """Empirical law of the first-level degree counts.

    Rows report, per degree ``d <= d_max``: the mean count with its exact
    expectation, the TV distance of the empirical law to Poisson(1), all
    pairwise correlations, and the joint factorial moments of combined
    order at most 3 against the recursion values (rational up to
    ``n = 4096``, float recursion beyond, carried in ``exact_mode``).  The
    TV rows' ``limit`` 0 is reached only as n and the replication count
    both grow: at fixed replications the empirical law stays apart from
    Poisson(1).
    """
    table = table.astype(np.int64)
    exact_mode = "rational" if n <= EXACT_MOMENT_MAX_N else "float-recursion"
    unit_vectors = [ExponentVector((0,) * (d - 1) + (1,)) for d in range(1, config.d_max + 1)]
    wanted = unit_vectors + _moment_vectors(config.d_max)
    if n <= EXACT_MOMENT_MAX_N:
        moment_table = MomentTable.for_targets(wanted, [n])
        references = {v: float(moment_table.value(n, v)) for v in wanted}
    else:
        references = factorial_moments_float(n, wanted)

    rows = []
    for d in range(1, config.d_max + 1):
        mean, se = _mean_se(table[:, d - 1])
        rows.append(_row({"n": n, "d": d, "kind": "mean_count"}, mean, se,
                         references[unit_vectors[d - 1]], 1.0, exact_mode=exact_mode))
    for d in range(1, config.d_max + 1):
        rows.append(_row({"n": n, "d": d, "kind": "tv_poisson1"},
                         total_variation_to_poisson1(table[:, d - 1]), limit=0.0))
    for d1 in range(1, config.d_max + 1):
        for d2 in range(d1 + 1, config.d_max + 1):
            a = table[:, d1 - 1].astype(float)
            b = table[:, d2 - 1].astype(float)
            corr = float("nan")
            if a.std() > 0 and b.std() > 0:
                corr = float(np.corrcoef(a, b)[0, 1])
            rows.append(_row({"n": n, "d1": d1, "d2": d2, "kind": "correlation"}, corr, limit=0.0))
    for vec in _moment_vectors(config.d_max):
        prods = math.prod(falling_factorial(table[:, d - 1], kd)
                          for d, kd in enumerate(vec.k, start=1))
        mean, se = _mean_se(prods.astype(float))
        rows.append(_row({"n": n, "k_vector": str(vec), "kind": "factorial_moment"},
                         mean, se, references[vec], 1.0, exact_mode=exact_mode))
    return rows


# --------------------------------------------------------------------------
# whole-tree degree distribution

def _kernel_degree_distribution(config, n, seed):
    hist = degree_histogram(grow(config.model, n, seed))
    return tuple(hist.get(d, 0) / n for d in range(1, config.d_max + 1))


def degree_fraction_limit(model: str, d: int) -> float:
    """Limiting share of degree-``d`` nodes for each growth model."""
    if model == "uniform":
        return 2.0 ** (-d)
    return 4.0 / (d * (d + 1) * (d + 2))


def _degree_distribution_rows(config, n, table):
    """Empirical degree fractions per (n, d) against the model's limit law."""
    rows = []
    for d in range(1, config.d_max + 1):
        mean, se = _mean_se(table[:, d - 1])
        rows.append(_row({"model": config.model, "n": n, "d": d}, mean, se,
                         limit=degree_fraction_limit(config.model, d)))
    return rows


# --------------------------------------------------------------------------
# level sizes versus (ln n)^k / k!

def _kernel_level_sizes(config, n, seed):
    sizes = streamed_level_sizes(n, seed, max(config.k_grid))
    return tuple(float(sizes[k]) for k in config.k_grid)


def _level_scale(n: int, k: int) -> float:
    """``(ln n)^k / k!``, the order of ``E|L_n(k)|``; a ``ValueError`` where
    that is no normal double, so no ratio to it can be formed."""
    try:  # k! passes the largest double from k = 171 on
        scale = math.log(n) ** k / math.factorial(k) if k <= 170 else 0.0
    except OverflowError:
        scale = 0.0
    if scale < sys.float_info.min:
        raise ValueError(f"level k={k} at n={n}: (ln n)^k/k! does not fit a normal double, "
                         "so no ratio to it can be formed")
    return scale


def _level_sizes_rows(config, n, table):
    """Mean level sizes with exact expectations and the (ln n)^k/k! ratio.

    ``limit`` 1 is the limit of ``ratio_mc`` and ``ratio_exact``; the
    estimate, the mean size itself, grows like (ln n)^k/k!.  The config
    refuses negative levels, and levels whose (ln n)^k/k! is no normal
    double.
    """
    rows = []
    for idx, k in enumerate(config.k_grid):
        mean, se = _mean_se(table[:, idx])
        exact = float(oracle.expected_level_size(n, k, exact=False))
        scale = _level_scale(n, k)
        rows.append(_row({"n": n, "k": k}, mean, se, exact, 1.0, scale=scale,
                         ratio_mc=_clean(mean / scale), ratio_exact=exact / scale,
                         exact_mode="float"))
    return rows


# --------------------------------------------------------------------------
# counts of small-degree nodes in levels k >= 2

def _kernel_higher_level(config, n, seed):
    ks = config.k_grid
    profiles = streamed_level_profiles(n, seed, ks + tuple(k - 1 for k in ks))
    out = []
    for k in ks:
        below, level_k = profiles[k - 1], profiles[k]
        out.extend(float(level_k.counts.get(d, 0)) for d in range(1, config.d_max + 1))
        out.extend((float(below.level_size), float(level_k.level_size)))
    return tuple(out)


def _higher_level_rows(config, n, table):
    """Counts of degree-d nodes in level k >= 2 against the size of level k-1.

    The heuristic reference is a ratio near 1 and a proportion near
    ``k / ln n``, since E|L_{k-1}| / E|L_k| ~ k / ln n; rows carry both, the
    proportion scaled by ``ln n / k``, so their limits read 1.
    """
    rows = []
    width = config.d_max + 2
    for idx, k in enumerate(config.k_grid):
        base = idx * width
        size_km1_mean = float(np.mean(table[:, base + config.d_max]))
        size_k_mean = float(np.mean(table[:, base + config.d_max + 1]))
        for d in range(1, config.d_max + 1):
            count_mean, count_se = _mean_se(table[:, base + d - 1])
            ratio = count_mean / size_km1_mean if size_km1_mean else float("nan")
            proportion = count_mean / size_k_mean if size_k_mean else float("nan")
            rows.append(_row(
                {"n": n, "k": k, "d": d}, ratio, limit=1.0, count_mean=_clean(count_mean),
                count_se=_clean(count_se), level_km1_mean=size_km1_mean, level_k_mean=size_k_mean,
                proportion=_clean(proportion),
                proportion_scaled=_clean(proportion * math.log(n) / k if size_k_mean else None)))
    return rows


# --------------------------------------------------------------------------
# closed-form tail bounds versus exact or simulated tails

def _admissible_indices(n: int, t: float, eps: float, side: str):
    """Log grid of up to 8 node indices satisfying the side's index condition."""
    if side == "upper":
        lo = int(math.floor(n ** (1.0 - t + eps) + 1e-9)) + 1
        hi = n - 1
    else:
        hi = int(math.floor(n ** (1.0 - t - eps))) - 1
        lo = 1
    if lo > hi:
        return []
    grid = np.unique(np.geomspace(lo, hi, 8).round().astype(int))
    return [int(i) for i in grid if lo <= i <= hi]


def _tail_vs_bound_rows(config, n, table):
    """Closed-form bounds against exact tails at every n; nothing is simulated.

    For each (n, t) and the configured ``eps``, one degree-law pass reads
    ``P(X > t ln n)`` of every late node (``i > n^(1-t+eps)``) against the
    high-index bound, another ``P(X <= t ln n)`` of every early node
    (``i <= n^(1-t-eps)-1``) against the low-index bound.
    Skipped (t, eps) combinations are recorded as note rows.
    """
    rows = []
    eps = float(config.eps)
    for t in config.t_grid:
        for side, tail_bound in (("upper", bnd.tail_bound_high_index),
                                 ("lower", bnd.tail_bound_low_index)):
            point = {"n": n, "t": t, "eps": eps, "side": side}
            try:
                bound = tail_bound(n, t, eps)
            except ValueError as exc:
                rows.append({"point": point, "note": f"skipped: {exc}"})
                continue
            indices = _admissible_indices(n, t, eps, side)
            if not indices:
                rows.append({"point": point, "note": "skipped: no admissible node indices"})
                continue
            # one pass serves every index; the lower side reads the head itself, not
            # 1 - tail, which cancels when small
            laws = _degree_law_sums(n, indices, t * math.log(n), upper=side == "upper")
            for i, tail in zip(indices, map(float, laws)):
                rows.append(_row({**point, "i": i}, tail, exact=tail,
                                 s=bnd.expected_children(i, n), bound=bound,
                                 margin=bound - tail, mode="exact"))
    return rows


# each entry names its kernel when called, not when imported, so a wrapper
# swapped onto an experiments._kernel_* attribute is the one that runs; the
# last argument is the count of values the kernel returns
EXPERIMENTS = {
    "level_exceedance": lambda config: _run(config, _kernel_level_exceedance,
                                            _level_exceedance_rows,
                                            3 * len(config.k_grid) * len(config.t_grid)),
    "first_level_degrees": lambda config: _run(config, _kernel_first_level_degrees,
                                               _first_level_degrees_rows, config.d_max),
    "degree_distribution": lambda config: _run(config, _kernel_degree_distribution,
                                               _degree_distribution_rows, config.d_max),
    "level_sizes": lambda config: _run(config, _kernel_level_sizes, _level_sizes_rows,
                                       len(config.k_grid)),
    "higher_level_small_degree": lambda config: _run(config, _kernel_higher_level,
                                                     _higher_level_rows,
                                                     len(config.k_grid) * (config.d_max + 2)),
    "tail_vs_bound": lambda config: _run(config, None, _tail_vs_bound_rows),
}

# accepted on the command line for compatibility with existing scripts
EXPERIMENT_ALIASES = {
    "theorem21": "level_exceedance",
    "theorem31": "first_level_degrees",
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch on ``config.experiment``, which the config has already resolved."""
    return EXPERIMENTS[config.experiment](config)
