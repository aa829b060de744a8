"""Outside-in spans around urtlab's module-level entry points.

The tracer replaces a module attribute with a wrapper that times every call
through it.  It works because urtlab resolves these names at call time: a
runner calls ``_replicate`` and its kernel through the ``experiments``
globals, ``enumerate_trees`` calls ``grow_from_sequence`` through the
``oracle`` globals, and ``run_experiment`` looks its runner up in
``EXPERIMENTS``.  Nothing inside ``src/`` is edited.

Each span keeps its call count, total time, self time (total minus the time
of spans it encloses) and, where asked, the minor page faults taken during
the call.  An entry point that no longer exists is recorded as absent, so a
refactor that deletes it leaves its metrics empty instead of failing the
workload.
"""

from __future__ import annotations

import importlib
import resource
import time

# span name -> (entry points "module:attribute[.attribute]", count page faults)
SPANS = {
    "rng.derive_seed": (["experiments:derive_seed"], False),
    "tree.uniform_parents": (["experiments:_uniform_parents", "tree:_uniform_parents"], True),
    "tree.levels": (["experiments:_levels_from_parents", "tree:_levels_from_parents"], True),
    "tree.preferential_parents": (
        ["experiments:_preferential_parents", "tree:_preferential_parents"], False),
    "tree.grow_from_sequence": (["oracle:grow_from_sequence"], False),
    "stats.degree_counts_in_level": (["oracle:degree_counts_in_level"], False),
    "experiments.grow_arrays": (["experiments:_grow_arrays"], False),
    "experiments.kernel_first_level_degrees": (["experiments:_kernel_first_level_degrees"], False),
    "experiments.kernel_level_exceedance": (["experiments:_kernel_level_exceedance"], False),
    "experiments.kernel_degree_distribution": (["experiments:_kernel_degree_distribution"], False),
    "experiments.replicate": (["experiments:_replicate"], False),
    "experiments.runner": (["experiments:EXPERIMENTS[]"], False),
    "moments.factorial_moments_float": (
        ["experiments:factorial_moments_float", "moments:factorial_moments_float"], False),
    "moments.moment_table": (["moments:MomentTable._build"], False),
    "moments.sweep": (["moments:_sweep"], False),
    "oracle.enumeration_moment": (["oracle:enumeration_moment"], False),
    "oracle.expected_exceedance_count": (["oracle:expected_exceedance_count"], False),
    "oracle.child_count_tails": (["oracle:child_count_tails"], False),
    "oracle.node_level_probabilities": (["oracle:node_level_probabilities"], False),
    "oracle.expected_level_size": (["oracle:expected_level_size"], False),
    "oracle.degree_tail": (["oracle:degree_tail"], False),
    "bounds.expected_children": (["bounds:expected_children"], False),
    "cli.cli_main": (["cli:cli_main"], False),
}


class Span:
    __slots__ = ("count", "total", "self_time", "faults")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.faults = 0

    def to_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total,
                "self_s": self.self_time, "minflt": self.faults}


class Tracer:
    """Installs wrappers for the named spans and aggregates their calls."""

    def __init__(self, names):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self.sweeps: list[tuple[int, int]] = []  # (closure size, n_max) per moments._sweep call
        self._open: list[list[float]] = []  # child time of each open span
        self._originals: list[tuple] = []  # (owner, attribute or key, function)
        for name in names:
            points, faults = SPANS[name]
            installed = [self._install(point, name, faults) for point in points]
            if not any(installed):
                self.absent.append(name)

    def _install(self, point: str, name: str, faults: bool) -> bool:
        module_name, path = point.split(":")
        owner = importlib.import_module(f"urtlab.{module_name}")
        if path.endswith("[]"):  # every value of a dict attribute
            table = getattr(owner, path[:-2], None)
            if not isinstance(table, dict) or not table:
                return False
            for key, fn in table.items():
                self._originals.append((table, key, fn))
                table[key] = self._wrap(fn, name, faults)
            return True
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            return False
        self._originals.append((owner, attr, owner.__dict__.get(attr, fn)))
        setattr(owner, attr, self._wrap(fn, name, faults))
        return True

    def remove(self) -> None:
        """Put every wrapped entry point back."""
        for owner, key, fn in reversed(self._originals):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._originals.clear()

    def _wrap(self, fn, name: str, faults: bool):
        span = self.spans.setdefault(name, Span())
        stack = self._open
        clock = time.perf_counter
        usage = resource.getrusage
        sweeps = self.sweeps if name == "moments.sweep" else None

        def traced(*args, **kwargs):
            if sweeps is not None and len(args) >= 2:
                sweeps.append((len(args[0]), int(args[1])))
            children = [0.0]
            stack.append(children)
            f0 = usage(resource.RUSAGE_SELF).ru_minflt if faults else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if faults:
                    span.faults += usage(resource.RUSAGE_SELF).ru_minflt - f0
                stack.pop()
                span.count += 1
                span.total += elapsed
                span.self_time += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        return traced

    def to_dict(self) -> dict:
        return {
            "spans": {name: span.to_dict() for name, span in self.spans.items()},
            "absent": self.absent,
            "sweeps": self.sweeps,
        }
