"""The per-layer bench finds urtlab's entry points.

``perfbench/tracing.py`` records a span whose entry points are all gone as
absent, so a refactor that renames one would leave its bench metrics blank
without failing anything.  This test installs every span through the
bench's own ``Tracer`` and checks which ones it could not find.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points(spans) -> dict:
    """The functions each entry point names, read without installing
    anything: each value of a dict for a ``[]`` point, none for a missing one."""
    found = {}
    for points, _ in spans.values():
        for point in points:
            module_name, path = point.split(":")
            owner = importlib.import_module(f"urtlab.{module_name}")
            if path.endswith("[]"):
                found[point] = list((getattr(owner, path[:-2], None) or {}).values())
                continue
            for attr in path.split("."):
                owner = getattr(owner, attr, None)
            found[point] = [owner] if callable(owner) else []
    return found


def test_every_bench_span_but_the_retired_grow_arrays_finds_its_entry_point():
    tracing = _tracing()
    before = _entry_points(tracing.SPANS)
    tracer = tracing.Tracer(tracing.SPANS)
    try:
        assert tracer.absent == ["experiments.grow_arrays"]
        installed = _entry_points(tracing.SPANS)
        for name, (points, _) in tracing.SPANS.items():
            present = [point for point in points if installed[point]]
            assert bool(present) == (name not in tracer.absent), name
            for point in present:
                assert all(hasattr(fn, "__wrapped__") for fn in installed[point]), point
    finally:
        tracer.remove()
    after = _entry_points(tracing.SPANS)
    for point, functions in before.items():
        assert len(after[point]) == len(functions), point
        assert all(a is b for a, b in zip(after[point], functions)), point
