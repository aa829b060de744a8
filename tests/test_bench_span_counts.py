"""The bench's experiment spans count the calls of a run.

``tests/test_bench_spans.py`` checks that each span finds its entry point.
A runner that bound its kernel when the module was imported would still
find it, yet run code the tracer never wrapped, and the bench's kernel
metrics would read 0.  These runs are in process (fewer replications than
a pool needs), so every call passes through this process's tracer.
"""

import pytest

from test_bench_spans import _tracing
from urtlab.experiments import ExperimentConfig, run_experiment

SPANS = ("experiments.runner", "experiments.replicate", "rng.derive_seed",
         "experiments.kernel_first_level_degrees", "experiments.kernel_level_exceedance",
         "experiments.kernel_degree_distribution", "moments.factorial_moments_float",
         "tree.uniform_parents", "tree.preferential_parents")


@pytest.mark.parametrize("settings, calls", [
    # past EXACT_MOMENT_MAX_N the references come from one float recursion per n
    (dict(experiment="first_level_degrees", n_grid=(5000,)),
     {"experiments.kernel_first_level_degrees": 3, "moments.factorial_moments_float": 1}),
    (dict(experiment="level_exceedance", n_grid=(200, 300), k_grid=(1, 2), t_grid=(0.3, 0.5)),
     {"experiments.kernel_level_exceedance": 6}),
    (dict(experiment="degree_distribution", n_grid=(200, 300)),
     {"experiments.kernel_degree_distribution": 6, "tree.uniform_parents": 6}),
    (dict(experiment="degree_distribution", n_grid=(200, 300), model="preferential"),
     {"experiments.kernel_degree_distribution": 6, "tree.preferential_parents": 6}),
])
def test_an_in_process_run_counts_every_call_in_its_spans(settings, calls):
    """A kernel runs once per replication and n; seeds are derived once per replication."""
    tracer = _tracing().Tracer(SPANS)
    try:
        run_experiment(ExperimentConfig(replications=3, seed=11, workers=1, **settings))
    finally:
        tracer.remove()
    counted = {name: span.count for name, span in tracer.spans.items() if span.count}
    assert counted == {"experiments.runner": 1, "experiments.replicate": len(settings["n_grid"]),
                       "rng.derive_seed": 3, **calls}


def test_tail_vs_bound_derives_no_seed_and_replicates_nothing():
    """Its rows are exact: the run neither replicates nor derives a seed."""
    tracer = _tracing().Tracer(SPANS)
    try:
        run_experiment(ExperimentConfig(experiment="tail_vs_bound", n_grid=(200, 300),
                                        replications=3, seed=11, workers=1))
    finally:
        tracer.remove()
    counted = {name: span.count for name, span in tracer.spans.items() if span.count}
    assert counted == {"experiments.runner": 1}
