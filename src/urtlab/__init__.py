"""urtlab: a laboratory for uniform and preferential-attachment recursive trees.

Fast seeded growth, exact small-instance enumeration, semi-analytic
single-node oracles, exact joint factorial moments of first-level degree
counts, closed-form tail bounds, a tree/permutation encoding, and a
reproducible Monte Carlo experiment harness.
"""

from .bijection import (
    Permutation,
    fixed_points_after_first,
    permutation_to_tree,
    tree_to_permutation,
)
from .bounds import (
    chernoff_upper_raw,
    expected_children,
    lower_tail_bound,
    tail_bound_high_index,
    tail_bound_low_index,
    upper_tail_bound,
)
from .errors import EmptyLevelError, NotInImageError, ResourceGuardError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentReport,
    run_experiment,
)
from .moments import (
    ExponentVector,
    IdentityCheck,
    MomentTable,
    check_falling_factorial_identities,
    dependency_closure,
    exact_factorial_moment,
    factorial_moments_float,
    falling_factorial,
    majorizes,
)
from .oracle import (
    ExactDistribution,
    degree_head,
    degree_tail,
    enumerate_trees,
    enumeration_moment,
    exact_statistic_distribution,
    expected_exceedance_count,
    expected_level_size,
    level_pmf,
)
from .rng import derive_seed
from .stats import (
    LevelDegreeProfile,
    degree_counts_in_level,
    degree_histogram,
    exceedance_count,
    high_degree_fraction,
    level_sizes,
    max_degree,
)
from .tree import (
    DETERMINISTIC,
    GrowthModel,
    RecursiveTree,
    grow,
    grow_from_sequence,
    load_tree,
    save_tree,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "DETERMINISTIC",
    "EXPERIMENTS",
    "EmptyLevelError",
    "ExactDistribution",
    "ExperimentConfig",
    "ExperimentReport",
    "ExponentVector",
    "GrowthModel",
    "IdentityCheck",
    "LevelDegreeProfile",
    "MomentTable",
    "NotInImageError",
    "Permutation",
    "RecursiveTree",
    "ResourceGuardError",
    "check_falling_factorial_identities",
    "chernoff_upper_raw",
    "degree_counts_in_level",
    "degree_histogram",
    "degree_head",
    "degree_tail",
    "dependency_closure",
    "derive_seed",
    "enumerate_trees",
    "enumeration_moment",
    "exact_factorial_moment",
    "exact_statistic_distribution",
    "exceedance_count",
    "expected_children",
    "expected_exceedance_count",
    "expected_level_size",
    "factorial_moments_float",
    "falling_factorial",
    "fixed_points_after_first",
    "grow",
    "grow_from_sequence",
    "high_degree_fraction",
    "level_pmf",
    "level_sizes",
    "load_tree",
    "lower_tail_bound",
    "majorizes",
    "max_degree",
    "permutation_to_tree",
    "run_experiment",
    "save_tree",
    "tail_bound_high_index",
    "tail_bound_low_index",
    "tree_to_permutation",
    "upper_tail_bound",
    "validate",
]
