"""RAPIDS core: availability models, FT-configuration optimisation,
gathering strategies, baselines, and the end-to-end pipeline."""

from .availability import (
    duplication_storage_overhead,
    duplication_unavailability,
    ec_storage_overhead,
    ec_unavailability,
    expected_relative_error,
    prob_more_than_k_failures,
    refactored_storage_overhead,
)
from .adaptive import BandwidthTracker, adaptive_strategy
from .baselines import DuplicationMethod, MethodReport, PlainECMethod
from .ft_optimizer import (
    FTProblem,
    FTSolution,
    brute_force,
    heuristic,
    initial_configuration,
    repair_configuration,
    warm_start,
)
from .gathering import (
    GatheringOutcome,
    exact_strategy,
    gathering_latency,
    naive_strategy,
    optimized_strategy,
    random_strategy,
    recoverable_levels,
)
from .heterogeneous import (
    expected_relative_error_hetero,
    poisson_binomial_pmf,
    prob_more_than_k_failures_hetero,
)
from .pipeline import RAPIDS, PrepareReport, RestoreReport

__all__ = [
    "RAPIDS",
    "BandwidthTracker",
    "adaptive_strategy",
    "poisson_binomial_pmf",
    "prob_more_than_k_failures_hetero",
    "expected_relative_error_hetero",
    "PrepareReport",
    "RestoreReport",
    "FTProblem",
    "FTSolution",
    "brute_force",
    "heuristic",
    "initial_configuration",
    "repair_configuration",
    "warm_start",
    "GatheringOutcome",
    "random_strategy",
    "naive_strategy",
    "exact_strategy",
    "optimized_strategy",
    "gathering_latency",
    "recoverable_levels",
    "DuplicationMethod",
    "PlainECMethod",
    "MethodReport",
    "expected_relative_error",
    "duplication_unavailability",
    "ec_unavailability",
    "prob_more_than_k_failures",
    "duplication_storage_overhead",
    "ec_storage_overhead",
    "refactored_storage_overhead",
]
