"""Bayesian optimization of expensive black-box functions over permutation spaces."""

from .acquisition import QapMatrices, build_qap, expected_improvement
from .benchmarks import (
    QapInstance,
    SyntheticObjective,
    TspInstance,
    parse_qaplib,
    parse_tsplib,
    qap_objective,
    synthetic_objective,
    tsp_tour_length,
)
from .engine import (
    ALGORITHMS,
    BoConfig,
    BoTrace,
    empirical_regret,
    info_gain,
    run_algorithm,
)
from .gp import (
    GpModel,
    WeightPosterior,
    fit,
    nlml,
    predict,
    sample_weights,
    test_nll,
    weight_posterior,
)
from .kernels import KernelSpec, gram_matrix, kendall_kernel, mallows_kernel
from .optimizers import (
    SearchBudget,
    brute_force_argmin,
    local_search,
    multi_restart_argmin,
)
from .perm import (
    Permutation,
    compose,
    discordant_pairs,
    inverse,
    kendall_feature_map,
    random_permutation,
    swap_neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoConfig",
    "BoTrace",
    "GpModel",
    "KernelSpec",
    "Permutation",
    "QapInstance",
    "QapMatrices",
    "SearchBudget",
    "SyntheticObjective",
    "TspInstance",
    "WeightPosterior",
    "brute_force_argmin",
    "build_qap",
    "compose",
    "discordant_pairs",
    "empirical_regret",
    "expected_improvement",
    "fit",
    "gram_matrix",
    "info_gain",
    "inverse",
    "kendall_feature_map",
    "kendall_kernel",
    "local_search",
    "mallows_kernel",
    "multi_restart_argmin",
    "nlml",
    "parse_qaplib",
    "parse_tsplib",
    "predict",
    "qap_objective",
    "random_permutation",
    "run_algorithm",
    "sample_weights",
    "swap_neighbors",
    "synthetic_objective",
    "test_nll",
    "tsp_tour_length",
    "weight_posterior",
]
