"""Bayesian optimization of expensive black-box functions over permutation spaces."""

import os

# One BLAS and OpenMP thread unless the environment names a count: permbo's
# matrices are small, and extra threads mostly contend. This reaches BLAS only
# if numpy is not imported yet, as when ``permbo`` or ``python -m permbo`` starts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .acquisition import QapMatrices, build_qap
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
from .optimizers import brute_force_argmin, local_search
from .perm import (
    Permutation,
    compose,
    discordant_pairs,
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
    "SyntheticObjective",
    "TspInstance",
    "WeightPosterior",
    "brute_force_argmin",
    "build_qap",
    "compose",
    "discordant_pairs",
    "fit",
    "gram_matrix",
    "info_gain",
    "kendall_feature_map",
    "kendall_kernel",
    "local_search",
    "mallows_kernel",
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
