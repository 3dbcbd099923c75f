"""Kendall and Mallows kernels over permutations, with Gram construction.

Both kernels are functions of the discordant-pair count n_d alone:

* Kendall:  (n_c - n_d) / C(d,2)  in [-1, 1]
* Mallows:  exp(-l * n_d)         in (0, 1]

Gram matrices are scaled by a signal variance and stabilized with a small
diagonal jitter so Cholesky factorization succeeds despite finite
precision. Pair counts are computed once per Gram and reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import accel
from .perm import Permutation, num_pairs

KENDALL = "kendall"
MALLOWS = "mallows"

#: Relative diagonal jitter applied to Gram matrices before factorization.
GRAM_JITTER = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    lengthscale is only meaningful for the Mallows family; signal and
    noise variances must be strictly positive. All three must be finite.
    """

    family: str
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 1e-4

    def __post_init__(self):
        if self.family not in (KENDALL, MALLOWS):
            raise ValueError(f"unknown kernel family {self.family!r}")
        # Written so that NaN fails too: it compares false with everything.
        if not 0 <= self.lengthscale < np.inf:
            raise ValueError(f"lengthscale must be finite and >= 0, got {self.lengthscale!r}")
        if not 0 < self.signal_variance < np.inf:
            raise ValueError(f"signal_variance must be finite and > 0, got {self.signal_variance!r}")
        if not 0 < self.noise_variance < np.inf:
            raise ValueError(f"noise_variance must be finite and > 0, got {self.noise_variance!r}")


def kendall_kernel(a: Permutation, b: Permutation) -> float:
    """(n_c - n_d)/C(d,2); equals 1 iff a == b, -1 at full reversal."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    return float(base_kernel_from_nd(KENDALL, accel.discordant_count(a.values, b.values), a.d))


def mallows_kernel(a: Permutation, b: Permutation, lengthscale: float) -> float:
    """exp(-l * n_d); the permutation-space analogue of the RBF kernel."""
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")
    if lengthscale < 0:
        raise ValueError("lengthscale must be >= 0")
    return float(
        base_kernel_from_nd(MALLOWS, accel.discordant_count(a.values, b.values), a.d, lengthscale)
    )


def stack_values(points: Sequence[Permutation]) -> np.ndarray:
    """(n, d) int64 array of permutation values; validates equal dimensions."""
    if len(points) == 0:
        raise ValueError("empty permutation list")
    d = points[0].d
    for p in points:
        if p.d != d:
            raise ValueError(f"dimension mismatch within list: {p.d} vs {d}")
    return np.stack([p.values for p in points])


def base_kernel_from_nd(family: str, nd: np.ndarray, d: int, lengthscale: float = 1.0) -> np.ndarray:
    """Unit-signal kernel values from a matrix of discordant-pair counts."""
    if family == KENDALL:
        m = num_pairs(d)
        return (m - 2.0 * nd) / m
    if family == MALLOWS:
        # A huge lengthscale overflows -l * n_d to -inf, whose exp is the right 0.
        with np.errstate(over="ignore"):
            return np.exp(-lengthscale * nd)
    raise ValueError(f"unknown kernel family {family!r}")


def gram_matrix(spec: KernelSpec, points: Sequence[Permutation]) -> np.ndarray:
    """Symmetric kernel matrix K[i,j] = signal_variance * k(pi_i, pi_j), plus
    GRAM_JITTER * signal_variance on the diagonal.

    Both kernels are positive semi-definite in exact arithmetic but need
    this stabilization for Cholesky.
    """
    x = stack_values(points)
    nd = accel.discordance_matrix(x)
    K = spec.signal_variance * base_kernel_from_nd(
        spec.family, nd, x.shape[1], spec.lengthscale
    )
    K[np.diag_indices_from(K)] += GRAM_JITTER * spec.signal_variance
    return K

