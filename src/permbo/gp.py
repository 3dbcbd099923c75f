"""Gaussian-process regression over permutations.

Function-space fitting and prediction for both kernel families, plus the
exact weight-space posterior over Kendall features used for Thompson
sampling. Observations are standardized internally; hyperparameters are
selected by exhaustive, deterministic grid search on the log marginal
likelihood.

The grid search makes one Householder tridiagonal reduction (LAPACK
``sytrd``) per lengthscale, of the kernel matrix bordered by the
standardized targets (``_bordered_tridiagonal``). One backward pivot
recurrence then gives the negative log marginal likelihood of every
(lengthscale, signal, noise) triple in n numpy steps (``_nlml_grid``;
Golub & Van Loan, Matrix Computations, 8.3), and the first minimum in
that order wins. The chosen model is Cholesky-factored for prediction,
and the Kendall weight posterior reuses that factor (Woodbury), so
weight-space and function-space posteriors share one factorization. An
oracle test checks every grid entry against a dense log-determinant
evaluation.

Both kernels are functions of the discordant-pair count n_d alone, so
the fit and the predictions read every kernel value from one table over
n_d = 0..C(d,2): the fit gathers its Gram matrices from it, and the
fitted model keeps the chosen one (``GpModel.kernel_table``). Every
prediction goes through ``_standardized_moments`` from the (n, q)
discordances to the training rows: ``predict_batch`` counts them against
given rows, ``predict_swap_neighbours`` gets them (the same bits) for a
row's 2-swap neighbourhood from swap deltas against the training sign
matrices, and ``test_nll`` scores held-out data in standardized units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dsytrd, dsytrd_lwork, dtrtrs

from . import accel
from .kernels import (
    GRAM_JITTER,
    KENDALL,
    MALLOWS,
    KernelSpec,
    base_kernel_from_nd,
    gram_matrix,
    stack_values,
)
from .perm import Permutation, kendall_feature_matrix, num_pairs

SIGNAL_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
NOISE_GRID = (1e-4, 1e-3, 1e-2, 1e-1)
LENGTHSCALE_GRID = tuple(np.logspace(-2.0, 1.0, 16))

#: Cholesky jitter escalates tenfold up to this multiple of the signal variance.
MAX_JITTER = 1e-2

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GpModel:
    """Fitted GP: training rows, Cholesky factor of K + noise*I, solved weights.

    ``x_array`` holds the (n, d) training rows. y values are standardized
    internally; y_mean/y_std undo it at prediction time. ``jitter`` is the
    absolute diagonal stabilizer that was actually used (it enters the
    effective observation noise seen by the weight-space posterior).
    ``kernel_table`` is signal * k(n_d) at every discordant-pair count
    n_d = 0..C(d,2).
    """

    spec: KernelSpec
    y_mean: float
    y_std: float
    y_tilde: np.ndarray
    chol: np.ndarray
    alpha: np.ndarray
    jitter: float
    x_array: np.ndarray = field(repr=False)
    kernel_table: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.x_array.shape[0]

    @property
    def d(self) -> int:
        return self.x_array.shape[1]

    @functools.cached_property
    def sign_stack(self) -> np.ndarray:
        """``accel.sign_stack`` of the training rows."""
        return accel.sign_stack(self.x_array)


@dataclass
class WeightPosterior:
    """Gaussian over the C(d,2) Kendall feature weights: mean + Cholesky of covariance."""

    d: int
    mean: np.ndarray
    cov_factor: np.ndarray


def _standardize(ys: np.ndarray, standardize: bool) -> tuple[float, float, np.ndarray]:
    if not standardize:
        return 0.0, 1.0, ys.astype(np.float64)
    # Dividing by the power of two of max|y| first is exact, so the
    # standardized values, and the test against 1e-12, do not depend on
    # the scale of the objective, and np.std cannot overflow.
    exponent = np.frexp(np.max(np.abs(ys)))[1]
    scaled = np.ldexp(ys, -exponent)
    y_mean = float(np.mean(scaled))
    y_std = float(np.std(scaled))
    if not y_std > 1e-12:
        y_std = 1.0
    return (
        float(np.ldexp(y_mean, exponent)),
        float(np.ldexp(y_std, exponent)),
        (scaled - y_mean) / y_std,
    )


def _bordered_tridiagonal(K: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal and off-diagonal of T, and beta, from one ``sytrd`` of [[0, y^T], [y, K]].

    The reduction's first reflector maps y to beta * e_1 and leaves
    Q^T K Q = T tridiagonal, so the n x n matrix K enters the grid only
    through T and beta.
    """
    n = y.shape[0]
    bordered = np.zeros((n + 1, n + 1), order="F")
    bordered[1:, 0] = y
    bordered[1:, 1:] = K
    lwork = int(dsytrd_lwork(n + 1, lower=1)[0])
    _, diag, off, _, info = dsytrd(bordered, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal reduction failed (sytrd info {info})")
    return diag[1:], off[1:], float(off[0])


def _nlml_grid(
    a: np.ndarray, e: np.ndarray, beta: np.ndarray, signals: np.ndarray, noises: np.ndarray
) -> np.ndarray:
    """NLML for every (lengthscale, signal, noise) triple, from the reductions.

    ``a`` (L, n) and ``e`` (L, n - 1) are the diagonals and off-diagonals
    of the L unit-signal tridiagonals and ``beta`` (L,) the norms of the
    reduced targets. The pivots of s T + c I, c = GRAM_JITTER*s + noise,
    run backwards: u_n = s a_n + c, u_k = s a_k + c - s^2 e_k^2 / u_(k+1).
    Then log|s K + c I| = sum log u_k and y^T (s K + c I)^-1 y =
    beta^2 / u_1. Entry [l, i, j] is ``inf`` unless every pivot is
    positive (the matrix is positive definite) and the value is a number.
    """
    s = signals[None, :, None]
    diag = s * a.T[:, :, None, None] + (GRAM_JITTER * s + noises[None, None, :])
    off = (s * s) * (e.T**2)[:, :, None, None]
    pivots = np.empty(diag.shape)
    n = a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = pivots[n - 1] = diag[n - 1]
        for k in range(n - 2, -1, -1):
            u = pivots[k] = diag[k] - off[k] / u
        val = 0.5 * (
            (beta**2)[:, None, None] / u + np.sum(np.log(pivots), axis=0) + n * LOG_2PI
        )
    return np.where(np.all(pivots > 0.0, axis=0) & ~np.isnan(val), val, math.inf)


def _factor(
    base: np.ndarray, signal: float, noise: float
) -> tuple[np.ndarray, float]:
    """Cholesky of signal*base + (jitter + noise)*I with escalating jitter."""
    jitter = GRAM_JITTER * signal
    while True:
        M = signal * base
        M[np.diag_indices_from(M)] += jitter + noise
        try:
            return cholesky(M, lower=True), jitter
        except np.linalg.LinAlgError:
            pass
        jitter *= 10.0
        if jitter > MAX_JITTER * signal:
            raise np.linalg.LinAlgError(
                f"Cholesky failed even at jitter {jitter / signal:.0e} * signal"
            )


def fit(
    spec_template: KernelSpec,
    xs: Sequence[Permutation],
    ys: Sequence[float],
    *,
    optimize: bool = True,
    standardize: bool = True,
) -> GpModel:
    """Fit a GP to (xs, ys) with the kernel family of ``spec_template``.

    With ``optimize`` (the default), signal variance, noise variance and
    (Mallows only) lengthscale are chosen by minimizing the negative log
    marginal likelihood over ``LENGTHSCALE_GRID``, ``SIGNAL_GRID`` and
    ``NOISE_GRID``, read at call time; the search is deterministic. Each
    lengthscale costs one tridiagonal reduction of its kernel matrix
    bordered by the standardized targets; one pivot recurrence then
    scores the whole grid, and the first minimum in (lengthscale, signal,
    noise) order wins. With ``optimize=False`` the template's
    hyperparameters are used as-is. Either way the chosen model is
    Cholesky-factored for prediction.
    """
    xs = list(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 1 or len(xs) != ys.shape[0]:
        raise ValueError(f"need >= 1 observation with matching lengths, got {len(xs)} / {ys.shape[0]}")
    x_array = stack_values(xs)
    d = x_array.shape[1]
    y_mean, y_std, y_tilde = _standardize(ys, standardize)

    nd = accel.discordance_matrix(x_array)
    counts = np.arange(num_pairs(d) + 1)

    if optimize:
        signals = np.asarray(SIGNAL_GRID, dtype=np.float64)
        noises = np.asarray(NOISE_GRID, dtype=np.float64)
        lengthscales = (
            LENGTHSCALE_GRID if spec_template.family == MALLOWS else (spec_template.lengthscale,)
        )
        reductions = [
            _bordered_tridiagonal(base_kernel_from_nd(spec_template.family, counts, d, ell)[nd], y_tilde)
            for ell in lengthscales
        ]
        a, e, beta = (np.stack(parts) for parts in zip(*reductions))
        table = _nlml_grid(a, e, beta, signals, noises)
        k, i, j = np.unravel_index(np.argmin(table), table.shape)
        if not np.isfinite(table[k, i, j]):
            raise np.linalg.LinAlgError("no admissible hyperparameters on the grid")
        spec = KernelSpec(
            spec_template.family, lengthscales[k], float(signals[i]), float(noises[j])
        )
    else:
        spec = spec_template

    base = base_kernel_from_nd(spec.family, counts, d, spec.lengthscale)
    L, jitter = _factor(base[nd], spec.signal_variance, spec.noise_variance)
    alpha = cho_solve((L, True), y_tilde)
    return GpModel(
        spec=spec,
        y_mean=y_mean,
        y_std=y_std,
        y_tilde=y_tilde,
        chol=L,
        alpha=alpha,
        jitter=jitter,
        x_array=x_array,
        kernel_table=spec.signal_variance * base,
    )


def predict_batch(
    m: GpModel, queries: Sequence[Permutation] | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posterior means and variances at many query permutations, and which are training points.

    Raw-unit means and latent-function variances (clamped at zero).
    """
    return _moments(m, _query_discordances(m, queries))


def predict_swap_neighbours(
    m: GpModel, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``predict_batch`` at all C(d,2) 2-swap neighbours of ``values``, in pair order.

    Gives the same bits as ``predict_batch`` on
    ``swap_neighbor_matrix(values)`` without building those rows: the
    discordances come from swap deltas against the training sign
    matrices (``accel.swap_discordances``).
    """
    return _moments(m, accel.swap_discordances(m.sign_stack, values))


def _query_discordances(m: GpModel, queries: Sequence[Permutation] | np.ndarray) -> np.ndarray:
    if isinstance(queries, np.ndarray):
        q = np.atleast_2d(queries).astype(np.int64)
    else:
        q = stack_values(list(queries))
    if q.shape[1] != m.d:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {m.d}")
    return accel.cross_discordance_matrix(m.x_array, q)


def _standardized_moments(m: GpModel, nd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardized posterior means and latent variances from the (n, q) discordances."""
    # Both routes pass a C-ordered nd, so kstar is C-ordered too and the
    # BLAS and LAPACK calls take the same path and round the same way.
    kstar = m.kernel_table[nd]
    mean_std = kstar.T @ m.alpha
    # LAPACK trtrs, called as solve_triangular calls it on the fit's
    # Fortran-ordered factor, without its input checks.
    v, info = dtrtrs(m.chol, kstar, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (trtrs info {info})")
    var_std = m.spec.signal_variance - np.sum(v * v, axis=0)
    return mean_std, np.maximum(var_std, 0.0)


def _moments(m: GpModel, nd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-unit posterior means and variances from the (n, q) discordances,
    and which queries are training points (discordance 0 to one of them)."""
    mean_std, var_std = _standardized_moments(m, nd)
    # numpy's scalar power gives the bits of float ** 2, but overflows to
    # inf (with a warning) instead of raising at extreme objective scales.
    var_scale = np.float64(m.y_std) ** 2
    return m.y_mean + m.y_std * mean_std, var_scale * var_std, (nd == 0).any(axis=0)


def predict(m: GpModel, p: Permutation) -> tuple[float, float]:
    """Posterior mean and variance at a single permutation."""
    means, variances, _ = predict_batch(m, p.values[None, :])
    return float(means[0]), float(variances[0])


def nlml(m: GpModel) -> float:
    """Negative log marginal likelihood of the standardized observations."""
    return float(
        0.5 * (m.y_tilde @ m.alpha)
        + np.sum(np.log(np.diag(m.chol)))
        + 0.5 * m.n * LOG_2PI
    )


def test_nll(
    m: GpModel, test_xs: Sequence[Permutation], test_ys: Sequence[float]
) -> float:
    """Mean negative log predictive density of held-out observations, with the fitted
    noise in the predictive variance; scored in standardized units, where finite data
    scores finite, plus log(y_std)."""
    test_ys = np.asarray(test_ys, dtype=np.float64)
    if len(test_xs) == 0:
        raise ValueError("empty test set")
    means, variances = _standardized_moments(m, _query_discordances(m, test_xs))
    variances = variances + m.spec.noise_variance
    residuals = test_ys / m.y_std - m.y_mean / m.y_std - means
    nlls = 0.5 * (np.log(2.0 * np.pi * variances) + residuals**2 / variances)
    return float(np.mean(nlls)) + math.log(m.y_std)


def weight_posterior(m: GpModel) -> WeightPosterior:
    """Exact Gaussian posterior over Kendall feature weights.

    With prior w ~ N(0, s*I) on the C(d,2) weights and observations
    y = Phi w + eps, eps ~ N(0, s2*I), where Phi is the n x C(d,2) feature
    matrix and s2 is the fitted noise plus the jitter that was used when
    factoring, the posterior is N(s*Phi^T alpha, s*I - s^2 Phi^T M^-1 Phi)
    with M = s*Phi Phi^T + s2*I (Woodbury). M is the matrix the fit
    already factored as L L^T and alpha = M^-1 y, so one triangular solve
    V = L^-1 Phi gives the covariance s*I - s^2 V^T V. Weight-space and
    function-space posteriors therefore agree by construction (the
    tractability property that a finite feature map buys).
    """
    if m.spec.family != KENDALL:
        raise ValueError(
            "weight-space posterior needs the finite Kendall feature map; "
            "the Mallows feature space is exponentially large"
        )
    phi = kendall_feature_matrix(m.x_array)  # (n, n_features)
    s = m.spec.signal_variance
    V = solve_triangular(m.chol, phi, lower=True)
    cov = -(s * s) * (V.T @ V)
    cov[np.diag_indices_from(cov)] += s
    mean = s * (phi.T @ m.alpha)
    return WeightPosterior(d=m.d, mean=mean, cov_factor=cholesky(cov, lower=True))


def sample_weights(wp: WeightPosterior, rng: np.random.Generator) -> np.ndarray:
    """One draw from the weight posterior: mean + cov_factor @ z."""
    z = rng.standard_normal(wp.mean.shape[0])
    return wp.mean + wp.cov_factor @ z


def sample_gp_prior(
    spec: KernelSpec, points: Sequence[Permutation], rng: np.random.Generator
) -> np.ndarray:
    """Joint draw of latent function values at ``points`` from the GP prior."""
    K = gram_matrix(spec, points)
    L = cholesky(K, lower=True)
    return L @ rng.standard_normal(len(points))
