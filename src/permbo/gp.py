"""Gaussian-process regression over permutations.

Function-space fitting and prediction for both kernel families, plus the
exact weight-space posterior over Kendall features used for Thompson
sampling. Observations are standardized internally; hyperparameters are
selected by deterministic grid search on the log marginal likelihood,
which picks what the exhaustive search picks.

The grid search makes one Householder tridiagonal reduction (LAPACK
``sytrd``) per lengthscale it scores, of the kernel matrix bordered by
the standardized targets (``_bordered_tridiagonal``). One backward pivot
recurrence then gives the negative log marginal likelihood of every
(signal, noise) pair of those lengthscales in n numpy steps
(``_nlml_grid``; Golub & Van Loan, Matrix Computations, 8.3), and the
first minimum in (lengthscale, signal, noise) grid order wins. Mallows
lengthscales are scored in grid order, and one is skipped, without its
reduction, only when a lower bound proves that it cannot reach the best
NLML so far (``_nlml_lower_bound``): the log-determinant cannot fall as
the lengthscale grows (Oppenheim's inequality), and Cauchy-Schwarz bounds
the quadratic term by one weighted count over the discordances. The pick
is therefore the whole grid's, bit for bit. Nothing is skipped for
constant targets (or n = 1), for a lengthscale below every scored one,
or for the Kendall kernel, which has one. The chosen model is
Cholesky-factored for prediction,
and the Kendall weight posterior reuses that factor (Woodbury), so
weight-space and function-space posteriors share one factorization. An
oracle test checks every grid entry against a dense log-determinant
evaluation.

Both kernels are functions of the discordant-pair count n_d alone, so
the fit and the predictions read every kernel value from one table over
n_d = 0..C(d,2): the fit gathers its Gram matrices from it, and the
fitted model keeps the chosen one (``GpModel.kernel_table``). Every
prediction reads the table at the (A, q, n) discordances of A blocks of
q queries to the n training rows and goes through
``_standardized_moments``: one GEMV per block against the solved weights
for the means, and one GEMM per block against the transposed inverse of
the Cholesky factor (``GpModel.chol_inv_t``, built once per model on its
first prediction) for the variances, so each block gets the bits it
would get alone. ``predict_batch`` counts the discordances against given
rows (one block), ``predict_swap_neighbours`` gets them for the 2-swap
neighbourhoods of A rows at once (a block per row) from swap deltas
against the training sign stack, and ``test_nll`` scores held-out data
in standardized units. The fit and the weight posterior solve against
the factor itself and never build its inverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dsytrd, dsytrd_lwork, dtrtri

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

#: Most (row, neighbour, training row) entries one 2-swap neighbourhood scan
#: holds; ``predict_swap_neighbours`` scans larger batches a slice of rows at a
#: time. The rule: a slice's arrays must stay in L2 and be reused between
#: slices. A slice peaks at about 21 bytes per entry (tracemalloc), so 2^15
#: entries take 0.7 MB of a 2 MB L2. Measured on a 2-core Xeon, 2 MB L2 per
#: core, one BLAS thread, over d in {6, 10, 15, 30} and n from 20 to 160:
#: 2^15 was within 8 % of the fastest of 2^14, 3 * 2^13, 2^15 and 3 * 2^14
#: for 5-row scans. From 3 * 2^14 entries (0.9 MB) up, 10-row scans at
#: d >= 10 page-faulted their arrays on every scan (180 to 370 faults at
#: 3 * 2^14, none at 2^15) and ran up to 1.7x slower.
SCAN_ENTRIES = 1 << 15

#: Lengthscales ``fit`` reduces before its first bound check; after that it
#: reduces one per check. Each block costs one pivot recurrence of n numpy
#: steps, so one-at-a-time checks from the start cost more than the
#: reductions they save. Over the 400 fits of bops-h seed 0 (d = 6, 2 x 140
#: fits up to n = 159; d = 15, 3 x 40 fits up to n = 59; one BLAS thread,
#: 2-core Xeon), the median mean fit took 2.08 / 2.11 / 2.25 ms at d = 6 with
#: first blocks of 4 / 3 / 5, and 0.93 / 1.00 / 1.09 ms at d = 15 (7 runs).
_FIRST_BLOCK = 4

#: ``fit`` skips a lengthscale only if its NLML lower bound is at least the
#: best NLML so far plus this fraction of 1 + |best|. The dense-oracle test
#: admits an error of max(1e-10 |v|, 1e-8) per table entry, and this margin
#: is at least 100 times that. Over the 400 fits above, the table matched a
#: dense evaluation within 1.5e-12 (1 + |v|), computed entries fell below
#: their computed bounds by at most 1.8e-15 (1 + |v|), and no skip came
#: closer than 2.4e-3 (1 + |best|) to the threshold, so the margin costs
#: no skip.
_BOUND_MARGIN = 1e-6

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

    @functools.cached_property
    def chol_inv_t(self) -> np.ndarray:
        """L^-T for the Cholesky factor L, upper-triangular, C-ordered and read-only."""
        inv, info = dtrtri(self.chol, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular inverse failed (trtri info {info})")
        inv_t = inv.T
        inv_t.setflags(write=False)
        return inv_t


@dataclass
class WeightPosterior:
    """Gaussian over the C(d,2) Kendall feature weights: mean + Cholesky of covariance."""

    mean: np.ndarray
    cov_factor: np.ndarray


def _standardize(ys: np.ndarray) -> tuple[float, float, np.ndarray]:
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
) -> tuple[np.ndarray, np.ndarray]:
    """NLML and log|s K + c I| for every (lengthscale, signal, noise) triple,
    from the reductions.

    ``a`` (L, n) and ``e`` (L, n - 1) are the diagonals and off-diagonals
    of the L unit-signal tridiagonals and ``beta`` (L,) the norms of the
    reduced targets. The pivots of s T + c I, c = GRAM_JITTER*s + noise,
    run backwards: u_n = s a_n + c, u_k = s a_k + c - s^2 e_k^2 / u_(k+1).
    Then log|s K + c I| = sum log u_k and y^T (s K + c I)^-1 y =
    beta^2 / u_1. An entry is admissible if every pivot is positive (the
    matrix is positive definite) and its NLML is a number; elsewhere the
    NLML is ``inf`` and the log-determinant ``-inf``.
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
        logdet = np.sum(np.log(pivots), axis=0)
        val = 0.5 * ((beta**2)[:, None, None] / u + logdet + n * LOG_2PI)
    admissible = np.all(pivots > 0.0, axis=0) & ~np.isnan(val)
    return np.where(admissible, val, math.inf), np.where(admissible, logdet, -math.inf)


def _nlml_lower_bound(
    ells: np.ndarray,
    q: np.ndarray,
    y: np.ndarray,
    reduced_ells: np.ndarray,
    reduced_logdet: np.ndarray,
    signals: np.ndarray,
    noises: np.ndarray,
) -> np.ndarray:
    """Lower bounds, (P, signal, noise), on the Mallows NLML of the targets
    ``y`` (not all zero) at the P lengthscales ``ells``, from the
    log-determinants ``reduced_logdet`` (R, signal, noise) at the
    lengthscales ``reduced_ells`` (R,). ``q`` (P,) holds y^T K_l y at
    ``ells``.

    Write M_l = s K_l + c I, c = GRAM_JITTER*s + noise. For l <= l',
    K_l' = K_l o K_(l'-l) (elementwise), and K_(l'-l) has a unit
    diagonal, so M_l' = M_l o K_(l'-l). The Mallows kernel is positive
    definite for every l >= 0 (Jiao & Vert, ICML 2015), so Oppenheim's
    inequality (Horn & Johnson, Matrix Analysis, 7.8) gives log|M_l'| >=
    log|M_l|, and Cauchy-Schwarz gives y^T M_l'^-1 y >= |y|^4 / y^T M_l' y
    = |y|^4 / (s q(l') + c |y|^2). Each entry takes the largest
    log-determinant at or below its lengthscale; with none there (only
    ``-inf``), the entry has no bound and is ``-inf``.
    """
    below = reduced_ells[None, :] <= ells[:, None]  # (P, R)
    logdet = np.max(np.where(below[:, :, None, None], reduced_logdet, -math.inf), axis=1)
    yy = y @ y
    s = signals[None, :, None]
    quad = yy * yy / (s * q[:, None, None] + (GRAM_JITTER * s + noises[None, None, :]) * yy)
    return 0.5 * (quad + logdet + len(y) * LOG_2PI)


def _nlml_table(
    family: str,
    nd: np.ndarray,
    d: int,
    y: np.ndarray,
    ells: np.ndarray,
    signals: np.ndarray,
    noises: np.ndarray,
) -> np.ndarray:
    """``_nlml_grid`` over ``ells`` x ``signals`` x ``noises`` for the
    discordance matrix ``nd`` of d-permutations and targets ``y``, with
    ``inf`` at every lengthscale the bound rules out.

    Lengthscales are reduced in grid order, the first ``_FIRST_BLOCK``
    together and then one at a time. After each block, a remaining
    lengthscale is dropped once ``_nlml_lower_bound`` puts every entry of
    it at least the margin above the best NLML so far. A dropped entry is
    then above the table's minimum, so the first minimum in grid order is
    the one the whole table gives. Nothing is dropped when y = 0
    (constant targets, or n = 1), and a Kendall fit has one lengthscale,
    so it never reaches the bound.
    """
    counts = np.arange(num_pairs(d) + 1)
    table = np.full((len(ells), len(signals), len(noises)), math.inf)
    logdet = np.full(table.shape, -math.inf)
    todo = list(range(len(ells)))
    block, q = _FIRST_BLOCK, None
    while todo:
        batch, todo = todo[:block], todo[block:]
        block = 1
        reductions = [
            _bordered_tridiagonal(base_kernel_from_nd(family, counts, d, ells[k])[nd], y)
            for k in batch
        ]
        a, e, beta = (np.stack(parts) for parts in zip(*reductions))
        table[batch], logdet[batch] = _nlml_grid(a, e, beta, signals, noises)
        if not todo or not y.any():
            continue
        if q is None:
            # y^T K_l y = sum_k exp(-l k) g_k, g_k the sum of y_i y_j over n_d(i, j) = k.
            g = np.bincount(nd.ravel(), weights=np.outer(y, y).ravel(), minlength=len(counts))
            q = base_kernel_from_nd(family, counts, d, ells[:, None]) @ g
        bounds = _nlml_lower_bound(ells[todo], q[todo], y, ells, logdet, signals, noises)
        bounds = bounds.min(axis=(1, 2))
        best = table.min()
        threshold = best + _BOUND_MARGIN * (1.0 + abs(best))
        todo = [k for k, bound in zip(todo, bounds) if bound < threshold]
    return table


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


def fit(family: str, xs: Sequence[Permutation], ys: Sequence[float]) -> GpModel:
    """Fit a GP of kernel ``family`` to (xs, ys) by ML-II on the hyperparameter grids.

    Signal variance, noise variance and (Mallows only) lengthscale are
    chosen by minimizing the negative log marginal likelihood over
    ``LENGTHSCALE_GRID``, ``SIGNAL_GRID`` and ``NOISE_GRID``, read at call
    time; the search is deterministic, and the first minimum in
    (lengthscale, signal, noise) grid order wins. Each lengthscale scored
    costs one tridiagonal reduction of its kernel matrix bordered by the
    standardized targets, and one pivot recurrence scores all of its
    (signal, noise) pairs. Mallows lengthscales are scored in grid order,
    a first block together and then one at a time; a remaining one is
    skipped once a lower bound on its NLML, from the log-determinants
    already scored and one weighted count of y_i y_j per discordance,
    clears the best NLML so far by a margin (``_nlml_table``). A skipped
    lengthscale cannot hold the minimum, so the pick is the whole grid's,
    bit for bit. Nothing is skipped when the standardized targets are all
    zero (constant targets, or n = 1) or for a lengthscale below every
    scored one. A Kendall spec keeps ``KernelSpec``'s default lengthscale,
    which its kernel never reads, and costs one reduction. The chosen
    model is Cholesky-factored for prediction.
    """
    xs = list(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 1 or len(xs) != ys.shape[0]:
        raise ValueError(f"need >= 1 observation with matching lengths, got {len(xs)} / {ys.shape[0]}")
    x_array = stack_values(xs)
    d = x_array.shape[1]
    y_mean, y_std, y_tilde = _standardize(ys)

    nd = accel.discordance_matrix(x_array)
    signals = np.asarray(SIGNAL_GRID, dtype=np.float64)
    noises = np.asarray(NOISE_GRID, dtype=np.float64)
    lengthscales = LENGTHSCALE_GRID if family == MALLOWS else (KernelSpec.lengthscale,)
    ells = np.asarray(lengthscales, dtype=np.float64)
    table = _nlml_table(family, nd, d, y_tilde, ells, signals, noises)
    k, i, j = np.unravel_index(np.argmin(table), table.shape)
    if not np.isfinite(table[k, i, j]):
        raise np.linalg.LinAlgError("no admissible hyperparameters on the grid")
    spec = KernelSpec(family, lengthscales[k], float(signals[i]), float(noises[j]))

    base = base_kernel_from_nd(spec.family, np.arange(num_pairs(d) + 1), d, spec.lengthscale)
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
    means, variances, evaluated = _moments(m, _query_discordances(m, queries))
    return means[0], variances[0], evaluated[0]


def predict_swap_neighbours(
    m: GpModel, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``predict_batch`` at all C(d,2) 2-swap neighbours of each row of the (A, d)
    ``perms``, as (A, C(d,2)) arrays with pairs in order.

    Row r gives the same bits as ``predict_batch`` on
    ``swap_neighbor_matrix(perms[r])`` without building those rows: the
    discordances come from swap deltas against the training sign stack
    (``accel.swap_discordances``). A scan's arrays grow as A * C(d,2) * n,
    so rows are scanned ``SCAN_ENTRIES // (C(d,2) * n)`` at a time (at
    least one), which keeps a slice's arrays in L2 and changes no bits.
    """
    rows = max(1, SCAN_ENTRIES // (num_pairs(m.d) * m.n))
    parts = [
        _moments(m, accel.swap_discordances(m.sign_stack, perms[i : i + rows]))
        for i in range(0, len(perms), rows)
    ]
    means, variances, evaluated = (np.concatenate(arrays) for arrays in zip(*parts))
    return means, variances, evaluated


def _query_discordances(m: GpModel, queries: Sequence[Permutation] | np.ndarray) -> np.ndarray:
    # (1, q, n): one block of q queries against the n training rows.
    if isinstance(queries, np.ndarray):
        q = np.atleast_2d(queries).astype(np.int64)
    else:
        q = stack_values(list(queries))
    if q.shape[1] != m.d:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {m.d}")
    return accel.cross_discordance_matrix(q, m.x_array)[None]


def _standardized_moments(m: GpModel, kstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standardized posterior means and latent variances, (A, q), from the C-ordered
    (A, q, n) prior covariances of A blocks of q queries with the n training rows."""
    # Each block's mean is one GEMV over its C-ordered (n, q) block, which
    # is the GEMV the block gets alone; a plain (A * q, n) GEMV would round
    # differently. The variances are s - sum((kstar @ L^-T)^2): np.matmul
    # makes one GEMM per (q, n) block, all of one shape, so a block's
    # bits are those it gets alone.
    mean_std = np.matmul(np.ascontiguousarray(kstar.transpose(0, 2, 1)).transpose(0, 2, 1), m.alpha)
    v = np.matmul(kstar, m.chol_inv_t)
    v *= v
    var_std = m.spec.signal_variance - np.sum(v, axis=2)
    return mean_std, np.maximum(var_std, 0.0)


def _moments(m: GpModel, nd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-unit posterior means and variances, (A, q), from the C-ordered (A, q, n)
    discordances, and which queries are training points (discordance 0 to one of them)."""
    evaluated = (nd == 0).any(axis=2)
    kstar = m.kernel_table.take(nd)
    del nd  # the largest arrays of a scan: free each as soon as it is spent
    mean_std, var_std = _standardized_moments(m, kstar)
    # numpy's scalar power gives the bits of float ** 2, but overflows to
    # inf (with a warning) instead of raising at extreme objective scales.
    var_scale = np.float64(m.y_std) ** 2
    return m.y_mean + m.y_std * mean_std, var_scale * var_std, evaluated


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
    kstar = m.kernel_table.take(_query_discordances(m, test_xs))
    means, variances = (a[0] for a in _standardized_moments(m, kstar))
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
    return WeightPosterior(mean=mean, cov_factor=cholesky(cov, lower=True))


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
