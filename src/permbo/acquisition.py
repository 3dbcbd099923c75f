"""Acquisition functions: expected improvement and the Thompson-sampling QAP.

Expected improvement is scored either at given rows or, for the bops-h
local search, at the whole 2-swap neighbourhoods of a batch of rows at
once (``swap_neighbour_ei``), from the two prediction routes of ``gp``. Both
share one definition (``_ei``), in which training points score zero:
re-querying an evaluated point of a deterministic objective improves
nothing.

A weight vector sampled from the Kendall weight posterior induces the
linear objective w^T phi(pi). Arranging the weights into a strictly
upper-triangular matrix W turns its minimization into the quadratic
assignment problem min_P Tr(W P A P^T), where A holds +1 above and -1
below the diagonal; the trace equals sqrt(C(d,2)) * w^T phi(pi) for the
permutation with matrix P[i, pi(i)] = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .accel import pair_indices
from .gp import GpModel, predict_batch, predict_swap_neighbours
from .perm import num_pairs

#: Below this predictive standard deviation, in units of the fitted
#: ``GpModel.y_std``, EI is defined as zero.
EI_STD_FLOOR = 1e-12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class QapMatrices:
    """W strictly upper-triangular; A antisymmetric with sign(j - i) entries."""

    W: np.ndarray
    A: np.ndarray


def expected_improvement_batch(
    m: GpModel, queries, incumbent: float
) -> np.ndarray:
    """Closed-form EI, E[max(incumbent - f, 0)], at each row of the (n, d) ``queries``.

    Always >= 0; zero at training points and where the predictive
    standard deviation is below ``EI_STD_FLOOR`` times ``m.y_std``.
    """
    return _ei(*predict_batch(m, queries), incumbent, m.y_std)


def swap_neighbour_ei(m: GpModel, perms: np.ndarray, incumbent: float) -> np.ndarray:
    """(A, C(d,2)) EI at all 2-swap neighbours of each row of the (A, d) ``perms``,
    pairs in order.

    Row r is bit-identical to ``expected_improvement_batch`` on
    ``swap_neighbor_matrix(perms[r])`` (``gp.predict_swap_neighbours``).
    """
    return _ei(*predict_swap_neighbours(m, perms), incumbent, m.y_std)


def _ei(
    means: np.ndarray,
    variances: np.ndarray,
    evaluated: np.ndarray,
    incumbent: float,
    y_std: float,
) -> np.ndarray:
    # Imported here: only EI needs scipy.special, and importing it costs
    # every process that never scores EI tens of milliseconds at start.
    from scipy.special import ndtr

    s = np.sqrt(variances)
    improve = incumbent - means
    uncertain = s > EI_STD_FLOOR * y_std
    z = np.divide(improve, s, out=np.zeros_like(s), where=uncertain)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    ei = improve * ndtr(z) + s * pdf
    ei[~uncertain | evaluated] = 0.0
    return np.maximum(ei, 0.0)


@functools.lru_cache(maxsize=None)
def _sign_matrix(d: int) -> np.ndarray:
    """The QAP's constant A[i, j] = sign(j - i), built once per d and read-only."""
    idx = np.arange(d)
    A = np.sign(idx[None, :] - idx[:, None]).astype(np.float64)
    A.setflags(write=False)
    return A


def build_qap(w: np.ndarray, d: int) -> QapMatrices:
    """Arrange a C(d,2) weight vector into the QAP matrices (W, A).

    W[i, j] = w[k] for pair k = (i, j) of ``accel.pair_indices``, zero
    elsewhere; the induced objective Tr(W P A P^T) is sqrt(C(d,2)) times
    w^T phi(pi). A depends on d alone; one read-only copy per d is shared
    by every call.
    """
    w = np.asarray(w, dtype=np.float64)
    m = num_pairs(d)
    if w.ndim != 1 or w.shape[0] != m:
        raise ValueError(f"weight vector must have length C({d},2)={m}, got {w.shape}")
    W = np.zeros((d, d))
    iu, ju = pair_indices(d)
    W[iu, ju] = w
    return QapMatrices(W=W, A=_sign_matrix(d))
