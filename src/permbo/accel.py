"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

The pair/trace/cost kernels exist in two interchangeable implementations.
The ``*_np`` versions are vectorized numpy; the jitted versions compile
the equivalent explicit loops with ``numba.njit``. Two helpers are
numpy only and have no jitted twin: ``pair_indices``, a cache, and
``ts_swap_deltas``, batched matrix products over (R, d, d) arrays.
Which set is bound to the public names is decided once at import time:

* ``PERMBO_DISABLE_NUMBA=1`` in the environment forces the numpy path;
* otherwise numba is used when importable, numpy when not.

``BACKEND`` records the active choice. ``bench/bench_backends.py`` times
both sets against each other.

Permutations are passed as int64 arrays (value at position i is pi(i));
batches are (n, d) arrays with one permutation per row.
"""

from __future__ import annotations

import functools
import os

import numpy as np

_flag = os.environ.get("PERMBO_DISABLE_NUMBA", "").strip().lower()
_numba_wanted = _flag not in {"1", "true", "yes", "on"}

try:
    if not _numba_wanted:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# numpy-only helpers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, 1)``, computed once per d and returned read-only.

    Entry k is the pair (i, j), i < j, with linear index k in row-major
    upper-triangle order; every pair-indexed array in permbo uses it.
    """
    iu, ju = np.triu_indices(d, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def ts_swap_deltas(g: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Change of the TS trace under every 2-swap of every row of ``perms``.

    With G = W - W^T the trace is f(pi) = 1/2 * sum(G * S), where
    S[i, j] = sign(pi(i) - pi(j)). Swapping positions a < b changes it by
    M[a, b] + M[b, a] - M[a, a] - M[b, b] with M = G S^T, so one d x d
    product scores all C(d,2) neighbours. ``g`` is G, ``perms`` an (R, d)
    batch; the result is (R, C(d,2)), pairs in ``pair_indices`` order.
    """
    iu, ju = pair_indices(perms.shape[1])
    s_t = np.sign(perms[:, None, :] - perms[:, :, None]).astype(np.float64)
    m = g @ s_t
    diag = np.diagonal(m, axis1=1, axis2=2)
    return m[:, iu, ju] + m[:, ju, iu] - diag[:, iu] - diag[:, ju]


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _pair_signs(x: np.ndarray) -> np.ndarray:
    """Rows of x -> (n, C(d,2)) bool matrix: entry True iff x[i] < x[j] for pair (i,j), i<j."""
    x = np.atleast_2d(x)
    d = x.shape[1]
    iu, ju = pair_indices(d)
    return x[:, iu] < x[:, ju]


def discordant_count_np(a: np.ndarray, b: np.ndarray) -> int:
    d = a.shape[0]
    iu, ju = pair_indices(d)
    return int(np.count_nonzero((a[iu] < a[ju]) != (b[iu] < b[ju])))


def discordance_matrix_np(x: np.ndarray) -> np.ndarray:
    # Hamming distance between rows of the pairwise order matrix, via BLAS.
    f = _pair_signs(x).astype(np.float64)
    m = f.shape[1]
    matches = f @ f.T + (1.0 - f) @ (1.0 - f).T
    nd = np.rint(m - matches).astype(np.int64)
    np.fill_diagonal(nd, 0)
    return nd


def cross_discordance_matrix_np(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    fx = _pair_signs(x).astype(np.float64)
    fy = _pair_signs(y).astype(np.float64)
    m = fx.shape[1]
    matches = fx @ fy.T + (1.0 - fx) @ (1.0 - fy).T
    return np.rint(m - matches).astype(np.int64)


def ts_trace_np(w_upper: np.ndarray, perm: np.ndarray) -> float:
    """Tr(W P A P^T) expanded: sum over pairs i<j of W[i,j] * sign(perm[i]-perm[j])."""
    d = perm.shape[0]
    iu, ju = pair_indices(d)
    return float(np.sum(w_upper[iu, ju] * np.sign(perm[iu] - perm[ju])))


def ts_trace_batch_np(w_upper: np.ndarray, perms: np.ndarray) -> np.ndarray:
    d = perms.shape[1]
    iu, ju = pair_indices(d)
    signs = np.sign(perms[:, iu] - perms[:, ju]).astype(np.float64)
    return signs @ w_upper[iu, ju]


def qap_cost_np(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> float:
    return float(np.sum(a * b[np.ix_(perm, perm)]))


def qap_cost_batch_np(a: np.ndarray, b: np.ndarray, perms: np.ndarray) -> np.ndarray:
    return np.array([qap_cost_np(a, b, p) for p in perms])


def tsp_length_np(coords: np.ndarray, perm: np.ndarray) -> float:
    # TSPLIB EUC_2D: each edge rounded to nearest integer before summing.
    tour = coords[perm]
    diff = tour - np.roll(tour, -1, axis=0)
    return float(np.sum(np.floor(np.hypot(diff[:, 0], diff[:, 1]) + 0.5)))


# ---------------------------------------------------------------------------
# numba implementations (same semantics, explicit loops)
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _discordant_count_nb(a, b):  # pragma: no cover - exercised via dispatch
        d = a.shape[0]
        nd = 0
        for i in range(d - 1):
            for j in range(i + 1, d):
                if (a[i] < a[j]) != (b[i] < b[j]):
                    nd += 1
        return nd

    @njit(cache=True)
    def _pair_sign_rows_nb(x):  # pragma: no cover
        n, d = x.shape
        m = d * (d - 1) // 2
        out = np.empty((n, m), dtype=np.uint8)
        for r in range(n):
            k = 0
            for i in range(d - 1):
                for j in range(i + 1, d):
                    out[r, k] = 1 if x[r, i] < x[r, j] else 0
                    k += 1
        return out

    @njit(cache=True)
    def _discordance_matrix_nb(x):  # pragma: no cover
        f = _pair_sign_rows_nb(x)
        n, m = f.shape
        out = np.zeros((n, n), dtype=np.int64)
        for r in range(n):
            for s in range(r + 1, n):
                nd = 0
                for k in range(m):
                    nd += f[r, k] != f[s, k]
                out[r, s] = nd
                out[s, r] = nd
        return out

    @njit(cache=True)
    def _cross_discordance_matrix_nb(x, y):  # pragma: no cover
        fx = _pair_sign_rows_nb(x)
        fy = _pair_sign_rows_nb(y)
        n, m = fx.shape
        nq = fy.shape[0]
        out = np.zeros((n, nq), dtype=np.int64)
        for r in range(n):
            for s in range(nq):
                nd = 0
                for k in range(m):
                    nd += fx[r, k] != fy[s, k]
                out[r, s] = nd
        return out

    @njit(cache=True)
    def _ts_trace_nb(w_upper, perm):  # pragma: no cover
        d = perm.shape[0]
        total = 0.0
        for i in range(d - 1):
            for j in range(i + 1, d):
                if perm[i] > perm[j]:
                    total += w_upper[i, j]
                else:
                    total -= w_upper[i, j]
        return total

    @njit(cache=True)
    def _ts_trace_batch_nb(w_upper, perms):  # pragma: no cover
        n, d = perms.shape
        out = np.empty(n, dtype=np.float64)
        for r in range(n):
            total = 0.0
            for i in range(d - 1):
                for j in range(i + 1, d):
                    if perms[r, i] > perms[r, j]:
                        total += w_upper[i, j]
                    else:
                        total -= w_upper[i, j]
            out[r] = total
        return out

    @njit(cache=True)
    def _qap_cost_nb(a, b, perm):  # pragma: no cover
        d = perm.shape[0]
        total = 0.0
        for i in range(d):
            for j in range(d):
                total += a[i, j] * b[perm[i], perm[j]]
        return total

    @njit(cache=True)
    def _qap_cost_batch_nb(a, b, perms):  # pragma: no cover
        n, d = perms.shape
        out = np.empty(n, dtype=np.float64)
        for r in range(n):
            total = 0.0
            for i in range(d):
                for j in range(d):
                    total += a[i, j] * b[perms[r, i], perms[r, j]]
            out[r] = total
        return out

    @njit(cache=True)
    def _tsp_length_nb(coords, perm):  # pragma: no cover
        n = perm.shape[0]
        total = 0.0
        for i in range(n):
            j = (i + 1) % n
            dx = coords[perm[i], 0] - coords[perm[j], 0]
            dy = coords[perm[i], 1] - coords[perm[j], 1]
            total += np.floor(np.sqrt(dx * dx + dy * dy) + 0.5)
        return total

    def discordant_count_nb(a, b):
        return int(_discordant_count_nb(a, b))

    def tsp_length_nb(coords, perm):
        return float(_tsp_length_nb(coords, perm))

    def ts_trace_nb(w_upper, perm):
        return float(_ts_trace_nb(w_upper, perm))

    def qap_cost_nb(a, b, perm):
        return float(_qap_cost_nb(a, b, perm))

    discordance_matrix_nb = _discordance_matrix_nb
    cross_discordance_matrix_nb = _cross_discordance_matrix_nb
    ts_trace_batch_nb = _ts_trace_batch_nb
    qap_cost_batch_nb = _qap_cost_batch_nb


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    BACKEND = "numba"
    discordant_count = discordant_count_nb
    discordance_matrix = discordance_matrix_nb
    cross_discordance_matrix = cross_discordance_matrix_nb
    ts_trace = ts_trace_nb
    ts_trace_batch = ts_trace_batch_nb
    qap_cost = qap_cost_nb
    qap_cost_batch = qap_cost_batch_nb
    tsp_length = tsp_length_nb
else:
    BACKEND = "numpy"
    discordant_count = discordant_count_np
    discordance_matrix = discordance_matrix_np
    cross_discordance_matrix = cross_discordance_matrix_np
    ts_trace = ts_trace_np
    ts_trace_batch = ts_trace_batch_np
    qap_cost = qap_cost_np
    qap_cost_batch = qap_cost_batch_np
    tsp_length = tsp_length_np
