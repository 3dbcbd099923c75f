"""Hot numeric kernels over permutation batches, in numpy.

Every pair statistic is built from one primitive, ``pair_signs``: the
+-1 signs of the C(d,2) object pairs, in ``pair_indices`` order. The
discordant-pair counts behind the Kendall and Mallows kernels and the
Thompson-sampling trace are products of sign rows. The 2-swap deltas
are the one exception: their matrix products need both triangles, so
they use full d x d sign matrices.

Permutations are passed as int64 arrays (value at position i is pi(i));
batches are (n, d) arrays with one permutation per row.
"""

from __future__ import annotations

import functools

import numpy as np

#: The implementation in use; recorded by the benchmark harness.
BACKEND = "numpy"


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


def pair_signs(x: np.ndarray) -> np.ndarray:
    """(n, C(d,2)) float64 matrix of pair signs for the rows of ``x``.

    Entry (r, k) is +1 where x[r, i] > x[r, j] and -1 otherwise, for the
    k-th pair (i, j) of ``pair_indices(d)``. A 1-D ``x`` is one row.
    """
    x = np.atleast_2d(x)
    iu, ju = pair_indices(x.shape[1])
    s = (x[:, iu] > x[:, ju]).astype(np.float64)
    s *= 2.0
    s -= 1.0
    return s


def discordant_count(a: np.ndarray, b: np.ndarray) -> int:
    """Number of pairs that permutations ``a`` and ``b`` order oppositely."""
    s = pair_signs(np.stack([a, b]))
    return int(np.count_nonzero(s[0] != s[1]))


def _discordances(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    # Each sign product is +1 on a concordant pair and -1 on a discordant
    # one, so n_d = (C(d,2) - sx . sy) / 2; the sums are exact integers.
    return np.rint((sx.shape[1] - sx @ sy.T) / 2.0).astype(np.int64)


def discordance_matrix(x: np.ndarray) -> np.ndarray:
    """(n, n) discordant-pair counts between the rows of ``x``."""
    s = pair_signs(x)
    return _discordances(s, s)


def cross_discordance_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, q) discordant-pair counts between the rows of ``x`` and of ``y``."""
    return _discordances(pair_signs(x), pair_signs(y))


def ts_trace_batch(w_upper: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Tr(W P A P^T) per row: sum over pairs i < j of W[i, j] * sign(pi(i) - pi(j))."""
    iu, ju = pair_indices(perms.shape[1])
    return pair_signs(perms) @ w_upper[iu, ju]


@functools.lru_cache(maxsize=None)
def _swap_rows(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Entries a*d + b, b*d + a, a*d + a and b*d + b of a row-major d x d
    # matrix, for every pair (a, b) of ``pair_indices(d)``.
    iu, ju = pair_indices(d)
    return iu * d + ju, ju * d + iu, iu * (d + 1), ju * (d + 1)


def _swap_deltas(m: np.ndarray, d: int) -> np.ndarray:
    """M[a, b] + M[b, a] - M[a, a] - M[b, b] for each pair (a, b) of ``pair_indices(d)``,
    where axis 1 of ``m`` runs over the entries of a row-major d x d matrix M."""
    ab, ba, aa, bb = _swap_rows(d)
    out = m.take(ab, axis=1)
    out += m.take(ba, axis=1)
    out -= m.take(aa, axis=1)
    out -= m.take(bb, axis=1)
    return out


def ts_swap_deltas(g: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Change of the TS trace under every 2-swap of every row of ``perms``.

    With G = W - W^T the trace is f(pi) = 1/2 * sum(G * S), where
    S[i, j] = sign(pi(i) - pi(j)). Swapping positions a < b changes it by
    M[a, b] + M[b, a] - M[a, a] - M[b, b] with M = G S^T, so one d x d
    product scores all C(d,2) neighbours. ``g`` is G, ``perms`` an (R, d)
    batch; the result is (R, C(d,2)), pairs in ``pair_indices`` order.
    """
    r, d = perms.shape
    s_t = np.sign(perms[:, None, :] - perms[:, :, None]).astype(np.float64)
    return _swap_deltas((g @ s_t).reshape(r, d * d), d)


def sign_stack(x: np.ndarray) -> np.ndarray:
    """(d, d * n) float32 signs of the n rows of ``x``: [c, a * n + k] = sign(x[k, c] - x[k, a])."""
    xt = x.T
    return np.sign(xt[:, None, :] - xt[None, :, :]).astype(np.float32).reshape(x.shape[1], -1)


def swap_discordances(signs: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """(A, C(d,2), n) discordant-pair counts of n rows x against every 2-swap of each
    row of the (A, d) ``perms``.

    ``signs`` is ``sign_stack(x)``. For a row perm and each row x, let
    P[b, a] = sum_c sign(perm(b) - perm(c)) * sign(x(c) - x(a)). Then
    n_d(perm, x) = C(d,2)/2 + tr(P)/4, and swapping positions a and b of
    ``perm`` changes it by (P[a, b] + P[b, a] - P[a, a] - P[b, b]) / 2.
    This is ``ts_swap_deltas`` with weights G[a, c] = sign(x(c) - x(a)),
    whose TS trace is 2 n_d - C(d,2), and P the transpose of its M. The
    P of every perm and every x are one (A * d, d) @ (d, d * n) product.
    Its entries are integers of magnitude at most d, and every
    intermediate is a multiple of 1/4 of magnitude at most d * d, so
    float32 is exact for d < 4096.
    The gathers run along the d * d axis, so the walkers stay the leading
    axis without a transpose copy. Entry [r, k, i] is row i of x against
    row r of ``perms`` with the k-th pair of ``pair_indices`` swapped; the
    result is C-contiguous.
    """
    a, d = perms.shape
    s = np.sign(perms[:, :, None] - perms[:, None, :]).astype(np.float32)
    p = (s.reshape(a * d, d) @ signs).reshape(a, d * d, -1)
    out = _swap_deltas(p, d)
    out *= 0.5
    out += 0.25 * p[:, :: d + 1].sum(axis=1, keepdims=True) + 0.5 * (d * (d - 1) // 2)
    return out.astype(np.int64)


def qap_cost(a: np.ndarray, b: np.ndarray, perm: np.ndarray) -> float:
    """sum_{i,j} a[i, j] * b[perm(i), perm(j)]; an overflow gives inf or nan, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(a * b[np.ix_(perm, perm)]))


def tsp_length(coords: np.ndarray, perm: np.ndarray) -> float:
    # TSPLIB EUC_2D: edges rounded to integers, then summed; overflow gives inf, not a warning.
    tour = coords[perm]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = tour - np.roll(tour, -1, axis=0)
        return float(np.sum(np.floor(np.hypot(diff[:, 0], diff[:, 1]) + 0.5)))
