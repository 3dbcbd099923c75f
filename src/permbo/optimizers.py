"""Optimizers over S_d: exhaustive oracle and restarted 2-swap descent.

The exhaustive search is the correctness oracle for everything else. Every
2-swap search goes through one restart driver, ``multi_restart_candidates``:
one ``values`` call over all uniform starts, then one ``swap_descent`` that
steps them in lockstep, its ``neighbourhood`` scorer valuing all C(d,2)
swaps of every walking row at once: bops-t the Thompson-sampling trace,
bops-h expected improvement, ``pointwise`` any one-permutation objective.
Each row must score as it would alone. For EI the GP layer's layout keeps
that bit for bit (``gp._standardized_moments``: per row's (C(d,2), n)
block, one GEMV for the means and one GEMM against the inverse Cholesky
factor for the variances).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable

import numpy as np

from . import accel, perm
from .acquisition import QapMatrices
from .perm import Permutation, num_pairs, random_permutation, swap_neighbor_matrix

Objective = Callable[[Permutation], float]
#: (A, d) rows -> their (A,) values.
Values = Callable[[np.ndarray], np.ndarray]
#: (A, d) rows, their (A,) carried values -> (A, C(d,2)) neighbour values, pairs in order.
Neighbourhood = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Largest dimension the exhaustive search will accept (9! = 362880 evaluations).
BRUTE_FORCE_MAX_D = 9


def max_steps(d: int) -> int:
    """Moves one 2-swap descent may take on S_d: 10 * C(d,2)."""
    return 10 * num_pairs(d)


def brute_force_argmin(objective: Objective, d: int) -> tuple[Permutation, float]:
    """Global minimizer by enumerating S_d; ties go to the lexicographically smallest mapping."""
    if d > BRUTE_FORCE_MAX_D:
        raise ValueError(f"brute force capped at d={BRUTE_FORCE_MAX_D}, got {d}")
    best_p: Permutation | None = None
    best_v = math.inf
    for tup in itertools.permutations(range(d)):
        p = Permutation._wrap(np.array(tup, dtype=np.int64))
        v = float(objective(p))
        if v < best_v:
            best_p, best_v = p, v
    if best_p is None:
        raise ValueError(f"objective is inf or nan on every permutation of size {d}")
    return best_p, best_v


@functools.lru_cache(maxsize=None)
def _swap_orders(d: int) -> np.ndarray:
    # Row k: 0..d-1 with the k-th pair exchanged (via ``perm``: not a traced neighbour scan).
    return perm.swap_neighbor_matrix(np.arange(d))


def swap_descent(
    neighbourhood: Neighbourhood,
    starts: np.ndarray,
    values: np.ndarray,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement 2-swap descent from every row of ``starts`` in lockstep.

    ``neighbourhood(rows, values)`` gives the (A, C(d,2)) values of the
    2-swap neighbours of (A, d) ``rows``, pairs in ``accel.pair_indices``
    order, in the frame of the ``values`` they carry. Each step, a row moves
    to its first best neighbour if that is strictly below its value, which
    it then carries; otherwise it stops, 2-swap-locally optimal. A NaN
    neighbour stops a row too, as the first NaN is the ``argmin``, and so do
    ``max_steps`` moves. Returns the final rows and values.
    """
    orders = _swap_orders(starts.shape[1])
    # A move rebinds ``rows``, so the copies of the starts can collect the results.
    rows = final_rows = np.array(starts, dtype=np.int64)
    values = final_values = np.array(values, dtype=np.float64)
    walking = at = np.arange(rows.shape[0])  # result slot and batch row of each walker
    for _ in range(max_steps):
        scores = neighbourhood(rows, values)
        best = scores.argmin(axis=1)
        best_values = scores[at, best]
        moving = (best_values < values).nonzero()[0]
        if moving.shape[0] < at.shape[0]:
            final_rows[walking], final_values[walking] = rows, values
            if moving.shape[0] == 0:
                return final_rows, final_values
            walking, rows = walking[moving], rows[moving]
            best, best_values = best[moving], best_values[moving]
            at = np.arange(moving.shape[0])
        rows, values = rows[at[:, None], orders[best]], best_values
    final_rows[walking], final_values[walking] = rows, values
    return final_rows, final_values


def pointwise(objective: Objective) -> tuple[Values, Neighbourhood]:
    """The ``values`` and ``neighbourhood`` of ``multi_restart_candidates`` for
    an ``objective`` of one permutation, called once per row and neighbour."""

    def values(rows: np.ndarray) -> np.ndarray:
        return np.array([objective(Permutation._wrap(r)) for r in rows], dtype=np.float64)

    def neighbourhood(rows: np.ndarray, _: np.ndarray) -> np.ndarray:
        return np.stack([values(swap_neighbor_matrix(row)) for row in rows])

    return values, neighbourhood


def local_search(
    objective: Objective, start: Permutation, max_steps: int
) -> tuple[Permutation, float]:
    """Best-improvement 2-swap descent from ``start`` (``swap_descent`` on one row),
    ``objective`` valuing each neighbour."""
    values, neighbourhood = pointwise(objective)
    rows = start.values[None, :]
    [p], [v] = swap_descent(neighbourhood, rows, values(rows), max_steps)
    return Permutation._wrap(p), float(v)


def multi_restart_candidates(
    values: Values,
    neighbourhood: Neighbourhood,
    d: int,
    restarts: int,
    rng: np.random.Generator,
) -> list[tuple[Permutation, float]]:
    """2-swap descent from ``restarts`` uniform starts, valued by one ``values`` call
    and walked by one ``swap_descent`` scored by ``neighbourhood``; every result,
    best first (stable). ``pointwise`` adapts a one-permutation objective."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    starts = np.stack([random_permutation(d, rng).values for _ in range(restarts)])
    rows, finals = swap_descent(neighbourhood, starts, values(starts), max_steps(d))
    results = [(Permutation._wrap(p), float(v)) for p, v in zip(rows, finals)]
    return sorted(results, key=lambda r: r[1])


# --- QAP solve used by Thompson sampling: minimize Tr(W P A P^T) over permutation
# matrices by ``swap_descent``; the exhaustive solve is the oracle for the tests.


def solve_qap_exhaustive(q: QapMatrices) -> tuple[Permutation, float]:
    return brute_force_argmin(
        lambda p: float(accel.ts_trace_batch(q.W, p.values[None, :])[0]), q.W.shape[0]
    )


def solve_ts_qap_candidates(
    q: QapMatrices, restarts: int, rng: np.random.Generator
) -> list[tuple[Permutation, float]]:
    """Minimize the Thompson-sampling trace; every restart's result, best first (stable)."""
    # Each walk carries its start's full trace, moved by the trace change of each swap.
    g = q.W - q.W.T
    return multi_restart_candidates(
        lambda rows: accel.ts_trace_batch(q.W, rows),
        lambda rows, v: v[:, None] + accel.ts_swap_deltas(g, rows),
        q.W.shape[0], restarts, rng,
    )
