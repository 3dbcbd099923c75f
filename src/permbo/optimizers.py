"""Optimizers over S_d: exhaustive oracle and restarted 2-swap descent.

The exhaustive search is the correctness oracle for everything else. Both
acquisitions are optimized by one deterministic walk, ``swap_descent``,
from ``restarts`` uniform starts, with a scorer that values all C(d,2)
swaps of a row at once: bops-h walks expected improvement one restart at
a time (stacking restarts would change how BLAS rounds them), bops-t the
Thompson-sampling trace from all restarts at once.
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
Neighbourhood = Callable[[np.ndarray], np.ndarray]  # (d,) row -> its 2-swap neighbours' values

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
    neighbourhood: Callable[[np.ndarray, np.ndarray], np.ndarray],
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


def local_search(
    objective: Objective,
    start: Permutation,
    max_steps: int,
    neighbourhood: Neighbourhood | None = None,
) -> tuple[Permutation, float]:
    """Best-improvement 2-swap descent from ``start`` (``swap_descent`` on one row), valued
    by ``objective``; ``neighbourhood``, if given, must agree with it and values all
    neighbours at once, otherwise ``objective`` values each neighbour row."""
    if neighbourhood is None:
        def neighbourhood(row: np.ndarray) -> np.ndarray:
            return np.array([objective(Permutation._wrap(r)) for r in swap_neighbor_matrix(row)])

    rows, values = swap_descent(
        lambda rows, _: np.asarray(neighbourhood(rows[0]), dtype=np.float64)[None, :],
        start.values[None, :], [float(objective(start))], max_steps,
    )
    return Permutation._wrap(rows[0]), float(values[0])


def _starts(d: int, restarts: int, rng: np.random.Generator) -> list[Permutation]:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    return [random_permutation(d, rng) for _ in range(restarts)]


def multi_restart_candidates(
    objective: Objective,
    d: int,
    restarts: int,
    rng: np.random.Generator,
    neighbourhood: Neighbourhood | None = None,
) -> list[tuple[Permutation, float]]:
    """``local_search`` from ``restarts`` uniform starts; every result, best first (stable)."""
    steps = max_steps(d)
    results = [local_search(objective, s, steps, neighbourhood) for s in _starts(d, restarts, rng)]
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
    d = q.W.shape[0]
    starts = np.stack([p.values for p in _starts(d, restarts, rng)])
    g = q.W - q.W.T
    # The walk carries the trace change since each start; the full trace values the results.
    finals, _ = swap_descent(
        lambda rows, v: v[:, None] + accel.ts_swap_deltas(g, rows),
        starts, np.zeros(restarts), max_steps(d),
    )
    values = accel.ts_trace_batch(q.W, finals)
    results = [(Permutation._wrap(p), float(v)) for p, v in zip(finals, values)]
    return sorted(results, key=lambda r: r[1])
