"""Optimizers over S_d: exhaustive oracle, 2-swap local search, multi-restart.

The exhaustive search doubles as the correctness oracle for everything
else. The generic 2-swap search, restarted from ``restarts`` uniform
starts, optimizes expected improvement for bops-h; it takes a
neighbourhood scorer that values all C(d,2) swaps of the current row at
once, which bops-h computes from swap deltas of the discordances
(``acquisition.swap_neighbour_ei``) without building the neighbour rows.
The Thompson-sampling QAP takes the same walk through a delta-evaluated
descent specialised to its trace objective. Every restart stops after
``max_steps(d)`` moves at most. All search is deterministic given the
caller's random generator.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from . import accel
from .acquisition import QapMatrices
from .perm import Permutation, num_pairs, random_permutation, swap_neighbor_matrix

Objective = Callable[[Permutation], float]
#: Optional neighbourhood scorer: a (d,) int row -> the (C(d,2),) objective
#: values of its 2-swap neighbours, pairs in ``accel.pair_indices`` order.
Neighbourhood = Callable[[np.ndarray], np.ndarray]

#: Largest dimension the exhaustive search will accept (9! = 362880 evaluations).
BRUTE_FORCE_MAX_D = 9


def max_steps(d: int) -> int:
    """Moves one 2-swap descent may take on S_d: 10 * C(d,2)."""
    return 10 * num_pairs(d)


def brute_force_argmin(
    objective: Objective, d: int
) -> tuple[Permutation, float]:
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


def local_search(
    objective: Objective,
    start: Permutation,
    max_steps: int,
    neighbourhood: Neighbourhood | None = None,
) -> tuple[Permutation, float]:
    """Best-improvement descent over single-transposition neighbors.

    Steps until no neighbor strictly improves or ``max_steps`` moves were
    taken; neighbor pairs are scanned in lexicographic order and the
    first best one wins, so the walk is deterministic. When terminated by
    convergence the result is 2-swap-locally optimal. The start is valued
    by ``objective``; ``neighbourhood``, if given, must agree with it and
    values all neighbors of a state at once.
    """
    current = np.array(start.values)
    current_v = float(objective(start))
    iu, ju = accel.pair_indices(current.shape[0])
    for _ in range(max_steps):
        if neighbourhood is not None:
            values = np.asarray(neighbourhood(current), dtype=np.float64)
        else:
            values = np.array(
                [objective(Permutation._wrap(row)) for row in swap_neighbor_matrix(current)]
            )
        best = int(np.argmin(values))
        if not values[best] < current_v:
            break
        a, b = iu[best], ju[best]
        current[a], current[b] = current[b], current[a]
        current_v = float(values[best])
    return Permutation._wrap(current), current_v


def multi_restart_candidates(
    objective: Objective,
    d: int,
    restarts: int,
    rng: np.random.Generator,
    neighbourhood: Neighbourhood | None = None,
) -> list[tuple[Permutation, float]]:
    """Local-search results from ``restarts`` uniform starts, in restart order."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    starts = [random_permutation(d, rng) for _ in range(restarts)]
    steps = max_steps(d)
    return [local_search(objective, s, steps, neighbourhood) for s in starts]



# --- QAP solve used by Thompson sampling -----------------------------------
#
# Minimize Tr(W P A P^T) over permutation matrices by the delta-evaluated
# 2-swap descent below, run from every restart at once. The exhaustive
# solve is the oracle the tests hold it to.


def ts_swap_descent(
    W: np.ndarray, starts: np.ndarray, max_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best-improvement 2-swap descent on the TS trace from each row of ``starts``.

    Takes the walk ``local_search`` takes on the full trace objective:
    neighbours in pair order, the first best one, a move only while it
    strictly lowers the trace, at most ``max_steps`` moves per row. All
    rows step together, each neighbourhood scored at once by
    ``accel.ts_swap_deltas``. ``W`` is the strictly upper-triangular QAP
    weight matrix. Returns the final rows and their traces.
    """
    g = W - W.T
    iu, ju = accel.pair_indices(starts.shape[1])
    current = np.array(starts, dtype=np.int64)
    active = np.arange(current.shape[0])
    for _ in range(max_steps):
        deltas = accel.ts_swap_deltas(g, current[active])
        best = np.argmin(deltas, axis=1)
        improving = deltas[np.arange(active.shape[0]), best] < 0.0
        active, best = active[improving], best[improving]
        if active.shape[0] == 0:
            break
        a, b = iu[best], ju[best]
        current[active, a], current[active, b] = current[active, b], current[active, a]
    return current, accel.ts_trace_batch(W, current)


def solve_qap_exhaustive(q: QapMatrices) -> tuple[Permutation, float]:
    return brute_force_argmin(
        lambda p: float(accel.ts_trace_batch(q.W, p.values[None, :])[0]), q.W.shape[0]
    )


def solve_ts_qap_candidates(
    q: QapMatrices, restarts: int, rng: np.random.Generator
) -> list[tuple[Permutation, float]]:
    """Minimize the Thompson-sampling trace objective; every restart's result, best first."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    d = q.W.shape[0]
    starts = np.stack([random_permutation(d, rng).values for _ in range(restarts)])
    finals, values = ts_swap_descent(np.ascontiguousarray(q.W), starts, max_steps(d))
    results = [(Permutation._wrap(p), float(v)) for p, v in zip(finals, values)]
    return sorted(results, key=lambda r: r[1])
