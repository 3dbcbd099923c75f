"""Correctness checks on the raw rows of ``permbo.cli.run_one_rep``, and the fingerprint.

A row is ``[rep, phase, iter, permutation, value, best_so_far, seconds]``
as written to ``raw.csv``. The checks hold for every replication:

* it has exactly ``n_init`` init rows then ``n_iters`` bo rows, numbered
  0 .. n_init + n_iters - 1;
* every permutation is a bijection on 0..d-1;
* ``best_so_far`` is the running minimum of ``value``;
* every value equals the objective recomputed here, independently of
  permbo's kernels (the workloads' objectives are deterministic).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Callable, Sequence

Objective = Callable[[Sequence[int]], float]


def qap_objective_from_file(path: Path) -> Objective:
    """sum_ij A[i][j] * B[p(i)][p(j)] for the QAPLIB file at ``path``."""
    tokens = [float(t) for t in Path(path).read_text().split()]
    n = int(tokens[0])
    A = [tokens[1 + i * n : 1 + (i + 1) * n] for i in range(n)]
    B = [tokens[1 + n * n + i * n : 1 + n * n + (i + 1) * n] for i in range(n)]

    def objective(p: Sequence[int]) -> float:
        return float(sum(A[i][j] * B[p[i]][p[j]] for i in range(n) for j in range(n)))

    return objective


def discordance_objective(target: Sequence[int]) -> Objective:
    """Number of pairs that ``p`` orders differently from ``target``."""
    target = list(target)
    d = len(target)

    def objective(p: Sequence[int]) -> float:
        return float(
            sum(
                (p[i] < p[j]) != (target[i] < target[j])
                for i in range(d)
                for j in range(i + 1, d)
            )
        )

    return objective


def check_rep(
    rows: list[list], n_init: int, n_iters: int, d: int, objective: Objective
) -> list[str]:
    """Every violation found in one replication's rows (empty when correct)."""
    errors = []
    if len(rows) != n_init + n_iters:
        errors.append(f"{len(rows)} records, expected {n_init + n_iters}")
    best = float("inf")
    for k, row in enumerate(rows):
        rep, phase, index, perm_text, value, best_so_far = row[:6]
        where = f"rep {rep} record {k}"
        expected_phase = "init" if k < n_init else "bo"
        if phase != expected_phase or int(index) != k:
            errors.append(f"{where}: phase/index {phase}/{index}, expected {expected_phase}/{k}")
        try:
            perm = [int(t) for t in perm_text.split(",")]
        except ValueError:
            errors.append(f"{where}: unparseable permutation {perm_text!r}")
            continue
        if sorted(perm) != list(range(d)):
            errors.append(f"{where}: {perm_text} is not a bijection on 0..{d - 1}")
            continue
        value = float(value)
        best = min(best, value)
        if float(best_so_far) != best:
            errors.append(f"{where}: best_so_far {best_so_far} is not the running minimum {best!r}")
        want = objective(perm)
        if abs(value - want) > 1e-9 * max(1.0, abs(want)):
            errors.append(f"{where}: value {value!r} but the objective gives {want!r}")
    return errors


def fingerprint(reps: list[list[list]]) -> str:
    """sha256 of the seeded (rep, phase, iter, permutation, value, best) rows, no timing."""
    h = hashlib.sha256()
    for rows in reps:
        for row in rows:
            h.update(("|".join(str(x) for x in row[:6]) + "\n").encode())
    return h.hexdigest()
