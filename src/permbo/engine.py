"""One run loop for all four algorithms, plus regret and information-gain diagnostics.

``run_algorithm`` draws ``n_init`` uniform permutations, then asks the
algorithm's proposal generator for one permutation per iteration:

* ``bops-t``: Kendall GP, Thompson sampling via the QAP solve;
* ``bops-h``: Mallows GP, expected improvement via multi-restart local search;
* ``random``: uniform sampling;
* ``ga``: steady-state genetic algorithm with permutation operators.

A generator reads the evaluated points from ``_Run.xs``/``_Run.ys``,
which every evaluation appends to. Every evaluation lands in the trace;
a run consumes exactly n_init + n_iters evaluations and is fully
reproducible from its seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .acquisition import build_qap, expected_improvement_batch, swap_neighbour_ei
from .gp import fit, sample_weights, weight_posterior
from .kernels import KENDALL, MALLOWS, KernelSpec
from .optimizers import multi_restart_candidates, solve_ts_qap_candidates
from .perm import Permutation, random_permutation

Objective = Callable[[Permutation], float]

BOPS_T = "bops-t"
BOPS_H = "bops-h"
RANDOM = "random"
GA = "ga"
ALGORITHMS = (BOPS_T, BOPS_H, RANDOM, GA)

#: GA population size, and children evaluated between population merges.
GA_POPULATION = 20
GA_OFFSPRING = 10


@dataclass(frozen=True)
class BoConfig:
    algorithm: str
    d: int
    n_iters: int
    n_init: int = 20
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if min(self.n_init, self.n_iters, self.restarts) < 1:
            raise ValueError("n_init, n_iters and restarts must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    index: int
    phase: str  # "init" or "bo"
    perm: Permutation
    value: float
    best: float
    seconds: float


@dataclass
class BoTrace:
    config: BoConfig
    records: list[TraceRecord] = field(default_factory=list)

    @property
    def best_value(self) -> float:
        return self.records[-1].best

    def values(self, phase: str | None = None) -> np.ndarray:
        return np.array(
            [r.value for r in self.records if phase is None or r.phase == phase]
        )

    def perms(self, phase: str | None = None) -> list[Permutation]:
        return [r.perm for r in self.records if phase is None or r.phase == phase]


class _Run:
    """Mutable state of one run: data, best-so-far, dedupe set, trace."""

    def __init__(self, cfg: BoConfig, objective: Objective):
        self.cfg = cfg
        self.objective = objective
        self.xs: list[Permutation] = []
        self.ys: list[float] = []
        self.best = math.inf
        self.seen: set[bytes] = set()
        self.trace = BoTrace(config=cfg)

    def evaluate(self, p: Permutation, phase: str, started: float) -> None:
        index = len(self.trace.records)
        try:
            y = float(self.objective(p))
        except Exception as exc:
            raise RuntimeError(
                f"objective evaluation failed at {phase} iteration {index}"
            ) from exc
        if not math.isfinite(y):
            # A non-finite value would poison the GP fit several calls later.
            raise ValueError(
                f"objective returned {y!r} at {phase} iteration {index} "
                f"for permutation {p.serialize()}"
            )
        self.xs.append(p)
        self.ys.append(y)
        self.seen.add(p.values.tobytes())
        self.best = min(self.best, y)
        self.trace.records.append(
            TraceRecord(
                index=index,
                phase=phase,
                perm=p,
                value=y,
                best=self.best,
                seconds=time.perf_counter() - started,
            )
        )

    def pick_unevaluated(
        self,
        candidates: Sequence[tuple[Permutation, float]],
        rng: np.random.Generator,
    ) -> Permutation:
        """Best candidate not yet evaluated; uniform unevaluated draw as last resort."""
        for p, _ in candidates:
            if p.values.tobytes() not in self.seen:
                return p
        if len(self.seen) >= math.factorial(self.cfg.d):
            return candidates[0][0]  # whole space evaluated; re-querying is all that remains
        while True:
            p = random_permutation(self.cfg.d, rng)
            if p.values.tobytes() not in self.seen:
                return p


# Proposal generators: (run, rng) -> one permutation per BO iteration. The
# acquisition layers are called through this module's globals at call time,
# so rebinding e.g. ``engine.fit`` reaches every run.


def _propose_bops_t(run: _Run, rng: np.random.Generator) -> Iterator[Permutation]:
    """Thompson sampling with the Kendall weight-space posterior and a QAP solve."""
    template = KernelSpec(KENDALL)
    while True:
        model = fit(template, run.xs, run.ys)
        w = sample_weights(weight_posterior(model), rng)
        q = build_qap(w, run.cfg.d)
        yield run.pick_unevaluated(solve_ts_qap_candidates(q, run.cfg.restarts, rng), rng)


def _propose_bops_h(run: _Run, rng: np.random.Generator) -> Iterator[Permutation]:
    """Expected improvement under a Mallows GP, optimized by restarted local search."""
    template = KernelSpec(MALLOWS)
    while True:
        model = fit(template, run.xs, run.ys)
        incumbent = min(run.ys)

        # The model is fitted on every evaluated point, so the points EI
        # scores zero as training points are exactly the evaluated ones.
        def neg_ei(p: Permutation) -> float:
            return -expected_improvement_batch(model, p.values[None, :], incumbent)[0]

        def neg_ei_neighbourhood(values: np.ndarray) -> np.ndarray:
            return -swap_neighbour_ei(model, values, incumbent)

        candidates = multi_restart_candidates(
            neg_ei, run.cfg.d, run.cfg.restarts, rng, neg_ei_neighbourhood
        )
        yield run.pick_unevaluated(candidates, rng)


def _propose_random(run: _Run, rng: np.random.Generator) -> Iterator[Permutation]:
    """Uniform random search baseline."""
    while True:
        yield random_permutation(run.cfg.d, rng)


def _tournament(
    population: list[tuple[Permutation, float]], rng: np.random.Generator
) -> Permutation:
    i, j = rng.integers(0, len(population), size=2)
    a, b = population[int(i)], population[int(j)]
    return a[0] if a[1] <= b[1] else b[0]


def order_crossover(
    a: Permutation, b: Permutation, rng: np.random.Generator
) -> Permutation:
    """OX: copy a contiguous segment of the first parent, fill from the second in order."""
    d = a.d
    cut = np.sort(rng.choice(d + 1, size=2, replace=False))
    start, end = int(cut[0]), int(cut[1])
    child = np.full(d, -1, dtype=np.int64)
    child[start:end] = a.values[start:end]
    used = set(int(v) for v in a.values[start:end])
    fill = [int(v) for v in np.roll(b.values, -end) if int(v) not in used]
    positions = [i % d for i in range(end, end + d) if child[i % d] < 0]
    for pos, val in zip(positions, fill):
        child[pos] = val
    return Permutation._wrap(child)


def swap_mutation(p: Permutation, rng: np.random.Generator) -> Permutation:
    i, j = rng.choice(p.d, size=2, replace=False)
    vals = p.values.copy()
    vals[int(i)], vals[int(j)] = vals[int(j)], vals[int(i)]
    return Permutation._wrap(vals)


def _propose_ga(run: _Run, rng: np.random.Generator) -> Iterator[Permutation]:
    """Steady-state GA: binary tournament, order crossover, swap mutation (prob 1/d)."""
    population = sorted(zip(run.xs, run.ys), key=lambda pv: pv[1])[:GA_POPULATION]
    while True:
        for _ in range(GA_OFFSPRING):
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            child = order_crossover(p1, p2, rng)
            if rng.random() < 1.0 / run.cfg.d:
                child = swap_mutation(child, rng)
            yield child
        offspring = zip(run.xs[-GA_OFFSPRING:], run.ys[-GA_OFFSPRING:])
        population = sorted([*population, *offspring], key=lambda pv: pv[1])[:GA_POPULATION]


_PROPOSERS = {
    BOPS_T: _propose_bops_t,
    BOPS_H: _propose_bops_h,
    RANDOM: _propose_random,
    GA: _propose_ga,
}


def run_algorithm(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    """Run ``cfg.algorithm``: ``n_init`` uniform draws, then ``n_iters`` proposals.

    Each record's ``seconds`` runs from just before the point was chosen
    to the return of its evaluation.
    """
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    run = _Run(cfg, objective)
    for _ in range(cfg.n_init):
        t0 = time.perf_counter()
        run.evaluate(random_permutation(cfg.d, rng), "init", t0)
    proposals = _PROPOSERS[cfg.algorithm](run, rng)
    for _ in range(cfg.n_iters):
        t0 = time.perf_counter()
        run.evaluate(next(proposals), "bo", t0)
    return run.trace


# --- diagnostics ---------------------------------------------------------------


def info_gain(K: np.ndarray, noise_variance: float) -> float:
    """0.5 * log|I + K / noise| via eigenvalues; K must be PSD up to -1e-8."""
    if noise_variance <= 0:
        raise ValueError("noise_variance must be > 0")
    lam = np.linalg.eigvalsh(0.5 * (K + K.T))
    if lam[0] < -1e-8:
        raise ValueError(f"matrix is not PSD after jitter (min eigenvalue {lam[0]:.3e})")
    lam = np.maximum(lam, 0.0)
    return float(0.5 * np.sum(np.log1p(lam / noise_variance)))


def regret_curve(trace: BoTrace, f_star: float) -> np.ndarray:
    """Cumulative sum of (observed - f_star) over all trace iterations.

    Entry T-1 is the simple regret after T evaluations (initialization
    included; the trace keeps the phases separate for anyone who wants
    the other convention).
    """
    return np.cumsum(trace.values() - f_star)
