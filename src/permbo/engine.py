"""BO loop orchestration for both algorithm variants plus baselines.

Each run draws ``n_init`` uniform permutations, then selects one
permutation per iteration:

* ``bops-t``: Kendall GP, Thompson sampling via the QAP solve;
* ``bops-h``: Mallows GP, expected improvement via multi-restart local search;
* ``random``: uniform sampling;
* ``ga``: steady-state genetic algorithm with permutation operators.

Every objective evaluation lands in the trace; a run consumes exactly
n_init + n_iters evaluations and is fully reproducible from its seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .acquisition import build_qap, expected_improvement_batch, swap_neighbour_ei
from .gp import fit, is_training_point, sample_weights, weight_posterior
from .kernels import KENDALL, MALLOWS, KernelSpec
from .optimizers import (
    SearchBudget,
    multi_restart_candidates,
    solve_ts_qap_candidates,
)
from .perm import Permutation, random_permutation

Objective = Callable[[Permutation], float]

BOPS_T = "bops-t"
BOPS_H = "bops-h"
RANDOM = "random"
GA = "ga"
ALGORITHMS = (BOPS_T, BOPS_H, RANDOM, GA)

#: Random candidates scored when the acquisition audit is enabled.
AUDIT_CANDIDATES = 100


@dataclass(frozen=True)
class BoConfig:
    algorithm: str
    d: int
    n_iters: int
    n_init: int = 20
    budget: SearchBudget = SearchBudget(restarts=10)
    seed: int = 0
    ga_population: int = 20
    ga_offspring: int = 10
    qap_backend: str = "multistart"
    audit: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.n_init < 1 or self.n_iters < 1:
            raise ValueError("n_init and n_iters must be >= 1")
        if self.ga_population < 2 or self.ga_offspring < 1:
            raise ValueError("ga_population must be >= 2 and ga_offspring >= 1")


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
    seed: int
    records: list[TraceRecord] = field(default_factory=list)
    diagnostics: list[dict] = field(default_factory=list)

    @property
    def best_value(self) -> float:
        return self.records[-1].best

    @property
    def best_perm(self) -> Permutation:
        best = min(self.records, key=lambda r: r.value)
        return best.perm

    def values(self, phase: str | None = None) -> np.ndarray:
        return np.array(
            [r.value for r in self.records if phase is None or r.phase == phase]
        )

    def best_curve(self, phase: str | None = None) -> np.ndarray:
        return np.array(
            [r.best for r in self.records if phase is None or r.phase == phase]
        )

    def perms(self, phase: str | None = None) -> list[Permutation]:
        return [r.perm for r in self.records if phase is None or r.phase == phase]


class _Run:
    """Mutable state shared by all runners: data, best-so-far, dedupe set."""

    def __init__(self, cfg: BoConfig, objective: Objective):
        self.cfg = cfg
        self.objective = objective
        self.xs: list[Permutation] = []
        self.ys: list[float] = []
        self.best = math.inf
        self.seen: set[bytes] = set()
        self.trace = BoTrace(config=cfg, seed=cfg.seed)

    def evaluate(self, p: Permutation, phase: str, started: float) -> float:
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
        return y

    def init_phase(self, rng: np.random.Generator) -> None:
        for _ in range(self.cfg.n_init):
            t0 = time.perf_counter()
            self.evaluate(random_permutation(self.cfg.d, rng), "init", t0)

    def pick_unevaluated(
        self,
        candidates: Sequence[tuple[Permutation, float]],
        rng: np.random.Generator,
    ) -> tuple[Permutation, bool]:
        """Best candidate not yet evaluated; uniform unevaluated draw as last resort."""
        best = candidates[0][0]
        if best.values.tobytes() not in self.seen:
            return best, False
        for p, _ in candidates[1:]:
            if p.values.tobytes() not in self.seen:
                return p, True
        if len(self.seen) >= math.factorial(self.cfg.d):
            return best, True  # whole space evaluated; re-querying is all that remains
        while True:
            p = random_permutation(self.cfg.d, rng)
            if p.values.tobytes() not in self.seen:
                return p, True


def _audit_rng(cfg: BoConfig, iteration: int) -> np.random.Generator:
    # Separate stream so enabling the audit cannot perturb the run itself.
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD1A6, iteration]))


def run_bops_t(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    """Thompson sampling with the Kendall weight-space posterior and a QAP solve."""
    if cfg.algorithm != BOPS_T:
        raise ValueError(f"config is for {cfg.algorithm!r}")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    run = _Run(cfg, objective)
    run.init_phase(rng)
    template = KernelSpec(KENDALL)
    for it in range(cfg.n_iters):
        t0 = time.perf_counter()
        model = fit(template, run.xs, run.ys)
        wp = weight_posterior(model)
        w = sample_weights(wp, rng)
        q = build_qap(w, cfg.d)
        candidates = solve_ts_qap_candidates(q, cfg.budget, rng, cfg.qap_backend)
        selected, deflected = run.pick_unevaluated(candidates, rng)
        if cfg.audit:
            run.trace.diagnostics.append(
                {
                    "iteration": it,
                    "weights": w,
                    "argmin": candidates[0][0],
                    "selected": selected,
                    "deflected": deflected,
                }
            )
        run.evaluate(selected, "bo", t0)
    return run.trace


def run_bops_h(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    """Expected improvement under a Mallows GP, optimized by restarted local search."""
    if cfg.algorithm != BOPS_H:
        raise ValueError(f"config is for {cfg.algorithm!r}")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    run = _Run(cfg, objective)
    run.init_phase(rng)
    template = KernelSpec(MALLOWS)
    for it in range(cfg.n_iters):
        t0 = time.perf_counter()
        model = fit(template, run.xs, run.ys)
        incumbent = min(run.ys)

        def masked_ei_batch(rows: np.ndarray) -> np.ndarray:
            # Re-querying an evaluated point of a deterministic objective
            # yields no improvement, so its acquisition value is zero. The
            # model is fitted on every evaluated point, so those are
            # exactly its training points.
            rows = np.ascontiguousarray(rows, dtype=np.int64)
            ei = expected_improvement_batch(model, rows, incumbent)
            ei[is_training_point(model, rows)] = 0.0
            return ei

        def neg_ei(p: Permutation) -> float:
            return float(-masked_ei_batch(p.values[None, :])[0])

        def neg_ei_neighbourhood(values: np.ndarray) -> np.ndarray:
            return -swap_neighbour_ei(model, values, incumbent)

        candidates = sorted(
            multi_restart_candidates(neg_ei, cfg.d, cfg.budget, rng, neg_ei_neighbourhood),
            key=lambda r: r[1],
        )
        selected, deflected = run.pick_unevaluated(candidates, rng)
        if cfg.audit:
            arng = _audit_rng(cfg, it)
            pool = np.stack(
                [random_permutation(cfg.d, arng).values for _ in range(AUDIT_CANDIDATES)]
            )
            run.trace.diagnostics.append(
                {
                    "iteration": it,
                    "ei_argmin": -candidates[0][1],
                    "ei_selected": float(masked_ei_batch(selected.values[None, :])[0]),
                    "ei_random_max": float(np.max(masked_ei_batch(pool))),
                    "deflected": deflected,
                }
            )
        run.evaluate(selected, "bo", t0)
    return run.trace


def run_random(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    """Uniform random search baseline."""
    if cfg.algorithm != RANDOM:
        raise ValueError(f"config is for {cfg.algorithm!r}")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    run = _Run(cfg, objective)
    run.init_phase(rng)
    for _ in range(cfg.n_iters):
        t0 = time.perf_counter()
        run.evaluate(random_permutation(cfg.d, rng), "bo", t0)
    return run.trace


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


def run_ga(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    """Steady-state GA: binary tournament, order crossover, swap mutation (prob 1/d)."""
    if cfg.algorithm != GA:
        raise ValueError(f"config is for {cfg.algorithm!r}")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    run = _Run(cfg, objective)
    run.init_phase(rng)
    population = list(zip(run.xs, run.ys))
    population.sort(key=lambda pv: pv[1])
    population = population[: cfg.ga_population]
    evals_left = cfg.n_iters
    while evals_left > 0:
        batch = min(cfg.ga_offspring, evals_left)
        offspring = []
        for _ in range(batch):
            t0 = time.perf_counter()
            p1 = _tournament(population, rng)
            p2 = _tournament(population, rng)
            child = order_crossover(p1, p2, rng)
            if rng.random() < 1.0 / cfg.d:
                child = swap_mutation(child, rng)
            y = run.evaluate(child, "bo", t0)
            offspring.append((child, y))
        pool = population + offspring
        pool.sort(key=lambda pv: pv[1])
        population = pool[: cfg.ga_population]
        evals_left -= batch
    return run.trace


_RUNNERS = {BOPS_T: run_bops_t, BOPS_H: run_bops_h, RANDOM: run_random, GA: run_ga}


def run_algorithm(
    cfg: BoConfig, objective: Objective, rng: np.random.Generator | None = None
) -> BoTrace:
    return _RUNNERS[cfg.algorithm](cfg, objective, rng)


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


def empirical_regret(trace: BoTrace, f_star: float) -> float:
    return float(regret_curve(trace, f_star)[-1])
