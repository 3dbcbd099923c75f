import functools
import importlib
import inspect
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permbo import accel, acquisition, cli, engine, gp, optimizers
from permbo.benchmarks import SyntheticObjective, synthetic_objective
from permbo.engine import (
    ALGORITHMS,
    BoConfig,
    BoTrace,
    TraceRecord,
    info_gain,
    order_crossover,
    regret_curve,
    run_algorithm,
    swap_mutation,
)
from permbo.kernels import KernelSpec, gram_matrix
from permbo.optimizers import solve_qap_exhaustive
from permbo.perm import (
    Permutation,
    kendall_feature_map,
    kendall_feature_matrix,
    random_permutation,
)


def hidden_optimum_objective(d, seed=0):
    target = random_permutation(d, np.random.default_rng(seed))
    synth = SyntheticObjective(target=target)
    return target, (lambda p: synthetic_objective(synth, p))


class TestTraceContracts:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_record_count_and_validity(self, algo):
        _, objective = hidden_optimum_objective(5)
        cfg = BoConfig(algorithm=algo, d=5, n_iters=7, n_init=6, seed=1)
        trace = run_algorithm(cfg, objective)
        assert len(trace.records) == 13
        assert [r.phase for r in trace.records] == ["init"] * 6 + ["bo"] * 7
        for r in trace.records:
            Permutation(list(r.perm))  # re-validate
        bests = [r.best for r in trace.records]
        assert np.all(np.diff(bests) <= 0)
        assert trace.best_value == min(trace.values())

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_exact_evaluation_count(self, algo):
        calls = 0
        _, objective = hidden_optimum_objective(5)

        def counting(p):
            nonlocal calls
            calls += 1
            return objective(p)

        cfg = BoConfig(algorithm=algo, d=5, n_iters=9, n_init=4, seed=2)
        run_algorithm(cfg, counting)
        assert calls == 13

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_seed_determinism(self, algo):
        _, objective = hidden_optimum_objective(6)
        cfg = BoConfig(algorithm=algo, d=6, n_iters=6, n_init=5, seed=3)
        t1 = run_algorithm(cfg, objective)
        t2 = run_algorithm(cfg, objective)
        for a, b in zip(t1.records, t2.records):
            assert a.perm == b.perm
            assert a.value == b.value
            assert a.best == b.best

    def test_single_iteration_contract(self):
        _, objective = hidden_optimum_objective(4)
        for algo in ("bops-t", "bops-h"):
            cfg = BoConfig(algorithm=algo, d=4, n_iters=1, n_init=20, seed=4)
            trace = run_algorithm(cfg, objective)
            assert len(trace.records) == 21

    def test_objective_failure_carries_context(self):
        def broken(p):
            raise RuntimeError("boom")

        cfg = BoConfig(algorithm="random", d=4, n_iters=1, n_init=2, seed=5)
        with pytest.raises(RuntimeError, match="iteration 0"):
            run_algorithm(cfg, broken)

    @pytest.mark.parametrize("algo", ["bops-t", "bops-h"])
    def test_non_finite_value_names_iteration_and_permutation(self, algo):
        calls = []

        def nan_on_fourth_call(p):
            calls.append(p)
            return math.nan if len(calls) == 4 else float(sum(p.values * np.arange(p.d)))

        cfg = BoConfig(algorithm=algo, d=4, n_iters=3, n_init=3, seed=5)
        with pytest.raises(ValueError) as exc:
            run_algorithm(cfg, nan_on_fourth_call)
        assert str(exc.value) == (
            f"objective returned nan at bo iteration 3 for permutation {calls[3].serialize()}"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoConfig(algorithm="annealing", d=4, n_iters=1)
        with pytest.raises(ValueError):
            BoConfig(algorithm="random", d=1, n_iters=1)
        with pytest.raises(ValueError):
            BoConfig(algorithm="random", d=4, n_iters=0)
        with pytest.raises(ValueError):
            BoConfig(algorithm="bops-h", d=4, n_iters=1, restarts=0)


#: Engine names the benchmark tracer (``perfbench/tracing.py``) rebinds to
#: time each layer; the loop must reach every one of them as a module global.
TRACED_LAYERS = (
    "fit",
    "weight_posterior",
    "sample_weights",
    "build_qap",
    "expected_improvement_batch",
    "solve_ts_qap_candidates",
    "multi_restart_candidates",
)


def test_layers_are_called_through_engine_globals(monkeypatch):
    calls = dict.fromkeys(TRACED_LAYERS, 0)
    for name in TRACED_LAYERS:
        fn = getattr(engine, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
    _, objective = hidden_optimum_objective(4)
    for algo in ("bops-t", "bops-h"):
        run_algorithm(BoConfig(algorithm=algo, d=4, n_iters=2, n_init=3, seed=0), objective)
    assert all(calls.values()), calls


#: Names outside the engine that the benchmark (``perfbench/``) rebinds or
#: calls, by module; a trim that drops one breaks ``perfbench --trace 1``.
BENCHMARK_NAMES = {
    "accel": ("discordance_matrix", "cross_discordance_matrix", "ts_trace_batch", "BACKEND"),
    "acquisition": ("predict_batch",),
    "cli": ("qap_objective", "synthetic_objective", "parse_benchmark", "make_objective", "run_one_rep"),
    "gp": ("base_kernel_from_nd",),
    "optimizers": ("local_search", "swap_neighbor_matrix"),
    "perm": ("random_permutation",),
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in BENCHMARK_NAMES.items() for n in names]
)
def test_benchmark_names_exist(module, name):
    assert hasattr(importlib.import_module(f"permbo.{module}"), name)


def test_benchmark_call_signatures():
    # The tracer reads the step cap as local_search's third positional
    # argument and sizes the other spans from the positional arguments
    # below; the benchmark child calls run_one_rep positionally.
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(optimizers.local_search)[2] == "max_steps"
    assert params(engine.fit)[1] == "xs"
    assert params(engine.expected_improvement_batch)[1] == "queries"
    assert params(acquisition.predict_batch)[1] == "queries"
    assert params(accel.ts_trace_batch)[1] == "perms"
    assert params(accel.cross_discordance_matrix)[:2] == ["x", "y"]
    assert params(cli.run_one_rep) == [
        "uri", "algo", "d_check", "n_iters", "n_init", "restarts", "seed", "rep",
    ]


def test_bops_h_steps_all_restarts_in_one_swap_descent_per_iteration(monkeypatch):
    # One lockstep descent per BO iteration, over ``restarts`` rows, reached
    # through its module global at call time; its starts are valued by one
    # EI call over all of them.
    calls, ei_rows = [], []
    descent = optimizers.swap_descent
    ei = engine.expected_improvement_batch

    def counting(neighbourhood, starts, values, max_steps):
        calls.append((starts.shape, max_steps))
        return descent(neighbourhood, starts, values, max_steps)

    def counting_ei(model, rows, incumbent):
        ei_rows.append(len(rows))
        return ei(model, rows, incumbent)

    monkeypatch.setattr(optimizers, "swap_descent", counting)
    monkeypatch.setattr(engine, "expected_improvement_batch", counting_ei)
    _, objective = hidden_optimum_objective(4)
    run_algorithm(BoConfig(algorithm="bops-h", d=4, n_iters=2, n_init=3, restarts=3), objective)
    assert calls == [((3, 4), optimizers.max_steps(4))] * 2
    assert ei_rows == [3] * 2


@pytest.mark.parametrize("algo, inverses", [("bops-t", 0), ("bops-h", 4)])
def test_only_bops_h_builds_the_inverse_cholesky_factor(monkeypatch, algo, inverses):
    # bops-t samples from the weight posterior, which solves against the
    # factor itself; only EI predictions read ``GpModel.chol_inv_t``, one
    # triangular inverse per fitted model.
    calls = []
    trtri = gp.dtrtri

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return trtri(*args, **kwargs)

    monkeypatch.setattr(gp, "dtrtri", counting)
    _, objective = hidden_optimum_objective(6)
    run_algorithm(BoConfig(algorithm=algo, d=6, n_iters=4, n_init=5, seed=7), objective)
    assert calls == [(n, n) for n in range(5, 5 + inverses)]


class TestBopsT:
    def test_exhaustive_backend_selects_exact_argmin(self, monkeypatch):
        # Oracle in the loop: with the exhaustive QAP solve in place of the
        # restarted descent, the selected point must minimize the sampled
        # linear objective, except when that argmin was already evaluated
        # and the duplicate rule deflects the pick to an unseen point.
        d, n_init = 5, 5
        weights, argmins = [], []
        sample = engine.sample_weights

        def recording_sample(wp, rng):
            weights.append(sample(wp, rng))
            return weights[-1]

        def exhaustive(q, restarts, rng):
            argmins.append(solve_qap_exhaustive(q)[0])
            return [(argmins[-1], 0.0)]

        monkeypatch.setattr(engine, "sample_weights", recording_sample)
        monkeypatch.setattr(engine, "solve_ts_qap_candidates", exhaustive)
        _, objective = hidden_optimum_objective(d)
        cfg = BoConfig(algorithm="bops-t", d=d, n_iters=10, n_init=n_init, seed=6)
        trace = run_algorithm(cfg, objective)
        assert len(weights) == len(argmins) == 10

        all_perms = [Permutation(list(t)) for t in itertools.permutations(range(d))]
        feats = np.stack([kendall_feature_map(p) for p in all_perms])
        hits = 0
        for it, (w, argmin) in enumerate(zip(weights, argmins)):
            oracle = all_perms[int(np.argmin(feats @ w))]
            assert argmin == oracle
            earlier = {r.perm.serialize() for r in trace.records[: n_init + it]}
            selected = trace.records[n_init + it].perm
            if oracle.serialize() in earlier:
                assert selected.serialize() not in earlier
            else:
                assert selected == oracle
                hits += 1
        assert hits > 0

    def test_outperforms_random_in_median(self):
        d, budget_evals, seeds = 6, 60, 8
        target, objective = hidden_optimum_objective(d, seed=11)
        finals = {algo: [] for algo in ("bops-t", "random")}
        for algo in finals:
            for s in range(seeds):
                cfg = BoConfig(algorithm=algo, d=d, n_iters=budget_evals - 20, n_init=20, seed=s)
                finals[algo].append(run_algorithm(cfg, objective).best_value)
        assert np.median(finals["bops-t"]) <= np.median(finals["random"])


class TestBopsH:
    def test_selected_ei_beats_random_candidates(self, monkeypatch):
        # The best restart's EI must be at least the best EI among 100
        # uniform permutations. The pool comes from its own generator, and
        # is scored by the search's ``values`` while it still sees its model.
        d = 5
        pool_rng = np.random.default_rng(0xD1A6)
        checks = []
        search = engine.multi_restart_candidates

        def audited(values, neighbourhood, d, restarts, rng):
            candidates = search(values, neighbourhood, d, restarts, rng)
            pool = np.stack([random_permutation(d, pool_rng).values for _ in range(100)])
            best_ei = -min(v for _, v in candidates)
            checks.append((best_ei, -values(pool).min()))
            return candidates

        monkeypatch.setattr(engine, "multi_restart_candidates", audited)
        _, objective = hidden_optimum_objective(d, seed=12)
        cfg = BoConfig(algorithm="bops-h", d=d, n_iters=8, n_init=10, seed=7)
        run_algorithm(cfg, objective)
        assert len(checks) == 8
        for best_ei, random_max in checks:
            assert best_ei >= random_max - 1e-12

    def test_duplicate_deflection_never_reevaluates(self):
        # Tiny space (d=3 has only 6 points) forces the duplicate rule to
        # fire; every selection must still be a fresh permutation until the
        # space is exhausted.
        d = 3
        _, objective = hidden_optimum_objective(d, seed=13)
        cfg = BoConfig(algorithm="bops-h", d=d, n_iters=3, n_init=3, seed=8)
        trace = run_algorithm(cfg, objective)
        seen: set[str] = set()
        for r in trace.records:
            if r.phase == "bo" and len(seen) < 6:
                assert r.perm.serialize() not in seen
            seen.add(r.perm.serialize())


@functools.lru_cache(maxsize=None)
def _scaled_run_picks(algo, k):
    """Picks of a short run on 2**k times a hidden-optimum objective, and
    the warnings it raised."""
    _, objective = hidden_optimum_objective(7, seed=2)
    factor = math.ldexp(1.0, k)
    cfg = BoConfig(algorithm=algo, d=7, n_iters=20, n_init=10, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run_algorithm(cfg, lambda p: factor * objective(p))
    return [r.perm.serialize() for r in trace.records], [str(w.message) for w in caught]


@pytest.mark.parametrize("algo", ["bops-t", "bops-h"])
@given(k=st.integers(-400, 400))
@example(k=-45)
@example(k=-40)
@example(k=-400)
@example(k=400)
@settings(max_examples=10, deadline=None)
def test_picks_do_not_depend_on_the_objective_scale(algo, k):
    # Values up to 21 * 2**k, their variances and every EI term stay normal
    # floats for |k| <= 400, and scaling by a power of two is then exact
    # everywhere, so the standardized data, the fitted model and the picks
    # must be the same as at k = 0.
    picks, caught = _scaled_run_picks(algo, k)
    assert caught == []
    assert picks == _scaled_run_picks(algo, 0)[0]


class TestGa:
    def test_order_crossover_preserves_segment(self):
        rng_cut = np.random.default_rng(9)
        cut = np.sort(rng_cut.choice(7 + 1, size=2, replace=False))
        a = Permutation([3, 1, 4, 0, 6, 2, 5])
        b = Permutation([6, 5, 4, 3, 2, 1, 0])
        child = order_crossover(a, b, np.random.default_rng(9))
        start, end = int(cut[0]), int(cut[1])
        np.testing.assert_array_equal(child.values[start:end], a.values[start:end])
        Permutation(list(child))

    def test_order_crossover_fills_from_second_parent_after_the_cut(self):
        # default_rng(2) cuts at 2..5: a keeps [4, 0, 6]; b read from index 5
        # around is 1 0 6 5 4 3 2, so the fill is 1 5 3 2 from index 5 around.
        a = Permutation([3, 1, 4, 0, 6, 2, 5])
        b = Permutation([6, 5, 4, 3, 2, 1, 0])
        child = order_crossover(a, b, np.random.default_rng(2))
        assert list(child) == [3, 2, 4, 0, 6, 1, 5]

    def test_order_crossover_matches_the_loop_reference(self):
        # The loop form OX is usually written in: fill the free positions
        # from ``end`` around with b's values, read from ``end`` around.
        def reference(a, b, rng):
            d = a.d
            cut = np.sort(rng.choice(d + 1, size=2, replace=False))
            start, end = int(cut[0]), int(cut[1])
            child = [-1] * d
            child[start:end] = a.values[start:end]
            fill = [v for v in np.roll(b.values, -end) if v not in a.values[start:end]]
            for pos in (i % d for i in range(end, end + d) if child[i % d] < 0):
                child[pos] = fill.pop(0)
            return child

        rng = np.random.default_rng(15)
        for _ in range(500):
            d = int(rng.integers(2, 16))
            a, b = random_permutation(d, rng), random_permutation(d, rng)
            seed = int(rng.integers(1 << 30))
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert list(order_crossover(a, b, got_rng)) == reference(a, b, want_rng)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_crossover_and_mutation_closed_over_sd(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            a, b = random_permutation(6, rng), random_permutation(6, rng)
            child = order_crossover(a, b, rng)
            Permutation(list(child))
            mutated = swap_mutation(child, rng)
            Permutation(list(mutated))

    def test_all_trace_perms_valid(self):
        _, objective = hidden_optimum_objective(6, seed=14)
        cfg = BoConfig(algorithm="ga", d=6, n_iters=30, n_init=20, seed=11)
        trace = run_algorithm(cfg, objective)
        for r in trace.records:
            Permutation(list(r.perm))

    def test_partial_final_generation(self):
        _, objective = hidden_optimum_objective(5, seed=15)
        cfg = BoConfig(algorithm="ga", d=5, n_iters=13, n_init=20, seed=12)
        trace = run_algorithm(cfg, objective)
        assert len(trace.records) == 33


class TestRandomBaseline:
    def test_longer_budget_finds_better_in_expectation(self):
        _, objective = hidden_optimum_objective(6, seed=16)
        short, long_ = [], []
        for s in range(15):
            cfg_s = BoConfig(algorithm="random", d=6, n_iters=5, n_init=5, seed=s)
            cfg_l = BoConfig(algorithm="random", d=6, n_iters=45, n_init=5, seed=s)
            short.append(run_algorithm(cfg_s, objective).best_value)
            long_.append(run_algorithm(cfg_l, objective).best_value)
        assert np.mean(long_) < np.mean(short)


class TestInfoGain:
    def test_scalar_case(self):
        assert info_gain(np.array([[1.0]]), 1.0) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12
        )

    def test_schur_identity(self):
        rng = np.random.default_rng(13)
        sigma2 = 0.25
        for n in (5, 20, 40):
            perms = np.stack([random_permutation(8, rng).values for _ in range(n)])
            phi = kendall_feature_matrix(perms)  # (n, m)
            inner = phi @ phi.T  # n x n
            outer = phi.T @ phi  # m x m
            lhs = np.linalg.slogdet(np.eye(n) + inner / sigma2)[1]
            rhs = np.linalg.slogdet(np.eye(outer.shape[0]) + outer / sigma2)[1]
            assert lhs == pytest.approx(rhs, abs=1e-8)
            assert info_gain(inner, sigma2) == pytest.approx(0.5 * lhs, abs=1e-8)

    def test_rejects_non_psd(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ValueError, match="PSD"):
            info_gain(K, 1.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            info_gain(np.eye(2), 0.0)


def _trace_from_values(values, n_init=0):
    cfg = BoConfig(algorithm="random", d=4, n_iters=max(1, len(values) - n_init), n_init=max(1, n_init))
    records = []
    best = math.inf
    for i, v in enumerate(values):
        best = min(best, v)
        phase = "init" if i < n_init else "bo"
        records.append(
            TraceRecord(index=i, phase=phase, perm=Permutation([0, 1, 2, 3]), value=v, best=best, seconds=0.0)
        )
    return BoTrace(config=cfg, records=records)


class TestRegret:
    def test_immediate_hit_contributes_zero_after_first(self):
        trace = _trace_from_values([0.0, 0.0, 0.0])
        curve = regret_curve(trace, f_star=0.0)
        np.testing.assert_array_equal(curve, [0.0, 0.0, 0.0])

    def test_constant_objective_zero_regret(self):
        trace = _trace_from_values([2.5] * 5)
        assert regret_curve(trace, f_star=2.5)[-1] == 0.0

    def test_counts_every_evaluation(self):
        trace = _trace_from_values([9.0, 9.0, 1.0, 1.0], n_init=2)
        assert regret_curve(trace, f_star=0.0)[-1] == 20.0
        np.testing.assert_array_equal(
            regret_curve(trace, f_star=0.0), [9.0, 18.0, 19.0, 20.0]
        )

    def test_nonnegative_when_f_star_is_true_optimum(self):
        _, objective = hidden_optimum_objective(5, seed=17)
        cfg = BoConfig(algorithm="random", d=5, n_iters=20, n_init=5, seed=14)
        trace = run_algorithm(cfg, objective)
        assert regret_curve(trace, f_star=0.0)[-1] >= 0.0


class TestInfoGainAlongRuns:
    def test_gain_rate_decreases(self):
        # Kendall feature rank is C(d,2), so the gain saturates and the
        # per-iteration rate must fall.
        d = 6
        _, objective = hidden_optimum_objective(d, seed=18)
        cfg = BoConfig(algorithm="bops-t", d=d, n_iters=40, n_init=5, seed=15)
        trace = run_algorithm(cfg, objective)
        perms = trace.perms(phase="bo")
        spec = KernelSpec("kendall")
        sigma2 = 0.01
        g10 = info_gain(gram_matrix(spec, perms[:10]), sigma2)
        g40 = info_gain(gram_matrix(spec, perms[:40]), sigma2)
        assert g40 / 40 < g10 / 10
