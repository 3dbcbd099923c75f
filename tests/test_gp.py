import math

import numpy as np
import pytest

from permbo.gp import (
    LENGTHSCALE_GRID,
    NOISE_GRID,
    SIGNAL_GRID,
    fit,
    nlml,
    predict,
    predict_batch,
    prior_weight_posterior,
    sample_gp_prior,
    sample_weights,
    test_nll as predictive_nll,
    weight_posterior,
)
from permbo.kernels import GRAM_JITTER, KernelSpec, gram_matrix
from permbo.perm import (
    Permutation,
    discordant_pairs,
    kendall_feature_map,
    random_permutation,
)


def _dataset(rng, d, n, noise=0.1):
    xs = [random_permutation(d, rng) for _ in range(n)]
    target = xs[0]
    ys = np.array(
        [discordant_pairs(p, target) + noise * rng.standard_normal() for p in xs]
    )
    return xs, ys


def _dense_nlml(spec, xs, y_tilde):
    """Oracle: NLML by explicit solve and slogdet on the jittered matrix."""
    K = gram_matrix(spec, xs)
    M = K + spec.noise_variance * np.eye(len(xs))
    _, logdet = np.linalg.slogdet(M)
    quad = y_tilde @ np.linalg.solve(M, y_tilde)
    return 0.5 * (quad + logdet + len(xs) * math.log(2 * math.pi))


class TestFit:
    def test_single_observation_prediction(self):
        # Fixed hyperparameters, no standardization: mean at the training
        # point is v / (1 + noise), modulo the 1e-6 jitter.
        p = Permutation([0, 1, 2, 3])
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=0.1)
        v = 0.7
        m = fit(spec, [p], [v], optimize=False, standardize=False)
        mean, _ = predict(m, p)
        assert mean == pytest.approx(v / 1.1, abs=1e-5)

    def test_constant_observations(self):
        rng = np.random.default_rng(0)
        xs = [random_permutation(5, rng) for _ in range(10)]
        m = fit(KernelSpec("kendall"), xs, [3.25] * 10)
        for _ in range(20):
            mean, var = predict(m, random_permutation(5, rng))
            assert mean == pytest.approx(3.25, abs=1e-9)
            assert np.isfinite(var) and var >= 0

    def test_grid_selection_matches_independent_nlml_sweep(self):
        # Data drawn from a Mallows prior with l=0.5; the fitted lengthscale
        # must sit within one grid step of a minimizer of the independently
        # evaluated NLML grid.
        rng = np.random.default_rng(1)
        xs = [random_permutation(8, rng) for _ in range(30)]
        prior = KernelSpec("mallows", lengthscale=0.5)
        ys = sample_gp_prior(prior, xs, rng) + 0.05 * rng.standard_normal(30)
        m = fit(KernelSpec("mallows"), xs, ys)

        best = (math.inf, None)
        for ell in LENGTHSCALE_GRID:
            for s in SIGNAL_GRID:
                for nv in NOISE_GRID:
                    spec = KernelSpec("mallows", ell, s, nv)
                    val = _dense_nlml(spec, xs, m.y_tilde)
                    if val < best[0]:
                        best = (val, spec)
        grid = list(LENGTHSCALE_GRID)
        fitted_idx = grid.index(min(grid, key=lambda g: abs(g - m.spec.lengthscale)))
        oracle_idx = grid.index(min(grid, key=lambda g: abs(g - best[1].lengthscale)))
        assert abs(fitted_idx - oracle_idx) <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        xs, ys = _dataset(rng, 6, 15)
        m1 = fit(KernelSpec("mallows"), xs, ys)
        m2 = fit(KernelSpec("mallows"), xs, ys)
        assert m1.spec == m2.spec
        np.testing.assert_array_equal(m1.chol, m2.chol)

    def test_cholesky_reconstructs_noisy_gram(self):
        rng = np.random.default_rng(20)
        xs, ys = _dataset(rng, 7, 20)
        for family in ("kendall", "mallows"):
            m = fit(KernelSpec(family), xs, ys)
            K = gram_matrix(m.spec, xs, jitter=False)
            want = K + (m.jitter + m.spec.noise_variance) * np.eye(20)
            got = m.chol @ m.chol.T
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_true_hyperparameters_never_hurt(self):
        rng = np.random.default_rng(3)
        xs = [random_permutation(7, rng) for _ in range(25)]
        true = KernelSpec("mallows", lengthscale=0.3, signal_variance=1.0, noise_variance=1e-2)
        ys = sample_gp_prior(true, xs, rng) + 0.1 * rng.standard_normal(25)
        without = fit(
            KernelSpec("mallows"), xs, ys,
            signal_grid=(0.5, 2.0), noise_grid=(1e-3, 1e-1), lengthscale_grid=(0.1, 1.0),
        )
        with_true = fit(
            KernelSpec("mallows"), xs, ys,
            signal_grid=(0.5, 1.0, 2.0), noise_grid=(1e-3, 1e-2, 1e-1),
            lengthscale_grid=(0.1, 0.3, 1.0),
        )
        assert nlml(with_true) <= nlml(without) + 1e-9

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            fit(KernelSpec("kendall"), [], [])
        with pytest.raises(ValueError):
            fit(KernelSpec("kendall"), [Permutation([0, 1])], [1.0, 2.0])

    def test_cholesky_escalates_then_fails_loudly(self):
        from permbo.gp import _factor

        base = np.array([[1.0, 0.0], [0.0, -1.0]])  # beyond any admissible jitter
        with pytest.raises(np.linalg.LinAlgError, match="jitter"):
            _factor(base, signal=1.0, noise=1e-10)
        # A mildly indefinite matrix is rescued by escalation.
        mild = np.array([[1.0, 0.0], [0.0, -1e-5]])
        L, jitter = _factor(mild, signal=1.0, noise=1e-10)
        assert jitter > 1e-6
        np.testing.assert_allclose(
            L @ L.T, mild + (jitter + 1e-10) * np.eye(2), atol=1e-12
        )


class TestPredict:
    def test_interpolates_as_noise_vanishes(self):
        # Antipodal pair: the standardized targets lie in the well-conditioned
        # eigenspace, so jitter perturbs the interpolant by < 1e-6.
        a = Permutation([0, 1, 2, 3])
        b = Permutation([3, 2, 1, 0])
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=1e-10)
        m = fit(spec, [a, b], [1.0, 3.0], optimize=False)
        assert predict(m, a)[0] == pytest.approx(1.0, abs=1e-6)
        assert predict(m, b)[0] == pytest.approx(3.0, abs=1e-6)

    def test_prior_reversion_far_from_data(self):
        # kendall([0,1,2,3], [1,3,0,2]) is exactly zero.
        train = Permutation([0, 1, 2, 3])
        far = Permutation([1, 3, 0, 2])
        spec = KernelSpec("kendall", signal_variance=0.8, noise_variance=0.05)
        m = fit(spec, [train], [5.0], optimize=False)
        mean, var = predict(m, far)
        assert mean == pytest.approx(m.y_mean, abs=1e-12)
        assert var == pytest.approx(0.8 * m.y_std**2, abs=1e-12)

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        xs, ys = _dataset(rng, 7, 30)
        m = fit(KernelSpec("kendall"), xs, ys)
        queries = np.stack([random_permutation(7, rng).values for _ in range(1000)])
        _, variances = predict_batch(m, queries)
        assert np.all(variances >= 0)

    def test_training_variance_below_far_variance(self):
        rng = np.random.default_rng(5)
        xs, ys = _dataset(rng, 8, 20)
        m = fit(KernelSpec("kendall"), xs, ys)
        candidates = [random_permutation(8, rng) for _ in range(200)]
        far = max(
            candidates,
            key=lambda q: min(discordant_pairs(q, x) for x in xs),
        )
        far_var = predict(m, far)[1]
        for x in xs:
            assert predict(m, x)[1] <= far_var + 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        xs, ys = _dataset(rng, 5, 5)
        m = fit(KernelSpec("kendall"), xs, ys)
        with pytest.raises(ValueError):
            predict(m, Permutation([0, 1, 2]))


class TestNlml:
    def test_single_point_closed_form(self):
        # 0.5*ln(1.1 + jitter) + 0.5*ln(2*pi); the spec quotes ~0.96657.
        p = Permutation([0, 1, 2])
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=0.1)
        m = fit(spec, [p], [4.2], optimize=False)  # standardized y is exactly 0
        want = 0.5 * math.log(1.1 + GRAM_JITTER) + 0.5 * math.log(2 * math.pi)
        assert want == pytest.approx(0.966594, abs=1e-6)
        assert nlml(m) == pytest.approx(want, abs=1e-12)

    def test_outlier_never_nan(self):
        rng = np.random.default_rng(7)
        xs, ys = _dataset(rng, 6, 12)
        ys = np.append(ys, 1e6)
        xs.append(random_permutation(6, rng))
        m = fit(KernelSpec("mallows"), xs, ys)
        assert np.isfinite(nlml(m))

    def test_matches_dense_logdet_oracle(self):
        rng = np.random.default_rng(8)
        for n in (5, 20, 50):
            xs, ys = _dataset(rng, 7, n)
            for family in ("kendall", "mallows"):
                m = fit(KernelSpec(family), xs, ys)
                assert nlml(m) == pytest.approx(
                    _dense_nlml(m.spec, xs, m.y_tilde), abs=1e-8
                )

    def test_eigh_failure_falls_back_to_mrrr(self, monkeypatch):
        # numpy's eigh can fail to converge on a finite kernel matrix; the
        # grid search must then go on with scipy's evr driver and select
        # what it would have selected. The failure is put on the winning
        # lengthscale, so the fallback's eigenvalues decide the fit.
        rng = np.random.default_rng(9)
        xs = [random_permutation(8, rng) for _ in range(40)]
        prior = KernelSpec("mallows", lengthscale=0.5)
        ys = sample_gp_prior(prior, xs, rng) + 0.05 * rng.standard_normal(40)
        want = fit(KernelSpec("mallows"), xs, ys)
        fail_at = LENGTHSCALE_GRID.index(want.spec.lengthscale)
        numpy_eigh = np.linalg.eigh
        calls = []

        def fails_once(a):
            calls.append(a.shape)
            if len(calls) == fail_at + 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return numpy_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", fails_once)
        m = fit(KernelSpec("mallows"), xs, ys)
        assert len(calls) == len(LENGTHSCALE_GRID)
        assert m.spec == want.spec
        assert nlml(m) == pytest.approx(_dense_nlml(m.spec, xs, m.y_tilde), abs=1e-8)


class TestTestNll:
    def test_standard_normal_case(self):
        # One training point, query at kendall distance exactly 0: the
        # predictive is N(0, 0.9 + 0.1) = N(0, 1) and y = 0 scores 0.5*ln(2*pi).
        train = Permutation([0, 1, 2, 3])
        far = Permutation([1, 3, 0, 2])
        spec = KernelSpec("kendall", signal_variance=0.9, noise_variance=0.1)
        m = fit(spec, [train], [0.0], optimize=False, standardize=False)
        got = predictive_nll(m, [far], [0.0])
        assert got == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)

    def test_sharp_correct_predictions_score_negative(self):
        rng = np.random.default_rng(9)
        xs = [random_permutation(6, rng) for _ in range(15)]
        ys = [0.01 * discordant_pairs(p, xs[0]) for p in xs]
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=1e-8)
        m = fit(spec, xs, ys, optimize=False)
        assert predictive_nll(m, xs, ys) < -1.0

    def test_mallows_model_wins_on_mallows_data(self):
        # 50 train / 50 test at d=10, data from a Mallows-GP draw: the
        # Mallows surrogate should score at least as well in >= 8 of 10 runs.
        wins = 0
        for rep in range(10):
            rng = np.random.default_rng(100 + rep)
            perms = [random_permutation(10, rng) for _ in range(100)]
            prior = KernelSpec("mallows", lengthscale=0.1)
            ys = sample_gp_prior(prior, perms, rng) + 0.1 * rng.standard_normal(100)
            train_x, train_y = perms[:50], ys[:50]
            test_x, test_y = perms[50:], ys[50:]
            nll_m = predictive_nll(fit(KernelSpec("mallows"), train_x, train_y), test_x, test_y)
            nll_k = predictive_nll(fit(KernelSpec("kendall"), train_x, train_y), test_x, test_y)
            wins += nll_m <= nll_k
        assert wins >= 8

    def test_empty_test_set_rejected(self):
        rng = np.random.default_rng(10)
        xs, ys = _dataset(rng, 5, 5)
        m = fit(KernelSpec("kendall"), xs, ys)
        with pytest.raises(ValueError):
            predictive_nll(m, [], [])


class TestWeightPosterior:
    def test_prior_case(self):
        wp = prior_weight_posterior(5, signal_variance=2.0)
        assert wp.mean.shape == (10,)
        np.testing.assert_allclose(wp.mean, 0.0)
        np.testing.assert_allclose(wp.cov_factor @ wp.cov_factor.T, 2.0 * np.eye(10))

    def test_agrees_with_function_space(self):
        rng = np.random.default_rng(11)
        for n in (5, 20, 40):
            xs, ys = _dataset(rng, 10, n)
            m = fit(KernelSpec("kendall"), xs, ys)
            wp = weight_posterior(m)
            cov = wp.cov_factor @ wp.cov_factor.T
            for _ in range(30):
                q = random_permutation(10, rng)
                phi = kendall_feature_map(q)
                mean_w = m.y_mean + m.y_std * float(phi @ wp.mean)
                var_w = m.y_std**2 * float(phi @ cov @ phi)
                mean_f, var_f = predict(m, q)
                assert mean_w == pytest.approx(mean_f, abs=1e-8)
                assert var_w == pytest.approx(var_f, abs=1e-8)

    def test_mallows_refused(self):
        rng = np.random.default_rng(12)
        xs, ys = _dataset(rng, 5, 8)
        m = fit(KernelSpec("mallows"), xs, ys)
        with pytest.raises(ValueError, match="feature"):
            weight_posterior(m)


class TestSampleWeights:
    def test_zero_factor_returns_mean(self):
        wp = prior_weight_posterior(4, 1.0)
        wp.cov_factor[:] = 0.0
        wp.mean[:] = 7.0
        out = sample_weights(wp, np.random.default_rng(0))
        np.testing.assert_array_equal(out, 7.0 * np.ones(6))

    def test_monte_carlo_mean_and_cov(self):
        wp = prior_weight_posterior(4, 1.0)
        rng = np.random.default_rng(13)
        draws = np.stack([sample_weights(wp, rng) for _ in range(10000)])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        emp_cov = np.cov(draws.T)
        assert np.max(np.abs(emp_cov - np.eye(6))) < 0.1

    def test_seed_determinism(self):
        wp = prior_weight_posterior(5, 1.0)
        a = sample_weights(wp, np.random.default_rng(21))
        b = sample_weights(wp, np.random.default_rng(21))
        np.testing.assert_array_equal(a, b)
