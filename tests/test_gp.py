import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permbo import accel, gp
from permbo.gp import (
    LENGTHSCALE_GRID,
    NOISE_GRID,
    SIGNAL_GRID,
    WeightPosterior,
    fit,
    nlml,
    predict,
    predict_batch,
    sample_gp_prior,
    sample_weights,
    test_nll as predictive_nll,
    weight_posterior,
)
from permbo.kernels import GRAM_JITTER, KernelSpec, base_kernel_from_nd, gram_matrix
from permbo.perm import (
    Permutation,
    discordant_pairs,
    kendall_feature_map,
    kendall_feature_matrix,
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


def _fit_at(monkeypatch, spec, xs, ys):
    """``fit`` with every hyperparameter grid narrowed to ``spec``'s one point."""
    monkeypatch.setattr(gp, "LENGTHSCALE_GRID", (spec.lengthscale,))
    monkeypatch.setattr(gp, "SIGNAL_GRID", (spec.signal_variance,))
    monkeypatch.setattr(gp, "NOISE_GRID", (spec.noise_variance,))
    m = fit(spec.family, xs, ys)
    assert m.spec == spec
    return m


def _feature_space_posterior(m):
    """Oracle: the weight posterior from the C(d,2) x C(d,2) precision matrix.

    Cov = (Phi^T Phi / s2 + I / s)^-1 and mean = Cov Phi^T y / s2, with s2
    the fitted noise plus the jitter the fit used.
    """
    phi = kendall_feature_matrix(m.x_array)
    s2 = m.spec.noise_variance + m.jitter
    precision = phi.T @ phi / s2 + np.eye(phi.shape[1]) / m.spec.signal_variance
    cov = np.linalg.inv(precision)
    return cov @ (phi.T @ m.y_tilde) / s2, cov


class TestFit:
    def test_antipodal_pair_prediction(self, monkeypatch):
        # Fixed hyperparameters, p and its reversal valued +v and -v: the
        # standardized targets +-1 are an eigenvector of the Gram matrix with
        # eigenvalue 2s + noise + jitter, so the mean at p is v * 2s / that.
        p = Permutation([0, 1, 2, 3])
        s, noise, v = 1.0, 0.1, 0.7
        spec = KernelSpec("kendall", signal_variance=s, noise_variance=noise)
        m = _fit_at(monkeypatch, spec, [p, Permutation([3, 2, 1, 0])], [v, -v])
        mean, _ = predict(m, p)
        assert mean == pytest.approx(v * 2 * s / (2 * s + noise + GRAM_JITTER * s), rel=1e-12)

    def test_constant_observations(self):
        rng = np.random.default_rng(0)
        xs = [random_permutation(5, rng) for _ in range(10)]
        m = fit("kendall", xs, [3.25] * 10)
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
        m = fit("mallows", xs, ys)

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
        m1 = fit("mallows", xs, ys)
        m2 = fit("mallows", xs, ys)
        assert m1.spec == m2.spec
        np.testing.assert_array_equal(m1.chol, m2.chol)

    def test_cholesky_reconstructs_noisy_gram(self):
        rng = np.random.default_rng(20)
        xs, ys = _dataset(rng, 7, 20)
        for family in ("kendall", "mallows"):
            m = fit(family, xs, ys)
            assert m.jitter == GRAM_JITTER * m.spec.signal_variance
            want = gram_matrix(m.spec, xs) + m.spec.noise_variance * np.eye(20)
            got = m.chol @ m.chol.T
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_true_hyperparameters_never_hurt(self, monkeypatch):
        rng = np.random.default_rng(3)
        xs = [random_permutation(7, rng) for _ in range(25)]
        true = KernelSpec("mallows", lengthscale=0.3, signal_variance=1.0, noise_variance=1e-2)
        ys = sample_gp_prior(true, xs, rng) + 0.1 * rng.standard_normal(25)

        def fit_on_grids(signals, noises, lengthscales):
            monkeypatch.setattr(gp, "SIGNAL_GRID", signals)
            monkeypatch.setattr(gp, "NOISE_GRID", noises)
            monkeypatch.setattr(gp, "LENGTHSCALE_GRID", lengthscales)
            return fit("mallows", xs, ys)

        without = fit_on_grids((0.5, 2.0), (1e-3, 1e-1), (0.1, 1.0))
        with_true = fit_on_grids((0.5, 1.0, 2.0), (1e-3, 1e-2, 1e-1), (0.1, 0.3, 1.0))
        assert nlml(with_true) <= nlml(without) + 1e-9

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            fit("kendall", [], [])
        with pytest.raises(ValueError):
            fit("kendall", [Permutation([0, 1])], [1.0, 2.0])

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel family 'rbf'"):
            fit("rbf", [Permutation([0, 1]), Permutation([1, 0])], [1.0, 2.0])

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
    def test_interpolates_as_noise_vanishes(self, monkeypatch):
        # Antipodal pair: the standardized targets lie in the well-conditioned
        # eigenspace, so jitter perturbs the interpolant by < 1e-6.
        a = Permutation([0, 1, 2, 3])
        b = Permutation([3, 2, 1, 0])
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=1e-10)
        m = _fit_at(monkeypatch, spec, [a, b], [1.0, 3.0])
        assert predict(m, a)[0] == pytest.approx(1.0, abs=1e-6)
        assert predict(m, b)[0] == pytest.approx(3.0, abs=1e-6)

    def test_prior_reversion_far_from_data(self, monkeypatch):
        # kendall([0,1,2,3], [1,3,0,2]) is exactly zero.
        train = Permutation([0, 1, 2, 3])
        far = Permutation([1, 3, 0, 2])
        spec = KernelSpec("kendall", signal_variance=0.8, noise_variance=0.05)
        m = _fit_at(monkeypatch, spec, [train], [5.0])
        mean, var = predict(m, far)
        assert mean == pytest.approx(m.y_mean, abs=1e-12)
        assert var == pytest.approx(0.8 * m.y_std**2, abs=1e-12)

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        xs, ys = _dataset(rng, 7, 30)
        m = fit("kendall", xs, ys)
        queries = np.stack([random_permutation(7, rng).values for _ in range(1000)])
        _, variances, _ = predict_batch(m, queries)
        assert np.all(variances >= 0)

    def test_training_variance_below_far_variance(self):
        rng = np.random.default_rng(5)
        xs, ys = _dataset(rng, 8, 20)
        m = fit("kendall", xs, ys)
        candidates = [random_permutation(8, rng) for _ in range(200)]
        far = max(
            candidates,
            key=lambda q: min(discordant_pairs(q, x) for x in xs),
        )
        far_var = predict(m, far)[1]
        for x in xs:
            assert predict(m, x)[1] <= far_var + 1e-12

    @pytest.mark.parametrize("family", ["kendall", "mallows"])
    @pytest.mark.parametrize("case", ["distinct", "duplicated", "escalated"])
    def test_matches_dense_solve_oracle(self, monkeypatch, family, case):
        # Means and variances against a dense solve with the jittered Gram
        # matrix, at training rows and random queries. "escalated" repeats
        # six rows over n = 60 and fails the first Cholesky, so the factor
        # carries ten times the base jitter. Over 300 random fits (d 2-9,
        # n 2-159, half of them duplicated, a third escalated, targets
        # scaled by 1e-3 to 1e3) the worst errors were 1.8e-13 * y_std for
        # the means and 2.0e-15 * s * y_std^2 for the variances, with the
        # inverse factor and with a triangular solve alike; the bounds
        # below are ten times those.
        rng = np.random.default_rng(23)
        d = 7
        if case == "distinct":
            xs, ys = _dataset(rng, d, 50)
        else:
            rows = [random_permutation(d, rng) for _ in range(6)]
            xs = [rows[k] for k in rng.integers(0, 6, size=60)]
            ys = rng.standard_normal(60)
        if case == "escalated":
            real_cholesky = gp.cholesky
            failed = []

            def fails_once(a, lower=False):
                if not failed:
                    failed.append(a.shape)
                    raise np.linalg.LinAlgError("not positive definite")
                return real_cholesky(a, lower=lower)

            monkeypatch.setattr(gp, "cholesky", fails_once)
        m = fit(family, xs, ys)
        escalations = 1 if case == "escalated" else 0
        assert m.jitter == pytest.approx(
            10**escalations * GRAM_JITTER * m.spec.signal_variance, rel=1e-12
        )
        queries = np.stack(
            [x.values for x in xs[:10]] + [random_permutation(d, rng).values for _ in range(40)]
        )
        means, variances, _ = predict_batch(m, queries)

        K = m.kernel_table[accel.discordance_matrix(m.x_array)]
        M = K + (m.jitter + m.spec.noise_variance) * np.eye(m.n)
        kstar = m.kernel_table[accel.cross_discordance_matrix(queries, m.x_array)]
        want_means = m.y_mean + m.y_std * (kstar @ np.linalg.solve(M, m.y_tilde))
        reduction = np.sum(kstar * np.linalg.solve(M, kstar.T).T, axis=1)
        want_variances = m.y_std**2 * np.maximum(m.spec.signal_variance - reduction, 0.0)
        assert np.max(np.abs(means - want_means)) <= 2e-12 * m.y_std
        scale = m.spec.signal_variance * m.y_std**2
        assert np.max(np.abs(variances - want_variances)) <= 2e-14 * scale

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        xs, ys = _dataset(rng, 5, 5)
        m = fit("kendall", xs, ys)
        with pytest.raises(ValueError):
            predict(m, Permutation([0, 1, 2]))


class TestNlml:
    def test_single_point_closed_form(self, monkeypatch):
        # 0.5*ln(1.1 + jitter) + 0.5*ln(2*pi); the spec quotes ~0.96657.
        p = Permutation([0, 1, 2])
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=0.1)
        m = _fit_at(monkeypatch, spec, [p], [4.2])  # standardized y is exactly 0
        want = 0.5 * math.log(1.1 + GRAM_JITTER) + 0.5 * math.log(2 * math.pi)
        assert want == pytest.approx(0.966594, abs=1e-6)
        assert nlml(m) == pytest.approx(want, abs=1e-12)

    def test_outlier_never_nan(self):
        rng = np.random.default_rng(7)
        xs, ys = _dataset(rng, 6, 12)
        ys = np.append(ys, 1e6)
        xs.append(random_permutation(6, rng))
        m = fit("mallows", xs, ys)
        assert np.isfinite(nlml(m))

    def test_matches_dense_logdet_oracle(self):
        rng = np.random.default_rng(8)
        for n in (5, 20, 50):
            xs, ys = _dataset(rng, 7, n)
            for family in ("kendall", "mallows"):
                m = fit(family, xs, ys)
                assert nlml(m) == pytest.approx(
                    _dense_nlml(m.spec, xs, m.y_tilde), abs=1e-8
                )


def _grid(family, xs, y_tilde, lengthscales):
    """The fit's NLML grid over ``lengthscales`` x SIGNAL_GRID x NOISE_GRID."""
    d = len(xs[0])
    nd = accel.discordance_matrix(np.stack([p.values for p in xs]))
    reductions = [
        gp._bordered_tridiagonal(base_kernel_from_nd(family, nd, d, ell), y_tilde)
        for ell in lengthscales
    ]
    a, e, beta = (np.stack(parts) for parts in zip(*reductions))
    return gp._nlml_grid(a, e, beta, np.array(SIGNAL_GRID), np.array(NOISE_GRID))[0]


def _assert_grid_matches_oracle(family, xs, y_tilde, lengthscales):
    table = _grid(family, xs, y_tilde, lengthscales)
    assert table.shape == (len(lengthscales), len(SIGNAL_GRID), len(NOISE_GRID))
    for (k, ell), (i, s), (j, nv) in itertools.product(
        enumerate(lengthscales), enumerate(SIGNAL_GRID), enumerate(NOISE_GRID)
    ):
        oracle = _dense_nlml(KernelSpec(family, ell, s, nv), xs, y_tilde)
        assert table[k, i, j] == pytest.approx(oracle, rel=1e-10, abs=1e-8)


class TestNlmlTable:
    @pytest.mark.parametrize(
        "family, d, n, lengthscales",
        [
            ("kendall", 7, 20, (1.0,)),
            ("kendall", 4, 40, (1.0,)),  # n > C(4,2) = 6: a rank-deficient kernel
            ("mallows", 6, 25, (0.01, 0.3, 3.0)),
            ("mallows", 6, 159, (0.01, 0.3, 3.0)),  # the size bopsh-d6 reaches
        ],
    )
    def test_every_entry_matches_dense_oracle(self, family, d, n, lengthscales):
        rng = np.random.default_rng(30 + n)
        xs, ys = _dataset(rng, d, n)
        _assert_grid_matches_oracle(family, xs, (ys - ys.mean()) / ys.std(), lengthscales)

    def test_single_observation(self):
        # n = 1: the bordered matrix is 2 x 2 and T is the single kernel value.
        xs = [Permutation([2, 0, 1])]
        for y in (0.0, 0.7):
            _assert_grid_matches_oracle("mallows", xs, np.array([y]), (0.01, 3.0))

    def test_constant_targets(self):
        # y = 0, so beta = 0: the grid is the log-determinant term alone.
        rng = np.random.default_rng(32)
        xs = [random_permutation(6, rng) for _ in range(15)]
        _assert_grid_matches_oracle("mallows", xs, np.zeros(15), (0.01, 0.3, 3.0))

    def test_non_positive_eigenvalue_gives_inf(self):
        # K = Q diag(lam) Q^T with one negative eigenvalue: an entry must be
        # inf exactly where s*K + (GRAM_JITTER*s + noise)*I is not positive
        # definite, and match the dense evaluation elsewhere.
        lam = np.array([-2e-3, 0.5, 2.0])
        Q, _ = np.linalg.qr(np.random.default_rng(33).standard_normal((3, 3)))
        K = (Q * lam) @ Q.T
        y = np.array([1.0, -2.0, 0.5])
        a, e, beta = gp._bordered_tridiagonal(K, y)
        table = gp._nlml_grid(
            a[None], e[None], np.array([beta]), np.array(SIGNAL_GRID), np.array(NOISE_GRID)
        )[0][0]
        for (i, s), (j, nv) in itertools.product(enumerate(SIGNAL_GRID), enumerate(NOISE_GRID)):
            M = s * K + (GRAM_JITTER * s + nv) * np.eye(3)
            definite = np.linalg.eigvalsh(M)[0] > 0.0
            assert np.isfinite(table[i, j]) == definite
            if definite:
                oracle = 0.5 * (
                    y @ np.linalg.solve(M, y) + np.linalg.slogdet(M)[1] + 3 * math.log(2 * math.pi)
                )
                assert table[i, j] == pytest.approx(oracle, rel=1e-10, abs=1e-8)
        assert np.isinf(table).any() and np.isfinite(table).any()

    def test_tie_across_lengthscales_goes_to_the_first(self, monkeypatch):
        # With every pair discordant somewhere, exp(-l * n_d) underflows to 0
        # off the diagonal for l >= 800: both lengthscales give the identity
        # kernel and equal NLML tables.
        xs = [Permutation(t) for t in itertools.islice(itertools.permutations(range(6)), 12)]
        ys = np.arange(12.0) % 5
        for grid in ((800.0, 1000.0), (1000.0, 800.0)):
            monkeypatch.setattr(gp, "LENGTHSCALE_GRID", grid)
            m = fit("mallows", xs, ys)
            assert m.spec.lengthscale == grid[0]

    def test_tie_goes_to_first_entry_in_grid_order(self, monkeypatch):
        # A (lengthscale, signal, noise) table whose minimum 0 appears at
        # (1, 1, 2), (1, 2, 0) and (2, 0, 0): the first of them in
        # (l, signal, noise) order must win.
        table = np.ones((3, 5, 4))
        table[1, 1, 2] = table[1, 2, 0] = table[2, 0, 0] = 0.0
        monkeypatch.setattr(gp, "_nlml_grid", lambda *args: (table, np.zeros(table.shape)))
        rng = np.random.default_rng(31)
        xs, ys = _dataset(rng, 6, 10)
        monkeypatch.setattr(gp, "LENGTHSCALE_GRID", (0.1, 0.2, 0.3))
        m = fit("mallows", xs, ys)
        assert m.spec == KernelSpec("mallows", 0.2, SIGNAL_GRID[1], NOISE_GRID[2])

    def test_no_admissible_entry_fails_loudly(self, monkeypatch):
        table = np.full((1, 5, 4), math.inf)
        monkeypatch.setattr(gp, "_nlml_grid", lambda *args: (table, np.zeros(table.shape)))
        rng = np.random.default_rng(34)
        xs, ys = _dataset(rng, 6, 10)
        with pytest.raises(np.linalg.LinAlgError, match="no admissible"):
            fit("kendall", xs, ys)


def _exhaustive_fit(family, xs, ys):
    """``fit`` with every lengthscale reduced: the grid argmin the bound must keep."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "_FIRST_BLOCK", len(gp.LENGTHSCALE_GRID))
        return fit(family, xs, ys)


def _assert_exhaustive_argmin(got, family, xs, ys):
    """``got``, a fit of (xs, ys), is bit for bit the fit that reduces every lengthscale."""
    want = _exhaustive_fit(family, xs, ys)
    assert got.spec == want.spec
    assert got.chol.tobytes() == want.chol.tobytes()
    assert got.alpha.tobytes() == want.alpha.tobytes()


def _count_reductions(monkeypatch):
    """A list that grows by one entry per ``_bordered_tridiagonal`` call."""
    calls = []
    real = gp._bordered_tridiagonal

    def counted(K, y):
        calls.append(K.shape)
        return real(K, y)

    monkeypatch.setattr(gp, "_bordered_tridiagonal", counted)
    return calls


class TestBoundedLengthscaleSearch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(3, 8),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        pool=st.sampled_from([None, 2, 5]),
        noise=st.sampled_from([0.0, 0.1, 3.0]),
    )
    def test_pruned_fit_is_the_exhaustive_argmin(self, d, n, seed, pool, noise):
        # ``pool`` draws the rows from that many permutations, so most are duplicated.
        rng = np.random.default_rng(seed)
        rows = [random_permutation(d, rng) for _ in range(pool or n)]
        xs = [rows[k] for k in rng.integers(0, len(rows), size=n)] if pool else rows
        ys = [discordant_pairs(p, rows[0]) + noise * rng.standard_normal() for p in xs]
        _assert_exhaustive_argmin(fit("mallows", xs, ys), "mallows", xs, ys)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bopsh_d6_sized_fit(self, monkeypatch, seed):
        # d = 6, n = 159, the size bopsh-d6 reaches. Its BO fits made 4.2
        # reductions each (at most 8) against 16 for the whole grid; more
        # than 8 here means the bound stopped ruling lengthscales out.
        xs, ys = _dataset(np.random.default_rng(40 + seed), 6, 159, noise=0.0)
        reductions = _count_reductions(monkeypatch)
        m = fit("mallows", xs, ys)
        assert len(reductions) <= 8
        _assert_exhaustive_argmin(m, "mallows", xs, ys)

    @pytest.mark.parametrize("n", [1, 15])
    def test_constant_targets_reduce_every_lengthscale(self, monkeypatch, n):
        # y = 0 (constant targets, or n = 1) gives no bound: nothing is skipped.
        rng = np.random.default_rng(41)
        xs = [random_permutation(6, rng) for _ in range(n)]
        reductions = _count_reductions(monkeypatch)
        m = fit("mallows", xs, [2.5] * n)
        assert len(reductions) == len(LENGTHSCALE_GRID)
        assert not m.y_tilde.any()
        _assert_exhaustive_argmin(m, "mallows", xs, [2.5] * n)

    def test_kendall_fit_does_no_extra_work(self, monkeypatch):
        def no_bound(*args):
            raise AssertionError("a Kendall fit computed a lengthscale bound")

        monkeypatch.setattr(gp, "_nlml_lower_bound", no_bound)
        reductions = _count_reductions(monkeypatch)
        xs, ys = _dataset(np.random.default_rng(42), 7, 40)
        fit("kendall", xs, ys)
        assert len(reductions) == 1

    def test_winner_at_the_top_of_the_grid(self):
        # test_grid_selection_matches_independent_nlml_sweep's dataset: the
        # winner is the largest lengthscale, less than 1e-13 below the
        # best entry of the next one.
        rng = np.random.default_rng(1)
        xs = [random_permutation(8, rng) for _ in range(30)]
        prior = KernelSpec("mallows", lengthscale=0.5)
        ys = sample_gp_prior(prior, xs, rng) + 0.05 * rng.standard_normal(30)
        m = fit("mallows", xs, ys)
        assert m.spec.lengthscale == LENGTHSCALE_GRID[-1]
        _assert_exhaustive_argmin(m, "mallows", xs, ys)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_unsorted_grid(self, monkeypatch, order):
        # A lengthscale below every reduced one has no bound, so a reversed
        # grid reduces every entry; the argmin is the grid-order one either way.
        grid = list(LENGTHSCALE_GRID)[::-1]
        if order == "shuffled":
            grid = [grid[k] for k in np.random.default_rng(43).permutation(len(grid))]
        monkeypatch.setattr(gp, "LENGTHSCALE_GRID", tuple(grid))
        xs, ys = _dataset(np.random.default_rng(44), 6, 50)
        reductions = _count_reductions(monkeypatch)
        m = fit("mallows", xs, ys)
        if order == "reversed":
            assert len(reductions) == len(grid)
        _assert_exhaustive_argmin(m, "mallows", xs, ys)

    @pytest.mark.parametrize("d, n", [(4, 12), (6, 40), (6, 159), (8, 30), (15, 59)])
    def test_skipped_lengthscales_are_at_or_above_their_bound(self, monkeypatch, d, n):
        # Each skipped lengthscale's whole table must sit at or above the
        # bound that ruled it out, up to the dense-oracle tolerance (rel
        # 1e-10, abs 1e-8), and that bound must clear the best NLML by the
        # margin, which is at least 100 times that tolerance.
        bounds, built = {}, set()
        real_bound, real_kernel = gp._nlml_lower_bound, gp.base_kernel_from_nd

        def spy_bound(ells, *args):
            out = real_bound(ells, *args)
            bounds.update(zip(ells.tolist(), out))  # the last bound of each is the one that skipped it
            return out

        def spy_kernel(family, nd, d, lengthscale=1.0):
            if np.ndim(lengthscale) == 0:
                built.add(float(lengthscale))
            return real_kernel(family, nd, d, lengthscale)

        monkeypatch.setattr(gp, "_nlml_lower_bound", spy_bound)
        monkeypatch.setattr(gp, "base_kernel_from_nd", spy_kernel)
        xs, ys = _dataset(np.random.default_rng(50 + n), d, n, noise=0.0)
        m = fit("mallows", xs, ys)
        skipped = [k for k, ell in enumerate(LENGTHSCALE_GRID) if float(ell) not in built]
        assert skipped
        table = _grid("mallows", xs, m.y_tilde, LENGTHSCALE_GRID)
        best = table.min()
        assert nlml(m) == pytest.approx(best, rel=1e-10, abs=1e-8)
        for k in skipped:
            bound = bounds[float(LENGTHSCALE_GRID[k])]
            assert np.all(table[k] >= bound - np.maximum(1e-10 * np.abs(bound), 1e-8))
            assert bound.min() >= best + gp._BOUND_MARGIN * (1.0 + abs(best))


class TestTestNll:
    def test_standard_normal_case(self, monkeypatch):
        # One training point, query at kendall distance exactly 0: the
        # predictive is N(0, 0.9 + 0.1) = N(0, 1) and y = 0 scores 0.5*ln(2*pi).
        train = Permutation([0, 1, 2, 3])
        far = Permutation([1, 3, 0, 2])
        spec = KernelSpec("kendall", signal_variance=0.9, noise_variance=0.1)
        m = _fit_at(monkeypatch, spec, [train], [0.0])  # y = 0 standardizes to 0, mean 0, std 1
        got = predictive_nll(m, [far], [0.0])
        assert got == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e300])
    def test_scaled_observations_shift_by_log_scale(self, scale):
        # Scoring in standardized units keeps extreme but finite data
        # finite: scaling every observation by c adds log(c) to the score.
        rng = np.random.default_rng(12)
        xs, ys = _dataset(rng, 5, 30)
        test_xs, test_ys = xs[20:], np.asarray(ys[20:])
        m = fit("mallows", xs[:20], ys[:20])
        m_scaled = fit("mallows", xs[:20], scale * np.asarray(ys[:20]))
        want = predictive_nll(m, test_xs, test_ys) + math.log(scale)
        got = predictive_nll(m_scaled, test_xs, scale * test_ys)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_sharp_correct_predictions_score_negative(self, monkeypatch):
        rng = np.random.default_rng(9)
        xs = [random_permutation(6, rng) for _ in range(15)]
        ys = [0.01 * discordant_pairs(p, xs[0]) for p in xs]
        spec = KernelSpec("kendall", signal_variance=1.0, noise_variance=1e-8)
        m = _fit_at(monkeypatch, spec, xs, ys)
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
            nll_m = predictive_nll(fit("mallows", train_x, train_y), test_x, test_y)
            nll_k = predictive_nll(fit("kendall", train_x, train_y), test_x, test_y)
            wins += nll_m <= nll_k
        assert wins >= 8

    def test_empty_test_set_rejected(self):
        rng = np.random.default_rng(10)
        xs, ys = _dataset(rng, 5, 5)
        m = fit("kendall", xs, ys)
        with pytest.raises(ValueError):
            predictive_nll(m, [], [])


def _prior_posterior(d, signal_variance):
    """The no-data weight posterior: zero mean, covariance signal_variance * I."""
    m = d * (d - 1) // 2
    return WeightPosterior(np.zeros(m), math.sqrt(signal_variance) * np.eye(m))


class TestWeightPosterior:
    def test_prior_case(self):
        # Weights w ~ N(0, s*I) on the Kendall feature map give the
        # function-space prior: Cov(phi(a).w, phi(b).w) = s * k(a, b).
        rng = np.random.default_rng(10)
        xs = [random_permutation(5, rng) for _ in range(12)]
        wp = _prior_posterior(5, 2.0)
        phi = kendall_feature_matrix(np.stack([p.values for p in xs]))
        cov = phi @ wp.cov_factor @ wp.cov_factor.T @ phi.T
        K = gram_matrix(KernelSpec("kendall", signal_variance=2.0), xs)
        np.testing.assert_allclose(cov + 2.0 * GRAM_JITTER * np.eye(12), K, rtol=0, atol=1e-12)

    def test_agrees_with_function_space(self):
        rng = np.random.default_rng(11)
        for n in (5, 20, 40):
            xs, ys = _dataset(rng, 10, n)
            m = fit("kendall", xs, ys)
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

    @pytest.mark.parametrize("n", [10, 45, 80])  # C(10,2) = 45 features
    def test_matches_feature_space_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        xs, ys = _dataset(rng, 10, n)
        m = fit("kendall", xs, ys)
        wp = weight_posterior(m)
        mean, cov = _feature_space_posterior(m)
        assert np.max(np.abs(wp.mean - mean)) <= 1e-9
        assert np.max(np.abs(wp.cov_factor @ wp.cov_factor.T - cov)) <= 1e-9
        assert np.max(np.abs(wp.cov_factor - np.linalg.cholesky(cov))) <= 1e-9

    def test_matches_feature_space_oracle_after_jitter_escalation(self, monkeypatch):
        # The first Cholesky of the fit fails, so the factor carries ten
        # times the base jitter; the posterior must use that factor's jitter.
        real_cholesky = gp.cholesky
        calls = []

        def fails_once(a, lower=False):
            calls.append(a.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return real_cholesky(a, lower=lower)

        monkeypatch.setattr(gp, "cholesky", fails_once)
        rng = np.random.default_rng(41)
        xs, ys = _dataset(rng, 8, 30)
        m = fit("kendall", xs, ys)
        assert m.jitter == pytest.approx(10 * GRAM_JITTER * m.spec.signal_variance, rel=1e-12)
        wp = weight_posterior(m)
        mean, cov = _feature_space_posterior(m)
        assert np.max(np.abs(wp.mean - mean)) <= 1e-9
        assert np.max(np.abs(wp.cov_factor @ wp.cov_factor.T - cov)) <= 1e-9

    def test_mallows_refused(self):
        rng = np.random.default_rng(12)
        xs, ys = _dataset(rng, 5, 8)
        m = fit("mallows", xs, ys)
        with pytest.raises(ValueError, match="feature"):
            weight_posterior(m)


class TestSampleWeights:
    def test_zero_factor_returns_mean(self):
        wp = _prior_posterior(4, 1.0)
        wp.cov_factor[:] = 0.0
        wp.mean[:] = 7.0
        out = sample_weights(wp, np.random.default_rng(0))
        np.testing.assert_array_equal(out, 7.0 * np.ones(6))

    def test_monte_carlo_mean_and_cov(self):
        wp = _prior_posterior(4, 1.0)
        rng = np.random.default_rng(13)
        draws = np.stack([sample_weights(wp, rng) for _ in range(10000)])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        emp_cov = np.cov(draws.T)
        assert np.max(np.abs(emp_cov - np.eye(6))) < 0.1

    def test_seed_determinism(self):
        wp = _prior_posterior(5, 1.0)
        a = sample_weights(wp, np.random.default_rng(21))
        b = sample_weights(wp, np.random.default_rng(21))
        np.testing.assert_array_equal(a, b)
