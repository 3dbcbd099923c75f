import math

import numpy as np
import pytest

from permbo.accel import cross_discordance_matrix
from permbo.kernels import (
    GRAM_JITTER,
    KernelSpec,
    base_kernel_from_nd,
    gram_matrix,
    kendall_kernel,
    mallows_kernel,
)
from permbo.perm import (
    Permutation,
    compose,
    discordant_pairs,
    kendall_feature_map,
    random_permutation,
)


class TestKernelSpec:
    def test_valid(self):
        KernelSpec("kendall")
        KernelSpec("mallows", lengthscale=0.5, signal_variance=2.0, noise_variance=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "rbf"},
            {"family": "mallows", "lengthscale": -1.0},
            {"family": "kendall", "signal_variance": 0.0},
            {"family": "kendall", "noise_variance": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            KernelSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["lengthscale", "signal_variance", "noise_variance"])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            KernelSpec("mallows", **{field: value})


class TestKendall:
    def test_self_similarity(self):
        rng = np.random.default_rng(0)
        for d in (3, 6, 10):
            p = random_permutation(d, rng)
            assert kendall_kernel(p, p) == 1.0

    def test_full_reversal(self):
        assert kendall_kernel(Permutation([0, 1, 2, 3]), Permutation([3, 2, 1, 0])) == -1.0

    def test_one_swap(self):
        assert kendall_kernel(Permutation([0, 1, 2]), Permutation([0, 2, 1])) == pytest.approx(1 / 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kendall_kernel(Permutation([0, 1]), Permutation([0, 1, 2]))

    def test_matches_feature_inner_product(self):
        rng = np.random.default_rng(1)
        for d in (3, 7, 12, 15):
            for _ in range(50):
                a, b = random_permutation(d, rng), random_permutation(d, rng)
                want = kendall_feature_map(a) @ kendall_feature_map(b)
                assert abs(kendall_kernel(a, b) - want) < 1e-12

    def test_right_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, t = (random_permutation(8, rng) for _ in range(3))
            assert kendall_kernel(compose(a, t), compose(b, t)) == pytest.approx(
                kendall_kernel(a, b), abs=1e-15
            )


class TestMallows:
    def test_self_similarity(self):
        rng = np.random.default_rng(3)
        p = random_permutation(6, rng)
        assert mallows_kernel(p, p, 2.0) == 1.0

    def test_one_discordant_pair(self):
        got = mallows_kernel(Permutation([0, 1, 2]), Permutation([0, 2, 1]), 1.0)
        assert got == pytest.approx(math.exp(-1), abs=1e-12)

    def test_zero_lengthscale_degenerates_to_one(self):
        rng = np.random.default_rng(4)
        a, b = random_permutation(7, rng), random_permutation(7, rng)
        assert mallows_kernel(a, b, 0.0) == 1.0

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(5)
        for ell in (0.01, 0.1, 1.0, 10.0):
            samples = []
            for _ in range(100):
                a, b = random_permutation(8, rng), random_permutation(8, rng)
                samples.append((discordant_pairs(a, b), mallows_kernel(a, b, ell)))
            samples.sort()
            for (nd1, k1), (nd2, k2) in zip(samples, samples[1:]):
                if nd1 < nd2:
                    assert k1 > k2

    def test_right_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b, t = (random_permutation(8, rng) for _ in range(3))
            assert mallows_kernel(compose(a, t), compose(b, t), 0.5) == pytest.approx(
                mallows_kernel(a, b, 0.5), abs=1e-15
            )


class TestGramMatrix:
    def test_single_point(self):
        p = Permutation([1, 0, 2])
        K = gram_matrix(KernelSpec("kendall", signal_variance=2.5), [p])
        np.testing.assert_allclose(K, [[2.5 * (1 + GRAM_JITTER)]], rtol=1e-15)

    def test_duplicated_point_pre_jitter(self):
        p = Permutation([1, 0, 2])
        K = gram_matrix(KernelSpec("kendall"), [p, p])
        np.testing.assert_allclose(K - GRAM_JITTER * np.eye(2), [[1.0, 1.0], [1.0, 1.0]], rtol=1e-15)

    def test_jitter_on_diagonal(self):
        p, q = Permutation([0, 1, 2]), Permutation([2, 1, 0])
        spec = KernelSpec("kendall", signal_variance=2.0)
        K = gram_matrix(spec, [p, q])
        np.testing.assert_allclose(np.diag(K), 2.0 * (1 + GRAM_JITTER) * np.ones(2))

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(7)
        pts = [random_permutation(9, rng) for _ in range(30)]
        for spec in (KernelSpec("kendall"), KernelSpec("mallows", lengthscale=0.3)):
            K = gram_matrix(spec, pts)
            np.testing.assert_allclose(K, K.T)
            np.testing.assert_allclose(np.diag(K), (1 + GRAM_JITTER) * np.ones(30))

    def test_psd_after_jitter_200_points(self):
        rng = np.random.default_rng(8)
        pts = [random_permutation(10, rng) for _ in range(200)]
        specs = [KernelSpec("kendall")] + [
            KernelSpec("mallows", lengthscale=ell) for ell in (0.01, 0.1, 1.0, 10.0)
        ]
        for spec in specs:
            K = gram_matrix(spec, pts)
            assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_dimension_mismatch_within_list(self):
        with pytest.raises(ValueError):
            gram_matrix(KernelSpec("kendall"), [Permutation([0, 1]), Permutation([0, 1, 2])])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            gram_matrix(KernelSpec("kendall"), [])

    def test_cross_gram_consistent_with_kernel(self):
        rng = np.random.default_rng(9)
        pts = [random_permutation(6, rng) for _ in range(8)]
        qs = [random_permutation(6, rng) for _ in range(5)]
        nd = cross_discordance_matrix(
            np.stack([p.values for p in pts]), np.stack([q.values for q in qs])
        )
        C = 1.5 * base_kernel_from_nd("mallows", nd, 6, 0.7)
        for i, p in enumerate(pts):
            for j, q in enumerate(qs):
                assert C[i, j] == pytest.approx(
                    1.5 * mallows_kernel(p, q, 0.7), abs=1e-12
                )
