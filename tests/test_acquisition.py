import itertools

import numpy as np
import pytest

import permbo.acquisition as acq
from permbo.acquisition import build_qap, expected_improvement_batch
from permbo.gp import fit
from permbo.perm import (
    Permutation,
    kendall_feature_map,
    num_pairs,
    permutation_matrix,
    random_permutation,
)

# Frozen standard-normal values: pdf(0), and cdf(1) + pdf(1).
PDF_0 = 0.3989422804014327
EI_ONE_SIGMA = 1.0833154705876864

#: One query row, the identity on five objects.
ROW = np.arange(5)[None, :]


def _stub_predict(mean, var):
    def fake(model, queries):
        k = np.atleast_2d(queries).shape[0]
        return np.full(k, mean), np.full(k, var), np.zeros(k, dtype=bool)

    return fake


@pytest.fixture
def any_model():
    rng = np.random.default_rng(0)
    xs = [random_permutation(5, rng) for _ in range(6)]
    ys = [float(i) for i in range(6)]
    return fit("kendall", xs, ys)


class TestExpectedImprovement:
    def test_zero_uncertainty_gives_zero(self, any_model, monkeypatch):
        monkeypatch.setattr(acq, "predict_batch", _stub_predict(0.0, 0.0))
        assert expected_improvement_batch(any_model, ROW, incumbent=1.0)[0] == 0.0

    def test_at_incumbent_equals_pdf(self, any_model, monkeypatch):
        monkeypatch.setattr(acq, "predict_batch", _stub_predict(2.0, 1.0))
        got = expected_improvement_batch(any_model, ROW, incumbent=2.0)[0]
        assert got == pytest.approx(PDF_0, abs=1e-9)

    def test_one_sigma_improvement(self, any_model, monkeypatch):
        monkeypatch.setattr(acq, "predict_batch", _stub_predict(1.0, 1.0))
        got = expected_improvement_batch(any_model, ROW, incumbent=2.0)[0]
        assert got == pytest.approx(EI_ONE_SIGMA, abs=1e-9)

    def test_monotone_in_mean(self, any_model, monkeypatch):
        values = []
        for mu in (2.0, 1.0, 0.0, -1.0):
            monkeypatch.setattr(acq, "predict_batch", _stub_predict(mu, 1.0))
            values.append(expected_improvement_batch(any_model, ROW, 1.5)[0])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_std_below_incumbent(self, any_model, monkeypatch):
        values = []
        for s in (0.5, 1.0, 2.0, 4.0):
            monkeypatch.setattr(acq, "predict_batch", _stub_predict(1.0, s**2))
            values.append(expected_improvement_batch(any_model, ROW, 0.5)[0])
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonnegative_on_real_model(self, any_model):
        rng = np.random.default_rng(1)
        queries = np.stack([random_permutation(5, rng).values for _ in range(200)])
        ei = expected_improvement_batch(any_model, queries, incumbent=0.0)
        assert np.all(ei >= 0)


def enumerate_perms(d):
    return [Permutation(list(t)) for t in itertools.permutations(range(d))]


class TestBuildQap:
    def test_d2_hand_computation(self):
        c = 1.7
        q = build_qap(np.array([c]), 2)
        ident = Permutation([0, 1])
        P = permutation_matrix(ident)
        tr = np.trace(q.W @ P @ q.A @ P.T)
        assert tr == pytest.approx(-c, abs=1e-15)
        assert np.array([c]) @ kendall_feature_map(ident) == pytest.approx(-c, abs=1e-15)

    def test_matrix_shapes_and_patterns(self):
        rng = np.random.default_rng(2)
        q = build_qap(rng.standard_normal(num_pairs(5)), 5)
        assert np.all(np.tril(q.W) == 0)
        np.testing.assert_array_equal(q.A, -q.A.T)
        assert np.all(np.sign(q.A[np.triu_indices(5, 1)]) == 1)
        np.testing.assert_array_equal(np.diag(q.A), np.zeros(5))

    def test_sign_matrix_is_shared_and_read_only(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 15):
            a = build_qap(rng.standard_normal(num_pairs(d)), d)
            b = build_qap(rng.standard_normal(num_pairs(d)), d)
            assert a.A is b.A
            assert not a.A.flags.writeable
            j_idx, i_idx = np.meshgrid(np.arange(d), np.arange(d))
            np.testing.assert_array_equal(a.A, np.sign(j_idx - i_idx).astype(np.float64))

    def test_trace_reproduces_linear_objective(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4, 5):
            m = num_pairs(d)
            for _ in range(5):
                w = rng.standard_normal(m)
                q = build_qap(w, d)
                for p in enumerate_perms(d):
                    P = permutation_matrix(p)
                    tr = np.trace(q.W @ P @ q.A @ P.T)
                    want = np.sqrt(m) * (w @ kendall_feature_map(p))
                    assert tr == pytest.approx(want, abs=1e-10)

    def test_argmin_equivalence_small(self):
        rng = np.random.default_rng(4)
        for d in (3, 4):
            m = num_pairs(d)
            for _ in range(5):
                w = rng.standard_normal(m)
                q = build_qap(w, d)
                perms = enumerate_perms(d)
                traces = [
                    np.trace(q.W @ permutation_matrix(p) @ q.A @ permutation_matrix(p).T)
                    for p in perms
                ]
                linear = [w @ kendall_feature_map(p) for p in perms]
                assert perms[int(np.argmin(traces))] == perms[int(np.argmin(linear))]

    def test_strict_upper_triangularity_is_load_bearing(self):
        # Entries on W's diagonal cannot affect the trace (A's diagonal is
        # zero); entries below it would. The constructor must zero both.
        rng = np.random.default_rng(5)
        d = 4
        w = rng.standard_normal(num_pairs(d))
        q = build_qap(w, d)
        p = Permutation([2, 0, 3, 1])
        P = permutation_matrix(p)
        base = np.trace(q.W @ P @ q.A @ P.T)
        diag_bumped = q.W + np.diag(rng.standard_normal(d))
        assert np.trace(diag_bumped @ P @ q.A @ P.T) == pytest.approx(base, abs=1e-12)
        below_bumped = q.W + np.tril(rng.standard_normal((d, d)), -1)
        assert abs(np.trace(below_bumped @ P @ q.A @ P.T) - base) > 0.1

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            build_qap(np.zeros(5), 4)
