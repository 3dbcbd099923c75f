"""The numba and numpy backends must be interchangeable bit for bit (integers)
or to floating tolerance (sums accumulated in different orders)."""

import numpy as np
import pytest

from permbo import accel


def _random_perms(rng, n, d):
    return np.stack([rng.permutation(d) for _ in range(n)]).astype(np.int64)


numba_only = pytest.mark.skipif(not accel.HAVE_NUMBA, reason="numba unavailable")


@numba_only
class TestBackendEquivalence:
    def test_discordant_count(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 7, 16):
            for _ in range(20):
                a, b = rng.permutation(d).astype(np.int64), rng.permutation(d).astype(np.int64)
                assert accel.discordant_count_nb(a, b) == accel.discordant_count_np(a, b)

    def test_discordance_matrix(self):
        rng = np.random.default_rng(1)
        x = _random_perms(rng, 40, 9)
        np.testing.assert_array_equal(
            accel.discordance_matrix_nb(x), accel.discordance_matrix_np(x)
        )

    def test_cross_discordance_matrix(self):
        rng = np.random.default_rng(2)
        x, y = _random_perms(rng, 30, 8), _random_perms(rng, 17, 8)
        np.testing.assert_array_equal(
            accel.cross_discordance_matrix_nb(x, y),
            accel.cross_discordance_matrix_np(x, y),
        )

    def test_ts_trace(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 12):
            W = np.triu(rng.standard_normal((d, d)), 1)
            perms = _random_perms(rng, 25, d)
            for p in perms:
                assert accel.ts_trace_nb(W, p) == pytest.approx(
                    accel.ts_trace_np(W, p), abs=1e-12
                )
            np.testing.assert_allclose(
                accel.ts_trace_batch_nb(W, perms),
                accel.ts_trace_batch_np(W, perms),
                atol=1e-12,
            )

    def test_qap_cost(self):
        rng = np.random.default_rng(4)
        for d in (2, 6, 11):
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            perms = _random_perms(rng, 15, d)
            for p in perms:
                assert accel.qap_cost_nb(a, b, p) == pytest.approx(
                    accel.qap_cost_np(a, b, p), rel=1e-12
                )
            np.testing.assert_allclose(
                accel.qap_cost_batch_nb(a, b, perms),
                accel.qap_cost_batch_np(a, b, perms),
                rtol=1e-12,
            )

    def test_tsp_length(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(0, 100, size=(12, 2))
        for _ in range(20):
            p = rng.permutation(12).astype(np.int64)
            assert accel.tsp_length_nb(coords, p) == accel.tsp_length_np(coords, p)


def test_pair_indices_are_cached_read_only_triu_indices():
    for d in range(2, 17):
        iu, ju = accel.pair_indices(d)
        want_i, want_j = np.triu_indices(d, 1)
        np.testing.assert_array_equal(iu, want_i)
        np.testing.assert_array_equal(ju, want_j)
        assert iu.dtype == want_i.dtype and ju.dtype == want_j.dtype
        assert not iu.flags.writeable and not ju.flags.writeable
        assert accel.pair_indices(d)[0] is iu
    with pytest.raises(ValueError):
        iu[0] = 1


def test_swap_deltas_match_full_reevaluation():
    # Each delta is the trace of the swapped permutation minus the trace
    # of the original, for every pair and every row of the batch.
    rng = np.random.default_rng(7)
    for d in range(2, 16):
        W = np.triu(rng.standard_normal((d, d)), 1)
        perms = _random_perms(rng, 6, d)
        deltas = accel.ts_swap_deltas(W - W.T, perms)
        assert deltas.shape == (6, d * (d - 1) // 2)
        for r, perm in enumerate(perms):
            base = accel.ts_trace_np(W, perm)
            for k, (a, b) in enumerate(zip(*accel.pair_indices(d))):
                swapped = perm.copy()
                swapped[a], swapped[b] = perm[b], perm[a]
                full = accel.ts_trace_np(W, swapped) - base
                assert abs(deltas[r, k] - full) <= 1e-12


def test_backend_flag_reported():
    assert accel.BACKEND in ("numba", "numpy")
    if accel.HAVE_NUMBA:
        assert accel.BACKEND == "numba"


def test_numpy_fallback_selected_by_env(tmp_path):
    # A fresh interpreter with the flag set must bind the numpy path.
    # Without numba, BACKEND is "numpy" whether or not the flag is set, so
    # this tells the two cases apart only where numba is installed.
    import os
    import subprocess
    import sys
    from pathlib import Path

    # The child must import the permbo under test, whether it came from an
    # install or from the source tree on PYTHONPATH.
    here = Path(accel.__file__).resolve()
    src = str(here.parents[1])
    env = dict(os.environ, PERMBO_DISABLE_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import permbo.accel as a; print(a.BACKEND); print(a.__file__)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    backend, path = out.stdout.splitlines()
    assert Path(path).resolve() == here
    assert backend == "numpy"
