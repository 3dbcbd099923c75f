"""The pair kernels against plain-Python double loops over the object pairs.

Integer statistics must match exactly; the trace, a float sum taken in a
different order, to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permbo import accel
from permbo.perm import kendall_feature_matrix

# No deadline: the reference loops are slow next to the kernels they check.
reference = settings(max_examples=100, deadline=None)


def _random_perms(rng, n, d):
    return np.stack([rng.permutation(d) for _ in range(n)]).astype(np.int64)


@st.composite
def perm_batches(draw, count=1, max_rows=6):
    """``count`` (n, d) int64 batches of permutations sharing d in 2..16."""
    d = draw(st.integers(2, 16))
    rows = st.lists(st.permutations(range(d)), min_size=1, max_size=max_rows)
    return tuple(np.array(draw(rows), dtype=np.int64) for _ in range(count))


def _ref_signs(row):
    d = len(row)
    return [1.0 if row[i] > row[j] else -1.0 for i in range(d) for j in range(i + 1, d)]


def _ref_discordant(a, b):
    d = len(a)
    return sum(
        (a[i] > a[j]) != (b[i] > b[j]) for i in range(d) for j in range(i + 1, d)
    )


def _ref_trace(w, row):
    d = len(row)
    total = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            total += w[i, j] if row[i] > row[j] else -w[i, j]
    return total


# Single-row batches at both ends of the d range, so n = 1 and q = 1 run
# whatever the draws.
ONE_ROW = (np.array([[1, 0]], dtype=np.int64),)
ONE_ROW_16 = (np.arange(16, dtype=np.int64)[None, ::-1].copy(),)


@given(perm_batches())
@example(ONE_ROW)
@example(ONE_ROW_16)
@reference
def test_pair_signs_match_reference(batch):
    (x,) = batch
    s = accel.pair_signs(x)
    assert s.dtype == np.float64
    np.testing.assert_array_equal(s, np.array([_ref_signs(r) for r in x]))


@given(perm_batches(count=2, max_rows=1))
@reference
def test_discordant_count_matches_reference(batch):
    a, b = batch[0][0], batch[1][0]
    assert accel.discordant_count(a, b) == _ref_discordant(a, b)


@given(perm_batches())
@example(ONE_ROW)
@example(ONE_ROW_16)
@reference
def test_discordance_matrix_matches_reference(batch):
    (x,) = batch
    nd = accel.discordance_matrix(x)
    assert nd.dtype == np.int64
    want = [[_ref_discordant(a, b) for b in x] for a in x]
    np.testing.assert_array_equal(nd, np.array(want, dtype=np.int64))


@given(perm_batches(count=2))
@example(ONE_ROW * 2)
@example(ONE_ROW_16 * 2)
@reference
def test_cross_discordance_matrix_matches_reference(batch):
    x, y = batch
    nd = accel.cross_discordance_matrix(x, y)
    assert nd.dtype == np.int64 and nd.shape == (len(x), len(y))
    want = [[_ref_discordant(a, b) for b in y] for a in x]
    np.testing.assert_array_equal(nd, np.array(want, dtype=np.int64))


@given(perm_batches(), st.integers(0, 2**32 - 1))
@example(ONE_ROW, 0)
@example(ONE_ROW_16, 0)
@reference
def test_ts_trace_batch_matches_reference(batch, seed):
    (x,) = batch
    d = x.shape[1]
    w = np.triu(np.random.default_rng(seed).standard_normal((d, d)), 1)
    got = accel.ts_trace_batch(w, x)
    assert got.shape == (len(x),)
    for value, row in zip(got, x):
        assert abs(value - _ref_trace(w, row)) <= 1e-12


@given(perm_batches())
@example(ONE_ROW)
@example(ONE_ROW_16)
@reference
def test_kendall_feature_matrix_is_scaled_pair_signs(batch):
    # Bit-identical to its definition: the signs over sqrt(C(d,2)).
    (x,) = batch
    m = x.shape[1] * (x.shape[1] - 1) // 2
    want = np.array([_ref_signs(r) for r in x]) / np.sqrt(m)
    assert np.array_equal(kendall_feature_matrix(x), want)


@given(perm_batches(count=2, max_rows=4))
@example(ONE_ROW * 2)
@example(ONE_ROW_16 * 2)
@settings(max_examples=40, deadline=None)  # the reference is O(d^4) per row
def test_swap_discordances_match_reference(batch):
    # Entry [r, k, i]: row i of x against perms[r] with the k-th pair swapped.
    x, perms = batch
    d = x.shape[1]
    got = accel.swap_discordances(accel.sign_stack(x), perms)
    assert got.dtype == np.int64 and got.shape == (len(perms), d * (d - 1) // 2, len(x))
    assert got.flags.c_contiguous
    for r, perm in enumerate(perms):
        for k, (a, b) in enumerate(zip(*accel.pair_indices(d))):
            swapped = perm.copy()
            swapped[a], swapped[b] = perm[b], perm[a]
            assert list(got[r, k]) == [_ref_discordant(row, swapped) for row in x]


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

    def trace(W, perm):
        return accel.ts_trace_batch(W, perm[None, :])[0]

    for d in range(2, 16):
        W = np.triu(rng.standard_normal((d, d)), 1)
        perms = _random_perms(rng, 6, d)
        deltas = accel.ts_swap_deltas(W - W.T, perms)
        assert deltas.shape == (6, d * (d - 1) // 2)
        for r, perm in enumerate(perms):
            base = trace(W, perm)
            for k, (a, b) in enumerate(zip(*accel.pair_indices(d))):
                swapped = perm.copy()
                swapped[a], swapped[b] = perm[b], perm[a]
                full = trace(W, swapped) - base
                assert abs(deltas[r, k] - full) <= 1e-12
