"""The bops-h neighbourhood scorer against EI on explicitly built neighbour rows.

``acquisition.swap_neighbour_ei`` never builds the 2-swap neighbours; it
must still give, bit for bit, what batch EI gives on
``swap_neighbor_matrix`` rows with evaluated points masked to zero, and
the local search it drives must take the same walk.
"""

import numpy as np
import pytest

from permbo.acquisition import _ei, expected_improvement_batch, swap_neighbour_ei
from permbo.gp import fit, predict_batch, predict_swap_neighbours
from permbo.kernels import KENDALL, MALLOWS, KernelSpec
from permbo.optimizers import local_search
from permbo.perm import Permutation, num_pairs, random_permutation, swap_neighbor_matrix


def _case(rng, d, family):
    """A fitted model, a start row and an incumbent.

    The start and some of its swap neighbours are training points, so the
    mask has work to do; the incumbent is sometimes well above the best
    value, which gives evaluated points a large unmasked EI.
    """
    start = random_permutation(d, rng)
    xs = [random_permutation(d, rng) for _ in range(int(rng.integers(2, 20)))]
    neighbours = swap_neighbor_matrix(start.values)
    picked = rng.choice(len(neighbours), size=min(len(neighbours), 3), replace=False)
    xs += [Permutation(list(neighbours[k])) for k in picked]
    if rng.random() < 0.5:
        xs.append(start)
    ys = rng.standard_normal(len(xs))
    model = fit(KernelSpec(family), xs, ys)
    incumbent = float(np.min(ys) if rng.random() < 0.5 else np.quantile(ys, 0.8))
    return model, start, incumbent


def _seen(model):
    return {x.tobytes() for x in model.x_array}


def _masked_batch_ei(model, rows, incumbent):
    # Batch EI on the rows, and zero where a row is a training row byte for byte.
    ei = expected_improvement_batch(model, rows, incumbent)
    seen = _seen(model)
    for k, row in enumerate(rows):
        if row.tobytes() in seen:
            ei[k] = 0.0
    return ei


def _batch_walk(model, start, incumbent, max_steps):
    """Best-improvement 2-swap descent on -EI, scoring built neighbour rows."""
    current = start.values
    current_v = -_masked_batch_ei(model, current[None, :], incumbent)[0]
    for _ in range(max_steps):
        neighbours = swap_neighbor_matrix(current)
        values = -_masked_batch_ei(model, neighbours, incumbent)
        best = int(np.argmin(values))
        if not values[best] < current_v:
            break
        current, current_v = neighbours[best], values[best]
    return current, current_v


@pytest.mark.parametrize("family", [KENDALL, MALLOWS])
def test_scorer_is_bit_identical_to_batch_ei_on_built_neighbours(family):
    rng = np.random.default_rng(40)
    masked_something = 0
    for d in range(2, 16):
        for _ in range(4):
            model, start, incumbent = _case(rng, d, family)
            rows = swap_neighbor_matrix(start.values)
            means, variances, evaluated = predict_swap_neighbours(model, start.values)
            want_means, want_variances, want_evaluated = predict_batch(model, rows)
            assert means.tobytes() == want_means.tobytes()
            assert variances.tobytes() == want_variances.tobytes()
            seen = _seen(model)
            assert list(evaluated) == [row.tobytes() in seen for row in rows]
            assert list(want_evaluated) == list(evaluated)

            got = swap_neighbour_ei(model, start.values, incumbent)
            want = _masked_batch_ei(model, rows, incumbent)
            assert got.shape == (num_pairs(d),)
            assert got.tobytes() == want.tobytes()
            unmasked = _ei(means, variances, np.zeros(len(rows), dtype=bool), incumbent, model.y_std)
            masked_something += int(np.any(unmasked[evaluated] > 0.0))
    assert masked_something > 0


def test_walk_matches_the_batch_scored_walk():
    rng = np.random.default_rng(41)
    for trial in range(300):
        d = 2 + trial % 11
        family = MALLOWS if trial % 3 else KENDALL
        model, start, incumbent = _case(rng, d, family)
        max_steps = (1, 2)[trial % 2] if trial % 7 == 0 else 10 * num_pairs(d)

        def neg_ei(p):
            return -_masked_batch_ei(model, p.values[None, :], incumbent)[0]

        def neighbourhood(values):
            return -swap_neighbour_ei(model, values, incumbent)

        want, want_v = _batch_walk(model, start, incumbent, max_steps)
        got, got_v = local_search(neg_ei, start, max_steps, neighbourhood)
        np.testing.assert_array_equal(got.values, want)
        assert got_v == want_v
