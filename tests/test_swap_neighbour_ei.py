"""The bops-h neighbourhood scorer against EI on explicitly built neighbour rows.

``acquisition.swap_neighbour_ei`` never builds the 2-swap neighbours, and
it scores the neighbourhoods of a whole (A, d) batch of rows at once. Row
r must still give, bit for bit, what batch EI gives on
``swap_neighbor_matrix`` of row r alone, with evaluated points masked to
zero, and the lockstep descent it drives must take the walk that each
start takes alone. That holds at every d, d = 2 included, where each row
has a single neighbour.
"""

import numpy as np
import pytest

from permbo import accel, gp
from permbo.acquisition import _ei, expected_improvement_batch, swap_neighbour_ei
from permbo.gp import fit, predict_batch, predict_swap_neighbours
from permbo.kernels import KENDALL, MALLOWS
from permbo.optimizers import swap_descent
from permbo.perm import Permutation, num_pairs, random_permutation, swap_neighbor_matrix

#: Rows scored together: one, two, and the sizes a 10-restart search steps.
BATCHES = (1, 2, 7, 10)
#: Training-set sizes beyond the small random ones; 159 is the largest n
#: of the ``bopsh-d6`` benchmark workload.
LARGE_N = (40, 159)


def _case(rng, d, family, a, n=None):
    """A fitted model, an (a, d) batch of rows and an incumbent.

    The first row and some of its swap neighbours are training points, as
    are some other rows, so the mask has work to do; the incumbent is
    sometimes well above the best value, which gives evaluated points a
    large unmasked EI.
    """
    rows = np.stack([random_permutation(d, rng).values for _ in range(a)])
    n = int(rng.integers(2, 20)) if n is None else n
    xs = [random_permutation(d, rng) for _ in range(n)]
    neighbours = swap_neighbor_matrix(rows[0])
    picked = rng.choice(len(neighbours), size=min(len(neighbours), 3), replace=False)
    xs += [Permutation(list(neighbours[k])) for k in picked]
    xs += [Permutation(list(r)) for r in rows if rng.random() < 0.3]
    ys = rng.standard_normal(len(xs))
    model = fit(family, xs, ys)
    incumbent = float(np.min(ys) if rng.random() < 0.5 else np.quantile(ys, 0.8))
    return model, rows, incumbent


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
    current = start
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
        for i, a in enumerate(BATCHES):
            n = LARGE_N[(d + i) % 2] if i == 3 else None
            model, rows, incumbent = _case(rng, d, family, a, n)
            means, variances, evaluated = predict_swap_neighbours(model, rows)
            got = swap_neighbour_ei(model, rows, incumbent)
            shape = (a, num_pairs(d))
            assert means.shape == variances.shape == evaluated.shape == got.shape == shape
            seen = _seen(model)
            for r, row in enumerate(rows):
                built = swap_neighbor_matrix(row)
                want_means, want_variances, want_evaluated = predict_batch(model, built)
                want_ei = _masked_batch_ei(model, built, incumbent)
                assert means[r].tobytes() == want_means.tobytes()
                assert list(evaluated[r]) == [b.tobytes() in seen for b in built]
                assert list(want_evaluated) == list(evaluated[r])
                assert variances[r].tobytes() == want_variances.tobytes()
                assert got[r].tobytes() == want_ei.tobytes()
            unmasked = _ei(means, variances, np.zeros_like(evaluated), incumbent, model.y_std)
            masked_something += int(np.any(unmasked[evaluated] > 0.0))
    assert masked_something > 0


def test_walk_matches_the_batch_scored_walk():
    # The lockstep descent over a batch of starts, scored by the batched
    # scorer, against each start's walk scored on built neighbour rows.
    rng = np.random.default_rng(41)
    for trial in range(150):
        d = 2 + trial % 11
        family = MALLOWS if trial % 3 else KENDALL
        a = BATCHES[trial % 4]
        n = LARGE_N[trial % 2] if trial % 25 == 0 else None
        model, starts, incumbent = _case(rng, d, family, a, n)
        max_steps = (1, 2)[trial % 2] if trial % 7 == 0 else 10 * num_pairs(d)
        start_values = [-_masked_batch_ei(model, s[None, :], incumbent)[0] for s in starts]
        scores = lambda rows, _: -swap_neighbour_ei(model, rows, incumbent)  # noqa: E731
        got, got_v = swap_descent(scores, starts, start_values, max_steps)
        for start, row, v in zip(starts, got, got_v):
            want, want_v = _batch_walk(model, start, incumbent, max_steps)
            np.testing.assert_array_equal(row, want)
            assert v == want_v


def test_a_batch_scanned_in_slices_of_rows_keeps_its_bits():
    # A batch larger than ``gp.SCAN_ENTRIES`` allows is scanned a slice of
    # rows at a time, which changes no bits.
    rng = np.random.default_rng(44)
    scans = []

    def counted(signs, perms):
        scans.append(len(perms))
        return swap_discordances(signs, perms)

    swap_discordances = accel.swap_discordances
    for d in (2, 3, 6, 15):
        for family in (KENDALL, MALLOWS):
            model, rows, _ = _case(rng, d, family, 10, 40)
            whole = predict_swap_neighbours(model, rows)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gp, "SCAN_ENTRIES", 3 * num_pairs(d) * model.n + 1)
                mp.setattr(accel, "swap_discordances", counted)
                scans.clear()
                sliced = predict_swap_neighbours(model, rows)
            assert scans == [3, 3, 3, 1]
            for got, want in zip(sliced, whole, strict=True):
                assert got.tobytes() == want.tobytes()
