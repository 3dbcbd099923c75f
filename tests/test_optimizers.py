import itertools
import math

import numpy as np
import pytest

from permbo.accel import ts_swap_deltas, ts_trace_batch
from permbo.acquisition import build_qap
from permbo.optimizers import (
    brute_force_argmin,
    local_search,
    max_steps,
    multi_restart_candidates,
    solve_qap_exhaustive,
    solve_ts_qap_candidates,
    swap_descent,
)
from permbo.perm import (
    Permutation,
    discordant_pairs,
    identity,
    num_pairs,
    random_permutation,
    swap_neighbor_matrix,
    swap_neighbors,
)


def distance_objective(target):
    return lambda p: float(discordant_pairs(p, target))


def random_qap_objective(d, rng):
    w = rng.standard_normal(num_pairs(d))
    q = build_qap(w, d)
    iu, ju = np.triu_indices(d, 1)
    wv = q.W[iu, ju]

    def objective(p):
        return float(np.sum(wv * np.sign(p.values[iu] - p.values[ju])))

    return objective, q


def best_of_restarts(objective, d, restarts, rng):
    return min(multi_restart_candidates(objective, d, restarts, rng), key=lambda r: r[1])


class TestSearchLimits:
    def test_step_cap(self):
        assert max_steps(6) == 10 * 15
        assert max_steps(2) == 10

    def test_restart_count_validation(self):
        objective, q = random_qap_objective(4, np.random.default_rng(0))
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                multi_restart_candidates(objective, 4, restarts, np.random.default_rng(0))
            with pytest.raises(ValueError, match="restarts must be >= 1"):
                solve_ts_qap_candidates(q, restarts, np.random.default_rng(0))


class TestBruteForce:
    def test_recovers_distance_minimizer(self):
        rng = np.random.default_rng(0)
        target = random_permutation(5, rng)
        p, v = brute_force_argmin(distance_objective(target), 5)
        assert p == target
        assert v == 0.0

    def test_constant_objective_tie_breaks_to_identity(self):
        p, v = brute_force_argmin(lambda _: 1.0, 4)
        assert p == identity(4)
        assert v == 1.0

    def test_dominates_full_reenumeration(self):
        rng = np.random.default_rng(1)
        objective, _ = random_qap_objective(4, rng)
        _, v = brute_force_argmin(objective, 4)
        for tup in itertools.permutations(range(4)):
            assert v <= objective(Permutation(list(tup))) + 1e-12

    def test_rejects_large_d(self):
        with pytest.raises(ValueError):
            brute_force_argmin(lambda p: 0.0, 10)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_no_value_below_inf_raises(self, value):
        # A plain check, not an assert, so it also holds under python -O.
        with pytest.raises(ValueError, match="inf or nan on every permutation of size 3"):
            brute_force_argmin(lambda p: value, 3)


class TestLocalSearch:
    def test_fixed_point_returned_unchanged(self):
        rng = np.random.default_rng(2)
        target = random_permutation(6, rng)
        p, v = local_search(distance_objective(target), target, max_steps=100)
        assert p == target
        assert v == 0.0

    def test_distance_objective_has_no_local_minima(self):
        # Best-improvement descent on the pair-count distance always reaches
        # the target; certified against brute force for d up to 7.
        rng = np.random.default_rng(3)
        for d in range(3, 8):
            target = random_permutation(d, rng)
            objective = distance_objective(target)
            oracle_p, oracle_v = brute_force_argmin(objective, d)
            assert oracle_p == target and oracle_v == 0.0
            for _ in range(20):
                start = random_permutation(d, rng)
                p, v = local_search(objective, start, max_steps=1000)
                assert p == target
                assert v == 0.0

    def test_result_never_worse_than_start(self):
        rng = np.random.default_rng(4)
        objective, _ = random_qap_objective(7, rng)
        for _ in range(20):
            start = random_permutation(7, rng)
            _, v = local_search(objective, start, max_steps=1000)
            assert v <= objective(start) + 1e-12

    def test_no_improving_neighbor_at_convergence(self):
        rng = np.random.default_rng(5)
        for d in (4, 6, 8):
            objective, _ = random_qap_objective(d, rng)
            for _ in range(10):
                start = random_permutation(d, rng)
                p, v = local_search(objective, start, max_steps=10 * num_pairs(d))
                for n in swap_neighbors(p):
                    assert objective(n) >= v - 1e-12

    def test_accepted_values_strictly_decrease(self):
        rng = np.random.default_rng(6)
        objective, _ = random_qap_objective(6, rng)
        start = random_permutation(6, rng)
        trajectory = [objective(start)]
        for steps in range(1, 40):
            _, v = local_search(objective, start, max_steps=steps)
            if v == trajectory[-1]:
                break
            trajectory.append(v)
        assert all(a > b for a, b in zip(trajectory, trajectory[1:]))

    def test_batch_objective_agrees(self):
        rng = np.random.default_rng(7)
        objective, q = random_qap_objective(6, rng)
        iu, ju = np.triu_indices(6, 1)
        wv = q.W[iu, ju]

        def neighbourhood(values):
            rows = swap_neighbor_matrix(values)
            return np.sign(rows[:, iu] - rows[:, ju]) @ wv

        start = random_permutation(6, rng)
        p1, v1 = local_search(objective, start, max_steps=500)
        p2, v2 = local_search(objective, start, max_steps=500, neighbourhood=neighbourhood)
        assert p1 == p2 and v1 == pytest.approx(v2, abs=1e-12)


class TestMultiRestart:
    def test_single_restart_equals_local_search(self):
        rng_a = np.random.default_rng(8)
        rng_b = np.random.default_rng(8)
        objective, _ = random_qap_objective(6, np.random.default_rng(99))
        p1, v1 = best_of_restarts(objective, 6, 1, rng_a)
        start = random_permutation(6, rng_b)
        p2, v2 = local_search(objective, start, max_steps(6))
        assert p1 == p2 and v1 == v2

    def test_matches_brute_force_often(self):
        hits = 0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            objective, _ = random_qap_objective(5, rng)
            _, v_star = brute_force_argmin(objective, 5)
            _, v = best_of_restarts(objective, 5, 20, np.random.default_rng(trial))
            hits += abs(v - v_star) < 1e-10
        assert hits >= 18

    def test_more_restarts_never_worse_on_shared_prefix(self):
        objective, _ = random_qap_objective(7, np.random.default_rng(11))
        v5 = best_of_restarts(objective, 7, 5, np.random.default_rng(123))[1]
        v20 = best_of_restarts(objective, 7, 20, np.random.default_rng(123))[1]
        assert v20 <= v5

    def test_seed_determinism(self):
        objective, _ = random_qap_objective(6, np.random.default_rng(12))
        r1 = best_of_restarts(objective, 6, 4, np.random.default_rng(5))
        r2 = best_of_restarts(objective, 6, 4, np.random.default_rng(5))
        assert r1[0] == r2[0] and r1[1] == r2[1]

    def test_candidates_best_first_in_restart_order_among_ties(self):
        # Capped at 3, the distance objective strands far starts on a
        # plateau, so restarts end on 0 or 3 and tie within each.
        target = random_permutation(5, np.random.default_rng(13))
        objective = lambda p: min(discordant_pairs(p, target), 3.0)  # noqa: E731
        cands = multi_restart_candidates(objective, 5, 12, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        starts = [random_permutation(5, rng) for _ in range(12)]
        results = [local_search(objective, s, max_steps(5)) for s in starts]
        assert sorted({v for _, v in results}) == [0.0, 3.0]
        assert cands == [r for v in (0.0, 3.0) for r in results if r[1] == v]


def solve_ts_qap(q, restarts, rng):
    return solve_ts_qap_candidates(q, restarts, rng)[0][0]


class TestSolveTsQap:
    def test_d2_picks_the_better_of_both(self):
        for c in (1.0, -1.0):
            q = build_qap(np.array([c]), 2)
            p = solve_ts_qap(q, 2, np.random.default_rng(0))
            # identity scores -c, the swap scores +c
            want = Permutation([0, 1]) if c > 0 else Permutation([1, 0])
            assert p == want

    def test_matches_brute_force_value(self):
        rng = np.random.default_rng(14)
        for d in (3, 4, 5, 6):
            for trial in range(5):
                w = rng.standard_normal(num_pairs(d))
                q = build_qap(w, d)
                _, v_star = solve_qap_exhaustive(q)
                p = solve_ts_qap(q, 10, np.random.default_rng(trial))
                iu, ju = np.triu_indices(d, 1)
                v = float(np.sum(q.W[iu, ju] * np.sign(p.values[iu] - p.values[ju])))
                assert v == pytest.approx(v_star, abs=1e-10)

    def test_output_is_valid_bijection(self):
        rng = np.random.default_rng(15)
        q = build_qap(rng.standard_normal(num_pairs(8)), 8)
        p = solve_ts_qap(q, 3, rng)
        Permutation(list(p))

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal(num_pairs(5))
        q1 = build_qap(w, 5)
        q2 = build_qap(3.5 * w, 5)
        _, v1 = solve_qap_exhaustive(q1)
        p1, _ = solve_qap_exhaustive(q1)
        p2, v2 = solve_qap_exhaustive(q2)
        assert p1 == p2
        assert v2 == pytest.approx(3.5 * v1, rel=1e-12)

    def test_best_of_candidates(self):
        q = build_qap(np.random.default_rng(17).standard_normal(num_pairs(9)), 9)
        cands = solve_ts_qap_candidates(q, 6, np.random.default_rng(4))
        assert len(cands) == 6
        assert [v for _, v in cands] == sorted(v for _, v in cands)


def ts_walk(W, starts, max_steps):
    """The bops-t walk: traces relative to each start, scored by swap deltas."""
    g = W - W.T
    scores = lambda rows, v: v[:, None] + ts_swap_deltas(g, rows)  # noqa: E731
    finals, _ = swap_descent(scores, starts, np.zeros(len(starts)), max_steps)
    return finals, ts_trace_batch(W, finals)


def distance_neighbourhood(target):
    """Batch scorer of the pair-count distance to ``target``, from built neighbour rows."""
    def scores(rows, _):
        return np.array([
            [discordant_pairs(Permutation(list(n)), target) for n in swap_neighbor_matrix(r)]
            for r in rows
        ], dtype=np.float64)

    return scores


class TestTsSwapDescent:
    def test_walks_like_local_search_on_the_full_trace(self):
        # The walk scored by trace deltas must take the walk scored by the
        # full trace objective step for step, so both end on the same
        # permutation.
        rng = np.random.default_rng(18)
        for trial in range(300):
            d = 3 + trial % 13
            objective, q = random_qap_objective(d, rng)
            start = random_permutation(d, rng)
            max_steps = 10 * num_pairs(d)
            want, want_v = local_search(objective, start, max_steps)
            finals, values = ts_walk(q.W, start.values[None, :], max_steps)
            assert Permutation(list(finals[0])) == want
            assert values[0] == pytest.approx(want_v, abs=1e-10)

    def test_rows_step_independently_and_respect_the_cap(self):
        rng = np.random.default_rng(19)
        d = 10
        objective, q = random_qap_objective(d, rng)
        starts = np.stack([random_permutation(d, rng).values for _ in range(8)])
        for max_steps in (0, 1, 3, 1000):
            finals, values = ts_walk(q.W, starts, max_steps)
            for start, final, v in zip(starts, finals, values):
                want, want_v = local_search(objective, Permutation(list(start)), max_steps)
                assert Permutation(list(final)) == want
                assert v == pytest.approx(want_v, abs=1e-10)
        np.testing.assert_array_equal(ts_walk(q.W, starts, 0)[0], starts)
        # A flat objective has no strictly improving move anywhere.
        flat, _ = ts_walk(np.zeros((d, d)), starts, 1)
        np.testing.assert_array_equal(flat, starts)


class TestSwapDescent:
    def test_nan_neighbour_stops_its_row(self):
        rng = np.random.default_rng(20)
        d = 6
        target = random_permutation(d, rng)
        distance = distance_neighbourhood(target)
        starts = np.stack([random_permutation(d, rng).values for _ in range(3)])
        starts[1] = target.values[::-1]  # far from the target, so it would move
        values = np.array([float(discordant_pairs(Permutation(list(s)), target)) for s in starts])

        def scores(rows, v):
            out = distance(rows, v)
            out[np.all(rows == starts[1], axis=1), -1] = np.nan  # the last pair, after the best one
            return out

        finals, finals_v = swap_descent(scores, starts, values, 1000)
        np.testing.assert_array_equal(finals[1], starts[1])
        assert finals_v[1] == values[1]
        for r in (0, 2):
            np.testing.assert_array_equal(finals[r], target.values)
            assert finals_v[r] == 0.0
