import math
import re

import numpy as np
import pytest

from permbo.perm import (
    Permutation,
    compose,
    discordant_pairs,
    identity,
    kendall_feature_map,
    num_pairs,
    permutation_matrix,
    random_permutation,
    swap_neighbors,
)


def nd_oracle(a: Permutation, b: Permutation) -> int:
    # Independent pair enumeration, deliberately plain Python.
    count = 0
    d = a.d
    for i in range(d):
        for j in range(i + 1, d):
            if (a[i] < a[j]) != (b[i] < b[j]):
                count += 1
    return count


class TestConstruction:
    def test_identity_is_valid(self):
        p = Permutation([0, 1, 2])
        assert p.d == 3
        assert list(p) == [0, 1, 2]

    def test_three_cycle_is_valid(self):
        assert Permutation([2, 0, 1]).d == 3

    def test_duplicate_value_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Permutation([1, 2, 3])

    @pytest.mark.parametrize("mapping", [[0.9, 1.1], [1.7, 0.2], [1.0, math.nan], [math.inf, 0.0]])
    def test_non_integral_entries_rejected(self, mapping):
        # Truncating would turn [0.9, 1.1] into [0, 1] and [1.7, 0.2] into [1, 0].
        with pytest.raises(ValueError, match=re.escape(repr(mapping))):
            Permutation(mapping)

    def test_integral_floats_accepted(self):
        assert Permutation([1.0, 0.0, 2.0]) == Permutation([1, 0, 2])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Permutation([0])

    def test_values_are_read_only(self):
        p = Permutation([1, 0])
        with pytest.raises(ValueError):
            p.values[0] = 0

    def test_serialize_parse_round_trip(self):
        p = Permutation([2, 0, 1])
        assert p.serialize() == "2,0,1"
        assert Permutation.parse(p.serialize()) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Permutation.parse("2,x,1")

    def test_equality_and_hash(self):
        assert Permutation([1, 0, 2]) == Permutation([1, 0, 2])
        assert Permutation([1, 0, 2]) != Permutation([0, 1, 2])
        assert hash(Permutation([1, 0, 2])) == hash(Permutation([1, 0, 2]))


class TestRandomPermutation:
    def test_uniform_on_s2(self):
        rng = np.random.default_rng(0)
        counts = {}
        for _ in range(10000):
            key = random_permutation(2, rng).serialize()
            counts[key] = counts.get(key, 0) + 1
        for key in ("0,1", "1,0"):
            assert abs(counts[key] / 10000 - 0.5) < 0.02

    def test_uniform_on_s3_chi_square(self):
        rng = np.random.default_rng(1)
        n = 60000
        counts = {}
        for _ in range(n):
            key = random_permutation(3, rng).serialize()
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = n / 6
        for c in counts.values():
            assert abs(c / n - 1 / 6) < 0.01
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 0.999 quantile of chi-square with 5 dof is 20.5
        assert chi2 < 20.5

    def test_seed_determinism(self):
        a = random_permutation(8, np.random.default_rng(42))
        b = random_permutation(8, np.random.default_rng(42))
        assert a == b

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            random_permutation(1, np.random.default_rng(0))


class TestDiscordantPairs:
    def test_identical_is_zero(self):
        p = Permutation([0, 1, 2])
        assert discordant_pairs(p, p) == 0

    def test_full_reversal(self):
        assert discordant_pairs(Permutation([0, 1, 2, 3]), Permutation([3, 2, 1, 0])) == 6

    def test_single_swap(self):
        assert discordant_pairs(Permutation([0, 1, 2]), Permutation([0, 2, 1])) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            discordant_pairs(Permutation([0, 1]), Permutation([0, 1, 2]))

    def test_matches_oracle_and_symmetry(self):
        rng = np.random.default_rng(2)
        pairs = 0
        while pairs < 1000:
            for d in range(3, 13):
                a, b = random_permutation(d, rng), random_permutation(d, rng)
                nd = discordant_pairs(a, b)
                assert nd == nd_oracle(a, b)
                assert nd == discordant_pairs(b, a)
                pairs += 1

    def test_right_invariance(self):
        rng = np.random.default_rng(3)
        for d in range(3, 10):
            a, b, t = (random_permutation(d, rng) for _ in range(3))
            assert discordant_pairs(compose(a, t), compose(b, t)) == discordant_pairs(a, b)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = random_permutation(6, rng), random_permutation(6, rng)
            assert (discordant_pairs(a, b) == 0) == (a == b)


class TestFeatureMap:
    def test_length(self):
        assert kendall_feature_map(Permutation([4, 1, 3, 0, 2])).shape == (10,)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for d in (3, 5, 9, 12):
            phi = kendall_feature_map(random_permutation(d, rng))
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12

    def test_identity_all_negative(self):
        phi = kendall_feature_map(Permutation([0, 1, 2]))
        np.testing.assert_allclose(phi, -np.sqrt(1 / 3) * np.ones(3), atol=1e-15)

    def test_inner_product_is_kendall_kernel(self):
        # Oracle: brute-force pair enumeration.
        rng = np.random.default_rng(6)
        for d in range(3, 13):
            for _ in range(25):
                a, b = random_permutation(d, rng), random_permutation(d, rng)
                m = num_pairs(d)
                want = (m - 2 * nd_oracle(a, b)) / m
                got = kendall_feature_map(a) @ kendall_feature_map(b)
                assert abs(got - want) < 1e-12


class TestNeighbors:
    def test_count(self):
        p = Permutation([4, 1, 3, 0, 2])
        neigh = swap_neighbors(p)
        assert len(neigh) == 10
        assert len(set(neigh)) == 10

    def test_s2(self):
        assert [n.serialize() for n in swap_neighbors(Permutation([0, 1]))] == ["1,0"]

    def test_neighbors_are_valid_and_distinct_from_origin(self):
        rng = np.random.default_rng(7)
        p = random_permutation(7, rng)
        for n in swap_neighbors(p):
            Permutation(list(n))  # re-validate
            assert discordant_pairs(n, p) >= 1


class TestComposeInverse:
    def test_identity_law(self):
        rng = np.random.default_rng(8)
        p = random_permutation(6, rng)
        assert compose(identity(6), p) == p
        assert compose(p, identity(6)) == p

    def test_inverse_law(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_permutation(7, rng)
            inv = Permutation(np.argsort(p.values))
            assert compose(p, inv) == identity(7)
            assert compose(inv, p) == identity(7)

    def test_mutually_inverse_cycles(self):
        assert compose(Permutation([1, 2, 0]), Permutation([2, 0, 1])) == identity(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation([0, 1]), Permutation([0, 1, 2]))


class TestPermutationMatrix:
    def test_one_per_row_and_column(self):
        rng = np.random.default_rng(10)
        p = random_permutation(6, rng)
        P = permutation_matrix(p)
        np.testing.assert_array_equal(P.sum(axis=0), np.ones(6))
        np.testing.assert_array_equal(P.sum(axis=1), np.ones(6))

    def test_matrix_applies_permutation(self):
        p = Permutation([2, 0, 1])
        P = permutation_matrix(p)
        v = np.array([10.0, 20.0, 30.0])
        # P v gathers: (P v)[i] = v[p(i)]
        np.testing.assert_array_equal(P @ v, v[p.values])
