import math

import numpy as np
import pytest

from permbo.benchmarks import (
    QapInstance,
    SyntheticObjective,
    TspInstance,
    bundled_instance_text,
    format_qaplib,
    format_tsplib,
    parse_qaplib,
    parse_tsplib,
    qap_objective,
    synthetic_objective,
    tsp_tour_length,
)
from permbo.optimizers import brute_force_argmin
from permbo.perm import Permutation, identity, num_pairs, permutation_matrix, random_permutation

HAND_QAP = "2\n0 1\n1 0\n0 3\n3 0"

TRIANGLE_TSP = """NAME : tri
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


def tour_length_oracle(coords, perm):
    # Independent evaluation of the per-edge nearest-integer rule.
    total = 0
    n = len(perm)
    for i in range(n):
        a = coords[perm[i]]
        b = coords[perm[(i + 1) % n]]
        total += int(math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) + 0.5)
    return float(total)


class TestQaplibParsing:
    def test_hand_instance(self):
        inst = parse_qaplib(HAND_QAP)
        assert inst.n == 2
        np.testing.assert_array_equal(inst.A, [[0, 1], [1, 0]])
        np.testing.assert_array_equal(inst.B, [[0, 3], [3, 0]])

    def test_bundled_n15_instance(self):
        inst = parse_qaplib(bundled_instance_text("qap15.dat"))
        assert inst.n == 15
        assert inst.A.shape == (15, 15) and inst.B.shape == (15, 15)

    def test_arbitrary_line_breaks(self):
        inst = parse_qaplib("2 0 1 1 0 0 3 3 0")
        assert inst.n == 2

    def test_trailing_values_rejected(self):
        with pytest.raises(ValueError, match=r"has 1 value\(s\) after matrix B; n = 2 takes 9"):
            parse_qaplib("2 0 1 1 0 0 1 1 0 99")

    def test_truncated_b(self):
        with pytest.raises(ValueError, match="truncated"):
            parse_qaplib("2\n0 1 1 0\n0 3")

    def test_non_numeric_token(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_qaplib("2\n0 1 1 x\n0 3 3 0")

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            parse_qaplib("1\n0\n0")

    @pytest.mark.parametrize("size", ["inf", "-inf", "nan", "2.5", "1e400"])
    def test_invalid_size_token(self, size):
        with pytest.raises(ValueError, match="n"):
            parse_qaplib(f"{size}\n0 1 1 0\n0 3 3 0")

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("matrix", ["A", "B"])
    def test_non_finite_entry(self, token, matrix):
        a, b = ["0", "1", "1", "0"], ["0", "3", "3", "0"]
        (a if matrix == "A" else b)[2] = token
        with pytest.raises(ValueError, match=f"non-finite value while reading matrix {matrix}"):
            parse_qaplib("2\n" + " ".join(a) + "\n" + " ".join(b))

    def test_instance_rejects_non_finite_matrix(self):
        ok = np.ones((2, 2))
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="matrix B entries must be finite"):
                QapInstance(n=2, A=ok, B=np.array([[0.0, bad], [1.0, 0.0]]))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        n = 6
        A = rng.integers(0, 20, (n, n)).astype(float)
        B = rng.integers(0, 20, (n, n)).astype(float)
        inst = QapInstance(n=n, A=A, B=B)
        again = parse_qaplib(format_qaplib(inst))
        assert again.n == inst.n
        np.testing.assert_array_equal(again.A, inst.A)
        np.testing.assert_array_equal(again.B, inst.B)

    def test_bundled_round_trip(self):
        inst = parse_qaplib(bundled_instance_text("qap15.dat"))
        again = parse_qaplib(format_qaplib(inst))
        np.testing.assert_array_equal(again.A, inst.A)
        np.testing.assert_array_equal(again.B, inst.B)


class TestQapObjective:
    def test_identity_is_elementwise_product_sum(self):
        inst = parse_qaplib(bundled_instance_text("qap15.dat"))
        got = qap_objective(inst, identity(15))
        assert got == pytest.approx(float(np.sum(inst.A * inst.B)), rel=1e-12)

    def test_hand_value(self):
        inst = parse_qaplib(HAND_QAP)
        assert qap_objective(inst, Permutation([0, 1])) == 6.0

    def test_matches_dense_trace_oracle(self):
        rng = np.random.default_rng(1)
        for d in (3, 4, 5):
            A = rng.standard_normal((d, d))
            A = A + A.T
            B = rng.standard_normal((d, d))
            B = B + B.T
            inst = QapInstance(n=d, A=A, B=B)
            for _ in range(10):
                p = random_permutation(d, rng)
                P = permutation_matrix(p)
                want = float(np.trace(A @ P @ B @ P.T))
                assert qap_objective(inst, p) == pytest.approx(want, abs=1e-10)

    def test_dimension_mismatch(self):
        inst = parse_qaplib(HAND_QAP)
        with pytest.raises(ValueError):
            qap_objective(inst, Permutation([0, 1, 2]))


class TestTsplibParsing:
    def test_minimal_file(self):
        inst = parse_tsplib(TRIANGLE_TSP)
        assert inst.n == 3
        np.testing.assert_array_equal(inst.coords, [[0, 0], [3, 0], [0, 4]])

    def test_unsupported_edge_weight_type(self):
        with pytest.raises(ValueError, match="EDGE_WEIGHT_TYPE"):
            parse_tsplib(TRIANGLE_TSP.replace("EUC_2D", "GEO"))

    def test_coordinate_count_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            parse_tsplib(TRIANGLE_TSP.replace("DIMENSION : 3", "DIMENSION : 5"))

    def test_missing_dimension(self):
        bad = "\n".join(
            line for line in TRIANGLE_TSP.splitlines() if not line.startswith("DIMENSION")
        )
        with pytest.raises(ValueError, match="DIMENSION"):
            parse_tsplib(bad)

    @pytest.mark.parametrize("value", ["abc", "3.0"])
    def test_non_integer_dimension(self, value):
        with pytest.raises(ValueError, match=f"DIMENSION must be an integer, got '{value}'"):
            parse_tsplib(TRIANGLE_TSP.replace("DIMENSION : 3", f"DIMENSION : {value}"))

    @pytest.mark.parametrize("line", ["1 a 0", "1 0"])
    def test_malformed_coordinate_line(self, line):
        with pytest.raises(ValueError, match=f"malformed coordinate line: '{line}'"):
            parse_tsplib(TRIANGLE_TSP.replace("1 0 0", line))

    def test_subset_keeps_first_nodes(self):
        inst = parse_tsplib(bundled_instance_text("pcb10.tsp"), subset=5)
        full = parse_tsplib(bundled_instance_text("pcb10.tsp"))
        assert inst.n == 5
        np.testing.assert_array_equal(inst.coords, full.coords[:5])

    def test_round_trip(self):
        inst = parse_tsplib(bundled_instance_text("pcb10.tsp"))
        again = parse_tsplib(format_tsplib(inst))
        assert again.n == inst.n
        np.testing.assert_array_equal(again.coords, inst.coords)


class TestTourLength:
    def test_right_triangle(self):
        inst = parse_tsplib(TRIANGLE_TSP)
        for p in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
            assert tsp_tour_length(inst, Permutation(p)) == 12.0

    def test_cyclic_shift_and_reversal_invariance(self):
        inst = parse_tsplib(bundled_instance_text("pcb10.tsp"))
        rng = np.random.default_rng(2)
        p = random_permutation(10, rng)
        base = tsp_tour_length(inst, p)
        shifted = Permutation(list(np.roll(p.values, 3)))
        reversed_ = Permutation(list(p.values[::-1]))
        assert tsp_tour_length(inst, shifted) == base
        assert tsp_tour_length(inst, reversed_) == base

    def test_unit_square_tours_with_rounding_rule(self):
        # Both the perimeter and the crossing tour evaluate to 4 under
        # per-edge nearest-integer rounding (sqrt(2) rounds to 1).
        inst = TspInstance(n=4, coords=np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        perimeter = Permutation([0, 1, 2, 3])
        crossing = Permutation([0, 2, 1, 3])
        assert tour_length_oracle(inst.coords, list(perimeter)) == 4.0
        assert tour_length_oracle(inst.coords, list(crossing)) == 4.0
        assert tsp_tour_length(inst, perimeter) == 4.0
        assert tsp_tour_length(inst, crossing) == 4.0

    def test_matches_oracle_on_random_tours(self):
        inst = parse_tsplib(bundled_instance_text("pcb10.tsp"))
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = random_permutation(10, rng)
            assert tsp_tour_length(inst, p) == tour_length_oracle(inst.coords, list(p))

    def test_nonnegative(self):
        inst = parse_tsplib(bundled_instance_text("pcb10.tsp"))
        rng = np.random.default_rng(4)
        assert tsp_tour_length(inst, random_permutation(10, rng)) >= 0


class TestSynthetic:
    def test_zero_at_target(self):
        rng = np.random.default_rng(5)
        target = random_permutation(6, rng)
        s = SyntheticObjective(target=target)
        assert synthetic_objective(s, target) == 0.0

    def test_reversal_attains_max_distance(self):
        target = Permutation([0, 1, 2, 3, 4])
        s = SyntheticObjective(target=target)
        rev = Permutation([4, 3, 2, 1, 0])
        assert synthetic_objective(s, rev) == num_pairs(5)

    def test_brute_force_argmin_is_target(self):
        rng = np.random.default_rng(6)
        for d in (5, 6, 7):
            target = random_permutation(d, rng)
            s = SyntheticObjective(target=target)
            p, v = brute_force_argmin(lambda q: synthetic_objective(s, q), d)
            assert p == target
            assert v == 0.0

    def test_noise_requires_rng_and_is_seeded(self):
        target = Permutation([0, 1, 2])
        s = SyntheticObjective(target=target, noise_sd=0.5)
        with pytest.raises(ValueError):
            synthetic_objective(s, target)
        a = synthetic_objective(s, target, np.random.default_rng(1))
        b = synthetic_objective(s, target, np.random.default_rng(1))
        assert a == b != 0.0

    def test_validation(self):
        target = Permutation([0, 1, 2])
        for noise_sd in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_sd"):
                SyntheticObjective(target=target, noise_sd=noise_sd)
        with pytest.raises(ValueError):
            synthetic_objective(
                SyntheticObjective(target=target), Permutation([0, 1, 2, 3])
            )
