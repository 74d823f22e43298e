import math

import numpy as np
import pytest

from quantumdesks import (
    COMPOUND_STRATEGIES,
    ClassicalMatrix,
    JointDistribution,
    ObservableFrame,
    PayoffCoefficients,
    ProbabilityQuadruple,
    bilinear_payoff,
    classical_matrix,
    conic_residual,
    independent_joint,
    is_product_form,
    marginals,
    probabilities_from_angle,
    scalar_payoff,
    desk_payoff,
    solve_classical,
    swapped_labels,
)
from quantumdesks import classical
from quantumdesks.classical import desk_table
from conftest import random_spec, solve_by_support_enumeration

#: stakes at the edges of the float range the CLI admits
EDGE_STAKES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -2.5,
               1e150, -1e150)


def coefficient_table(c: PayoffCoefficients) -> np.ndarray:
    """The compound matrix written out entry by entry, as an independent check."""
    return np.array([
        [0.0,           c.c4,        c.c3,        c.c3 + c.c4],
        [c.c2,          0.0,         c.c2 + c.c3, c.c3],
        [c.c1,          c.c1 + c.c4, 0.0,         c.c4],
        [c.c1 + c.c2,   c.c1,        c.c2,        0.0],
    ])


class TestClassicalMatrix:
    def test_diagonal_is_zero(self, rng):
        for _ in range(20):
            c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
            assert np.all(np.diag(classical_matrix(c).entries) == 0.0)

    def test_matches_written_out_table(self, rng):
        for _ in range(50):
            c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
            np.testing.assert_array_equal(classical_matrix(c).entries,
                                          coefficient_table(c))

    @pytest.mark.parametrize("shift", range(4))
    def test_is_the_desk_table_summed_bit_for_bit(self, shift):
        rng = np.random.default_rng(shift)
        for _ in range(200):
            c = PayoffCoefficients(*rng.choice(EDGE_STAKES, 4))
            odd, even = desk_table(c)
            assert (odd + even).reshape(4, 4).tobytes() == classical_matrix(c).entries.tobytes()

    def test_desk_table_cells_are_desk_payoffs(self):
        # cell 4*i + j is Alice's compound strategy i against Bob's j
        actions = [tuple(int(a) for a in label.split("-")) for label in COMPOUND_STRATEGIES]
        for c in (PayoffCoefficients(1.0, 2.0, 3.0, 4.0),
                  PayoffCoefficients(-0.0, 5e-324, -1e150, 0.0)):
            odd, even = desk_table(c)
            for i, (a_odd, a_even) in enumerate(actions):
                for j, (b_odd, b_even) in enumerate(actions):
                    want = desk_payoff(a_odd, a_even, b_odd, b_even, c)
                    got = (odd[4 * i + j], even[4 * i + j])
                    assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_double_score_corner(self):
        c = PayoffCoefficients(1.0, 2.0, 3.0, 4.0)
        m = classical_matrix(c).entries
        assert m[0, 3] == c.c3 + c.c4  # 1-2 against 3-4 wins both desks

    def test_unit_coefficients_entry_counts(self):
        m = classical_matrix(PayoffCoefficients(1, 1, 1, 1)).entries
        values, counts = np.unique(m, return_counts=True)
        assert dict(zip(values, counts)) == {0.0: 4, 1.0: 8, 2.0: 4}

    def test_entries_come_from_coefficient_sums(self, rng):
        for _ in range(30):
            c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
            allowed = {0.0, c.c1, c.c2, c.c3, c.c4,
                       c.c1 + c.c4, c.c2 + c.c3, c.c3 + c.c4, c.c1 + c.c2}
            m = classical_matrix(c).entries
            assert all(m[i, j] in allowed for i in range(4) for j in range(4))

    def test_swapped_labels_is_the_documented_swap(self, rng):
        for _ in range(30):
            c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
            s = swapped_labels(c)
            assert (s.c1, s.c2, s.c3, s.c4) == (c.c3, c.c4, c.c1, c.c2)
            np.testing.assert_array_equal(classical_matrix(s).entries,
                                          coefficient_table(swapped_labels(c)))

    def test_symmetric_coefficients_make_conventions_agree(self):
        c = PayoffCoefficients(1, 1, 1, 1)
        np.testing.assert_array_equal(classical_matrix(c).entries,
                                      classical_matrix(swapped_labels(c)).entries)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ClassicalMatrix(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        entries = np.zeros((4, 4))
        entries[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ClassicalMatrix(entries)


def random_desk_sum(rng) -> ClassicalMatrix:
    return classical_matrix(PayoffCoefficients(*rng.uniform(-5, 5, 4)))


def random_matrix(rng) -> ClassicalMatrix:
    return ClassicalMatrix(rng.uniform(-5, 5, (4, 4)))


#: the production solver on the matrices it accepts, and the tests' support
#: enumeration reference on general matrices
SOLVERS = pytest.mark.parametrize(
    "solve, draw", [(solve_classical, random_desk_sum),
                    (solve_by_support_enumeration, random_matrix)],
    ids=["desk_closed_form", "support_enumeration"])


class TestSolveClassical:
    def test_unit_coefficients(self):
        m = classical_matrix(PayoffCoefficients(1, 1, 1, 1))
        got = solve_classical(m)
        assert got.value == pytest.approx(1.0, abs=1e-10)
        # both players mix on both desks, so every joint with those marginals is optimal
        assert got.degenerate
        # uniform mixing guarantees the value against every pure reply
        uniform = np.full(4, 0.25)
        np.testing.assert_allclose(uniform @ m.entries, np.full(4, 1.0), atol=1e-12)

    def test_zero_matrix(self):
        got = solve_classical(ClassicalMatrix(np.zeros((4, 4))))
        assert got.value == pytest.approx(0.0, abs=1e-12)
        assert got.degenerate

    @SOLVERS
    def test_value_within_entry_bounds(self, rng, solve, draw):
        for _ in range(100):
            m = draw(rng)
            got = solve(m)
            assert m.entries.min() - 1e-9 <= got.value <= m.entries.max() + 1e-9

    @SOLVERS
    def test_strategies_guarantee_the_value(self, rng, solve, draw):
        for _ in range(100):
            m = draw(rng)
            got = solve(m)
            assert (got.alice_mixed @ m.entries).min() >= got.value - 1e-7
            assert (m.entries @ got.bob_mixed).max() <= got.value + 1e-7
            assert got.alice_mixed.sum() == pytest.approx(1.0, abs=1e-10)
            assert got.bob_mixed.sum() == pytest.approx(1.0, abs=1e-10)
            assert got.alice_mixed.min() >= 0.0
            assert got.bob_mixed.min() >= 0.0

    def test_pure_saddle_matrix(self):
        m = ClassicalMatrix(np.array([
            [3.0, 4.0, 5.0, 6.0],
            [2.0, 3.0, 4.0, 5.0],
            [1.0, 2.0, 3.0, 4.0],
            [0.0, 1.0, 2.0, 3.0],
        ]))
        got = solve_classical(m)
        assert got.value == pytest.approx(3.0, abs=1e-10)
        np.testing.assert_allclose(got.alice_mixed, [1, 0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(got.bob_mixed, [1, 0, 0, 0], atol=1e-9)
        assert not got.degenerate

    def test_desk_game_gives_product_joints(self):
        # odd desk [[0, 3], [1, 0]] and even desk [[0, 4], [2, 0]] both mix
        got = solve_classical(classical_matrix(PayoffCoefficients(1, 2, 3, 4)))
        assert got.value == pytest.approx(0.75 + 4 / 3, abs=1e-15)
        np.testing.assert_allclose(got.alice_mixed, [1 / 12, 2 / 12, 3 / 12, 6 / 12],
                                   atol=1e-15)
        np.testing.assert_allclose(got.bob_mixed, [6 / 12, 3 / 12, 2 / 12, 1 / 12],
                                   atol=1e-15)

    def test_non_unique_desk_marginal_is_degenerate(self):
        # the odd desk [[0, 1], [0, 0]] leaves Alice free to mix on it
        assert solve_classical(classical_matrix(PayoffCoefficients(0, 1, 1, 0))).degenerate

    def test_rejects_a_matrix_that_is_not_a_desk_sum(self, rng):
        for m in [ClassicalMatrix(np.eye(4)), *(random_matrix(rng) for _ in range(5))]:
            with pytest.raises(ValueError, match="desk games"):
                solve_classical(m)

    def test_a_desk_solution_that_fails_its_check_raises(self, monkeypatch):
        solve_2x2 = classical._solve_2x2

        def wrong_weight(g, eq):
            v, p, q, loose = solve_2x2(g, eq)
            return v, 1.0 - p, q, loose

        monkeypatch.setattr(classical, "_solve_2x2", wrong_weight)
        # Alice's odd-desk weight 1/4 becomes 3/4, which Bob can exploit
        with pytest.raises(ArithmeticError):
            solve_classical(classical_matrix(PayoffCoefficients(1, 2, 3, 4)))


class TestMarginals:
    def test_uniform(self):
        got = marginals(JointDistribution(0.25, 0.25, 0.25, 0.25))
        assert got.as_tuple() == (0.5, 0.5, 0.5, 0.5)

    def test_point_mass(self):
        got = marginals(JointDistribution(1.0, 0.0, 0.0, 0.0))
        assert got.as_tuple() == (1.0, 1.0, 0.0, 0.0)

    def test_product_round_trip_values(self):
        p = ProbabilityQuadruple(0.3, 0.8, 0.7, 0.2)
        got = marginals(independent_joint(p))
        assert got.as_tuple() == pytest.approx((0.3, 0.8, 0.7, 0.2), abs=1e-15)


class TestIndependentJoint:
    def test_uniform(self):
        j = independent_joint(ProbabilityQuadruple(0.5, 0.5, 0.5, 0.5))
        assert j.as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_pure(self):
        j = independent_joint(ProbabilityQuadruple(1.0, 0.0, 0.0, 1.0))
        assert j.as_tuple() == (0.0, 1.0, 0.0, 0.0)

    def test_products(self):
        j = independent_joint(ProbabilityQuadruple(0.3, 0.8, 0.7, 0.2))
        assert j.as_tuple() == pytest.approx((0.24, 0.06, 0.56, 0.14), abs=1e-15)

    def test_round_trip_is_identity_to_one_ulp(self, rng):
        for _ in range(2000):
            p1, p2 = rng.uniform(0, 1, 2)
            p = ProbabilityQuadruple(p1, p2, 1.0 - p1, 1.0 - p2)
            got = marginals(independent_joint(p))
            for a, b in zip(got.as_tuple(), p.as_tuple()):
                assert abs(a - b) <= 2 ** -52

    def test_round_trip_exact_on_dyadic_grid(self):
        for i in range(0, 65, 1):
            for j in range(0, 65, 8):
                p = ProbabilityQuadruple(i / 64, j / 64, 1 - i / 64, 1 - j / 64)
                assert marginals(independent_joint(p)) == p


class TestProductForm:
    def test_independent_joints_pass(self, rng):
        for _ in range(100):
            p1, p2 = rng.uniform(0, 1, 2)
            j = independent_joint(ProbabilityQuadruple(p1, p2, 1 - p1, 1 - p2))
            assert is_product_form(j)

    def test_perfectly_correlated_fails(self):
        assert not is_product_form(JointDistribution(0.5, 0.0, 0.0, 0.5))

    def test_uniform_passes(self):
        assert is_product_form(JointDistribution(0.25, 0.25, 0.25, 0.25))


class TestBilinearPayoff:
    def test_zero_matrix(self):
        j = JointDistribution(0.25, 0.25, 0.25, 0.25)
        assert bilinear_payoff(ClassicalMatrix(np.zeros((4, 4))), j, j) == 0.0

    def test_pure_profile_reads_matrix_entry(self):
        m = classical_matrix(PayoffCoefficients(1, 1, 1, 1))
        alice = JointDistribution(1.0, 0.0, 0.0, 0.0)
        bob = JointDistribution(0.0, 0.0, 0.0, 1.0)
        assert bilinear_payoff(m, alice, bob) == 2.0

    def test_factorizes_through_marginals_for_product_joints(self, rng):
        for _ in range(500):
            c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
            m = classical_matrix(c)
            p1, p2, q1, q2 = rng.uniform(0, 1, 4)
            p = ProbabilityQuadruple(p1, p2, 1 - p1, 1 - p2)
            q = ProbabilityQuadruple(q1, q2, 1 - q1, 1 - q2)
            bil = bilinear_payoff(m, independent_joint(p), independent_joint(q))
            assert abs(bil - scalar_payoff(c, p, q).total) < 1e-12


class TestQuantumConstraintCompatibility:
    def test_independent_joint_keeps_marginals_on_curve(self, rng):
        # independence across desks is compatible with the curve constraint
        for _ in range(200):
            frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            p = probabilities_from_angle(rng.uniform(0, math.pi), frame)
            j = independent_joint(p)
            assert abs(sum(j.as_tuple()) - 1.0) < 1e-12
            m = marginals(j)
            assert abs(conic_residual(m.p1, m.p2, frame)) < 1e-10


class TestJointValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution(-0.1, 0.4, 0.4, 0.3)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            JointDistribution(0.3, 0.3, 0.3, 0.3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            JointDistribution(math.nan, 0.5, 0.25, 0.25)

    def test_strategy_order_is_frozen(self):
        assert COMPOUND_STRATEGIES == ("1-2", "1-4", "3-2", "3-4")
