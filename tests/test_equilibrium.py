import math

import numpy as np
import pytest

from quantumdesks import (
    ClassicalMatrix,
    PayoffCoefficients,
    StateVector,
    build_payoff_operator,
    classical_matrix,
    expectation,
    grid_saddle_oracle,
    payoff_gradient,
    payoff_surface,
    refine_saddle,
    solve_classical,
    verify_saddle,
)
from quantumdesks.equilibrium import (
    FLAG_NO_CONVERGENCE,
    FLAG_NO_SADDLE,
    _solve_by_support_enumeration,
)
from conftest import make_spec, random_spec

DECOUPLED = make_spec(1, 1, 1, 1)  # theta = tau = 0: two independent desk games
# Best-response alternation cycles on this game although it has a saddle.
CYCLING = make_spec(-1.0981505377400527, -1.961827278594611,
                    -0.40901892266008977, 1.1074607257304556,
                    theta=1.519351794949105, lam=2.2196913787118056,
                    tau=1.8585514607845357, mu=1.4784412415750021)
# Alice's maximin has two near-equal peaks; a 128-point scan of it lands
# 1.6e-3 below the true maximin and would report a gap that is not there.
TWIN_PEAKS = make_spec(1.7896301165694202, 0.16551831410018747,
                       0.23798611027010508, 1.500024361702751,
                       theta=1.4111352554881489, lam=0.9265394891125263,
                       tau=1.6130006259466931, mu=1.8659120344359612)


class TestPayoffSurface:
    def test_identical_pure_play_scores_nothing(self):
        assert payoff_surface(DECOUPLED, 0.0, 0.0) == 0.0

    def test_opposed_pure_play(self):
        assert payoff_surface(DECOUPLED, 0.0, math.pi / 2) == pytest.approx(2.0, abs=1e-12)

    def test_matches_operator_expectation(self, rng):
        for _ in range(200):
            spec = random_spec(rng)
            a, b = rng.uniform(0, math.pi, 2)
            e = expectation(build_payoff_operator(spec), StateVector(a), StateVector(b))
            assert abs(payoff_surface(spec, a, b) - e) < 1e-10


class TestPayoffGradient:
    def test_matches_central_differences(self, rng):
        eps = 1e-6
        for _ in range(100):
            spec = random_spec(rng)
            a, b = rng.uniform(0, math.pi, 2)
            ga, gb = payoff_gradient(spec, a, b)
            fa = (payoff_surface(spec, a + eps, b) - payoff_surface(spec, a - eps, b)) / (2 * eps)
            fb = (payoff_surface(spec, a, b + eps) - payoff_surface(spec, a, b - eps)) / (2 * eps)
            assert abs(ga - fa) < 1e-6
            assert abs(gb - fb) < 1e-6


class TestGridSaddleOracle:
    def test_decoupled_game_value(self):
        # each desk is a 2x2 even-money guessing game worth 1/2 to the
        # maximizer at even mixing, so the pair is worth 1 at alpha = pi/4
        got = grid_saddle_oracle(DECOUPLED, 256)
        assert got.value == pytest.approx(1.0, abs=1e-12)
        assert got.max_min == pytest.approx(1.0, abs=1e-12)
        assert got.min_max == pytest.approx(1.0, abs=1e-12)
        assert got.alpha_star == pytest.approx(math.pi / 4, abs=1e-12)
        assert got.beta_star == pytest.approx(math.pi / 4, abs=1e-12)

    def test_zero_game(self):
        got = grid_saddle_oracle(make_spec(0, 0, 0, 0), 64)
        assert got.value == 0.0
        assert got.certificate == 0.0

    def test_minimax_inequality(self, rng):
        for _ in range(30):
            got = grid_saddle_oracle(random_spec(rng), 64)
            assert got.max_min <= got.min_max + 1e-12
            assert got.max_min - 1e-12 <= got.value <= got.min_max + 1e-12

    def test_deterministic(self):
        spec = make_spec(1.0, -0.5, 2.0, 0.25, theta=0.9, lam=0.4, tau=1.7, mu=2.2)
        assert grid_saddle_oracle(spec, 128) == grid_saddle_oracle(spec, 128)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError):
            grid_saddle_oracle(DECOUPLED, 4)


class TestRefineSaddle:
    def test_exact_saddle_seed_is_kept(self):
        got = refine_saddle(DECOUPLED, (math.pi / 4, math.pi / 4))
        assert got.alpha_star == pytest.approx(math.pi / 4, abs=1e-9)
        assert got.beta_star == pytest.approx(math.pi / 4, abs=1e-9)
        assert got.value == pytest.approx(1.0, abs=1e-9)
        assert FLAG_NO_CONVERGENCE not in got.flags

    def test_near_seed_recovers_decoupled_value(self):
        got = refine_saddle(DECOUPLED, (math.pi / 4 + 0.02, math.pi / 4 - 0.01))
        assert got.value == pytest.approx(1.0, abs=1e-8)
        assert got.certificate < 1e-6

    def test_alpha_independent_odd_desk(self):
        # c3 = c1 = 0 leaves alpha acting through the even desk only
        spec = make_spec(0.0, 1.0, 0.0, 1.0, theta=0.8, tau=0.3)
        oracle = grid_saddle_oracle(spec, 512)
        got = refine_saddle(spec, (oracle.alpha_star, oracle.beta_star))
        assert got.value == pytest.approx(oracle.value, abs=1e-3)
        assert got.max_min <= got.value + 1e-9
        assert got.value <= got.min_max + 1e-9

    def test_refined_tracks_grid_oracle(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            oracle = grid_saddle_oracle(spec, 512)
            got = refine_saddle(spec, (oracle.alpha_star, oracle.beta_star))
            mass = sum(abs(x) for x in spec.coefficients.as_tuple())
            assert abs(got.value - oracle.value) <= 2 * mass * math.pi / 512
            assert got.max_min <= got.value + 1e-9 <= got.min_max + 2e-9

    def test_no_saddle_game_is_flagged(self):
        # opposite-sign desks with quarter tilts: the two one-sided values
        # split apart and no angle pair is stable
        spec = make_spec(1.0, -1.0, 1.0, -1.0, theta=math.pi / 4, tau=math.pi / 4)
        oracle = grid_saddle_oracle(spec, 256)
        got = refine_saddle(spec, (oracle.alpha_star, oracle.beta_star))
        assert FLAG_NO_SADDLE in got.flags
        assert got.max_min == pytest.approx(-0.5, abs=1e-6)
        assert got.min_max == pytest.approx(0.5, abs=1e-6)

    def test_seed_breaks_ties_between_equal_optima(self):
        # the decoupled maximin and minimax peak at both pi/4 and 3*pi/4
        got = refine_saddle(DECOUPLED, (3 * math.pi / 4, 0.1))
        assert got.alpha_star == pytest.approx(3 * math.pi / 4, abs=1e-9)
        assert got.beta_star == pytest.approx(math.pi / 4, abs=1e-9)
        assert got.flags == ()

    def test_cycling_game_has_a_saddle(self):
        oracle = grid_saddle_oracle(CYCLING, 256)
        got = refine_saddle(CYCLING, (oracle.alpha_star, oracle.beta_star))
        assert got.flags == ()
        assert got.max_min == pytest.approx(got.min_max, abs=1e-12)
        assert got.value == pytest.approx(-0.0796400252536832, abs=1e-12)

    def test_twin_peaked_maximin_is_not_missed(self):
        oracle = grid_saddle_oracle(TWIN_PEAKS, 256)
        got = refine_saddle(TWIN_PEAKS, (oracle.alpha_star, oracle.beta_star))
        assert got.flags == ()
        assert got.max_min == pytest.approx(0.360078231518592, abs=1e-12)
        assert got.min_max == pytest.approx(0.360078231518592, abs=1e-12)
        assert got.value == pytest.approx(0.360078231518592, abs=1e-12)

    def test_no_convergence_only_with_no_saddle(self, rng):
        for _ in range(40):
            spec = random_spec(rng)
            got = refine_saddle(spec, (rng.uniform(0, math.pi), rng.uniform(0, math.pi)))
            assert (FLAG_NO_CONVERGENCE in got.flags) == (FLAG_NO_SADDLE in got.flags)
            assert (FLAG_NO_SADDLE in got.flags) == (got.min_max - got.max_min > 1e-8)

    def test_angles_stay_in_range(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            got = refine_saddle(spec, (rng.uniform(0, math.pi), rng.uniform(0, math.pi)))
            assert 0.0 <= got.alpha_star < math.pi
            assert 0.0 <= got.beta_star < math.pi


class TestVerifySaddle:
    def test_exact_saddle_certificate(self):
        got = refine_saddle(DECOUPLED, (math.pi / 4, math.pi / 4))
        assert verify_saddle(DECOUPLED, got, 256) < 1e-8

    def test_perturbed_profile_is_caught(self):
        good = refine_saddle(DECOUPLED, (math.pi / 4, math.pi / 4))
        from dataclasses import replace
        bad = replace(good, alpha_star=good.alpha_star + 0.1,
                      value=payoff_surface(DECOUPLED, good.alpha_star + 0.1,
                                           good.beta_star))
        assert verify_saddle(DECOUPLED, bad, 256) > 0.0

    def test_zero_game_certificate(self):
        spec = make_spec(0, 0, 0, 0)
        got = refine_saddle(spec, (0.3, 0.7))
        assert verify_saddle(spec, got, 64) == 0.0


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

    def test_value_within_entry_bounds(self, rng):
        for _ in range(100):
            m = ClassicalMatrix(rng.uniform(-5, 5, (4, 4)))
            got = solve_classical(m)
            assert m.entries.min() - 1e-9 <= got.value <= m.entries.max() + 1e-9

    def test_strategies_guarantee_the_value(self, rng):
        for _ in range(100):
            m = ClassicalMatrix(rng.uniform(-5, 5, (4, 4)))
            got = solve_classical(m)
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

    def test_general_matrix_uses_support_enumeration(self, rng):
        for _ in range(5):
            m = ClassicalMatrix(rng.uniform(-5, 5, (4, 4)))
            got, want = solve_classical(m), _solve_by_support_enumeration(m)
            assert got.value == want.value
            np.testing.assert_array_equal(got.alice_mixed, want.alice_mixed)
            np.testing.assert_array_equal(got.bob_mixed, want.bob_mixed)
            assert got.degenerate == want.degenerate


class TestClassicalQuantumComparison:
    def test_decoupled_game_matches_matrix_solution(self):
        # with commuting frames the angle game and the compound matrix
        # game restricted to product strategies have the same value
        oracle = grid_saddle_oracle(DECOUPLED, 256)
        refined = refine_saddle(DECOUPLED, (oracle.alpha_star, oracle.beta_star))
        matrix_solution = solve_classical(classical_matrix(DECOUPLED.coefficients))
        assert refined.value == pytest.approx(1.0, abs=1e-8)
        assert matrix_solution.value == pytest.approx(1.0, abs=1e-8)
        assert oracle.value == pytest.approx(matrix_solution.value, abs=1e-8)
