import math

import numpy as np
import pytest

from quantumdesks import (
    StateVector,
    build_payoff_operator,
    classical_matrix,
    expectation,
    grid_saddle_oracle,
    payoff_gradient,
    payoff_kernel,
    payoff_surface,
    refine_saddle,
    solve_classical,
    verify_saddle,
)
from quantumdesks.equilibrium import (
    FLAG_NO_CONVERGENCE,
    FLAG_NO_SADDLE,
    _TIE_RTOL,
    _cached_grid_rows,
    _security_level,
)
from conftest import dense_security_level, make_spec, random_spec, scale_stakes

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
# Opposite-sign desks with quarter tilts: the kernel is diag(0, -1/2, 1/2),
# so every angle secures -1/2 for Alice and 1/2 for Bob, and there is no saddle.
NO_SADDLE = make_spec(1.0, -1.0, 1.0, -1.0, theta=math.pi / 4, tau=math.pi / 4)
# Bob's tilt 0 makes h(alpha, beta) = h(alpha, pi - beta); his optima are
# the mirror pair 0.431 and pi - 0.431 (the golden corpus's random_18).
MIRROR = make_spec(1.7305171534699038, -1.3655772634161156, 1.9741053862646196,
                   0.750818181412503, theta=2.4984738003923432, lam=2.8707629336371845,
                   tau=0.0, mu=4.676683140448009)


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
        oracle = grid_saddle_oracle(NO_SADDLE, 256)
        got = refine_saddle(NO_SADDLE, (oracle.alpha_star, oracle.beta_star))
        assert FLAG_NO_SADDLE in got.flags
        assert got.max_min == pytest.approx(-0.5, abs=1e-6)
        assert got.min_max == pytest.approx(0.5, abs=1e-6)

    def test_seed_breaks_ties_between_equal_optima(self):
        # the decoupled maximin and minimax peak at both pi/4 and 3*pi/4
        got = refine_saddle(DECOUPLED, (3 * math.pi / 4, 0.1))
        assert got.alpha_star == pytest.approx(3 * math.pi / 4, abs=1e-9)
        assert got.beta_star == pytest.approx(math.pi / 4, abs=1e-9)
        assert got.flags == ()

    def test_unseeded_equal_optima_take_the_smallest_angle(self):
        got = refine_saddle(DECOUPLED)
        assert got.alpha_star == pytest.approx(math.pi / 4, abs=1e-12)
        assert got.beta_star == pytest.approx(math.pi / 4, abs=1e-12)
        assert got.value == pytest.approx(1.0, abs=1e-12)
        assert got.flags == ()

    def test_unseeded_flat_levels_take_angle_zero(self):
        got = refine_saddle(NO_SADDLE)
        assert (got.alpha_star, got.beta_star) == (0.0, 0.0)
        assert got.value == got.max_min == -0.5
        assert FLAG_NO_SADDLE in got.flags

    def test_unseeded_mirror_pair_takes_the_angle_below_a_quarter_turn(self):
        got = refine_saddle(MIRROR)
        assert 0.0 < got.beta_star < math.pi / 2
        mirrored = refine_saddle(MIRROR, (got.alpha_star, math.pi - got.beta_star))
        assert mirrored.beta_star == pytest.approx(math.pi - got.beta_star, abs=1e-12)
        assert mirrored.min_max == pytest.approx(got.min_max, abs=1e-12)

    def test_level_at_a_root_of_high_multiplicity(self):
        # Bob's tilt 0 makes each r_i of Bob's level a multiple of 1 + cos u,
        # so the level peaks at u = pi, a root of multiplicity 6 of the
        # quartic, where only the zeros of r0', r1 and r2 land exactly
        spec = make_spec(1.0, 2.0, 0.0, 0.0, theta=0.7, lam=0.3, tau=0.0)
        got = refine_saddle(spec)
        k = payoff_kernel(spec)
        tie = _TIE_RTOL * (1.0 + np.abs(k).sum())
        assert got.max_min >= dense_security_level(k) - tie
        assert -got.min_max >= dense_security_level(-k.T) - tie

    def test_flags_do_not_depend_on_the_stake_scale(self, rng):
        for spec in [NO_SADDLE, CYCLING, TWIN_PEAKS, *(random_spec(rng) for _ in range(40))]:
            want = refine_saddle(spec).flags
            for scale in (1e6, 1e12, 1e150):
                assert refine_saddle(scale_stakes(spec, scale)).flags == want

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


class TestSecurityLevel:
    def test_peak_where_only_r0_prime_vanishes(self):
        # r0 = cos(u - 1), r1 = 2 - cos(u - 1), r2 = 0: the quartic vanishes
        # identically, and f = 2 cos(u - 1) - 2 peaks at u = 1, where r0' = 0
        c, s = math.cos(1.0), math.sin(1.0)
        t, v = _security_level(np.array([[0.0, 2.0, 0.0], [c, -c, 0.0], [s, -s, 0.0]]), None)
        assert t == pytest.approx(0.5, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_peak_at_a_kink(self):
        # r0 = 0 and (r1, r2) = (1, 1/2) sin(u - 1): f = -|(r1, r2)| peaks at
        # the kinks u = 1 and 1 + pi, each a double root of the quartic
        c, s = math.cos(1.0), math.sin(1.0)
        t, v = _security_level(np.array([[0.0, 0.0, 0.0], [0.0, -s, -s / 2],
                                         [0.0, c, c / 2]]), None)
        assert t == pytest.approx(0.5, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)


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

    @pytest.mark.parametrize("n", [0, -4, 7])
    def test_rejects_tiny_grids_before_caching_them(self, n):
        got = refine_saddle(DECOUPLED)
        cached = _cached_grid_rows.cache_info()
        with pytest.raises(ValueError, match="grid resolution must be at least 8"):
            verify_saddle(DECOUPLED, got, n)
        assert _cached_grid_rows.cache_info() == cached


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
