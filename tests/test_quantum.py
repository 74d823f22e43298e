import math

import numpy as np
import pytest

from quantumdesks import (
    ObservableFrame,
    PayoffCoefficients,
    PayoffOperator,
    ProbabilityQuadruple,
    Projector,
    StateVector,
    build_payoff_operator,
    complement,
    expectation,
    frame_projectors,
    make_projector,
    probabilities_from_angle,
    scalar_payoff,
    weight,
)
from quantumdesks.game import reduce_angle
from conftest import make_spec, random_spec


class TestMakeProjector:
    def test_direction_zero_is_first_basis_projector(self):
        np.testing.assert_allclose(make_projector(0.0, 0.0).entries,
                                   [[1, 0], [0, 0]], atol=1e-12)

    def test_direction_zero_ignores_phase(self):
        np.testing.assert_allclose(make_projector(0.0, 2.3).entries,
                                   [[1, 0], [0, 0]], atol=1e-12)

    def test_perpendicular_direction(self):
        np.testing.assert_allclose(make_projector(math.pi / 2, 0.0).entries,
                                   [[0, 0], [0, 1]], atol=1e-12)

    def test_quarter_turn_with_phase(self):
        expected = [[0.5, 0.5j], [-0.5j, 0.5]]
        np.testing.assert_allclose(make_projector(math.pi / 4, math.pi / 2).entries,
                                   expected, atol=1e-12)

    def test_projector_axioms_hold_everywhere(self, rng):
        for _ in range(300):
            p = make_projector(rng.uniform(-10, 10), rng.uniform(-10, 10)).entries
            assert np.max(np.abs(p - p.conj().T)) < 1e-12
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert abs(np.trace(p) - 1.0) < 1e-12


class TestComplement:
    def test_swaps_basis_projectors(self):
        a1 = make_projector(0.0, 0.0)
        np.testing.assert_allclose(complement(a1).entries, [[0, 0], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(complement(complement(a1)).entries, a1.entries,
                                   atol=1e-12)

    def test_resolution_of_identity(self, rng):
        for _ in range(100):
            p = make_projector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            total = p.entries + complement(p).entries
            assert np.max(np.abs(total - np.eye(2))) < 1e-12

    def test_complement_weight(self, rng):
        for _ in range(50):
            p = make_projector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            s = StateVector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            assert weight(s, p) + weight(s, complement(p)) == pytest.approx(1.0, abs=1e-12)


class TestWeight:
    def test_aligned_state(self):
        assert weight(StateVector(0.0), make_projector(0.0)) == 1.0

    def test_sixty_degree_state(self):
        assert weight(StateVector(math.pi / 3), make_projector(0.0)) == \
            pytest.approx(0.25, abs=1e-12)

    def test_matches_closed_form(self, rng):
        for _ in range(300):
            a, th = rng.uniform(0, math.pi, 2)
            lam, om = rng.uniform(0, 2 * math.pi, 2)
            w = weight(StateVector(a, om), make_projector(th, lam))
            want = (math.cos(a) ** 2 * math.cos(th) ** 2
                    + math.sin(a) ** 2 * math.sin(th) ** 2
                    + 2 * math.cos(a) * math.sin(a) * math.cos(th) * math.sin(th)
                    * math.cos(lam))
            assert w == pytest.approx(want, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        for _ in range(100):
            a = rng.uniform(0, math.pi)
            p = make_projector(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            w1 = weight(StateVector(a, rng.uniform(0, 2 * math.pi)), p)
            w2 = weight(StateVector(a, rng.uniform(0, 2 * math.pi)), p)
            assert abs(w1 - w2) < 1e-12


class TestStateVector:
    def test_unit_norm(self, rng):
        for _ in range(100):
            s = StateVector(rng.uniform(-7, 7), rng.uniform(-7, 7))
            assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12

    def test_construction(self):
        s = StateVector(math.pi / 3, 0.0)
        np.testing.assert_allclose(s.amplitudes, [0.5, math.sqrt(3) / 2], atol=1e-12)


class TestPayoffOperator:
    def test_zero_coefficients_give_zero_operator(self):
        h = build_payoff_operator(make_spec(0, 0, 0, 0))
        assert np.max(np.abs(h.entries)) == 0.0

    def test_collapsed_frames(self):
        # theta = tau = 0 makes the second desk's projectors equal the first's
        spec = make_spec(1, 1, 1, 1)
        a1, _, a3, _ = frame_projectors(spec.alice_frame)
        want = 2 * (np.kron(a1.entries, a3.entries) + np.kron(a3.entries, a1.entries))
        np.testing.assert_allclose(build_payoff_operator(spec).entries, want,
                                   atol=1e-12)

    def test_hermitian_for_random_specs(self, rng):
        for _ in range(100):
            h = build_payoff_operator(random_spec(rng)).entries
            assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestExpectation:
    def test_zero_operator(self):
        h = build_payoff_operator(make_spec(0, 0, 0, 0))
        assert expectation(h, StateVector(0.3), StateVector(0.8)) == 0.0

    def test_matches_scalar_payoff(self, rng):
        # the operator route and the probability route are the same number
        for _ in range(300):
            spec = random_spec(rng)
            a, b = rng.uniform(0, math.pi, 2)
            wa, wb = rng.uniform(0, 2 * math.pi, 2)
            e = expectation(build_payoff_operator(spec),
                            StateVector(a, wa), StateVector(b, wb))
            s = scalar_payoff(spec.coefficients,
                              probabilities_from_angle(a, spec.alice_frame),
                              probabilities_from_angle(b, spec.bob_frame))
            assert abs(e - s.total) < 1e-10

    def test_independent_of_global_phases(self, rng):
        spec = random_spec(rng)
        h = build_payoff_operator(spec)
        a, b = 0.4, 1.1
        base = expectation(h, StateVector(a), StateVector(b))
        for _ in range(20):
            e = expectation(h, StateVector(a, rng.uniform(0, 7)),
                            StateVector(b, rng.uniform(0, 7)))
            assert abs(e - base) < 1e-12


class TestScalarPayoff:
    def test_opposed_pure_strategies(self):
        c = PayoffCoefficients(1.0, 2.0, 3.0, 4.0)
        p = ProbabilityQuadruple(1, 1, 0, 0)
        q = ProbabilityQuadruple(0, 0, 1, 1)
        got = scalar_payoff(c, p, q)
        assert got.total == c.c3 + c.c4
        assert (got.odd, got.even) == (c.c3, c.c4)

    def test_identical_pure_strategies_score_nothing(self):
        c = PayoffCoefficients(1.0, 2.0, 3.0, 4.0)
        p = ProbabilityQuadruple(1, 1, 0, 0)
        assert scalar_payoff(c, p, p).total == 0.0

    def test_uniform_strategies(self):
        c = PayoffCoefficients(1, 1, 1, 1)
        p = ProbabilityQuadruple(0.5, 0.5, 0.5, 0.5)
        assert scalar_payoff(c, p, p).total == pytest.approx(1.0, abs=1e-15)

    def test_split_adds_up(self, rng):
        for _ in range(100):
            spec = random_spec(rng)
            p = probabilities_from_angle(rng.uniform(0, math.pi), spec.alice_frame)
            q = probabilities_from_angle(rng.uniform(0, math.pi), spec.bob_frame)
            got = scalar_payoff(spec.coefficients, p, q)
            assert got.total == got.odd + got.even


class TestValidation:
    def test_desk_pairs_sum_to_one_from_states(self, rng):
        for _ in range(200):
            frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            p = probabilities_from_angle(rng.uniform(0, math.pi), frame)
            assert abs(p.p1 + p.p3 - 1.0) <= 2 ** -52
            assert abs(p.p2 + p.p4 - 1.0) <= 2 ** -52

    def test_frame_normalization(self):
        f = ObservableFrame(math.pi + 0.3, -0.5)
        assert f.theta == pytest.approx(0.3, abs=1e-12)
        assert f.lam == pytest.approx(2 * math.pi - 0.5, abs=1e-12)

    def test_frame_normalization_keeps_half_open_ranges(self):
        # -1e-20 modulo pi rounds to pi itself; the reducer maps it to 0
        f = ObservableFrame(-1e-20, -1e-20)
        assert f.theta == 0.0
        assert f.lam == 0.0
        assert 0.0 <= ObservableFrame(-1e-17, -1e-17).theta < math.pi
        assert 0.0 <= ObservableFrame(-1e-17, -1e-17).lam < 2 * math.pi

    def test_reduce_angle(self):
        assert reduce_angle(-1e-20) == 0.0
        assert reduce_angle(-1e-20, 2 * math.pi) == 0.0
        assert reduce_angle(math.pi) == 0.0
        assert reduce_angle(7.0, 2 * math.pi) == pytest.approx(7.0 - 2 * math.pi)

    def test_frame_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ObservableFrame(math.inf, 0.0)

    def test_coefficients_reject_non_finite(self):
        with pytest.raises(ValueError):
            PayoffCoefficients(1.0, math.nan, 0.0, 0.0)

    def test_projector_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_projector_rejects_nan(self):
        with pytest.raises(ValueError):
            Projector(np.array([[1.0, 0.0], [0.0, math.nan]]))

    def test_payoff_operator_rejects_non_hermitian(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            PayoffOperator(m)

    def test_payoff_operator_rejects_nan(self):
        m = np.zeros((4, 4))
        m[2, 2] = math.nan
        with pytest.raises(ValueError):
            PayoffOperator(m)

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_payoff_operator_rejects_non_hermitian_at_large_stakes(self, scale):
        m = scale * np.eye(4)
        m[0, 1] = 1e-6 * scale
        with pytest.raises(ValueError):
            PayoffOperator(m)

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_expectation_at_large_stakes(self, rng, scale):
        # rounding residues, the imaginary one included, grow with the stakes
        for _ in range(50):
            spec = random_spec(rng, c_scale=2.0 * scale)
            alpha, beta = rng.uniform(0.0, math.pi, 2)
            p = probabilities_from_angle(alpha, spec.alice_frame)
            q = probabilities_from_angle(beta, spec.bob_frame)
            got = expectation(build_payoff_operator(spec), StateVector(alpha), StateVector(beta))
            mass = 1.0 + sum(abs(c) for c in spec.coefficients.as_tuple())
            assert abs(got - scalar_payoff(spec.coefficients, p, q).total) <= 1e-12 * mass

    def test_quadruple_rejects_bad_sums(self):
        with pytest.raises(ValueError):
            ProbabilityQuadruple(0.5, 0.5, 0.4, 0.5)

    def test_quadruple_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProbabilityQuadruple(1.5, 0.5, -0.5, 0.5)

    def test_quadruple_rejects_nan(self):
        with pytest.raises(ValueError):
            ProbabilityQuadruple(math.nan, 0.5, 0.5, 0.5)
