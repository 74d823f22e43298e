import math

import numpy as np
import pytest

from quantumdesks import (
    NotOnCurve,
    ObservableFrame,
    angles_for_point,
    conic_coefficients,
    conic_residual,
    curve_points,
    probabilities_from_angle,
)


def quarter_frame():
    return ObservableFrame(math.pi / 4, 0.0)


class TestProbabilitiesFromAngle:
    def test_at_zero(self):
        p = probabilities_from_angle(0.0, quarter_frame())
        assert p.p1 == 1.0
        assert p.p2 == pytest.approx(0.5, abs=1e-12)
        assert p.p3 == 0.0
        assert p.p4 == pytest.approx(0.5, abs=1e-12)

    def test_aligned_with_second_observable(self):
        p = probabilities_from_angle(math.pi / 4, quarter_frame())
        assert p.as_tuple() == pytest.approx((0.5, 1.0, 0.5, 0.0), abs=1e-12)

    def test_quarter_phase_kills_cross_term(self):
        p = probabilities_from_angle(math.pi / 4, ObservableFrame(math.pi / 4, math.pi / 2))
        assert p.as_tuple() == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-12)

    def test_reduces_to_shifted_cosine_for_zero_phase(self, rng):
        for _ in range(300):
            th = rng.uniform(0, math.pi)
            a = rng.uniform(0, math.pi)
            p = probabilities_from_angle(a, ObservableFrame(th, 0.0))
            assert p.p1 == pytest.approx(math.cos(a) ** 2, abs=1e-14)
            assert p.p2 == pytest.approx(math.cos(a - th) ** 2, abs=1e-14)

    def test_periodicity_is_exact_at_dyadic_angles(self):
        frame = ObservableFrame(0.875, 2.25)
        for k in range(64):
            a = k / 64.0  # exactly representable; a + pi rounds to a + fl(pi)
            assert probabilities_from_angle(a, frame) == \
                probabilities_from_angle(a + math.pi, frame)


class TestConicCoefficients:
    def test_quarter_frame_values(self):
        c = conic_coefficients(quarter_frame())
        assert c.a11 == pytest.approx(1.0, abs=1e-12)
        assert c.a22 == 1.0
        assert c.a12 == pytest.approx(0.0, abs=1e-12)
        assert c.b1 == pytest.approx(-1.0, abs=1e-12)
        assert c.b2 == pytest.approx(-1.0, abs=1e-12)
        assert c.c0 == pytest.approx(0.25, abs=1e-12)
        assert not c.degenerate

    def test_zero_phase_reduction(self, rng):
        # with no phase the quadratic part is a unit-coefficient form
        for _ in range(200):
            th = rng.uniform(0, math.pi)
            c = conic_coefficients(ObservableFrame(th, 0.0))
            s2t, c2t = math.sin(2 * th), math.cos(2 * th)
            ssq = math.sin(th) ** 2
            assert c.a11 == pytest.approx(1.0, abs=1e-12)
            assert c.a12 == pytest.approx(-c2t, abs=1e-12)
            assert c.b1 == pytest.approx(-(s2t ** 2 - 2 * ssq * c2t), abs=1e-12)
            assert c.b2 == pytest.approx(-2 * ssq, abs=1e-12)
            assert c.c0 == pytest.approx(ssq ** 2, abs=1e-12)

    def test_parametric_points_satisfy_conic(self, rng):
        for _ in range(1000):
            frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            p = probabilities_from_angle(rng.uniform(0, math.pi), frame)
            assert abs(conic_residual(p.p1, p.p2, frame)) < 1e-10

    def test_quarter_phase_factors_as_squared_line(self, rng):
        frame = ObservableFrame(math.pi / 6, math.pi / 2)
        c2t = math.cos(math.pi / 3)
        ssq = math.sin(math.pi / 6) ** 2
        for _ in range(200):
            p1, p2 = rng.uniform(0, 1, 2)
            line = p2 - p1 * c2t - ssq
            assert conic_residual(p1, p2, frame) == pytest.approx(line * line, abs=1e-12)

    def test_degenerate_flags(self):
        assert conic_coefficients(ObservableFrame(0.0, 1.0)).degenerate
        assert conic_coefficients(ObservableFrame(math.pi / 2, 0.3)).degenerate
        assert conic_coefficients(ObservableFrame(0.7, math.pi / 2)).degenerate
        assert conic_coefficients(ObservableFrame(0.7, 3 * math.pi / 2)).degenerate
        assert not conic_coefficients(ObservableFrame(0.7, 0.3)).degenerate

    def test_quarter_phase_discriminant_vanishes(self, rng):
        for _ in range(100):
            c = conic_coefficients(ObservableFrame(rng.uniform(0, math.pi), math.pi / 2))
            assert abs(c.a11 * c.a22 - c.a12 ** 2) < 1e-10

    def test_center_gradient_vanishes_for_zero_phase(self, rng):
        for _ in range(100):
            c = conic_coefficients(ObservableFrame(rng.uniform(0, math.pi), 0.0))
            g1 = 2 * c.a11 * 0.5 + 2 * c.a12 * 0.5 + c.b1
            g2 = 2 * c.a22 * 0.5 + 2 * c.a12 * 0.5 + c.b2
            assert abs(g1) < 1e-12 and abs(g2) < 1e-12


class TestConicResidual:
    def test_outside_corner(self):
        assert conic_residual(1.0, 1.0, quarter_frame()) == pytest.approx(0.25, abs=1e-12)

    def test_center_is_inside(self):
        assert conic_residual(0.5, 0.5, quarter_frame()) == pytest.approx(-0.25, abs=1e-12)


class TestCurvePoints:
    def test_quarter_frame_samples(self):
        pts = curve_points(quarter_frame(), 4)
        want = [(1.0, 0.5), (0.5, 1.0), (0.0, 0.5), (0.5, 0.0)]
        for got, expected in zip(pts, want):
            assert got == pytest.approx(expected, abs=1e-12)

    def test_points_stay_in_unit_square(self, rng):
        for _ in range(50):
            frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for p1, p2 in curve_points(frame, 32):
                assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0

    def test_points_lie_on_curve(self, rng):
        frame = ObservableFrame(1.234, 5.0)
        assert all(abs(conic_residual(p1, p2, frame)) < 1e-9
                   for p1, p2 in curve_points(frame, 257))

    def test_quarter_phase_points_on_line(self, rng):
        for _ in range(20):
            th = rng.uniform(0, math.pi)
            frame = ObservableFrame(th, math.pi / 2)
            c2t, ssq = math.cos(2 * th), math.sin(th) ** 2
            for p1, p2 in curve_points(frame, 64):
                assert p2 == pytest.approx(p1 * c2t + ssq, abs=1e-12)

    def test_commuting_frames_collapse_to_diagonals(self):
        assert all(p2 == p1 for p1, p2 in curve_points(ObservableFrame(0.0, 0.9), 64))
        for p1, p2 in curve_points(ObservableFrame(math.pi / 2, 0.0), 64):
            assert p2 == pytest.approx(1.0 - p1, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            curve_points(quarter_frame(), 1)

    def test_two_points_are_the_angles_zero_and_a_quarter_turn(self):
        frame = ObservableFrame(1.234, 5.0)
        want = [probabilities_from_angle(a, frame) for a in (0.0, math.pi / 2)]
        assert curve_points(frame, 2) == [(p.p1, p.p2) for p in want]


class TestAnglesForPoint:
    def test_unique_preimage_of_corner(self):
        assert angles_for_point(1.0, 0.5, quarter_frame()) == [0.0]

    def test_unique_preimage_of_top(self):
        got = angles_for_point(0.5, 1.0, quarter_frame())
        assert got == pytest.approx([math.pi / 4], abs=1e-9)

    def test_off_curve_point_rejected(self):
        with pytest.raises(NotOnCurve):
            angles_for_point(0.9, 0.1, quarter_frame())

    def test_round_trip(self, rng):
        for _ in range(500):
            frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            a = rng.uniform(0, math.pi)
            p = probabilities_from_angle(a, frame)
            sols = angles_for_point(p.p1, p.p2, frame)
            assert sols
            best = min(
                max(abs(probabilities_from_angle(s, frame).p1 - p.p1),
                    abs(probabilities_from_angle(s, frame).p2 - p.p2))
                for s in sols)
            assert best < 1e-9
            assert all(0.0 <= s < math.pi for s in sols)

    def test_degenerate_frame_has_two_preimages(self):
        frame = ObservableFrame(math.pi / 3, math.pi / 2)
        p = probabilities_from_angle(0.4, frame)
        sols = angles_for_point(p.p1, p.p2, frame)
        assert len(sols) == 2
        assert min(abs(s - 0.4) for s in sols) < 1e-9
