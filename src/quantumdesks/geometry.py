"""Strategy curves: the map from one angle to both desks' probabilities.

Because both desk probabilities come from a single underlying state, the
pair (p1, p2) cannot roam the whole unit square: it is confined to a
conic section, an ellipse in the generic case.  The conic degenerates to
a straight segment when the frame tilt is 0 or pi/2 (the two observables
commute) or when the relative phase is pi/2 or 3*pi/2.

The implicit form used throughout is

    a11*p1^2 + a22*p2^2 + 2*a12*p1*p2 + b1*p1 + b2*p2 + c0 = 0

normalized so that a22 = 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .game import ObservableFrame, ProbabilityQuadruple, angle_gap

#: default tolerance for curve-membership decisions
MEMBERSHIP_TOL = 1e-9
#: discriminant threshold below which the conic is flagged as a segment
DEGENERATE_TOL = 1e-12


class NotOnCurve(ValueError):
    """The queried point is farther from the constraint curve than allowed."""


@dataclass(frozen=True)
class ConicCoefficients:
    """Implicit quadratic form of the constraint curve, with a22 = 1.

    ``degenerate`` is set when the quadratic part has (numerically) zero
    discriminant, i.e. the curve is a line segment rather than an ellipse.
    """

    a11: float
    a22: float
    a12: float
    b1: float
    b2: float
    c0: float
    degenerate: bool = False


def probabilities_from_angle(alpha: float, frame: ObservableFrame) -> ProbabilityQuadruple:
    """Both desks' yes-probabilities for the state at angle ``alpha``.

    p1 = cos^2(alpha); p2 mixes the two desk directions and reduces to
    cos^2(alpha - theta) when the frame phase is zero.  The map has
    period pi; alpha is reduced modulo pi first so the periodicity is
    exact.
    """
    a = alpha % math.pi
    ca, sa = math.cos(a), math.sin(a)
    ct, st = math.cos(frame.theta), math.sin(frame.theta)
    p1 = ca * ca
    p2 = ca * ca * (ct * ct) + sa * sa * (st * st) \
        + 2.0 * ca * sa * ct * st * math.cos(frame.lam)
    p2 = min(1.0, max(0.0, p2))  # guard sub-ulp spill outside [0, 1]
    return ProbabilityQuadruple(p1, p2, 1.0 - p1, 1.0 - p2)


def conic_coefficients(frame: ObservableFrame) -> ConicCoefficients:
    """Implicit equation satisfied by every (p1, p2) the frame can reach.

    Derived by eliminating the strategy angle from the parametric map:
    with u = 2*p1 - 1 and v*sin(2*theta)*cos(lam) = (2*p2 - 1) - u*cos(2*theta),
    the circle identity u^2 + v^2 = 1 expands to the returned form.  The
    p1-linear coefficient carries a cos^2(lam) factor on its sin^2(2*theta)
    term; dropping that factor only survives contact with the parametric
    map when cos^2(lam) = 1.
    """
    c2t = math.cos(2.0 * frame.theta)
    s2t = math.sin(2.0 * frame.theta)
    cl = math.cos(frame.lam)
    s_sq = math.sin(frame.theta) ** 2
    a11 = c2t * c2t + s2t * s2t * cl * cl
    a12 = -c2t
    b1 = -(s2t * s2t * cl * cl - 2.0 * s_sq * c2t)
    b2 = -2.0 * s_sq
    c0 = s_sq * s_sq
    disc = a11 - a12 * a12  # equals (s2t * cl)^2
    return ConicCoefficients(a11, 1.0, a12, b1, b2, c0,
                             degenerate=disc < DEGENERATE_TOL)


def conic_residual(p1: float, p2: float, frame: ObservableFrame) -> float:
    """Signed value of the frame's quadratic form at (p1, p2).

    Zero on the constraint curve, negative inside the ellipse, positive
    outside.
    """
    c = conic_coefficients(frame)
    return (c.a11 * p1 * p1 + c.a22 * p2 * p2 + 2.0 * c.a12 * p1 * p2
            + c.b1 * p1 + c.b2 * p2 + c.c0)


def curve_points(frame: ObservableFrame, n: int) -> list[tuple[float, float]]:
    """Sample n curve points at uniform angles k*pi/n, k = 0..n-1."""
    return [(p1, p2) for _, p1, p2 in _curve_samples(frame, n)]


def _curve_samples(frame: ObservableFrame, n: int) -> Iterator[tuple[float, float, float]]:
    """``(alpha, p1, p2)`` at alpha = k*pi/n for k = 0..n-1, one sample at a time.

    No value is -0.0 or non-finite: alpha >= 0, p1 is a square and p2 is
    clamped by ``max(0.0, .)``.
    """
    if n < 2:
        raise ValueError("need at least two sample points")
    for k in range(n):
        alpha = k * math.pi / n
        p = probabilities_from_angle(alpha, frame)
        yield alpha, p.p1, p.p2


def angles_for_point(
    p1: float, p2: float, frame: ObservableFrame, tol: float = MEMBERSHIP_TOL
) -> list[float]:
    """All angles in [0, pi) that map to (p1, p2), up to ``tol``.

    Raises NotOnCurve when the conic residual at the point exceeds
    ``tol``.  Non-degenerate frames have a single preimage; degenerate
    ones (segments) generically have two.  Solved in closed form from
    the parametric map; no iterative root finding.
    """
    if abs(conic_residual(p1, p2, frame)) > tol:
        raise NotOnCurve(
            f"({p1:g}, {p2:g}) is off the constraint curve "
            f"(residual {conic_residual(p1, p2, frame):.3g} > tol {tol:g})"
        )
    u = 2.0 * p1 - 1.0  # cos(2*alpha)
    candidates = []
    denom = math.sin(2.0 * frame.theta) * math.cos(frame.lam)
    if abs(denom) > DEGENERATE_TOL:
        v = ((2.0 * p2 - 1.0) - u * math.cos(2.0 * frame.theta)) / denom
        candidates.append(0.5 * math.atan2(v, u) % math.pi)
    half = 0.5 * math.acos(min(1.0, max(-1.0, u)))
    candidates.extend([half, (math.pi - half) % math.pi])

    scored: list[tuple[float, float]] = []
    for a in candidates:
        a = a % math.pi
        if a > math.pi - 1e-9:  # canonical representative of an angle at ~0
            a = 0.0
        q = probabilities_from_angle(a, frame)
        err = max(abs(q.p1 - p1), abs(q.p2 - p2))
        if err <= tol:
            scored.append((err, a))

    matches: list[float] = []
    for _, a in sorted(scored):  # keep the best representative of each cluster
        if not any(angle_gap(a, seen) < 1e-7 for seen in matches):
            matches.append(a)
    return sorted(matches)
