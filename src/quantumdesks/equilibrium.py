"""Saddle-point search over the two strategy angles.

With x(t) = (1, cos 2t, sin 2t), each player's desk probabilities are
linear in x of that player's angle, so the payoff is exactly the bilinear
form h(alpha, beta) = x(alpha)^T K x(beta) for a 3x3 real kernel K built
from the stakes and both frames.  For fixed alpha, h(alpha, .) is
r0 + r1 cos 2beta + r2 sin 2beta with r = K^T x(alpha), whose minimum is
r0 - |(r1, r2)|.  Alice's maximin is the maximum of that one-angle
function; Bob's minimax is the same computation on -K^T.

``refine_saddle`` solves both exactly: where that function is smooth its
stationary angles are roots of a degree-8 polynomial in exp(2it), and
the rest of its candidate maxima have closed forms too.  The game has a
saddle exactly when the two one-sided values meet, and the certificate is
exact, because max_min and min_max are the best deviations from the
reported profile.  The grid oracle, the tests' reference, and
``verify_saddle`` evaluate the same kernel on rows of x at uniform angles;
a grid can only fall short of the exact deviations.
The scalar ``payoff_surface`` evaluates the probability map directly and
is the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import probabilities_from_angle
from .game import GameSpec, angle_gap, reduce_angle, scalar_payoff

FLAG_NO_CONVERGENCE = "no_convergence"
FLAG_NO_SADDLE = "no_saddle"
FLAG_NOT_STATIONARY = "not_stationary"

#: objective values this close, relative to the kernel's mass, are ties
_TIE_RTOL = 1e-12


def _angle_rows(t: np.ndarray) -> np.ndarray:
    """Rows x(t) = (1, cos 2t, sin 2t), one for each angle in ``t``."""
    return np.stack([np.ones(len(t)), np.cos(2.0 * t), np.sin(2.0 * t)], axis=1)


def _grid_rows(n: int) -> np.ndarray:
    """The rows x(k*pi/n), k = 0..n-1, of an n-point grid, n at least 8."""
    if n < 8:
        raise ValueError("grid resolution must be at least 8")
    return _cached_grid_rows(n)


@functools.lru_cache(maxsize=4)
def _cached_grid_rows(n: int) -> np.ndarray:
    """Read-only grid rows, kept for the 4 grid sizes used last (24*n bytes each)."""
    rows = _angle_rows(np.arange(n) * (math.pi / n))
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class EquilibriumResult:
    """Saddle candidate: angles, value, one-sided bounds, and a certificate.

    ``max_min`` is min over beta of h(alpha_star, .) and ``min_max`` is
    max over alpha of h(., beta_star); the value always lies between
    them.  ``certificate`` bounds how much either player could gain by
    deviating from the reported profile.
    """

    alpha_star: float
    beta_star: float
    value: float
    max_min: float
    min_max: float
    certificate: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "alpha_star": self.alpha_star,
            "beta_star": self.beta_star,
            "value": self.value,
            "max_min": self.max_min,
            "min_max": self.min_max,
            "certificate": self.certificate,
            "flags": list(self.flags),
        }


def payoff_surface(spec: GameSpec, alpha: float, beta: float) -> float:
    """Average payoff when Alice plays angle ``alpha`` and Bob ``beta``."""
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    return scalar_payoff(spec.coefficients, p, q).total


def payoff_kernel(spec: GameSpec) -> np.ndarray:
    """The 3x3 K with h(alpha, beta) = x(alpha)^T K x(beta), x(t) = (1, cos 2t, sin 2t).

    Each player has p1 = u1 . x and p2 = u2 . x with u1 = (1, 1, 0) / 2 and
    u2 = (1, cos 2*theta, sin 2*theta cos lam) / 2; the complements are
    e0 - u, because 1 = e0 . x.  So

        K = c3 a1 (e0 - b1)^T + c1 (e0 - a1) b1^T + c4 a2 (e0 - b2)^T + c2 (e0 - a2) b2^T

    with a for Alice's rows and b for Bob's.  The entries are built from
    Python floats, each term as c * (u_i * v_j) and the four added in that
    order, which are the roundings of the ``np.outer`` form: the kernel is
    unchanged bit for bit.
    """
    c = spec.coefficients
    a1, a2 = _probability_rows(spec.alice_frame)
    b1, b2 = _probability_rows(spec.bob_frame)
    na1, na2, nb1, nb2 = map(_complement_row, (a1, a2, b1, b2))
    return np.array([[c.c3 * (a1[i] * nb1[j]) + c.c1 * (na1[i] * b1[j])
                      + c.c4 * (a2[i] * nb2[j]) + c.c2 * (na2[i] * b2[j])
                      for j in range(3)] for i in range(3)])


def _probability_rows(frame) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The rows u1 and u2 of ``frame``, as in ``payoff_kernel``."""
    two_theta = 2.0 * frame.theta
    return ((0.5, 0.5, 0.0),
            (0.5, 0.5 * math.cos(two_theta),
             0.5 * (math.sin(two_theta) * math.cos(frame.lam))))


def _complement_row(u: tuple[float, ...]) -> tuple[float, float, float]:
    """e0 - u, entry by entry."""
    return (1.0 - u[0], 0.0 - u[1], 0.0 - u[2])


def _x(t: float) -> np.ndarray:
    return np.array([1.0, math.cos(2.0 * t), math.sin(2.0 * t)])


def _dx(t: float) -> np.ndarray:
    return np.array([0.0, -2.0 * math.sin(2.0 * t), 2.0 * math.cos(2.0 * t)])


def payoff_gradient(spec: GameSpec, alpha: float, beta: float) -> tuple[float, float]:
    """Analytic (d h / d alpha, d h / d beta) at the given angles.

    They are x'(alpha)^T K x(beta) and x(alpha)^T K x'(beta) on the kernel.
    """
    return _kernel_gradient(payoff_kernel(spec), alpha, beta)


def _kernel_gradient(k: np.ndarray, alpha: float, beta: float) -> tuple[float, float]:
    return (float(_dx(alpha) @ k @ _x(beta)),
            float(_x(alpha) @ k @ _dx(beta)))


def grid_saddle_oracle(spec: GameSpec, n: int = 256) -> EquilibriumResult:
    """Exhaustive saddle search on the n x n angle grid over [0, pi)^2.

    The grid is h = X K X^T on the payoff kernel, X the rows x(k*pi/n).
    Deterministic: ties are broken toward the smallest alpha, then the
    smallest beta.  Serves as the reference oracle for the refiner.  The
    rows X are computed once per n and shared, read-only, with
    ``verify_saddle``; the four sizes used last are kept, 24*n bytes each.
    Results are those of rows computed afresh.  Raises ValueError for
    n < 8.
    """
    x = _grid_rows(n)
    step = math.pi / n
    h = x @ payoff_kernel(spec) @ x.T
    row_min = h.min(axis=1)
    col_max = h.max(axis=0)
    i = int(np.argmax(row_min))
    j = int(np.argmin(col_max))
    max_min = float(row_min[i])
    min_max = float(col_max[j])
    value = float(h[i, j])
    certificate = max(0.0, min_max - value, value - max_min)
    return EquilibriumResult(i * step, j * step, value, max_min, min_max, certificate)


def _security_level(k: np.ndarray, seed: float | None) -> tuple[float, float]:
    """The angle t maximizing min_s x(t)^T k x(s), and that maximin value.

    With u = 2t and r = k^T x(t), each r_i is a sinusoid in u and the inner
    minimum is f(u) = r0 - |(r1, r2)|.  Where f is smooth, f' = 0 implies
    r0'^2 (r1^2 + r2^2) = (r1 r1' + r2 r2')^2, a trigonometric polynomial of
    degree 4 in u, so of degree 8 in z = exp(iu).  Its roots, the zeros of
    r0' (where f' = 2 r0' when that polynomial vanishes identically), the
    zeros of r1 and r2 (which hold the kinks), u = 0 and the seed are the
    candidates; each gives a lower bound and one attains the maximum, so
    no unit-circle filter is needed.  Among candidates tied within rounding
    with the best, the one nearest ``seed`` wins, then the smallest angle
    in [0, pi); with no seed, the smallest angle.
    """
    scale = 1.0 + float(np.abs(k).sum())
    scaled = k / scale  # so the quartic stays finite at any stake
    # r_i = a + b cos u + c sin u is (b + ic)/2 z^-1 + a + (b - ic)/2 z, with
    # (a, b, c) column i of k, and d/du multiplies z^n by i n.
    half = 0.5 * (scaled[1] + 1j * scaled[2])
    r = np.stack([half, scaled[0], half.conj()], axis=1)
    dr = r * np.array([-1j, 0.0, 1j])
    square = np.convolve(r[1], r[1]) + np.convolve(r[2], r[2])
    cross = np.convolve(r[1], dr[1]) + np.convolve(r[2], dr[2])
    poly = np.convolve(np.convolve(dr[0], dr[0]), square) - np.convolve(cross, cross)
    # Coefficients under the rounding noise, or subnormal, go: either kind
    # would overflow the entries of np.roots' companion matrix.
    poly[np.abs(poly) < max(1e-15 * float(np.abs(poly).max()), 1e-280)] = 0.0
    u = np.angle(np.roots(poly[::-1])).tolist()  # poly[j] multiplies z^(j - 4)

    (_, b0, c0), *kinked = scaled.T.tolist()
    phase = math.atan2(c0, b0)
    u += [0.0, phase, phase + math.pi]  # r0' = 0 at the last two
    for a, b, c in kinked:  # r_i = a + |(b, c)| cos(u - phase) = 0
        size = math.hypot(b, c)
        if 0.0 < size and abs(a) <= size:
            phase, spread = math.atan2(c, b), math.acos(-a / size)
            u += [phase - spread, phase + spread]
    t = [reduce_angle(0.5 * v) for v in u]
    if seed is not None:
        t.append(seed)

    rk = _angle_rows(np.array(t)) @ k
    f = (rk[:, 0] - np.hypot(rk[:, 1], rk[:, 2])).tolist()
    tie = max(f) - _TIE_RTOL * scale
    return min((tv for tv in zip(t, f) if tv[1] >= tie),
               key=lambda tv: (0.0 if seed is None else angle_gap(tv[0], seed), tv[0]))


def refine_saddle(
    spec: GameSpec,
    seed: tuple[float, float] | None = None,
    tol: float = 1e-9,
) -> EquilibriumResult:
    """Solve the angle game on the payoff kernel exactly.

    ``alpha_star`` attains Alice's maximin and ``beta_star`` Bob's
    minimax, each the best of a finite set of closed-form candidates (see
    ``_security_level``).  Among optima tied within 1e-12 * (1 + sum|K|),
    each angle is the smallest in [0, pi), or, given a ``seed``, the one
    nearest its seed angle, so a seed that is already a saddle comes back
    unchanged.  ``value`` is h(alpha_star, beta_star).  With
    band = max(tol, 1e-12 * (1 + mass)) and mass the sum of the stakes'
    magnitudes, the game has no saddle when the one-sided values differ by
    more than max(10*band, 1e-8); the result then carries the no-saddle
    and no-convergence flags together.  Otherwise the analytic gradient at
    the profile is checked for stationarity.
    """
    k = payoff_kernel(spec)
    seed_a, seed_b = (None, None) if seed is None else map(reduce_angle, seed)
    a, max_min = _security_level(k, seed_a)
    b, neg_min_max = _security_level(-k.T, seed_b)
    min_max = -neg_min_max
    value = float(_x(a) @ k @ _x(b))

    mass = sum(abs(x) for x in spec.coefficients.as_tuple())
    band = max(tol, _TIE_RTOL * (1.0 + mass))
    flags: list[str] = []
    if min_max - max_min > max(10.0 * band, 1e-8):
        flags += [FLAG_NO_CONVERGENCE, FLAG_NO_SADDLE]
    else:
        grad = _kernel_gradient(k, a, b)
        # With no gap, each angle is a best response to the other.  Being
        # within band of the peak of a sinusoid of amplitude R leaves an
        # angle within sqrt(band / 2R) of it, hence a gradient of at most
        # sqrt(8 R band); R is bounded by the coefficient mass.
        grad_tol = math.sqrt(8.0 * band * (mass + 1.0)) + 100.0 * band
        if max(abs(grad[0]), abs(grad[1])) > grad_tol:
            flags.append(FLAG_NOT_STATIONARY)

    certificate = max(0.0, min_max - value, value - max_min)
    return EquilibriumResult(a, b, value, max_min, min_max, certificate,
                             tuple(flags))


def verify_saddle(spec: GameSpec, result: EquilibriumResult, n: int = 256) -> float:
    """Deviation bound for a candidate saddle, measured on an n-point grid.

    Returns max(0, max_alpha h(alpha, beta*) - v, v - min_beta h(alpha*, beta))
    over the angles k*pi/n, with h evaluated on the payoff kernel; a small
    value certifies that neither player gains much by deviating to any
    grid angle.  The grid rows are the cached, read-only rows that
    ``grid_saddle_oracle`` uses; the bound is that of rows computed afresh.
    Raises ValueError for n < 8, as the oracle does.
    """
    x = _grid_rows(n)
    k = payoff_kernel(spec)
    best_dev_alice = float((x @ (k @ _x(result.beta_star))).max())
    best_dev_bob = float((x @ (k.T @ _x(result.alpha_star))).min())
    return max(0.0, best_dev_alice - result.value, result.value - best_dev_bob)
