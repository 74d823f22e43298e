"""Saddle-point search over the two strategy angles, plus a 4x4 matrix solver.

With x(t) = (1, cos 2t, sin 2t), each player's desk probabilities are
linear in x of that player's angle, so the payoff is exactly the bilinear
form h(alpha, beta) = x(alpha)^T K x(beta) for a 3x3 real kernel K built
from the stakes and both frames.  For fixed alpha, h(alpha, .) is
r0 + r1 cos 2beta + r2 sin 2beta with r = K^T x(alpha), whose minimum is
r0 - |(r1, r2)|.  Alice's maximin is the maximum of that one-angle
function; Bob's minimax is the same computation on -K^T.

``refine_saddle`` solves both with one vectorized scan per player and a
golden-section polish of every local maximum of the scan.  The game has a
saddle exactly when the two one-sided values meet.  The grid oracle and
``verify_saddle`` evaluate the same kernel on rows of x at uniform angles.
The scalar ``payoff_surface`` evaluates the probability map directly and
is the reference the kernel is tested against.

The compound 4x4 matrix game of ``classical`` is the odd-desk 2x2 game
plus the even-desk 2x2 game.  ``solve_classical`` solves the two desk
games in closed form and keeps support enumeration for any 4x4 matrix
without that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import probabilities_from_angle
from .quantum import (GameSpec, ProbabilityQuadruple, angle_gap, reduce_angle,
                      scalar_payoff)
from .classical import ClassicalMatrix, independent_joint

FLAG_NO_CONVERGENCE = "no_convergence"
FLAG_NO_SADDLE = "no_saddle"
FLAG_NOT_STATIONARY = "not_stationary"

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_X_TOL = 1e-12


def _angle_rows(n: int) -> np.ndarray:
    """Rows x(t) = (1, cos 2t, sin 2t) at the n angles t = k*pi/n, k = 0..n-1."""
    t = np.arange(n) * (math.pi / n)
    return np.stack([np.ones(n), np.cos(2.0 * t), np.sin(2.0 * t)], axis=1)


#: points per period in the scan of a one-sided objective
_SCAN_POINTS = 512
_SCAN_X = _angle_rows(_SCAN_POINTS)
#: objective values this close, relative to the kernel's mass, are ties
_TIE_RTOL = 1e-12
#: a matrix is a desk sum when it fits one within this, relative to 1 + max|m|
_DESK_RTOL = 1e-12


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


@dataclass(frozen=True)
class ClassicalSolution:
    """Optimal mixed strategies and value of the 4x4 compound-strategy game."""

    alice_mixed: np.ndarray
    bob_mixed: np.ndarray
    value: float
    degenerate: bool = False

    def __post_init__(self):
        for name in ("alice_mixed", "bob_mixed"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def payoff_surface(spec: GameSpec, alpha: float, beta: float) -> float:
    """Average payoff when Alice plays angle ``alpha`` and Bob ``beta``."""
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    return scalar_payoff(spec.coefficients, p, q).total


def payoff_kernel(spec: GameSpec) -> np.ndarray:
    """The 3x3 K with h(alpha, beta) = x(alpha)^T K x(beta), x(t) = (1, cos 2t, sin 2t).

    Each player has p1 = u1 . x and p2 = u2 . x with u1 = (1, 1, 0) / 2 and
    u2 = (1, cos 2*theta, sin 2*theta cos lam) / 2; the complements are
    e0 - u, because 1 = e0 . x.
    """
    c = spec.coefficients
    e0 = np.array([1.0, 0.0, 0.0])
    a1, a2 = _probability_rows(spec.alice_frame)
    b1, b2 = _probability_rows(spec.bob_frame)
    return (c.c3 * np.outer(a1, e0 - b1) + c.c1 * np.outer(e0 - a1, b1)
            + c.c4 * np.outer(a2, e0 - b2) + c.c2 * np.outer(e0 - a2, b2))


def _probability_rows(frame) -> tuple[np.ndarray, np.ndarray]:
    two_theta = 2.0 * frame.theta
    return (np.array([0.5, 0.5, 0.0]),
            0.5 * np.array([1.0, math.cos(two_theta),
                            math.sin(two_theta) * math.cos(frame.lam)]))


def _x(t: float) -> np.ndarray:
    return np.array([1.0, math.cos(2.0 * t), math.sin(2.0 * t)])


def _dx(t: float) -> np.ndarray:
    return np.array([0.0, -2.0 * math.sin(2.0 * t), 2.0 * math.cos(2.0 * t)])


def payoff_gradient(spec: GameSpec, alpha: float, beta: float) -> tuple[float, float]:
    """Analytic (d h / d alpha, d h / d beta) at the given angles.

    They are x'(alpha)^T K x(beta) and x(alpha)^T K x'(beta) on the kernel.
    """
    k = payoff_kernel(spec)
    return (float(_dx(alpha) @ k @ _x(beta)),
            float(_x(alpha) @ k @ _dx(beta)))


def grid_saddle_oracle(spec: GameSpec, n: int = 256) -> EquilibriumResult:
    """Exhaustive saddle search on the n x n angle grid over [0, pi)^2.

    The grid is h = X K X^T on the payoff kernel, X the rows x(k*pi/n).
    Deterministic: ties are broken toward the smallest alpha, then the
    smallest beta.  Serves as the reference oracle for the refiner.
    """
    if n < 8:
        raise ValueError("grid resolution must be at least 8")
    x = _angle_rows(n)
    h = x @ payoff_kernel(spec) @ x.T
    row_min = h.min(axis=1)
    col_max = h.max(axis=0)
    i = int(np.argmax(row_min))
    j = int(np.argmin(col_max))
    max_min = float(row_min[i])
    min_max = float(col_max[j])
    value = float(h[i, j])
    certificate = max(0.0, min_max - value, value - max_min)
    step = math.pi / n
    return EquilibriumResult(i * step, j * step, value, max_min, min_max, certificate)


def _golden_max(f, lo: float, hi: float, x_tol: float) -> tuple[float, float]:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > x_tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _security_level(k: np.ndarray, seed: float) -> tuple[float, float]:
    """The angle t maximizing min_s x(t)^T k x(s), and that maximin value.

    The inner minimum is r0 - |(r1, r2)| with r = k^T x(t).  It is scanned
    on a uniform grid and every local maximum of the scan is polished by
    golden section.  Of the polished maxima and the seed itself, the one
    nearest ``seed`` wins among those tied within rounding.
    """
    columns = k.T.tolist()

    def level(t: float) -> float:  # scalar, for the polish
        c2, s2 = math.cos(2.0 * t), math.sin(2.0 * t)
        r0, r1, r2 = (k0 + c2 * k1 + s2 * k2 for k0, k1, k2 in columns)
        return r0 - math.hypot(r1, r2)

    r = _SCAN_X @ k
    f = r[:, 0] - np.hypot(r[:, 1], r[:, 2])
    # Strict on the left, so a scan that is exactly flat has no peaks.
    peaks = np.flatnonzero((f > np.roll(f, 1)) & (f >= np.roll(f, -1)))
    step = math.pi / _SCAN_POINTS
    found = [_golden_max(level, t - step, t + step, _GOLDEN_X_TOL)
             for t in peaks * step]
    found.append((seed, level(seed)))
    best = max(v for _, v in found)
    tie = best - _TIE_RTOL * (1.0 + float(np.abs(k).sum()))
    t, v = min((tv for tv in found if tv[1] >= tie),
               key=lambda tv: angle_gap(tv[0], seed))
    return reduce_angle(float(t)), float(v)


def refine_saddle(
    spec: GameSpec,
    seed: tuple[float, float],
    tol: float = 1e-9,
) -> EquilibriumResult:
    """Solve the angle game on the payoff kernel; ``seed`` breaks ties.

    ``alpha_star`` attains Alice's maximin and ``beta_star`` Bob's
    minimax, each found by a scan and a golden-section polish of every
    local maximum (see the module docstring).  Among optima tied within
    rounding, each angle is the one nearest its seed, so a seed that is
    already a saddle comes back unchanged.  ``value`` is h(alpha_star,
    beta_star).  When the one-sided values differ by more than
    max(10*tol, 1e-8) the game has no saddle, and the result carries the
    no-saddle and no-convergence flags together.  Otherwise the analytic
    gradient at the profile is checked for stationarity.
    """
    k = payoff_kernel(spec)
    a, max_min = _security_level(k, reduce_angle(seed[0]))
    b, neg_min_max = _security_level(-k.T, reduce_angle(seed[1]))
    min_max = -neg_min_max
    value = float(_x(a) @ k @ _x(b))

    flags: list[str] = []
    if min_max - max_min > max(10.0 * tol, 1e-8):
        flags += [FLAG_NO_CONVERGENCE, FLAG_NO_SADDLE]
    else:
        grad = payoff_gradient(spec, a, b)
        # With no gap, each angle is a best response to the other.  Being
        # within tol of the peak of a sinusoid of amplitude R leaves an angle
        # within sqrt(tol / 2R) of it, hence a gradient of at most
        # sqrt(8 R tol); R is bounded by the coefficient mass.
        mass = sum(abs(x) for x in spec.coefficients.as_tuple())
        grad_tol = math.sqrt(8.0 * tol * (mass + 1.0)) + 100.0 * tol
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
    grid angle.
    """
    k = payoff_kernel(spec)
    x = _angle_rows(n)
    best_dev_alice = float((x @ (k @ _x(result.beta_star))).max())
    best_dev_bob = float((x @ (k.T @ _x(result.alpha_star))).min())
    return max(0.0, best_dev_alice - result.value, result.value - best_dev_bob)


def solve_classical(m: ClassicalMatrix, tol: float = 1e-9) -> ClassicalSolution:
    """Value and optimal mixed strategies of the 4x4 zero-sum matrix game.

    Compound strategy i plays odd-desk action a_i = i // 2 and even-desk
    action b_i = i % 2.  When m[i, j] = O[a_i, a_j] + E[b_i, b_j] within
    1e-12 * (1 + max|m|) for 2x2 desk games O and E, as every
    ``classical_matrix`` is, each desk game is solved in closed form: the
    value is v_O + v_E, and each player's strategy is the product joint of
    their two optimal desk marginals.  That result is checked against the
    optimality inequalities at tol * (1 + max|m|).  Any other matrix, or a
    result that fails the check, goes to support enumeration.

    ``degenerate`` means some player has more than one optimal joint.  For a
    desk sum that holds when a desk game has more than one optimal marginal
    for either player, or when a player mixes on both desks, because every
    joint with the optimal marginals is then optimal; desk-game entries
    within tol * (1 + max|m|) count as tied.  For enumeration it holds when
    verified support pairs realize more than one distinct support.
    """
    M = np.asarray(m.entries, dtype=float)
    solution = _solve_desk_sum(M, tol)
    if solution is None:
        solution = _solve_by_support_enumeration(m, tol)
    return solution


def _solve_desk_sum(M: np.ndarray, tol: float) -> ClassicalSolution | None:
    """The closed-form desk solution; None unless ``M`` is a desk sum it solves."""
    scale = 1.0 + float(np.abs(M).max())
    check_tol = tol * scale
    odd = M[::2, ::2]
    even = M[:2, :2] - M[0, 0]
    # M.reshape(2, 2, 2, 2)[a, b, a', b'] is M[2a + b, 2a' + b']
    misfit = float(np.abs(M.reshape(2, 2, 2, 2)
                          - (odd[:, None, :, None] + even[None, :, None, :])).max())
    if not misfit <= _DESK_RTOL * scale:
        return None
    v_odd, p_odd, q_odd, loose_odd = _solve_2x2(odd.tolist(), check_tol)
    v_even, p_even, q_even, loose_even = _solve_2x2(even.tolist(), check_tol)
    value = v_odd + v_even
    x = independent_joint(ProbabilityQuadruple(p_odd, p_even, 1.0 - p_odd,
                                               1.0 - p_even)).as_vector()
    y = independent_joint(ProbabilityQuadruple(q_odd, q_even, 1.0 - q_odd,
                                               1.0 - q_even)).as_vector()
    if not ((x @ M).min() >= value - check_tol and (M @ y).max() <= value + check_tol):
        return None
    mixes_both = (0.0 < p_odd < 1.0 and 0.0 < p_even < 1.0) or \
        (0.0 < q_odd < 1.0 and 0.0 < q_even < 1.0)
    return ClassicalSolution(x, y, value,
                             degenerate=loose_odd or loose_even or mixes_both)


def _solve_2x2(g: list, eq: float) -> tuple[float, float, float, bool]:
    """Value of the 2x2 game ``g`` (rows maximize) and the players' weights on
    their first actions, plus whether either player's optimum is not unique.

    A pure saddle is taken when there is one, the lowest (row, column)
    first; otherwise both players mix.  Entries within ``eq`` count as equal
    when judging uniqueness.
    """
    (a, b), (c, d) = g
    saddle = next(((i, j) for i in (0, 1) for j in (0, 1)
                   if g[i][1 - j] >= g[i][j] >= g[1 - i][j]), None)
    if saddle is not None:
        i, j = saddle
        v, p, q = g[i][j], 1.0 - i, 1.0 - j
    else:
        den = (a - b) + (d - c)  # both terms share one sign without a saddle
        v, p, q = (a * d - b * c) / den, (d - c) / den, (d - b) / den
    loose = _rows_have_many_optima(g, v, eq) or \
        _rows_have_many_optima([[-a, -c], [-b, -d]], -v, eq)
    return v, p, q, loose


def _rows_have_many_optima(g: list, v: float, eq: float) -> bool:
    """Whether the row player of the 2x2 game ``g`` of value ``v`` has more
    than one optimal mix.

    The guaranteed payoff is the lower of two lines in the mix, so it is flat
    at its peak only when some column pays v against both rows.  The optima
    then form an interval unless the other column pays v on one row and less
    on the other, which pins the mix to a single point.
    """
    for j in (0, 1):
        if abs(g[0][j] - v) <= eq and abs(g[1][j] - v) <= eq:
            other = (g[0][1 - j], g[1][1 - j])
            if max(other) > v + eq or min(other) >= v - eq:
                return True
    return False


def _solve_by_support_enumeration(m: ClassicalMatrix, tol: float = 1e-9) -> ClassicalSolution:
    """Solve any 4x4 matrix game by enumerating its 225 support pairs.

    Pairs run in a fixed (size, lexicographic) order; for each pair the
    payoff-equalization system is solved as a small linear system and the
    candidate is kept only if it passes the optimality inequalities.  The
    first verified pair is returned; the solution is flagged degenerate
    when verified pairs realize more than one distinct support (the same
    strategies re-verifying under padded supersets do not count).
    """
    M = np.asarray(m.entries, dtype=float)
    check_tol = tol * (1.0 + float(np.max(np.abs(M))))
    supports = [s for k in range(1, 5) for s in combinations(range(4), k)]

    first: tuple[np.ndarray, np.ndarray, float] | None = None
    realized: set[tuple] = set()
    for rows in supports:
        for cols in supports:
            cand = _support_pair_solution(M, rows, cols, check_tol)
            if cand is None:
                continue
            x, y, _ = cand
            realized.add((tuple(x > 1e-8), tuple(y > 1e-8)))
            if first is None:
                first = cand
    if first is None:  # cannot happen: some square support is a game kernel
        raise ArithmeticError("no support pair solved the matrix game")
    x, y, value = first
    return ClassicalSolution(x, y, value, degenerate=len(realized) > 1)


def _support_pair_solution(M, rows, cols, tol):
    """Equalize payoffs on a support pair; None unless optimal for both."""
    x = _equalizing_weights(M.T, cols, rows, tol)
    if x is None:
        return None
    x_full, v = x
    if np.min(x_full @ M) < v - tol:
        return None
    y = _equalizing_weights(M, rows, cols, tol)
    if y is None:
        return None
    y_full, w = y
    if np.max(M @ y_full) > w + tol:
        return None
    if abs(v - w) > tol:
        return None
    return x_full, y_full, 0.5 * (v + w)


def _equalizing_weights(payoffs, eq_idx, var_idx, tol):
    """Weights on var_idx making payoffs[j] @ weights equal for j in eq_idx.

    Solves the bordered linear system (one equation per equalized index
    plus the normalization row); returns None when the system is
    inconsistent or the weights dip below -tol.  A solve that is not finite,
    as on stakes of subnormal size, counts as singular, and a solution that
    is not finite is rejected.
    """
    k = len(var_idx)
    rows = len(eq_idx) + 1
    A = np.zeros((rows, k + 1))
    for r, j in enumerate(eq_idx):
        A[r, :k] = payoffs[j, list(var_idx)]
        A[r, k] = -1.0
    A[rows - 1, :k] = 1.0
    rhs = np.zeros(rows)
    rhs[rows - 1] = 1.0

    sol = None
    if rows == k + 1:
        try:
            sol = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            sol = None
    if sol is None or not np.isfinite(sol).all():
        sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    if not (np.isfinite(sol).all() and np.max(np.abs(A @ sol - rhs)) <= tol):
        return None

    weights = np.zeros(payoffs.shape[1])
    weights[list(var_idx)] = sol[:k]
    if np.min(weights) < -tol:
        return None
    weights = np.clip(weights, 0.0, None)
    weights /= weights.sum()
    return weights, float(sol[k])
