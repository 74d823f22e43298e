"""The two desk games folded into one 4x4 zero-sum matrix game, and its solver.

A compound strategy fixes one action per desk; the four of them are
indexed in the frozen order 1-2, 1-4, 3-2, 3-4 (odd-desk action first).
A mixed compound strategy is a joint distribution over that set; its
per-desk marginals are a ProbabilityQuadruple, and a joint is classical
"independent play" exactly when it is the product of its marginals.

The outcome cell 4*i + j is Alice's compound strategy i against Bob's j,
the row-major index into the matrix.  ``desk_table`` gives Alice's odd-
and even-desk payoff in each cell; the matrix is their sum, and the
simulation reads the same table.  The compound game is the odd-desk 2x2
game plus the even-desk 2x2 game, so ``solve_classical`` solves the two
desk games in closed form and keeps support enumeration for any 4x4
matrix without that structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .quantum import PayoffCoefficients, ProbabilityQuadruple

#: row/column order of the compound-strategy matrix, frozen for all I/O
COMPOUND_STRATEGIES = ("1-2", "1-4", "3-2", "3-4")
_ODD_ACTION = (1, 1, 3, 3)
_EVEN_ACTION = (2, 4, 2, 4)

#: a matrix is a desk sum when it fits one within this, relative to 1 + max|m|
_DESK_RTOL = 1e-12
#: solutions meet the optimality inequalities within this, relative to 1 + max|m|
_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class JointDistribution:
    """A mixed strategy over the four compound strategies of one player."""

    p12: float
    p14: float
    p32: float
    p34: float

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(v >= -1e-12 for v in vals):  # NaN fails too
            raise ValueError(f"joint probabilities must be nonnegative: {vals}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise ValueError(f"joint probabilities must sum to 1: {vals}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p12, self.p14, self.p32, self.p34)

    def as_vector(self) -> np.ndarray:
        return np.array(self.as_tuple())


@dataclass(frozen=True)
class ClassicalMatrix:
    """Row player's payoffs, rows and columns ordered as COMPOUND_STRATEGIES."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("classical matrix must be 4x4")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def desk_payoff(alice_odd: int, alice_even: int, bob_odd: int, bob_even: int,
                c: PayoffCoefficients) -> tuple[float, float]:
    """Per-desk payoffs to Alice for one pure compound-strategy profile.

    The odd desk pays c3 on (1 vs 3) and c1 on (3 vs 1); the even desk
    pays c4 on (2 vs 4) and c2 on (4 vs 2); every other profile pays
    nothing.
    """
    odd = c.c3 if (alice_odd, bob_odd) == (1, 3) else \
        c.c1 if (alice_odd, bob_odd) == (3, 1) else 0.0
    even = c.c4 if (alice_even, bob_even) == (2, 4) else \
        c.c2 if (alice_even, bob_even) == (4, 2) else 0.0
    return odd, even


def desk_table(c: PayoffCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Alice's (odd, even) desk payoffs in the 16 outcome cells.

    Entry 4*i + j of each array is ``desk_payoff`` for her compound
    strategy i against Bob's j.
    """
    actions = tuple(zip(_ODD_ACTION, _EVEN_ACTION))
    odd, even = zip(*[desk_payoff(a_odd, a_even, b_odd, b_even, c)
                      for a_odd, a_even in actions for b_odd, b_even in actions])
    return np.array(odd), np.array(even)


def classical_matrix(c: PayoffCoefficients) -> ClassicalMatrix:
    """The 4x4 compound-strategy payoff matrix for the given stakes: the
    two desk tables added, cell 4*i + j at row i and column j."""
    odd, even = desk_table(c)
    return ClassicalMatrix((odd + even).reshape(4, 4))


def swapped_labels(c: PayoffCoefficients) -> PayoffCoefficients:
    """The alternative coefficient labeling (c1 <-> c3, c2 <-> c4).

    Some presentations of this game attach the stakes to the opposite
    desk events; building the matrix from the relabeled coefficients
    reproduces that convention.  The two agree whenever c1 = c3 and
    c2 = c4.
    """
    return PayoffCoefficients(c1=c.c3, c2=c.c4, c3=c.c1, c4=c.c2)


def marginals(j: JointDistribution) -> ProbabilityQuadruple:
    """Per-desk action probabilities of a joint compound strategy."""
    return ProbabilityQuadruple(
        p1=j.p12 + j.p14,
        p2=j.p12 + j.p32,
        p3=j.p32 + j.p34,
        p4=j.p14 + j.p34,
    )


def independent_joint(p: ProbabilityQuadruple) -> JointDistribution:
    """The product-form joint with the given marginals (independent desks)."""
    return JointDistribution(
        p12=p.p1 * p.p2,
        p14=p.p1 * p.p4,
        p32=p.p3 * p.p2,
        p34=p.p3 * p.p4,
    )


def is_product_form(j: JointDistribution, tol: float = 1e-10) -> bool:
    """Whether the joint factors into its marginals (2x2 determinant test)."""
    return abs(j.p12 * j.p34 - j.p14 * j.p32) <= tol


def bilinear_payoff(m: ClassicalMatrix, alice: JointDistribution,
                    bob: JointDistribution) -> float:
    """Expected payoff when both players mix over compound strategies."""
    return float(alice.as_vector() @ m.entries @ bob.as_vector())


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


def solve_classical(m: ClassicalMatrix) -> ClassicalSolution:
    """Value and optimal mixed strategies of the 4x4 zero-sum matrix game.

    Compound strategy i plays odd-desk action a_i = i // 2 and even-desk
    action b_i = i % 2.  When m[i, j] = O[a_i, a_j] + E[b_i, b_j] within
    1e-12 * (1 + max|m|) for 2x2 desk games O and E, as every
    ``classical_matrix`` is, each desk game is solved in closed form: the
    value is v_O + v_E, and each player's strategy is the product joint of
    their two optimal desk marginals.  That result is checked against the
    optimality inequalities at 1e-9 * (1 + max|m|).  Any other matrix, or a
    result that fails the check, goes to support enumeration.

    ``degenerate`` means some player has more than one optimal joint.  For a
    desk sum that holds when a desk game has more than one optimal marginal
    for either player, or when a player mixes on both desks, because every
    joint with the optimal marginals is then optimal; desk-game entries
    within 1e-9 * (1 + max|m|) count as tied.  For enumeration it holds when
    verified support pairs realize more than one distinct support.
    """
    M = np.asarray(m.entries, dtype=float)
    solution = _solve_desk_sum(M)
    if solution is None:
        solution = _solve_by_support_enumeration(m)
    return solution


def _solve_desk_sum(M: np.ndarray) -> ClassicalSolution | None:
    """The closed-form desk solution; None unless ``M`` is a desk sum it solves."""
    scale = 1.0 + float(np.abs(M).max())
    check_tol = _CHECK_RTOL * scale
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


def _solve_by_support_enumeration(m: ClassicalMatrix) -> ClassicalSolution:
    """Solve any 4x4 matrix game by enumerating its 225 support pairs.

    Pairs run in a fixed (size, lexicographic) order; for each pair the
    payoff-equalization system is solved as a small linear system and the
    candidate is kept only if it passes the optimality inequalities.  Of
    the verified pairs, the one with the smallest duality gap
    ``max(M y) - min(x M)`` is returned, the first in that order on ties,
    so a pair that verifies only within the tolerance gives way to an
    exact one.  The solution is flagged degenerate
    when verified pairs realize more than one distinct support (the same
    strategies re-verifying under padded supersets do not count).
    """
    M = np.asarray(m.entries, dtype=float)
    check_tol = _CHECK_RTOL * (1.0 + float(np.max(np.abs(M))))
    supports = [s for k in range(1, 5) for s in combinations(range(4), k)]

    best: tuple[np.ndarray, np.ndarray, float] | None = None
    best_gap = math.inf
    realized: set[tuple] = set()
    for rows in supports:
        for cols in supports:
            cand = _support_pair_solution(M, rows, cols, check_tol)
            if cand is None:
                continue
            x, y, _ = cand
            realized.add((tuple(x > 1e-8), tuple(y > 1e-8)))
            gap = float(np.max(M @ y) - np.min(x @ M))
            if best is None or gap < best_gap:
                best, best_gap = cand, gap
    if best is None:  # cannot happen: some square support is a game kernel
        raise ArithmeticError("no support pair solved the matrix game")
    x, y, value = best
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
