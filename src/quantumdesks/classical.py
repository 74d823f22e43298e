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
desk games in closed form; it accepts only matrices with that structure.

The solver works on Python floats.  ``solve_classical`` hands the rows
of a ClassicalMatrix to ``_solve_desk_sum``, and the ``classical``
command hands it the rows of ``_compound_rows`` directly, so the command
never imports numpy.  Only ClassicalMatrix and ClassicalSolution hold
numpy arrays; each imports numpy where it builds one, as
``JointDistribution.as_vector`` does for the vector it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import PayoffCoefficients, ProbabilityQuadruple

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
        import numpy as np

        return np.array(self.as_tuple())


@dataclass(frozen=True)
class ClassicalMatrix:
    """Row player's payoffs, rows and columns ordered as COMPOUND_STRATEGIES."""

    entries: np.ndarray

    def __post_init__(self):
        import numpy as np

        m = np.array(self.entries, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("classical matrix must be 4x4")
        if not np.isfinite(m).all():
            raise ValueError("classical matrix entries must be finite")
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


def desk_table(c: PayoffCoefficients) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Alice's (odd, even) desk payoffs in the 16 outcome cells.

    Entry 4*i + j of each tuple is ``desk_payoff`` for her compound
    strategy i against Bob's j.
    """
    actions = tuple(zip(_ODD_ACTION, _EVEN_ACTION))
    return tuple(zip(*[desk_payoff(a_odd, a_even, b_odd, b_even, c)
                       for a_odd, a_even in actions for b_odd, b_even in actions]))


def _compound_rows(c: PayoffCoefficients) -> list[list[float]]:
    """The rows of ``classical_matrix(c)`` as Python floats: the two desk
    tables added, cell 4*i + j at row i and column j."""
    cells = [odd + even for odd, even in zip(*desk_table(c))]
    return [cells[i:i + 4] for i in range(0, 16, 4)]


def classical_matrix(c: PayoffCoefficients) -> ClassicalMatrix:
    """The 4x4 compound-strategy payoff matrix for the given stakes."""
    return ClassicalMatrix(_compound_rows(c))


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
        import numpy as np

        for name in ("alice_mixed", "bob_mixed"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def solve_classical(m: ClassicalMatrix) -> ClassicalSolution:
    """Value and optimal mixed strategies of the compound 4x4 zero-sum game.

    Compound strategy i plays odd-desk action a_i = i // 2 and even-desk
    action b_i = i % 2.  The matrix must be a desk sum, m[i, j] =
    O[a_i, a_j] + E[b_i, b_j] within 1e-12 * (1 + max|m|) for 2x2 desk
    games O and E, as every ``classical_matrix`` is; any other matrix
    raises ValueError.  Each desk game is solved in closed form: the value
    is v_O + v_E, and each player's strategy is the product joint of their
    two optimal desk marginals.  The result is checked against the
    optimality inequalities at 1e-9 * (1 + max|m|); a failure is a bug and
    raises ArithmeticError.

    ``degenerate`` means some player has more than one optimal joint.  That
    holds when a desk game has more than one optimal marginal for either
    player, or when a player mixes on both desks, because every joint with
    the optimal marginals is then optimal; desk-game entries within
    1e-9 * (1 + max|m|) count as tied.
    """
    return ClassicalSolution(*_solve_desk_sum(m.entries.tolist()))


def _solve_desk_sum(M: list[list[float]]) -> tuple[tuple, tuple, float, bool]:
    """``solve_classical`` on the rows of a finite 4x4 matrix as Python
    floats: Alice's and Bob's optimal joints as tuples, the value and the
    ``degenerate`` flag."""
    scale = 1.0 + max(abs(v) for row in M for v in row)
    check_tol = _CHECK_RTOL * scale
    odd = [[M[0][0], M[0][2]], [M[2][0], M[2][2]]]
    even = [[M[i][j] - M[0][0] for j in (0, 1)] for i in (0, 1)]
    # row 2a + b plays odd-desk action a and even-desk action b
    misfit = max(abs(M[2 * a + b][2 * c + d] - (odd[a][c] + even[b][d]))
                 for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1))
    if not misfit <= _DESK_RTOL * scale:
        raise ValueError("classical matrix is not the sum of two 2x2 desk games")
    v_odd, p_odd, q_odd, loose_odd = _solve_2x2(odd, check_tol)
    v_even, p_even, q_even, loose_even = _solve_2x2(even, check_tol)
    value = v_odd + v_even
    x = independent_joint(ProbabilityQuadruple(p_odd, p_even, 1.0 - p_odd,
                                               1.0 - p_even)).as_tuple()
    y = independent_joint(ProbabilityQuadruple(q_odd, q_even, 1.0 - q_odd,
                                               1.0 - q_even)).as_tuple()
    alice_worst = min(sum(x[i] * M[i][j] for i in range(4)) for j in range(4))
    bob_worst = max(sum(M[i][j] * y[j] for j in range(4)) for i in range(4))
    if not (alice_worst >= value - check_tol and bob_worst <= value + check_tol):
        raise ArithmeticError("the desk solution fails its optimality check")
    mixes_both = (0.0 < p_odd < 1.0 and 0.0 < p_even < 1.0) or \
        (0.0 < q_odd < 1.0 and 0.0 < q_even < 1.0)
    return x, y, value, loose_odd or loose_even or mixes_both


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
