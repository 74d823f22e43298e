"""The two desk games folded into one 4x4 zero-sum matrix game.

A compound strategy fixes one action per desk; the four of them are
indexed in the frozen order 1-2, 1-4, 3-2, 3-4 (odd-desk action first).
A mixed compound strategy is a joint distribution over that set; its
per-desk marginals are a ProbabilityQuadruple, and a joint is classical
"independent play" exactly when it is the product of its marginals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import PayoffCoefficients, ProbabilityQuadruple

#: row/column order of the compound-strategy matrix, frozen for all I/O
COMPOUND_STRATEGIES = ("1-2", "1-4", "3-2", "3-4")
_ODD_ACTION = (1, 1, 3, 3)
_EVEN_ACTION = (2, 4, 2, 4)


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


def classical_matrix(c: PayoffCoefficients) -> ClassicalMatrix:
    """The 4x4 compound-strategy payoff matrix for the given stakes."""
    m = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            odd, even = desk_payoff(_ODD_ACTION[i], _EVEN_ACTION[i],
                                    _ODD_ACTION[j], _EVEN_ACTION[j], c)
            m[i, j] = odd + even
    return ClassicalMatrix(m)


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
