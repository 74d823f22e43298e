"""The game's value types and its scalar payoff, on Python floats only.

A game is four stakes and one observable frame per player; a strategy
angle maps to a ProbabilityQuadruple, and ``scalar_payoff`` prices a
pair of quadruples.  Nothing here imports numpy, so the commands that
need only these values (``curve``, ``classical``) never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


def reduce_angle(x: float, period: float = math.pi) -> float:
    """``x`` modulo ``period``, in [0, period).

    A hair-negative ``x`` modulo ``period`` rounds to ``period`` itself; it
    maps to 0 here.
    """
    x = x % period
    return 0.0 if x >= period else x


def angle_gap(a: float, b: float) -> float:
    """Distance between two strategy angles on the circle of period pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


@dataclass(frozen=True)
class ObservableFrame:
    """A player's pair of noncommuting yes/no observables.

    ``theta`` is the tilt of the second observable against the first,
    ``lam`` its relative phase.  Angles are radians and are normalized at
    construction: theta to [0, pi), lam to [0, 2*pi).  Both families of
    projectors are invariant under these shifts.
    """

    theta: float
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.lam)):
            raise ValueError("frame angles must be finite")
        object.__setattr__(self, "theta", reduce_angle(self.theta))
        object.__setattr__(self, "lam", reduce_angle(self.lam, TWO_PI))


@dataclass(frozen=True)
class PayoffCoefficients:
    """Stakes of the four scoring events (c1, c3 on the odd desk; c2, c4 even)."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c1, self.c2, self.c3, self.c4)


@dataclass(frozen=True)
class GameSpec:
    """A full game instance: stakes plus one observable frame per player."""

    coefficients: PayoffCoefficients
    alice_frame: ObservableFrame
    bob_frame: ObservableFrame


@dataclass(frozen=True)
class ProbabilityQuadruple:
    """One player's yes-probabilities across the two desks.

    (p1, p3) is the odd-desk pair and (p2, p4) the even-desk pair; the
    pairs each sum to one because each desk's projectors resolve the
    identity.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        vals = self.as_tuple()
        if not all(-1e-9 <= v <= 1.0 + 1e-9 for v in vals):  # NaN fails too
            raise ValueError(f"probabilities out of [0, 1]: {vals}")
        if abs(self.p1 + self.p3 - 1.0) > 1e-9 or abs(self.p2 + self.p4 - 1.0) > 1e-9:
            raise ValueError(f"desk pairs must each sum to 1: {vals}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


class PayoffBreakdown(NamedTuple):
    """Scalar payoff and its per-desk split."""

    total: float
    odd: float
    even: float


def scalar_payoff(
    c: PayoffCoefficients, p: ProbabilityQuadruple, q: ProbabilityQuadruple
) -> PayoffBreakdown:
    """Average payoff c3*p1*q3 + c1*p3*q1 + c4*p2*q4 + c2*p4*q2, split by desk."""
    odd = c.c3 * p.p1 * q.p3 + c.c1 * p.p3 * q.p1
    even = c.c4 * p.p2 * q.p4 + c.c2 * p.p4 * q.p2
    return PayoffBreakdown(odd + even, odd, even)
