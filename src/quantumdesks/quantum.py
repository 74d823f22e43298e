"""Two-level quantum machinery: states, projectors, and the payoff operator.

Everything here is a pure function on small immutable values.  The joint
space of the two players is the tensor product with Alice's slot first,
so a joint operator is ``kron(alice_op, bob_op)`` and a joint product
state is ``kron(alice_state, bob_state)``.  This ordering is fixed for
the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

ATOL = 1e-12
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _within_atol(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether every entry of ``x`` is within ATOL of ``y``; NaN never is."""
    return float(np.abs(x - y).max()) <= ATOL


def _real_part(value: complex, what: str) -> float:
    """Strip an imaginary residue below ATOL; a larger one is a bug upstream."""
    if abs(value.imag) > ATOL:
        raise ValueError(f"{what} has imaginary part {value.imag:g}; "
                         "operator is not Hermitian")
    return float(value.real)


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
class StateVector:
    """Unit vector e^{i*omega} (cos alpha, sin alpha) in C^2.

    ``alpha`` is the strategy angle; ``omega`` is a global phase with no
    observable effect (kept to make that invariance testable).
    """

    alpha: float
    omega: float = 0.0
    amplitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phase = complex(math.cos(self.omega), math.sin(self.omega))
        amps = np.array(
            [phase * math.cos(self.alpha), phase * math.sin(self.alpha)],
            dtype=complex,
        )
        object.__setattr__(self, "amplitudes", _frozen(amps))


@dataclass(frozen=True)
class Projector:
    """A 2x2 Hermitian idempotent matrix (a yes/no observable)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("projector must be 2x2")
        if not _within_atol(m, m.conj().T):
            raise ValueError("projector must be Hermitian")
        if not _within_atol(m @ m, m):
            raise ValueError("projector must be idempotent")
        object.__setattr__(self, "entries", _frozen(m))


@dataclass(frozen=True)
class PayoffOperator:
    """The 4x4 Hermitian operator whose expectation is the game payoff."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("payoff operator must be 4x4")
        if not _within_atol(m, m.conj().T):
            raise ValueError("payoff operator must be Hermitian")
        object.__setattr__(self, "entries", _frozen(m))


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
        if any(v < -1e-9 or v > 1.0 + 1e-9 for v in vals):
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


def make_projector(theta: float, lam: float = 0.0) -> Projector:
    """Rank-one projector onto the direction ``theta`` with relative phase ``lam``.

    ``make_projector(0, anything)`` projects onto the first basis vector.
    """
    ct, st = math.cos(theta), math.sin(theta)
    off = st * ct * complex(math.cos(lam), math.sin(lam))
    return Projector(np.array([[ct * ct, off], [off.conjugate(), st * st]]))


def complement(p: Projector) -> Projector:
    """The projector onto the orthogonal complement, I - p."""
    return Projector(np.eye(2, dtype=complex) - p.entries)


def weight(state: StateVector, p: Projector) -> float:
    """Probability <phi|P|phi> of the yes outcome for ``p`` in ``state``."""
    v = state.amplitudes
    w = _real_part(complex(v.conj() @ p.entries @ v), "projector weight")
    return min(1.0, max(0.0, w))


def frame_projectors(frame: ObservableFrame) -> tuple[Projector, Projector, Projector, Projector]:
    """The four projectors of a frame, in index order 1, 2, 3, 4.

    Index 1 is the odd-desk yes projector, 2 the even-desk yes projector,
    3 and 4 their complements.
    """
    first = make_projector(0.0, 0.0)
    second = make_projector(frame.theta, frame.lam)
    return first, second, complement(first), complement(second)


def build_payoff_operator(spec: GameSpec) -> PayoffOperator:
    """Assemble the 4x4 payoff operator for a game instance.

    Alice's slot comes first in every tensor product.  The operator pays
    c3 on (Alice yes, Bob no) and c1 on (Alice no, Bob yes) in the odd
    desk, and c4 / c2 for the matching even-desk events.
    """
    c = spec.coefficients
    a1, a2, a3, a4 = frame_projectors(spec.alice_frame)
    b1, b2, b3, b4 = frame_projectors(spec.bob_frame)
    h = (
        c.c3 * np.kron(a1.entries, b3.entries)
        + c.c1 * np.kron(a3.entries, b1.entries)
        + c.c4 * np.kron(a2.entries, b4.entries)
        + c.c2 * np.kron(a4.entries, b2.entries)
    )
    return PayoffOperator(h)


def expectation(h: PayoffOperator, alice: StateVector, bob: StateVector) -> float:
    """Expectation of ``h`` in the product state alice (x) bob."""
    v = np.kron(alice.amplitudes, bob.amplitudes)
    return _real_part(complex(v.conj() @ h.entries @ v), "payoff expectation")


def scalar_payoff(
    c: PayoffCoefficients, p: ProbabilityQuadruple, q: ProbabilityQuadruple
) -> PayoffBreakdown:
    """Average payoff c3*p1*q3 + c1*p3*q1 + c4*p2*q4 + c2*p4*q2, split by desk."""
    odd = c.c3 * p.p1 * q.p3 + c.c1 * p.p3 * q.p1
    even = c.c4 * p.p2 * q.p4 + c.c2 * p.p4 * q.p2
    return PayoffBreakdown(odd + even, odd, even)
