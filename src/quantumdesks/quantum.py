"""Two-level quantum machinery: states, projectors, and the payoff operator.

Everything here is a pure function on small immutable values.  The joint
space of the two players is the tensor product with Alice's slot first,
so a joint operator is ``kron(alice_op, bob_op)`` and a joint product
state is ``kron(alice_state, bob_state)``.  This ordering is fixed for
the whole package.

The numpy-free value types (frames, stakes, specs, probability
quadruples), ``scalar_payoff`` and the angle helpers live in ``game``;
only the operator side, here, needs numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .game import GameSpec, ObservableFrame

ATOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _within_atol(x: np.ndarray, y: np.ndarray, scale: float = 1.0) -> bool:
    """Whether every entry of ``x`` is within ATOL * scale of ``y``; NaN never is."""
    return float(np.abs(x - y).max()) <= ATOL * scale


def _entry_scale(m: np.ndarray) -> float:
    """1 + the largest entry magnitude: rounding residues of ``m`` grow with it."""
    return 1.0 + float(np.abs(m).max())


def _real_part(value: complex, what: str, scale: float = 1.0) -> float:
    """Strip an imaginary residue below ATOL * scale; a larger one is a bug upstream."""
    if abs(value.imag) > ATOL * scale:
        raise ValueError(f"{what} has imaginary part {value.imag:g}; "
                         "operator is not Hermitian")
    return float(value.real)


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
        if not _within_atol(m, m.conj().T, _entry_scale(m)):
            raise ValueError("payoff operator must be Hermitian")
        object.__setattr__(self, "entries", _frozen(m))


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


@functools.cache
def _first_projectors() -> tuple[Projector, Projector]:
    """``make_projector(0, 0)`` and its complement, built and validated on first use.

    Not at import: their validation is the process's first complex matmul,
    which adds about 0.9 MB to the RSS of a process, also of a command that
    never builds an operator.
    """
    first = make_projector(0.0, 0.0)
    return first, complement(first)


def frame_projectors(frame: ObservableFrame) -> tuple[Projector, Projector, Projector, Projector]:
    """The four projectors of a frame, in index order 1, 2, 3, 4.

    Index 1 is the odd-desk yes projector, 2 the even-desk yes projector,
    3 and 4 their complements.  The first observable does not depend on the
    frame, so indices 1 and 3 are the same two projectors for every frame,
    built and validated once per process; their entries are those of
    ``make_projector(0, 0)`` and its complement, bit for bit.  Only indices
    2 and 4 are built per call.
    """
    first, first_complement = _first_projectors()
    second = make_projector(frame.theta, frame.lam)
    return first, second, first_complement, complement(second)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices as one broadcast product, the same products."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def build_payoff_operator(spec: GameSpec) -> PayoffOperator:
    """Assemble the 4x4 payoff operator for a game instance.

    Alice's slot comes first in every tensor product.  The operator pays
    c3 on (Alice yes, Bob no) and c1 on (Alice no, Bob yes) in the odd
    desk, and c4 / c2 for the matching even-desk events.  Each tensor
    product is one broadcast multiplication and the first observables are
    the shared projectors of ``frame_projectors``; the entries are those of
    the ``np.kron`` sum, bit for bit.
    """
    c = spec.coefficients
    a1, a2, a3, a4 = frame_projectors(spec.alice_frame)
    b1, b2, b3, b4 = frame_projectors(spec.bob_frame)
    h = (
        c.c3 * _kron(a1.entries, b3.entries)
        + c.c1 * _kron(a3.entries, b1.entries)
        + c.c4 * _kron(a2.entries, b4.entries)
        + c.c2 * _kron(a4.entries, b2.entries)
    )
    return PayoffOperator(h)


def expectation(h: PayoffOperator, alice: StateVector, bob: StateVector) -> float:
    """Expectation of ``h`` in the product state alice (x) bob."""
    v = np.multiply.outer(alice.amplitudes, bob.amplitudes).ravel()
    return _real_part(complex(v.conj() @ h.entries @ v), "payoff expectation",
                      _entry_scale(h.entries))
