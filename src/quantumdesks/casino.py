"""Seeded simulation of repeated play on the two desks.

Randomness comes from SplitMix64, chosen so the stream is reproducible
bit-for-bit across platforms and easy to re-implement:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    output_k    = mix(state_{k+1})

where mix is the xor-shift-multiply finalizer (shifts 30/27/31 with
multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  A uniform in
[0, 1) takes the top 53 bits of the output: (output >> 11) * 2**-53.
An outcome with probability p is drawn as ``uniform < p``.

Within a round the draw order is frozen: Alice odd, Alice even, Bob odd,
Bob even (two draws, Alice then Bob, in the correlated-joint variant).
Changing either the generator or the order is a breaking change.

A round ends in one of 16 outcome cells: the four yes/no outcomes, or
the pair of compound strategies in the correlated variant.  The state
advance is a constant increment, so the stream can start at any round
with one addition; a simulation draws a fixed chunk of rounds at a time,
counts the cells and keeps nothing else.  Its memory does not grow with
the number of rounds, and its statistics follow exactly from the 16
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (
    JointDistribution,
    bilinear_payoff,
    classical_matrix,
    desk_payoff,
)
from .equilibrium import payoff_surface
from .geometry import probabilities_from_angle
from .quantum import GameSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Rounds drawn at a time.  Any size gives the same results.
_CHUNK_ROUNDS = 8192

# product-form cell = 8 * Alice odd yes + 4 * Alice even yes + 2 * Bob odd yes
# + Bob even yes, the bits in the draw order
_CELL_YES = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(bool)
_CELL_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.uint8)


def rng_advance(state: int) -> int:
    """Next SplitMix64 state."""
    return (state + _GAMMA) & _MASK64


def rng_output(state: int) -> int:
    """64-bit output word for a state (the SplitMix64 finalizer)."""
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def rng_uniform(state: int) -> tuple[float, int]:
    """Advance the stream once; return (uniform in [0, 1), next state)."""
    state = rng_advance(state)
    return (rng_output(state) >> 11) * 2.0 ** -53, state


def _uniform_block(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the stream seeded at ``seed``.

    SplitMix64's state advance is a constant increment, so the whole
    block is generated in one vectorized pass, in place on one array of
    states; the values equal ``count`` successive rng_uniform calls exactly.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * 2.0 ** -53


@dataclass(frozen=True)
class SimReport:
    """Summary of one simulation run."""

    rounds: int
    empirical_mean: float
    std_error: float
    analytic_mean: float
    per_desk_means: tuple[float, float]
    seed: int

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "empirical_mean": self.empirical_mean,
            "std_error": self.std_error,
            "analytic_mean": self.analytic_mean,
            "per_desk_means": {"odd": self.per_desk_means[0],
                               "even": self.per_desk_means[1]},
            "seed": self.seed,
        }


def _desk_payoff_arrays(c, alice_odd_yes, alice_even_yes, bob_odd_yes, bob_even_yes):
    """Vectorized desk payoffs from boolean yes/no outcome arrays."""
    odd = c.c3 * (alice_odd_yes & ~bob_odd_yes) + c.c1 * (~alice_odd_yes & bob_odd_yes)
    even = c.c4 * (alice_even_yes & ~bob_even_yes) + c.c2 * (~alice_even_yes & bob_even_yes)
    return odd, even


def play_round(
    spec: GameSpec, alpha: float, beta: float, rng_state: int
) -> tuple[float, tuple[float, float], int]:
    """Play both desks once; returns (payoff, (odd, even), next rng state).

    Each player's two desk actions are independent coin flips with the
    probabilities their angle induces, so repeated rounds realize the
    product-form joint over compound strategies.
    """
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    u_ao, rng_state = rng_uniform(rng_state)
    u_ae, rng_state = rng_uniform(rng_state)
    u_bo, rng_state = rng_uniform(rng_state)
    u_be, rng_state = rng_uniform(rng_state)
    odd, even = desk_payoff(
        1 if u_ao < p.p1 else 3,
        2 if u_ae < p.p2 else 4,
        1 if u_bo < q.p1 else 3,
        2 if u_be < q.p2 else 4,
        spec.coefficients,
    )
    return odd + even, (odd, even), rng_state


def simulate(
    spec: GameSpec, alpha: float, beta: float, rounds: int, seed: int
) -> SimReport:
    """Average payoff over ``rounds`` independent rounds of play_round.

    Plays the identical outcome stream to chaining play_round from
    ``seed``.  The rounds are drawn a chunk at a time and only their
    outcome cells are counted, so memory stays flat in ``rounds``; the
    means and the variance are exact over the rounds' float payoffs until
    one final rounding each.  Stakes beyond about 1e150 in magnitude
    overflow the variance and raise OverflowError.
    """
    odd, even, cells = _product_rounds(spec, alpha, beta, rounds, seed)
    return _report(_cell_counts(cells), odd, even,
                   payoff_surface(spec, alpha, beta), rounds, seed)


def _product_rounds(spec, alpha, beta, rounds, seed):
    """(odd, even) payoff of each cell, and the cells of product-form play."""
    if rounds < 1:
        raise ValueError("need at least one round")
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    yes = np.array([p.p1, p.p2, q.p1, q.p2])
    odd, even = _desk_payoff_arrays(spec.coefficients, *_CELL_YES.T)
    return odd, even, _round_cells(seed, rounds, 4, lambda u: (u < yes) @ _CELL_WEIGHTS)


def _round_cells(seed, rounds, draws, cell_of):
    """The outcome cell of every round, one chunk of rounds at a time.

    Round ``start`` begins ``draws * start`` draws into the stream, so a
    chunk's stream is seeded that many steps ahead of ``seed``.  ``cell_of``
    maps a chunk's (rounds, draws) uniforms to its cells.
    """
    for start in range(0, rounds, _CHUNK_ROUNDS):
        n = min(_CHUNK_ROUNDS, rounds - start)
        u = _uniform_block(seed + draws * start * _GAMMA, draws * n)
        yield cell_of(u.reshape(n, draws))


def simulate_joint(
    spec: GameSpec,
    alice: JointDistribution,
    bob: JointDistribution,
    rounds: int,
    seed: int,
) -> SimReport:
    """Simulation variant with arbitrary (possibly correlated) joints.

    Each round draws one compound strategy per player (Alice first) from
    their joint distribution.  Lets classically correlated desk play be
    contrasted with the product-form rounds of ``simulate``; the expected
    payoff depends on the joints only through their marginals.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    # cell 4 * Alice's compound index + Bob's; odd yes for 1-2/1-4, even yes for 1-2/3-2
    a, b = np.divmod(np.arange(16), 4)
    odd, even = _desk_payoff_arrays(spec.coefficients, a <= 1, a % 2 == 0,
                                    b <= 1, b % 2 == 0)

    def cell_of(u):
        return 4 * _compound_indices(u[:, 0], alice) + _compound_indices(u[:, 1], bob)

    analytic = bilinear_payoff(classical_matrix(spec.coefficients), alice, bob)
    return _report(_cell_counts(_round_cells(seed, rounds, 2, cell_of)), odd, even,
                   analytic, rounds, seed)


def _compound_indices(uniforms: np.ndarray, joint: JointDistribution) -> np.ndarray:
    """Inverse-CDF draw over the fixed compound-strategy order: the number
    of cumulative-probability edges at or below each uniform."""
    return sum(uniforms >= edge for edge in np.cumsum(joint.as_vector())[:3].tolist())


def _cell_counts(cells) -> list[int]:
    """How many rounds ended in each of the 16 cells."""
    counts = np.zeros(16, dtype=np.int64)
    for chunk in cells:
        counts += np.bincount(chunk, minlength=16)
    return counts.tolist()


def _report(counts, odd, even, analytic, rounds, seed):
    """The report of a run from its cell counts and cell payoffs.

    Sums run over exact rationals and each statistic is rounded to float
    once, so the report does not depend on the chunk size or on any
    summation order.
    """
    from fractions import Fraction  # here, so commands that never simulate skip its import

    played = [(n, Fraction(o), Fraction(e), Fraction(t))
              for n, o, e, t in zip(counts, odd.tolist(), even.tolist(),
                                    (odd + even).tolist()) if n]
    total = sum(n * t for n, _, _, t in played)
    var = 0.0
    if rounds > 1:
        squares = sum(n * t * t for n, _, _, t in played)
        var = float((squares - total * total / rounds) / (rounds - 1))
    return SimReport(
        rounds=rounds,
        empirical_mean=float(total / rounds),
        std_error=math.sqrt(var) / math.sqrt(rounds),
        analytic_mean=analytic,
        per_desk_means=(float(sum(n * o for n, o, _, _ in played) / rounds),
                        float(sum(n * e for n, _, e, _ in played) / rounds)),
        seed=seed,
    )
