"""Seeded simulation of repeated play on the two desks.

Randomness comes from SplitMix64, chosen so the stream is reproducible
bit-for-bit across platforms and easy to re-implement:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    output_k    = mix(state_{k+1})

where mix is the xor-shift-multiply finalizer (shifts 30/27/31 with
multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  A uniform in
[0, 1) takes the top 53 bits of the output: (output >> 11) * 2**-53.
An outcome with probability p is drawn as ``uniform < p``.  The
simulation evaluates that draw on the 53-bit mantissa m = output >> 11
instead: m * 2**-53 < p holds exactly when m < ceil(p * 2**53), because
scaling by a power of two is exact and m is an integer.  The limit is
clamped to [0, 2**53], which keeps a p a rounding step outside [0, 1]
drawing as never or always.  The integer comparison thus lands every
round in the same outcome as the float one.

Within a round the draw order is frozen: Alice odd, Alice even, Bob odd,
Bob even (two draws, Alice then Bob, in the correlated-joint variant).
Changing either the generator or the order is a breaking change.

A round ends in one of 16 outcome cells: cell 4*i + j is Alice's
compound strategy i against Bob's j, the row-major index into
``classical_matrix``, and the round pays what ``classical.desk_table``
holds for its cell.  Product-form rounds pack their four "no" bits in
draw order, which gives that index; correlated rounds draw i and j
directly.  The state advance is a constant increment, so the stream can
start at any round with one addition; a simulation draws a fixed chunk
of rounds at a time into buffers it reuses, counts the cells and keeps
nothing else.  Its memory does not grow with the number of rounds, and
its statistics follow exactly from the 16 counts.
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
    desk_table,
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


def _stream_offsets(count: int) -> np.ndarray:
    """Draw k's state minus the seed, k * gamma mod 2**64, for k = 1..count."""
    offsets = np.arange(1, count + 1, dtype=np.uint64)
    offsets *= np.uint64(_GAMMA)
    return offsets


def _mantissas(offsets, seed, out, spare) -> np.ndarray:
    """The 53-bit mantissas ``output >> 11`` of the draws at ``offsets``
    past ``seed``, written into ``out``.

    SplitMix64's state advance is a constant increment, so the block is
    one addition to precomputed offsets; the finalizer then runs in place,
    with ``spare`` (same shape as ``out``) holding the shifted words.
    """
    np.add(offsets, np.uint64(seed & _MASK64), out=out)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(out, np.uint64(shift), out=spare)
        out ^= spare
        out *= np.uint64(mult)
    np.right_shift(out, np.uint64(31), out=spare)
    out ^= spare
    out >>= np.uint64(11)
    return out


def _mantissa_limit(p: float) -> int:
    """The limit L in [0, 2**53] with ``m * 2**-53 < p`` exactly when
    ``m < L``, for every mantissa m in [0, 2**53)."""
    return min(max(math.ceil(p * 2.0 ** 53), 0), 1 << 53)


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
    cells = _product_rounds(spec, alpha, beta, rounds, seed)
    return _report(_cell_counts(cells), *desk_table(spec.coefficients),
                   payoff_surface(spec, alpha, beta), rounds, seed)


def _product_rounds(spec, alpha, beta, rounds, seed):
    """The outcome cells of product-form play, a chunk of rounds at a time."""
    if rounds < 1:
        raise ValueError("need at least one round")
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    return _round_cells(seed, rounds, [[p.p1, p.p2, q.p1, q.p2]], _product_cells)


def _product_cells(mantissas, limits, cells) -> None:
    """Pack each round's four no-bits into its cell.

    The bits in draw order, 8 * Alice odd no + 4 * Alice even no + 2 * Bob
    odd no + Bob even no, are 4 * Alice's compound index + Bob's, because
    the compound index is 2 * odd no + even no.

    ``packbits`` puts two rounds in a byte, the first in the high nibble;
    when the chunk has an odd number of rounds, the low nibble of the
    last byte is padding and is not read.
    """
    packed = np.packbits(np.greater_equal(mantissas, limits[0]))
    np.right_shift(packed, 4, out=cells[0::2])
    np.bitwise_and(packed[:len(cells) // 2], 15, out=cells[1::2])


def _round_cells(seed, rounds, thresholds, cells_of):
    """The ``uint8`` outcome cell of every round, one chunk of rounds at a time.

    ``thresholds`` holds rows of one probability per draw of a round; each
    becomes the integer limit of its draws (see the module docstring),
    tiled over a chunk.  Round ``start`` begins ``draws * start`` draws
    into the stream, so a chunk's stream is seeded that many steps ahead
    of ``seed``.  ``cells_of(mantissas, limits, cells)`` fills a chunk's
    cells.  The stream offsets and every buffer are built once per call and
    reused, so each yielded array is overwritten by the next.
    """
    draws = len(thresholds[0])
    chunk = min(_CHUNK_ROUNDS, rounds)
    limits = np.tile(np.array([[_mantissa_limit(p) for p in row] for row in thresholds],
                              dtype=np.uint64), chunk)
    offsets = _stream_offsets(draws * chunk)
    words, spare = np.empty_like(offsets), np.empty_like(offsets)
    cells = np.empty(chunk, dtype=np.uint8)
    for start in range(0, rounds, chunk):
        n = min(chunk, rounds - start)
        size = draws * n
        mantissas = _mantissas(offsets[:size], seed + draws * start * _GAMMA,
                               words[:size], spare[:size])
        cells_of(mantissas, limits[:, :size], cells[:n])
        yield cells[:n]


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
    # inverse-CDF draw over the fixed compound-strategy order: a compound
    # index is the number of cumulative-probability edges at or below the
    # uniform; ``uniform >= edge`` negates ``uniform < edge``, so an edge's
    # limit serves both
    edges = list(zip(*(np.cumsum(j.as_vector())[:3].tolist() for j in (alice, bob))))
    analytic = bilinear_payoff(classical_matrix(spec.coefficients), alice, bob)
    return _report(_cell_counts(_round_cells(seed, rounds, edges, _compound_cells)),
                   *desk_table(spec.coefficients), analytic, rounds, seed)


def _compound_cells(mantissas, limits, cells) -> None:
    """4 * Alice's compound index + Bob's, from each round's two draws."""
    index = np.greater_equal(mantissas, limits[0]).view(np.uint8)
    for row in limits[1:]:
        index += mantissas >= row
    # each round's pair (ia, ib) reads ia + 256 * ib as a little-endian
    # 16-bit word; times 0x401 its high byte is 4 * ia + ib (mod 2**16)
    pairs = index.view("<u2") * np.uint16(0x401)
    np.right_shift(pairs, 8, out=cells, casting="unsafe")


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
