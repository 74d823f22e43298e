"""Seeded simulation of repeated play on the two desks.

Randomness comes from SplitMix64, chosen so the stream is reproducible
bit-for-bit across platforms and easy to re-implement:

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    output_k    = mix(state_{k+1})

where mix is the xor-shift-multiply finalizer (shifts 30/27/31 with
multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  A uniform in
[0, 1) takes the top 53 bits of the output: (output >> 11) * 2**-53.
An outcome with probability p is drawn as ``uniform < p``.  The
simulation evaluates that draw on the raw 64-bit output word w instead.
With m = w >> 11, m * 2**-53 < p holds exactly when m < L = ceil(p * 2**53),
because scaling by a power of two is exact and m is an integer; L is
clamped to [0, 2**53], which keeps a p a rounding step outside [0, 1]
drawing as never or always.  For L < 2**53, m >= L holds exactly when
w >= L << 11, because the low 11 bits of L << 11 are zero, so no shift
is taken.  L = 2**53 (p rounds to 1) has no 64-bit word limit: L << 11
wraps to 0, which every word reaches, so each such limit adds exactly 1
at its draw and one subtraction there takes it back.  The word
comparison thus lands every round in the same outcome as the float one.

Within a round the draw order is frozen: Alice odd, Alice even, Bob odd,
Bob even (two draws, Alice then Bob, in the correlated-joint variant).
Changing either the generator or the order is a breaking change.

A round ends in one of 16 outcome cells: cell 4*i + j is Alice's
compound strategy i against Bob's j, the row-major index into
``classical_matrix``, and the round pays what ``classical.desk_table``
holds for its cell.  Product-form rounds pack their four "no" bits in
draw order, which gives that index; correlated rounds draw i and j
directly.  Both variants keep cells two rounds to a byte, the first
round in the high nibble: the pair byte 16 * cell_0 + cell_1, the layout
``np.packbits`` gives the product form's no-bits.  When a block holds an
odd number of rounds, the low nibble of its last byte is padding and
holds 0.

The state advance is a constant increment, so the stream can start at
any round with one addition; a simulation draws a fixed, even chunk of
rounds at a time into buffers it reuses, counts the chunk's pair bytes
in a 256-bin histogram and keeps nothing else.  The histogram folds into
the 16 cell counts once per run: each byte counts one round in the cell
of each nibble, and an odd run's one padding nibble is taken back from
cell 0.  Memory does not grow with the number of rounds, and the
statistics follow exactly from the 16 counts, in integer arithmetic (see
``_report``).  ``simulate`` draws ``_CHUNK_ROUNDS`` rounds at a time; the
CLI's ``simulate --csv`` passes its own smaller block to the same
generator, unpacks the pair bytes for its rows and builds its report
from the same fold.
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
from .game import GameSpec

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Rounds drawn at a time, rounded up to even.  Any size gives the same results.
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
    offsets = _aligned_empty(count, np.uint64)
    offsets.fill(_GAMMA)
    return np.cumsum(offsets, out=offsets)


def _aligned_empty(shape, dtype) -> np.ndarray:
    """An uninitialized C-ordered array that starts on a 64-byte cache
    line.

    numpy aligns its buffers to 16 bytes only.  Where the heap put the
    kernel's buffers 16 bytes past a line, the vector loads and stores
    that span two lines made a simulation 15-20% slower on a 2-vCPU Xeon
    virtual machine, so every buffer of a chunk starts on a line.
    """
    count, size = int(np.prod(shape)), np.dtype(dtype).itemsize
    raw = np.empty(count + 64 // size, dtype=dtype)
    skip = -raw.ctypes.data % 64 // size
    return raw[skip:skip + count].reshape(shape)


def _words(offsets, seed, out, spare) -> np.ndarray:
    """The 64-bit output words of the draws at ``offsets`` past ``seed``,
    written into ``out``.

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
    one final rounding each.  Stakes beyond about 1e154 in magnitude
    overflow the variance and raise OverflowError.
    """
    counts = _cell_counts(_product_rounds(spec, alpha, beta, rounds, seed), rounds)
    return _product_report(spec, alpha, beta, counts, rounds, seed)


def _product_rounds(spec, alpha, beta, rounds, seed, chunk=None):
    """The pair bytes of product-form play, ``chunk`` rounds at a time
    (``_CHUNK_ROUNDS`` by default)."""
    p = probabilities_from_angle(alpha, spec.alice_frame)
    q = probabilities_from_angle(beta, spec.bob_frame)
    return _round_pairs(seed, rounds, [[p.p1, p.p2, q.p1, q.p2]], _product_pairs, chunk)


def _product_report(spec, alpha, beta, counts, rounds, seed):
    """The report of product-form play from its 16 cell counts."""
    return _report(counts, *desk_table(spec.coefficients),
                   payoff_surface(spec, alpha, beta), rounds, seed)


def _product_pairs(reached, size):
    """Pack each round's four no-bits into its cell, two rounds to a byte.

    The bits in draw order, 8 * Alice odd no + 4 * Alice even no + 2 * Bob
    odd no + Bob even no, are 4 * Alice's compound index + Bob's, because
    the compound index is 2 * odd no + even no.  ``packbits`` puts eight
    bits in a byte, the first in the high bit, so each byte it gives is a
    pair byte; for an odd number of rounds it pads the last byte's low
    nibble with zeros.
    """
    return np.packbits(reached[:size])


def _round_pairs(seed, rounds, thresholds, pairs_of, chunk=None):
    """The outcome cells of every round as pair bytes (see the module
    docstring), ``chunk`` rounds at a time (``_CHUNK_ROUNDS`` by default,
    rounded up to even).

    ``thresholds`` holds rows of one probability per draw of a round; each
    becomes the word limit ``L << 11`` of its draws, tiled over a chunk.
    Round ``start`` begins ``draws * start`` draws into the stream, so a
    chunk's stream is seeded that many steps ahead of ``seed``.  The first
    ``size`` bytes of ``scratch`` get each draw's reached level, the number
    of rows whose limit its word reaches; a limit whose L is 2**53 wraps to
    0 and is reached by every word, so 1 is taken back at its draw.
    ``pairs_of(scratch, size)`` turns the levels into the chunk's pair
    bytes.  Every chunk but the last holds an even number of rounds, so
    only the last byte of a run can hold a padding nibble.  The stream
    offsets and every buffer are built once per call, each on a cache
    line, and reused, so each yielded array may be overwritten by the next.
    """
    draws = len(thresholds[0])
    chunk = min(chunk or _CHUNK_ROUNDS, rounds)
    chunk += chunk % 2
    mantissa_limits = [[_mantissa_limit(p) for p in row] for row in thresholds]
    wrapped = [d for row in mantissa_limits for d, m in enumerate(row) if m == 1 << 53]
    limits = _aligned_empty((len(thresholds), chunk, draws), np.uint64)
    limits[...] = np.array([[(m << 11) & _MASK64 for m in row] for row in mantissa_limits],
                           dtype=np.uint64)[:, None]
    limits = limits.reshape(len(thresholds), -1)
    offsets = _stream_offsets(draws * chunk)
    words, spare = (_aligned_empty(offsets.shape, np.uint64) for _ in range(2))
    scratch = _aligned_empty(offsets.shape, np.uint8)
    for start in range(0, rounds, chunk):
        size = draws * min(chunk, rounds - start)
        chunk_words = _words(offsets[:size], seed + draws * start * _GAMMA,
                             words[:size], spare[:size])
        reached = scratch[:size]
        np.greater_equal(chunk_words, limits[0, :size], out=reached.view(np.bool_))
        for row in limits[1:, :size]:
            reached += chunk_words >= row
        for draw in wrapped:
            reached[draw::draws] -= 1
        yield pairs_of(scratch, size)


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
    payoff depends on the joints only through their marginals.  Like
    ``simulate``, it keeps only the 16 cell counts, and its statistics are
    exact until one final rounding each.  Stakes beyond about 1e154 in
    magnitude overflow the variance and raise OverflowError; stakes whose
    sums overflow the 4x4 matrix raise ValueError from ``ClassicalMatrix``.
    """
    # inverse-CDF draw over the fixed compound-strategy order: a compound
    # index is the number of cumulative-probability edges at or below the
    # uniform; ``uniform >= edge`` negates ``uniform < edge``, so an edge's
    # limit serves both
    edges = list(zip(*(np.cumsum(j.as_vector())[:3].tolist() for j in (alice, bob))))
    analytic = bilinear_payoff(classical_matrix(spec.coefficients), alice, bob)
    counts = _cell_counts(_round_pairs(seed, rounds, edges, _compound_pairs), rounds)
    return _report(counts, *desk_table(spec.coefficients), analytic, rounds, seed)


def _compound_pairs(reached, size):
    """16 * cell_0 + cell_1 for each two rounds, where a round's cell is
    4 * Alice's compound index + Bob's, from its two draws' reached levels."""
    # two rounds' indices (ia0, ib0, ia1, ib1) read as one little-endian
    # 32-bit word; times 0x40100401 its high byte is
    # 64 * ia0 + 16 * ib0 + 4 * ia1 + ib1, and no lower byte carries.  An
    # odd chunk's missing round reads as zeros, not as stale indices.
    quads = reached[:-(-size // 4) * 4]
    quads[size:] = 0
    words32 = quads.view("<u4")
    words32 *= np.uint32(0x40100401)
    return quads[3::4]


def _cell_counts(blocks, rounds) -> list[int]:
    """How many of the ``rounds`` rounds ended in each of the 16 cells,
    from their blocks of pair bytes."""
    pairs = np.zeros(256, dtype=np.int64)
    for block in blocks:
        pairs += np.bincount(block, minlength=256)
    return _fold_pairs(pairs, rounds)


def _fold_pairs(pairs, rounds) -> list[int]:
    """The 16 cell counts of ``rounds`` rounds from the counts of their 256
    pair bytes.

    Byte 16 * c0 + c1 holds one round in cell c0 and one in c1.  An odd
    run ends on one padding nibble of 0, which counted a round in cell 0
    that was never played.
    """
    grid = pairs.reshape(16, 16)
    counts = grid.sum(axis=1) + grid.sum(axis=0)
    counts[0] -= rounds % 2
    return counts.tolist()


def _report(counts, odd, even, analytic, rounds, seed):
    """The report of a run from its cell counts and cell payoffs.

    Every float is an integer over a power of two, so over the largest
    denominator ``scale`` among the cell payoffs each sum is an exact
    integer, and each statistic is one correctly rounded ``int / int``.
    The report thus does not depend on the chunk size or on any summation
    order.  An infinite cell payoff, or a statistic beyond the float
    range, raises OverflowError.
    """
    played = [(n, o, e, o + e) for n, o, e in zip(counts, odd, even) if n]
    scale = max(v.as_integer_ratio()[1] for _, *cell in played for v in cell)

    def scaled(v: float) -> int:
        num, den = v.as_integer_ratio()
        return num * (scale // den)

    total = sum(n * scaled(t) for n, _, _, t in played)
    var = 0.0
    if rounds > 1:
        squares = sum(n * scaled(t) ** 2 for n, _, _, t in played)
        var = (rounds * squares - total * total) / (scale * scale * rounds * (rounds - 1))
    per_round = scale * rounds
    return SimReport(
        rounds=rounds,
        empirical_mean=total / per_round,
        std_error=math.sqrt(var) / math.sqrt(rounds),
        analytic_mean=analytic,
        per_desk_means=(sum(n * scaled(o) for n, o, _, _ in played) / per_round,
                        sum(n * scaled(e) for n, _, e, _ in played) / per_round),
        seed=seed,
    )
