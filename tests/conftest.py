import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from quantumdesks import (
    GameSpec,
    ObservableFrame,
    PayoffCoefficients,
    ProbabilityQuadruple,
    casino,
    play_round,
)
from quantumdesks.casino import _mantissa_limit, _stream_offsets, _words
from quantumdesks.classical import _CHECK_RTOL, ClassicalMatrix, ClassicalSolution


def make_spec(c1=1.0, c2=1.0, c3=1.0, c4=1.0,
              theta=0.0, lam=0.0, tau=0.0, mu=0.0) -> GameSpec:
    return GameSpec(
        coefficients=PayoffCoefficients(c1, c2, c3, c4),
        alice_frame=ObservableFrame(theta, lam),
        bob_frame=ObservableFrame(tau, mu),
    )


def random_spec(rng: np.random.Generator, c_scale: float = 2.0) -> GameSpec:
    c = rng.uniform(-c_scale, c_scale, 4)
    return make_spec(*c,
                     theta=rng.uniform(0.0, math.pi),
                     lam=rng.uniform(0.0, 2.0 * math.pi),
                     tau=rng.uniform(0.0, math.pi),
                     mu=rng.uniform(0.0, 2.0 * math.pi))


def scale_stakes(spec: GameSpec, scale: float) -> GameSpec:
    """``spec`` with every stake multiplied by ``scale``."""
    return replace(spec, coefficients=PayoffCoefficients(
        *(scale * c for c in spec.coefficients.as_tuple())))


def dense_security_level(k: np.ndarray, n: int = 200000) -> float:
    """max over t of min over s of x(t)^T k x(s), scanned at t = j*pi/n; the
    inner minimum is exact, r0 - |(r1, r2)| with r = k^T x(t)."""
    t = np.arange(n) * (math.pi / n)
    r = np.stack([np.ones(n), np.cos(2.0 * t), np.sin(2.0 * t)], axis=1) @ k
    return float((r[:, 0] - np.hypot(r[:, 1], r[:, 2])).max())


def solve_by_support_enumeration(m: ClassicalMatrix) -> ClassicalSolution:
    """Solve any 4x4 matrix game by enumerating its 225 support pairs; the
    reference that ``solve_classical``'s desk closed form is tested against.

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


#: SplitMix64's word mask, state increment and finalizer multipliers
MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def uniform_block(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the stream seeded at ``seed``, drawn
    by the simulation's own vectorized kernel; the values equal ``count``
    successive rng_uniform calls exactly."""
    words = np.empty(count, dtype=np.uint64)
    _words(_stream_offsets(count), seed, words, np.empty_like(words))
    return (words >> np.uint64(11)) * 2.0 ** -53


def seed_for_word(word: int) -> int:
    """The seed whose first draw outputs the 64-bit ``word``.

    Inverts the SplitMix64 finalizer in integer arithmetic: each
    ``z ^ (z >> s)`` is undone by iterating ``x = z ^ (x >> s)``, which
    fixes ``s`` more leading bits per step, each multiplier by its inverse
    mod 2**64, and the first state advance by subtracting gamma.  Draw k
    outputs ``word`` from the seed ``seed_for_word(word) - (k - 1) * gamma``.
    """
    def unshift(z: int, shift: int) -> int:
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        return x

    z = unshift(word, 31)
    z = unshift(z * pow(MIX2, -1, 1 << 64) & MASK64, 27)
    z = unshift(z * pow(MIX1, -1, 1 << 64) & MASK64, 30)
    return (z - GAMMA) & MASK64


def boundary_words(p: float) -> list[int]:
    """The output words that test the draw ``uniform < p`` at its edges:
    0, 2**64 - 1, the least word whose uniform is not below ``p`` and the
    word before it."""
    limit = _mantissa_limit(p) << 11
    return sorted({w for w in (0, MASK64, limit, limit - 1) if 0 <= w <= MASK64})


def draw_is_yes(word: int, p: float) -> bool:
    """The float rule for a draw whose output word is ``word``."""
    return (word >> 11) * 2.0 ** -53 < p


def play_with(monkeypatch, yes) -> None:
    """Make every product-form round draw with the yes-probabilities
    ``yes`` in draw order (Alice odd, Alice even, Bob odd, Bob even), when
    Alice plays the angle 0 and Bob the angle 1."""
    quads = {0.0: ProbabilityQuadruple(yes[0], yes[1], 1.0 - yes[0], 1.0 - yes[1]),
             1.0: ProbabilityQuadruple(yes[2], yes[3], 1.0 - yes[2], 1.0 - yes[3])}
    monkeypatch.setattr(casino, "probabilities_from_angle", lambda angle, frame: quads[angle])


def round_cells(blocks, rounds: int) -> list[int]:
    """The outcome cell of each of ``rounds`` rounds from the casino's
    blocks of pair bytes: two rounds to a byte, the first in the high
    nibble.  Checks that only the run's last nibble can be padding, and
    that it is 0."""
    cells = [cell for block in blocks for pair in block.tolist()
             for cell in (pair >> 4, pair & 15)]
    assert cells[rounds:] in ([], [0])
    return cells[:rounds]


def chained_rounds(spec, alpha, beta, rounds, seed) -> list[tuple[float, float, float]]:
    """Per-round (total, odd, even) payoffs of play_round chained from ``seed``."""
    state, rows = seed, []
    for _ in range(rounds):
        total, (odd, even), state = play_round(spec, alpha, beta, state)
        rows.append((total, odd, even))
    return rows


def exact_statistics(rows) -> tuple[float, float, tuple[float, float]]:
    """(mean, standard error, (odd mean, even mean)) of per-round
    (total, odd, even) payoffs, each exact over the floats until one final
    rounding; the standard error is sqrt(sample variance / rounds)."""
    n = len(rows)
    total, odd, even = (sum(Fraction(v) for v in column) for column in zip(*rows))
    var = 0.0
    if n > 1:
        var = float((sum(Fraction(t) ** 2 for t, _, _ in rows) - total * total / n)
                    / (n - 1))
    return (float(total / n), math.sqrt(var) / math.sqrt(n),
            (float(odd / n), float(even / n)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
