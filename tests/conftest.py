import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from quantumdesks import GameSpec, ObservableFrame, PayoffCoefficients, play_round


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
