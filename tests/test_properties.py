"""Property tests of the payoff kernel and the saddle solver."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from quantumdesks import (
    ObservableFrame,
    grid_saddle_oracle,
    payoff_kernel,
    payoff_surface,
    refine_saddle,
)
from quantumdesks.equilibrium import FLAG_NO_SADDLE
from conftest import make_spec

# Derandomized, so every run checks the same examples.
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=100)

# Round stakes and quarter-turn frames make structured games (decoupled
# desks, flat objectives, saddles on the grid); floats cover the rest.
stakes = st.one_of(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                   st.floats(-3.0, 3.0))
tilts = st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]),
                  st.floats(0.0, math.pi))
phases = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                   st.floats(0.0, 2 * math.pi))
specs = st.builds(make_spec, stakes, stakes, stakes, stakes, tilts, phases, tilts, phases)
angles = st.one_of(st.sampled_from([-1e-20, 0.0, math.pi, 2 * math.pi]),
                   st.floats(-10.0, 10.0))


def mass(spec) -> float:
    return 1.0 + sum(abs(c) for c in spec.coefficients.as_tuple())


def x(t: float) -> np.ndarray:
    return np.array([1.0, math.cos(2 * t), math.sin(2 * t)])


def sinusoid_extreme(h0: float, h45: float, h90: float, sign: float) -> float:
    """Extreme of A + B cos 2t + C sin 2t from its values at 0, pi/4, pi/2."""
    a = 0.5 * (h0 + h90)
    return a + sign * math.hypot(0.5 * (h0 - h90), h45 - a)


def one_sided(spec, alpha: float, beta: float) -> tuple[float, float]:
    """Exact min over beta of h(alpha, .) and max over alpha of h(., beta)."""
    q = math.pi / 4
    worst = sinusoid_extreme(*(payoff_surface(spec, alpha, b) for b in (0, q, 2 * q)), -1.0)
    best = sinusoid_extreme(*(payoff_surface(spec, a, beta) for a in (0, q, 2 * q)), 1.0)
    return worst, best


@PROPERTY
@given(specs, angles, angles)
def test_kernel_matches_payoff_surface(spec, alpha, beta):
    kernel_value = x(alpha) @ payoff_kernel(spec) @ x(beta)
    assert abs(kernel_value - payoff_surface(spec, alpha, beta)) <= 1e-12 * mass(spec)


@PROPERTY
@given(specs, angles, angles)
def test_value_lies_between_one_sided_values(spec, a0, b0):
    got = refine_saddle(spec, (a0, b0))
    slack = 1e-12 * mass(spec)
    assert got.max_min - slack <= got.value <= got.min_max + slack


@PROPERTY
@given(specs, angles, angles)
def test_one_sided_values_are_exact(spec, a0, b0):
    got = refine_saddle(spec, (a0, b0))
    worst, best = one_sided(spec, got.alpha_star, got.beta_star)
    assert abs(got.max_min - worst) <= 1e-12 * mass(spec)
    assert abs(got.min_max - best) <= 1e-12 * mass(spec)


@settings(PROPERTY, max_examples=60)
@given(specs)
def test_never_flagged_when_the_grid_proves_a_saddle(spec):
    oracle = grid_saddle_oracle(spec, 512)
    worst, best = one_sided(spec, oracle.alpha_star, oracle.beta_star)
    # worst <= maximin <= minimax <= best, so the grid profile bounds the gap
    got = refine_saddle(spec, (oracle.alpha_star, oracle.beta_star))
    assert got.min_max - got.max_min <= best - worst + 1e-12 * mass(spec)
    if best - worst <= 1e-12 * mass(spec):
        assert FLAG_NO_SADDLE not in got.flags


@PROPERTY
@given(specs, angles, angles)
def test_angles_in_half_open_period(spec, a0, b0):
    got = refine_saddle(spec, (a0, b0))
    assert 0.0 <= got.alpha_star < math.pi
    assert 0.0 <= got.beta_star < math.pi


@PROPERTY
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_frame_angles_in_half_open_ranges(theta, lam):
    frame = ObservableFrame(theta, lam)
    assert 0.0 <= frame.theta < math.pi
    assert 0.0 <= frame.lam < 2 * math.pi
