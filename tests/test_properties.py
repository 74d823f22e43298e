"""Property tests of the payoff kernel, the saddle solver, the desk split,
the probability map and its inverse."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from quantumdesks import (
    JointDistribution,
    ObservableFrame,
    PayoffCoefficients,
    StateVector,
    angles_for_point,
    build_payoff_operator,
    classical_matrix,
    expectation,
    grid_saddle_oracle,
    is_product_form,
    payoff_kernel,
    payoff_surface,
    probabilities_from_angle,
    refine_saddle,
    solve_classical,
    swapped_labels,
    verify_saddle,
)
from quantumdesks.quantum import angle_gap
from quantumdesks.equilibrium import FLAG_NO_SADDLE, _solve_by_support_enumeration
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
frames = st.builds(ObservableFrame, tilts, phases)
# Frames within 1e-12 of a segment: tilt 0 or pi/2, or phase pi/2 or 3 pi/2.
near = st.floats(-1e-12, 1e-12)
near_segment_frames = st.one_of(
    st.builds(lambda base, d, lam: ObservableFrame(base + d, lam),
              st.sampled_from([0.0, math.pi / 2, math.pi]), near, phases),
    st.builds(lambda theta, base, d: ObservableFrame(theta, base + d),
              tilts, st.sampled_from([math.pi / 2, 3 * math.pi / 2]), near),
)
# Integer stakes and stakes of one magnitude make desk games with ties and
# pure saddles; floats cover the rest.
stake_sets = st.one_of(
    st.tuples(*[st.integers(-3, 3).map(float)] * 4),
    st.builds(lambda size, signs: tuple(size * s for s in signs),
              st.floats(0.0, 3.0), st.tuples(*[st.sampled_from([-1.0, 0.0, 1.0])] * 4)),
    st.tuples(*[stakes] * 4),
)
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


@settings(PROPERTY, max_examples=200)
@given(stake_sets, st.booleans())
def test_desk_split_matches_support_enumeration(c, swapped):
    coefficients = PayoffCoefficients(*c)
    m = classical_matrix(swapped_labels(coefficients) if swapped else coefficients)
    got = solve_classical(m)
    want = _solve_by_support_enumeration(m)
    assert abs(got.value - want.value) <= 1e-12 * (1.0 + sum(abs(v) for v in c))
    tol = 1e-9 * (1.0 + np.abs(m.entries).max())
    assert (got.alice_mixed @ m.entries).min() >= got.value - tol
    assert (m.entries @ got.bob_mixed).max() <= got.value + tol
    assert is_product_form(JointDistribution(*got.alice_mixed))
    assert is_product_form(JointDistribution(*got.bob_mixed))
    if not got.degenerate:  # the optimal joints are unique, so enumeration finds them
        assert np.abs(got.alice_mixed - want.alice_mixed).max() <= 1e-9
        assert np.abs(got.bob_mixed - want.bob_mixed).max() <= 1e-9


GRID_N = 16
GRID = [k * (math.pi / GRID_N) for k in range(GRID_N)]


@PROPERTY
@given(specs)
def test_grid_oracle_matches_payoff_surface_on_its_grid(spec):
    h = np.array([[payoff_surface(spec, a, b) for b in GRID] for a in GRID])
    row_min, col_max = h.min(axis=1), h.max(axis=0)
    tol = 1e-12 * mass(spec)
    got = grid_saddle_oracle(spec, GRID_N)
    assert abs(got.max_min - row_min.max()) <= tol
    assert abs(got.min_max - col_max.min()) <= tol
    # ties may pick another grid point, so check the values at the one picked
    i, j = GRID.index(got.alpha_star), GRID.index(got.beta_star)
    assert abs(got.value - h[i, j]) <= tol
    assert row_min[i] >= row_min.max() - tol
    assert col_max[j] <= col_max.min() + tol


@PROPERTY
@given(specs, angles, angles)
def test_verify_saddle_matches_payoff_surface_on_its_grid(spec, a0, b0):
    result = refine_saddle(spec, (a0, b0))
    best_alice = max(payoff_surface(spec, a, result.beta_star) for a in GRID)
    worst_bob = min(payoff_surface(spec, result.alpha_star, b) for b in GRID)
    want = max(0.0, best_alice - result.value, result.value - worst_bob)
    assert abs(verify_saddle(spec, result, GRID_N) - want) <= 1e-12 * mass(spec)


@PROPERTY
@given(angles, frames)
def test_probability_map_has_period_pi(alpha, frame):
    p = probabilities_from_angle(alpha, frame)
    q = probabilities_from_angle(alpha + math.pi, frame)
    assert max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple())) <= 1e-12


@PROPERTY
@given(specs, angles, angles, angles, angles)
def test_global_phase_leaves_expectation_unchanged(spec, alpha, beta, omega_a, omega_b):
    h = build_payoff_operator(spec)
    plain = expectation(h, StateVector(alpha), StateVector(beta))
    phased = expectation(h, StateVector(alpha, omega_a), StateVector(beta, omega_b))
    assert abs(phased - plain) <= 1e-12 * mass(spec)


@settings(PROPERTY, max_examples=300)
@given(st.floats(0.0, math.pi, exclude_max=True), st.one_of(frames, near_segment_frames))
def test_angles_for_point_recovers_the_angle(alpha, frame):
    p = probabilities_from_angle(alpha, frame)
    got = angles_for_point(p.p1, p.p2, frame)
    assert min(angle_gap(a, alpha) for a in got) <= 1e-7
