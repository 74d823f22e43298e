"""Property tests of the payoff kernel, the saddle solver, the desk split,
the probability map and its inverse, the payoff operator, the simulation
and the JSON reports."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from quantumdesks import (
    JointDistribution,
    ObservableFrame,
    PayoffCoefficients,
    StateVector,
    angles_for_point,
    build_payoff_operator,
    classical_matrix,
    complement,
    expectation,
    frame_projectors,
    grid_saddle_oracle,
    is_product_form,
    make_projector,
    payoff_kernel,
    payoff_surface,
    probabilities_from_angle,
    refine_saddle,
    scalar_payoff,
    simulate,
    solve_classical,
    swapped_labels,
    verify_saddle,
)
from quantumdesks import casino, serialize
from quantumdesks.game import angle_gap
from quantumdesks.quantum import _kron
from quantumdesks.equilibrium import (FLAG_NO_SADDLE, _TIE_RTOL, _angle_rows, _grid_rows,
                                      _security_level)
from conftest import (chained_rounds, dense_security_level, exact_statistics,
                      make_spec, scale_stakes, solve_by_support_enumeration)

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
# No seed takes the canonical tie rule; a seed takes the nearest optimum.
seeds = st.one_of(st.none(), st.tuples(angles, angles))
scales = st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e12])
# down to subnormal stakes, where a reordered product or sum rounds differently
bit_scales = st.one_of(scales, st.just(1e-310))


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
@given(specs, seeds)
def test_value_lies_between_one_sided_values(spec, seed):
    got = refine_saddle(spec, seed)
    slack = 1e-12 * mass(spec)
    assert got.max_min - slack <= got.value <= got.min_max + slack


@PROPERTY
@given(specs, seeds)
def test_one_sided_values_are_exact(spec, seed):
    got = refine_saddle(spec, seed)
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
@given(specs, seeds)
def test_angles_in_half_open_period(spec, seed):
    got = refine_saddle(spec, seed)
    assert 0.0 <= got.alpha_star < math.pi
    assert 0.0 <= got.beta_star < math.pi


@PROPERTY
@given(specs, seeds)
# subnormal quartic coefficients, which overflowed np.roots' companion matrix
@example(make_spec(-2.0, 0.0, 0.0, 2.225073858507203e-309, tau=math.pi / 4), None)
@example(make_spec(1.9388149610858154e100, -1.8009975686587445e-300,
                   -1.3254068282358434e-20, -1.8480498436622094e-200,
                   math.pi / 4, math.pi / 2, 1.0548011471902514, 0.5698568931379604), None)
def test_levels_are_never_below_a_dense_scan(spec, seed):
    got = refine_saddle(spec, seed)
    k = payoff_kernel(spec)
    tie = _TIE_RTOL * (1.0 + np.abs(k).sum())
    assert got.max_min >= dense_security_level(k) - tie
    assert -got.min_max >= dense_security_level(-k.T) - tie


@PROPERTY
@given(specs, st.one_of(scales, st.just(1e150)), seeds)
def test_equilibrium_report_round_trips(spec, scale, seed):
    s = serialize.dumps(refine_saddle(scale_stakes(spec, scale), seed).to_dict())
    assert serialize.dumps(json.loads(s)) == s


@PROPERTY
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_frame_angles_in_half_open_ranges(theta, lam):
    frame = ObservableFrame(theta, lam)
    assert 0.0 <= frame.theta < math.pi
    assert 0.0 <= frame.lam < 2 * math.pi


@settings(PROPERTY, max_examples=200)
@given(stake_sets, st.booleans())
# a support pair that verifies only within the enumerator's tolerance gives
# -0.9999999999 here; the exact pair gives -1
@example((-2.0, -2.0, -2.0, 1e-10), True)
def test_desk_split_matches_support_enumeration(c, swapped):
    coefficients = PayoffCoefficients(*c)
    m = classical_matrix(swapped_labels(coefficients) if swapped else coefficients)
    got = solve_classical(m)
    want = solve_by_support_enumeration(m)
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
@given(specs, seeds)
def test_verify_saddle_matches_payoff_surface_on_its_grid(spec, seed):
    result = refine_saddle(spec, seed)
    best_alice = max(payoff_surface(spec, a, result.beta_star) for a in GRID)
    worst_bob = min(payoff_surface(spec, result.alpha_star, b) for b in GRID)
    want = max(0.0, best_alice - result.value, result.value - worst_bob)
    assert abs(verify_saddle(spec, result, GRID_N) - want) <= 1e-12 * mass(spec)


@PROPERTY
@given(specs, scales, seeds, st.sampled_from([8, 64, 256]))
def test_exact_certificate_dominates_the_grid_one(spec, scale, seed, n):
    # max_min and min_max are the best deviations from the reported profile,
    # so deviations to grid angles can only fall short of them
    spec = scale_stakes(spec, scale)
    got = refine_saddle(spec, seed)
    assert got.certificate >= verify_saddle(spec, got, n) - 1e-12 * mass(spec)


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


@PROPERTY
@given(specs, scales, angles, angles)
def test_operator_expectation_equals_scalar_payoff(spec, scale, alpha, beta):
    spec = scale_stakes(spec, scale)
    got = expectation(build_payoff_operator(spec), StateVector(alpha), StateVector(beta))
    want = scalar_payoff(spec.coefficients, probabilities_from_angle(alpha, spec.alice_frame),
                         probabilities_from_angle(beta, spec.bob_frame)).total
    assert abs(got - want) <= 1e-12 * mass(spec)


@settings(PROPERTY, max_examples=300)
@given(st.floats(0.0, math.pi, exclude_max=True), st.one_of(frames, near_segment_frames))
def test_angles_for_point_recovers_the_angle(alpha, frame):
    p = probabilities_from_angle(alpha, frame)
    got = angles_for_point(p.p1, p.p2, frame)
    assert min(angle_gap(a, alpha) for a in got) <= 1e-7


@settings(PROPERTY, max_examples=60)
@given(specs, angles, angles, st.integers(1, 40), st.integers(0, (1 << 64) - 1),
       st.sampled_from([1, 3, 7, casino._CHUNK_ROUNDS]))
def test_simulate_equals_chained_play_round(spec, alpha, beta, rounds, seed, chunk):
    with mock.patch.object(casino, "_CHUNK_ROUNDS", chunk):
        got = simulate(spec, alpha, beta, rounds, seed)
    assert (got.empirical_mean, got.std_error, got.per_desk_means) == \
        exact_statistics(chained_rounds(spec, alpha, beta, rounds, seed))


def outer_kernel(spec) -> np.ndarray:
    """The payoff kernel by its np.outer formula: the reference for its bits."""
    c = spec.coefficients
    e0 = np.array([1.0, 0.0, 0.0])

    def rows(frame):
        two_theta = 2.0 * frame.theta
        return (np.array([0.5, 0.5, 0.0]),
                0.5 * np.array([1.0, math.cos(two_theta),
                                math.sin(two_theta) * math.cos(frame.lam)]))

    a1, a2 = rows(spec.alice_frame)
    b1, b2 = rows(spec.bob_frame)
    return (c.c3 * np.outer(a1, e0 - b1) + c.c1 * np.outer(e0 - a1, b1)
            + c.c4 * np.outer(a2, e0 - b2) + c.c2 * np.outer(e0 - a2, b2))


def kron_operator(spec) -> np.ndarray:
    """The payoff operator's entries as the np.kron sum over projectors built
    afresh: the reference for their bits."""
    c = spec.coefficients

    def projectors(frame):
        first, second = make_projector(0.0, 0.0), make_projector(frame.theta, frame.lam)
        return [p.entries for p in (first, second, complement(first), complement(second))]

    a1, a2, a3, a4 = projectors(spec.alice_frame)
    b1, b2, b3, b4 = projectors(spec.bob_frame)
    return (c.c3 * np.kron(a1, b3) + c.c1 * np.kron(a3, b1)
            + c.c4 * np.kron(a2, b4) + c.c2 * np.kron(a4, b2))


matrices = arrays(complex, (2, 2), elements=st.complex_numbers(
    max_magnitude=1e150, allow_nan=False, allow_infinity=False))


@PROPERTY
@given(matrices, matrices)
def test_broadcast_kron_is_np_kron_bit_for_bit(a, b):
    assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()


@PROPERTY
@given(specs, bit_scales, angles, angles, angles)
def test_operator_and_expectation_are_the_kron_forms_bit_for_bit(spec, scale, alpha,
                                                                 beta, omega):
    spec = scale_stakes(spec, scale)
    h = build_payoff_operator(spec)
    assert h.entries.tobytes() == kron_operator(spec).tobytes()
    a, b = StateVector(alpha, omega), StateVector(beta)
    v = np.kron(a.amplitudes, b.amplitudes)
    assert expectation(h, a, b).hex() == complex(v.conj() @ h.entries @ v).real.hex()


@PROPERTY
@given(specs, bit_scales)
def test_kernel_is_the_outer_form_bit_for_bit(spec, scale):
    spec = scale_stakes(spec, scale)
    assert payoff_kernel(spec).tobytes() == outer_kernel(spec).tobytes()


@PROPERTY
@given(st.one_of(frames, near_segment_frames))
def test_frames_share_the_first_observable(frame):
    got = frame_projectors(frame)
    first, second = make_projector(0.0, 0.0), make_projector(frame.theta, frame.lam)
    want = (first, second, complement(first), complement(second))
    assert [p.entries.tobytes() for p in got] == [p.entries.tobytes() for p in want]
    shared = frame_projectors(ObservableFrame(0.0))
    assert got[0] is shared[0] and got[2] is shared[2]
    for p in got:
        with pytest.raises(ValueError):
            p.entries[0, 0] = 0.5


@PROPERTY
@given(st.integers(8, 4096))
def test_cached_grid_rows_are_fresh_rows_and_read_only(n):
    got = _grid_rows(n)
    assert got.tobytes() == _angle_rows(np.arange(n) * (math.pi / n)).tobytes()
    assert _grid_rows(n) is got
    with pytest.raises(ValueError):
        got[0, 0] = 0.5


def mixed_value(k: np.ndarray) -> tuple[float, float]:
    """Alice's and Bob's security levels when each may mix angles.

    Mixing fills the disk x = (1, xi), |xi| <= 1.  With K = [[a, c^T], [b, M]],
    Alice's mixed level F(xi) = a + b.xi - |c + M^T xi| is concave, and its
    maximum is the larger of the pure maximin (|xi| = 1) and F at the kink
    xi0 = -M^{-T} c when M is invertible and |xi0| <= 1; any other interior
    optimum lies on a ridge that reaches the circle.  F(xi0) is a + b.xi0 up
    to the rounding of the kink.  Bob's level is the same on -K^T, negated.
    """
    def level(k):
        pure = _security_level(k, None)[1]
        a, c, b, m = k[0, 0], k[0, 1:], k[1:, 0], k[1:, 1:]
        with np.errstate(all="ignore"):
            try:
                xi = -np.linalg.solve(m.T, c)
            except np.linalg.LinAlgError:
                return pure
            if not xi @ xi <= 1.0:  # NaN from a singular solve fails too
                return pure
            return max(pure, float(a + b @ xi - np.linalg.norm(c + m.T @ xi)))

    return level(k), -level(-k.T)


# opposite-sign desks at quarter tilts: every angle secures -1/2 for Alice
# and 1/2 for Bob, and mixing secures 0 for both
NO_PURE_SADDLE = make_spec(1.0, -1.0, 1.0, -1.0, math.pi / 4, 0.0, math.pi / 4, 0.0)


@settings(PROPERTY, max_examples=400)
@given(specs, scales, seeds)
@example(NO_PURE_SADDLE, 1.0, None)
def test_mixed_value_lies_between_the_one_sided_values(spec, scale, seed):
    spec = scale_stakes(spec, scale)
    got = refine_saddle(spec, seed)
    k = payoff_kernel(spec)
    tie = _TIE_RTOL * (1.0 + np.abs(k).sum())
    for v in mixed_value(k):
        assert got.max_min - tie <= v <= got.min_max + tie


def assert_no_saddle_exactly_when_inside(spec, seed):
    got = refine_saddle(spec, seed)
    v, _ = mixed_value(payoff_kernel(spec))
    threshold = max(10.0 * max(1e-9, _TIE_RTOL * mass(spec)), 1e-8)
    inside = got.max_min + threshold < v < got.min_max - threshold
    assert (FLAG_NO_SADDLE in got.flags) == inside


@settings(PROPERTY, max_examples=400)
@given(specs, seeds)
@example(NO_PURE_SADDLE, None)
def test_no_saddle_exactly_when_the_mixed_value_lies_strictly_inside(spec, seed):
    assert_no_saddle_exactly_when_inside(spec, seed)


# At Alice's optimum in these games |(r1, r2)| nearly vanishes: her tilt is
# 0, and one stake is 2**-24 of the others or Bob's tilt is 1e-7.  So f has a
# sharp peak there and the quartic a near-double root, which np.roots places
# only to ~1e-8 rad.  max_min comes out 2.4e-6 and 2.9e-10 below the true
# maximin; a fine scan across each peak finds that equal to min_max.  The
# first miss is past the no-saddle threshold at stakes x1e3, so a game with
# a saddle is flagged; the second stays under the 1e-8 floor.  By the
# minimax theorem the two players' mixed values agree.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="_security_level places a near-double root of the quartic "
                          "only to ~1e-8 rad")
@pytest.mark.parametrize("spec", [
    scale_stakes(make_spec(0.0, -2.0, -5.960464477539063e-08, -2.0, tau=0.5), 1e3),
    make_spec(-2.0, -2.0, -2.0, -1.0, tau=1e-7),
])
def test_levels_at_a_sharp_peak(spec):
    k = payoff_kernel(spec)
    alice, bob = mixed_value(k)
    assert abs(alice - bob) <= _TIE_RTOL * (1.0 + np.abs(k).sum())
    assert_no_saddle_exactly_when_inside(spec, None)
