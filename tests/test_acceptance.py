"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
execute; without ``-s`` pytest shows them for failing criteria only.
"""

import math

import numpy as np

from quantumdesks import (
    ObservableFrame,
    PayoffCoefficients,
    ProbabilityQuadruple,
    StateVector,
    bilinear_payoff,
    build_payoff_operator,
    classical_matrix,
    conic_coefficients,
    conic_residual,
    expectation,
    grid_saddle_oracle,
    independent_joint,
    marginals,
    payoff_gradient,
    payoff_surface,
    probabilities_from_angle,
    refine_saddle,
    scalar_payoff,
    simulate,
    swapped_labels,
)
from conftest import make_spec, random_spec


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_operator_scalar_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        spec = random_spec(rng)
        a, b = rng.uniform(0, math.pi, 2)
        wa, wb = rng.uniform(0, 2 * math.pi, 2)
        e = expectation(build_payoff_operator(spec),
                        StateVector(a, wa), StateVector(b, wb))
        s = scalar_payoff(spec.coefficients,
                          probabilities_from_angle(a, spec.alice_frame),
                          probabilities_from_angle(b, spec.bob_frame)).total
        worst = max(worst, abs(e - s))
    _criterion(1, "operator expectation equals scalar payoff on 1000 draws",
               worst < 1e-10, f"worst |diff| = {worst:.3g}")


def test_criterion_2_constraint_curve_oracle():
    rng = np.random.default_rng(102)
    worst_res = 0.0
    for _ in range(1000):
        frame = ObservableFrame(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        p = probabilities_from_angle(rng.uniform(0, math.pi), frame)
        worst_res = max(worst_res, abs(conic_residual(p.p1, p.p2, frame)))

    worst_coef = 0.0
    for _ in range(200):
        th = rng.uniform(0, math.pi)
        c = conic_coefficients(ObservableFrame(th, 0.0))
        s2t, c2t, ssq = math.sin(2 * th), math.cos(2 * th), math.sin(th) ** 2
        expected = (1.0, 1.0, -c2t, -(s2t ** 2 - 2 * ssq * c2t), -2 * ssq, ssq ** 2)
        got = (c.a11, c.a22, c.a12, c.b1, c.b2, c.c0)
        worst_coef = max(worst_coef, max(abs(g - e) for g, e in zip(got, expected)))

    _criterion(2, "curve points solve the conic; zero-phase coefficients match "
               "the closed form term by term",
               worst_res < 1e-10 and worst_coef < 1e-12,
               f"worst residual = {worst_res:.3g}, worst coefficient "
               f"difference = {worst_coef:.3g}")


def test_criterion_3_degenerate_cases():
    rng = np.random.default_rng(103)
    worst_line = worst_diag = worst_anti = worst_grad = 0.0
    for _ in range(500):
        a = rng.uniform(0, math.pi)
        th = rng.uniform(0, math.pi)
        p = probabilities_from_angle(a, ObservableFrame(th, math.pi / 2))
        worst_line = max(worst_line,
                         abs(p.p2 - (p.p1 * math.cos(2 * th) + math.sin(th) ** 2)))
        p = probabilities_from_angle(a, ObservableFrame(0.0, rng.uniform(0, 7)))
        worst_diag = max(worst_diag, abs(p.p2 - p.p1))
        p = probabilities_from_angle(a, ObservableFrame(math.pi / 2, rng.uniform(0, 7)))
        worst_anti = max(worst_anti, abs(p.p2 - (1.0 - p.p1)))
        c = conic_coefficients(ObservableFrame(th, 0.0))
        worst_grad = max(worst_grad,
                         abs(c.a11 + c.a12 + c.b1), abs(c.a22 + c.a12 + c.b2))
    ok = (worst_line < 1e-12 and worst_diag < 1e-12 and worst_anti < 1e-12
          and worst_grad < 1e-12)
    _criterion(3, "quarter-phase line, commuting-frame diagonals, and the "
               "zero-phase ellipse center at (1/2, 1/2)",
               ok, f"line {worst_line:.3g}, diag {worst_diag:.3g}, "
               f"anti {worst_anti:.3g}, center gradient {worst_grad:.3g}")


def test_criterion_4_parametrization_and_linear_term_oracles():
    rng = np.random.default_rng(104)

    # shifted coordinate x1 = p1 + p2 - 1 traces cos(theta) * cos(2a - theta)
    worst_prod = 0.0
    worst_quot = 0.0
    for _ in range(1000):
        a = rng.uniform(0, math.pi)
        th = rng.uniform(0, math.pi)
        p = probabilities_from_angle(a, ObservableFrame(th, 0.0))
        x1 = p.p1 + p.p2 - 1.0
        ct = math.cos(th)
        worst_prod = max(worst_prod, abs(x1 - ct * math.cos(2 * a - th)))
        if abs(ct) >= 1e-2:
            worst_quot = max(worst_quot, abs(x1 / ct - math.cos(2 * a - th)))

    # the p1-linear conic coefficient needs cos^2(lam) on its sin^2(2 theta)
    # term; the variant without it fails the parametric oracle off the real axis
    def residual_without_phase_factor(p1, p2, th, lam):
        c2t, s2t = math.cos(2 * th), math.sin(2 * th)
        cl, ssq = math.cos(lam), math.sin(th) ** 2
        a11 = c2t * c2t + s2t * s2t * cl * cl
        b1 = -(s2t * s2t - 2 * ssq * c2t)
        return (a11 * p1 * p1 + p2 * p2 - 2 * c2t * p1 * p2
                + b1 * p1 - 2 * ssq * p2 + ssq * ssq)

    th, lam = math.pi / 4, math.pi / 3
    frame = ObservableFrame(th, lam)
    corrected_worst = 0.0
    uncorrected_worst = 0.0
    for a in np.linspace(0.0, math.pi, 100, endpoint=False):
        p = probabilities_from_angle(a, frame)
        corrected_worst = max(corrected_worst, abs(conic_residual(p.p1, p.p2, frame)))
        uncorrected_worst = max(uncorrected_worst,
                                abs(residual_without_phase_factor(p.p1, p.p2, th, lam)))

    ok = (worst_prod < 1e-12 and worst_quot < 1e-12
          and corrected_worst < 1e-10 and uncorrected_worst > 1e-3)
    _criterion(4, "shifted-coordinate parametrization holds; dropping the "
               "phase factor from the linear term breaks the curve oracle",
               ok, f"identity {worst_prod:.3g}/{worst_quot:.3g}, corrected "
               f"{corrected_worst:.3g}, uncorrected {uncorrected_worst:.3g}")


def test_criterion_5_equilibrium_sanity():
    decoupled = make_spec(1, 1, 1, 1)
    oracle = grid_saddle_oracle(decoupled, 512)
    refined = refine_saddle(decoupled, (oracle.alpha_star, oracle.beta_star))
    ok_decoupled = (abs(refined.value - 1.0) < 1e-6
                    and refined.certificate < 1e-6
                    and abs(refined.max_min - refined.min_max) < 1e-6)

    rng = np.random.default_rng(20260809)
    ok_random = True
    worst_excess = 0.0
    for _ in range(20):
        spec = random_spec(rng)
        g = grid_saddle_oracle(spec, 512)
        r = refine_saddle(spec, (g.alpha_star, g.beta_star))
        mass = sum(abs(x) for x in spec.coefficients.as_tuple())
        bound = 2.0 * mass * math.pi / 512
        worst_excess = max(worst_excess, abs(r.value - g.value) - bound)
        if abs(r.value - g.value) > bound or g.max_min > g.min_max + 1e-12 \
                or r.max_min > r.min_max + 1e-9:
            ok_random = False

    _criterion(5, "refined saddle matches the decoupled-game value and the "
               "512x512 grid oracle on 20 random games",
               ok_decoupled and ok_random,
               f"decoupled value {refined.value:.9f}, certificate "
               f"{refined.certificate:.3g}, worst bound excess {worst_excess:.3g}")


def test_criterion_6_classical_embedding():
    rng = np.random.default_rng(106)
    worst_bilinear = 0.0
    worst_round = 0.0
    for _ in range(1000):
        c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
        p1, p2, q1, q2 = rng.uniform(0, 1, 4)
        p = ProbabilityQuadruple(p1, p2, 1 - p1, 1 - p2)
        q = ProbabilityQuadruple(q1, q2, 1 - q1, 1 - q2)
        bil = bilinear_payoff(classical_matrix(c), independent_joint(p),
                              independent_joint(q))
        worst_bilinear = max(worst_bilinear,
                             abs(bil - scalar_payoff(c, p, q).total))
        back = marginals(independent_joint(p))
        worst_round = max(worst_round, max(abs(x - y) for x, y in
                                           zip(back.as_tuple(), p.as_tuple())))

    dyadic_exact = all(
        marginals(independent_joint(ProbabilityQuadruple(
            i / 16, j / 16, 1 - i / 16, 1 - j / 16))) ==
        ProbabilityQuadruple(i / 16, j / 16, 1 - i / 16, 1 - j / 16)
        for i in range(17) for j in range(17))

    swap_ok = True
    for _ in range(50):
        c = PayoffCoefficients(*rng.uniform(-3, 3, 4))
        alt = np.array([
            [0.0, c.c2, c.c1, c.c1 + c.c2],
            [c.c4, 0.0, c.c1 + c.c4, c.c1],
            [c.c3, c.c2 + c.c3, 0.0, c.c2],
            [c.c3 + c.c4, c.c3, c.c4, 0.0],
        ])
        if not np.array_equal(classical_matrix(swapped_labels(c)).entries, alt):
            swap_ok = False

    ok = worst_bilinear < 1e-12 and worst_round <= 2 ** -52 and dyadic_exact \
        and swap_ok
    _criterion(6, "bilinear payoff factorizes, marginals invert the product "
               "joint, and the label swap produces the alternative table",
               ok, f"bilinear {worst_bilinear:.3g}, round trip {worst_round:.3g}")


def test_criterion_7_monte_carlo_convergence():
    cases = [
        (make_spec(1, 1, 1, 1), math.pi / 4, math.pi / 4, 2026),
        (make_spec(1.0, 2.0, 3.0, 4.0, theta=math.pi / 4, lam=0.5,
                   tau=math.pi / 6, mu=1.2), 0.3, 0.9, 77),
        (make_spec(-1.5, 0.5, 2.0, 1.0, theta=1.2, lam=4.0, tau=0.3), 1.0, 0.4, 31415),
    ]
    worst_z = 0.0
    identical = True
    for spec, a, b, seed in cases:
        first = simulate(spec, a, b, 10 ** 6, seed)
        again = simulate(spec, a, b, 10 ** 6, seed)
        identical = identical and first == again
        z = abs(first.empirical_mean - first.analytic_mean) / first.std_error
        worst_z = max(worst_z, z)
        assert first.analytic_mean == payoff_surface(spec, a, b)
    _criterion(7, "million-round simulations sit within four standard errors "
               "of the analytic mean and rerun bit-identically",
               worst_z <= 4.0 and identical,
               f"worst z = {worst_z:.3f}, reruns identical = {identical}")


def test_criterion_8_analytic_derivatives():
    rng = np.random.default_rng(108)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        a, b = rng.uniform(0, math.pi, 2)
        ga, gb = payoff_gradient(spec, a, b)
        fa = (payoff_surface(spec, a + eps, b)
              - payoff_surface(spec, a - eps, b)) / (2 * eps)
        fb = (payoff_surface(spec, a, b + eps)
              - payoff_surface(spec, a, b - eps)) / (2 * eps)
        worst = max(worst, abs(ga - fa), abs(gb - fb))
    _criterion(8, "analytic payoff derivatives match central differences",
               worst < 1e-6, f"worst |diff| = {worst:.3g}")


# -- criterion 9: the macroscopic game, solved without the strategy angle --

def _joint(p1: float, p2: float):
    return independent_joint(ProbabilityQuadruple(p1, p2, 1.0 - p1, 1.0 - p2))


def _affine_payoff(c: PayoffCoefficients) -> np.ndarray:
    """B with bilinear_payoff = (1, p1, p2) B (1, q1, q2)^T on product joints.

    The compound matrix is the sum of two desk games, so the payoff of
    product joints depends on the desk marginals only, affinely for each
    player; B follows from its values at the corners (0, 0), (1, 0), (0, 1).
    """
    m = classical_matrix(c)
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    g = np.array([[bilinear_payoff(m, _joint(*p), _joint(*q)) for q in corners]
                  for p in corners])
    t_inv = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    return t_inv @ g @ t_inv.T


def _ellipse(frame: ObservableFrame) -> tuple[np.ndarray, np.ndarray]:
    """Centre and shape matrix S of the frame's conic, from its coefficients.

    The conic is (p - centre)^T Q (p - centre) = r2, so the curve is
    centre + L (cos phi, sin phi) with L L^T = S = r2 Q^-1.
    """
    k = conic_coefficients(frame)
    q = np.array([[k.a11, k.a12], [k.a12, k.a22]])
    centre = -0.5 * np.linalg.solve(q, [k.b1, k.b2])
    r2 = centre @ q @ centre - k.c0
    return centre, r2 * np.linalg.inv(q)


def _ellipse_security_level(b: np.ndarray, own, other, scan: int = 2048) -> float:
    """max over the own ellipse of min over the other of (1, p) B (1, q)^T.

    The inner minimum of a linear function over an ellipse is its support
    function w.centre - sqrt(w^T S w).  The outer maximum runs over the own
    curve's angle phi: a uniform scan, then every local maximum is zoomed
    into by repeated 33-point scans over two steps on either side.
    """
    centre, shape = own
    other_centre, other_shape = other
    lower = np.linalg.cholesky(shape)

    def level(phi: np.ndarray) -> np.ndarray:
        p = centre + np.stack([np.cos(phi), np.sin(phi)], axis=-1) @ lower.T
        w = b[0] + p @ b[1:]  # rows (w0, w1, w2): the payoff is w0 + (w1, w2) . q
        ww = w[..., 1:]
        spread = np.einsum("...i,ij,...j->...", ww, other_shape, ww)
        return w[..., 0] + ww @ other_centre - np.sqrt(np.maximum(spread, 0.0))

    step = 2.0 * math.pi / scan
    phi = np.arange(scan) * step
    f = level(phi)
    peaks = phi[(f >= np.roll(f, 1)) & (f >= np.roll(f, -1))]
    offsets = np.linspace(-2.0, 2.0, 33)
    while step > 1e-14:
        grid = peaks[:, None] + offsets * step
        peaks = grid[np.arange(len(grid)), np.argmax(level(grid), axis=1)]
        step /= 8.0
    return float(level(peaks).max())


def test_criterion_9_macroscopic_game_has_the_quantum_equilibrium():
    rng = np.random.default_rng(109)
    games = 0
    worst = 0.0
    while games < 24:
        spec = random_spec(rng)
        frames = (spec.alice_frame, spec.bob_frame)
        if min(abs(math.sin(2 * f.theta) * math.cos(f.lam)) for f in frames) < 0.05:
            continue  # a segment, not an ellipse
        games += 1
        b = _affine_payoff(spec.coefficients)
        direct = bilinear_payoff(classical_matrix(spec.coefficients),
                                 _joint(0.3, 0.8), _joint(0.6, 0.1))
        assert abs(np.array([1.0, 0.3, 0.8]) @ b @ np.array([1.0, 0.6, 0.1])
                   - direct) < 1e-12
        alice, bob = _ellipse(spec.alice_frame), _ellipse(spec.bob_frame)
        max_min = _ellipse_security_level(b, alice, bob)
        min_max = -_ellipse_security_level(-b.T, bob, alice)
        got = refine_saddle(spec, (0.0, 0.0))
        mass = 1.0 + sum(abs(x) for x in spec.coefficients.as_tuple())
        worst = max(worst, abs(got.max_min - max_min) / mass,
                    abs(got.min_max - min_max) / mass)
    _criterion(9, "maximin and minimax of the game over the players' probability "
               "ellipses equal those of the angle game on 24 random games",
               worst <= 1e-12, f"worst |diff| / (1 + mass) = {worst:.3g}")
