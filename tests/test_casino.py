import itertools
import math
import tracemalloc

import numpy as np
import pytest

from quantumdesks import (
    JointDistribution,
    ProbabilityQuadruple,
    classical_matrix,
    desk_payoff,
    independent_joint,
    marginals,
    payoff_surface,
    play_round,
    probabilities_from_angle,
    rng_uniform,
    simulate,
    simulate_joint,
)
from quantumdesks import casino
from quantumdesks.casino import (
    SimReport,
    _compound_cells,
    _mantissa_limit,
    _product_cells,
    _product_rounds,
    _round_cells,
)
from conftest import chained_rounds, exact_statistics, make_spec, uniform_block

MASK64 = (1 << 64) - 1


def simulated_payoffs(spec, alpha, beta, rounds, seed) -> np.ndarray:
    """Per-round payoffs of ``simulate``, from its chunks of outcome cells."""
    payoffs = classical_matrix(spec.coefficients).entries.ravel()
    cells = _product_rounds(spec, alpha, beta, rounds, seed)
    return np.concatenate([payoffs[chunk] for chunk in cells])


def joint_rounds(spec, alice, bob, rounds, seed) -> list[tuple[float, float, float]]:
    """Per-round payoffs of correlated play, drawn one uniform at a time."""
    def compound(u, joint):  # inverse CDF over 1-2, 1-4, 3-2, 3-4
        edges = list(itertools.accumulate(joint.as_vector()))[:3]
        i = sum(u >= edge for edge in edges)
        return (1 if i <= 1 else 3), (2 if i % 2 == 0 else 4)

    state, rows = seed, []
    for _ in range(rounds):
        u_alice, state = rng_uniform(state)
        u_bob, state = rng_uniform(state)
        (a_odd, a_even), (b_odd, b_even) = compound(u_alice, alice), compound(u_bob, bob)
        odd, even = desk_payoff(a_odd, a_even, b_odd, b_even, spec.coefficients)
        rows.append((odd + even, odd, even))
    return rows


def report_statistics(report: SimReport) -> tuple[float, float, tuple[float, float]]:
    return report.empirical_mean, report.std_error, report.per_desk_means


def reference_uniforms(seed: int, count: int) -> list[float]:
    """Straight-line reimplementation of the documented generator."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53)
    return out


class TestGenerator:
    def test_matches_reference_implementation(self):
        for seed in (0, 1, 12345, (1 << 64) - 1):
            state = seed
            got = []
            for _ in range(200):
                u, state = rng_uniform(state)
                got.append(u)
            assert got == reference_uniforms(seed, 200)

    def test_vectorized_block_matches_sequential(self):
        np.testing.assert_array_equal(uniform_block(987654321, 1000),
                                      np.array(reference_uniforms(987654321, 1000)))

    def test_frozen_first_uniforms(self):
        # pinned values: changing the generator or the 53-bit construction
        # is a breaking change
        assert reference_uniforms(0, 4) == [
            0.8833108082136426,
            0.43152799704850997,
            0.026433771592597743,
            0.9708819781538285,
        ]
        u, _ = rng_uniform(0)
        assert u == 0.8833108082136426

    def test_uniforms_in_unit_interval(self):
        u = uniform_block(42, 100000)
        assert u.min() >= 0.0 and u.max() < 1.0


class TestMantissaLimit:
    """The integer draw ``m < limit`` agrees with the float ``m * 2**-53 < p``."""

    @pytest.mark.parametrize("p", [-1e-9, 0.0, 5e-324, 2.0 ** -53, 0.5,
                                   1.0 - 2.0 ** -53, 1.0, 1.0 + 1e-9])
    def test_agrees_with_the_float_draw_at_the_limit(self, p):
        limit = _mantissa_limit(p)
        assert 0 <= limit <= 1 << 53
        for m in (limit - 1, limit, limit + 1):
            if 0 <= m < 1 << 53:
                assert (m * 2.0 ** -53 < p) == (m < limit)
                assert (m * 2.0 ** -53 >= p) == (m >= limit)

    def test_a_draw_equal_to_its_threshold(self):
        # ``uniform < p`` is strict: draws equal to their probabilities are
        # all no, and draws equal to all three edges give compound index 3;
        # either way both players play 3-4 (cell 15)
        u = uniform_block(5, 4).tolist()
        assert next(_round_cells(5, 1, [u], _product_cells)).tolist() == [15]
        assert next(_round_cells(5, 1, [u[:2]] * 3, _compound_cells)).tolist() == [15]


class TestOutcomeCells:
    """Cell 4*i + j is Alice's compound strategy i against Bob's j."""

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_certain_draws_land_in_their_cell(self, i, j):
        # compound index i = 2 * odd no + even no; yes-probabilities in draw order
        yes = [float(k < 2) for k in (i, 2 * (i % 2), j, 2 * (j % 2))]
        cells = next(_round_cells(7, 100, [yes], _product_cells))
        assert cells.tolist() == [4 * i + j] * 100

    @pytest.mark.parametrize("alpha, i", [(0.0, 0), (math.pi / 2, 3)])
    @pytest.mark.parametrize("beta, j", [(0.0, 0), (math.pi / 2, 3)])
    def test_certain_play_lands_in_its_cell(self, alpha, i, beta, j):
        # frame tilt 0: angle 0 plays 1-2 and angle pi/2 plays 3-4; there the
        # yes-probability is cos(pi/2)**2 = 3.7e-33, yes only on mantissa 0
        spec = make_spec(1.0, 2.0, 3.0, 4.0)
        p = probabilities_from_angle(alpha, spec.alice_frame)
        q = probabilities_from_angle(beta, spec.bob_frame)
        assert all(min(v, 1.0 - v) < 1e-32 for v in (p.p1, p.p2, q.p1, q.p2))
        cells = np.concatenate(list(_product_rounds(spec, alpha, beta, 100, 7)))
        assert cells.tolist() == [4 * i + j] * 100
        entry = classical_matrix(spec.coefficients).entries[i, j]
        assert simulate(spec, alpha, beta, 100, 7).empirical_mean == entry

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_certain_joints_land_in_their_cell(self, i, j):
        alice, bob = (JointDistribution(*np.eye(4)[k]) for k in (i, j))
        edges = list(zip(*(np.cumsum(d.as_vector())[:3].tolist() for d in (alice, bob))))
        cells = next(_round_cells(3, 100, edges, _compound_cells))
        assert cells.tolist() == [4 * i + j] * 100
        spec = make_spec(1.0, 2.0, 3.0, 4.0)
        entry = classical_matrix(spec.coefficients).entries[i, j]
        assert simulate_joint(spec, alice, bob, 100, 3).empirical_mean == entry


class TestPlayRound:
    def test_deterministic_opposed_play(self):
        # theta = tau = 0, alpha = 0, beta = pi/2: Alice always plays 1
        # and 2, Bob always 3 and 4, so both desks pay out every round
        spec = make_spec(1.0, 2.0, 3.0, 4.0)
        state = 99
        for _ in range(50):
            pay, (odd, even), state = play_round(spec, 0.0, math.pi / 2, state)
            assert odd == spec.coefficients.c3
            assert even == spec.coefficients.c4
            assert pay == odd + even

    def test_zero_stakes_pay_nothing(self):
        spec = make_spec(0, 0, 0, 0, theta=0.7, tau=1.1)
        state = 5
        for _ in range(20):
            pay, desks, state = play_round(spec, 0.9, 0.2, state)
            assert pay == 0.0 and desks == (0.0, 0.0)

    def test_fixed_seed_reproduces_sequence(self):
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.6, tau=1.1)

        def run():
            state, seq = 12345, []
            for _ in range(100):
                pay, desks, state = play_round(spec, 0.9, 0.4, state)
                seq.append((pay, desks, state))
            return seq

        assert run() == run()

    def test_frozen_outcome_fixture(self):
        # guards the draw order (Alice odd, Alice even, Bob odd, Bob even)
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.6, tau=1.1)
        state = 12345
        seen = []
        for _ in range(3):
            pay, desks, state = play_round(spec, 0.9, 0.4, state)
            seen.append((pay, desks))
        assert seen == [(0.0, (0.0, 0.0)), (1.0, (1.0, 0.0)), (1.0, (1.0, 0.0))]
        assert state == 7681369315911532853

    def test_desk_additivity(self):
        spec = make_spec(-1.0, 0.5, 2.0, 1.5, theta=1.2, lam=0.8, tau=0.4, mu=2.0)
        state = 31
        for _ in range(200):
            pay, (odd, even), state = play_round(spec, 1.0, 0.4, state)
            assert pay == odd + even


class TestSimulate:
    def test_matches_chained_play_round(self):
        spec = make_spec(1.0, -2.0, 3.0, 0.5, theta=0.6, lam=1.0, tau=1.1, mu=0.2)
        state = 42
        seq = []
        for _ in range(500):
            pay, _, state = play_round(spec, 0.9, 0.4, state)
            seq.append(pay)
        np.testing.assert_array_equal(np.array(seq), simulated_payoffs(spec, 0.9, 0.4, 500, 42))

    def test_deterministic_case_is_exact(self):
        spec = make_spec(1, 1, 1, 1)
        got = simulate(spec, 0.0, math.pi / 2, 1000, seed=3)
        assert got.empirical_mean == got.analytic_mean == 2.0
        assert got.std_error == 0.0
        assert got.per_desk_means == (1.0, 1.0)

    def test_converges_to_analytic_mean(self):
        spec = make_spec(1, 1, 1, 1)
        got = simulate(spec, math.pi / 4, math.pi / 4, 10 ** 6, seed=2026)
        assert got.analytic_mean == pytest.approx(1.0, abs=1e-12)
        assert abs(got.empirical_mean - got.analytic_mean) <= 4 * got.std_error

    def test_single_round_support(self):
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.8, tau=0.3)
        c = spec.coefficients
        achievable = {o + e for o in (0.0, c.c1, c.c3) for e in (0.0, c.c2, c.c4)}
        for seed in range(20):
            got = simulate(spec, 0.7, 1.2, 1, seed=seed)
            assert got.empirical_mean in achievable
            assert got.std_error == 0.0

    def test_same_seed_bit_identical(self):
        spec = make_spec(0.5, 1.5, -1.0, 2.0, theta=1.0, lam=0.3, tau=0.2, mu=1.1)
        a = simulate(spec, 0.3, 0.9, 50000, seed=777)
        b = simulate(spec, 0.3, 0.9, 50000, seed=777)
        assert a == b

    def test_std_error_definition(self):
        spec = make_spec(1, 1, 1, 1, theta=0.5, tau=0.5)
        totals = simulated_payoffs(spec, 0.8, 0.3, 4000, 9)
        got = simulate(spec, 0.8, 0.3, 4000, seed=9)
        assert got.std_error == pytest.approx(
            np.std(totals, ddof=1) / math.sqrt(4000), abs=1e-15)
        assert got.empirical_mean == pytest.approx(np.mean(totals), abs=1e-15)

    def test_analytic_mean_matches_surface(self):
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.7, lam=0.9, tau=0.2, mu=1.4)
        got = simulate(spec, 0.3, 0.9, 10, seed=1)
        assert got.analytic_mean == payoff_surface(spec, 0.3, 0.9)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            simulate(make_spec(), 0.0, 0.0, 0, seed=1)


class TestSimulateJoint:
    def test_unbiased_for_correlated_play(self):
        spec = make_spec(1.0, 2.0, 3.0, 4.0)
        j = JointDistribution(0.5, 0.0, 0.0, 0.5)  # desks perfectly correlated
        got = simulate_joint(spec, j, j, 10 ** 5, seed=5)
        assert abs(got.empirical_mean - got.analytic_mean) <= 4 * got.std_error

    def test_mean_depends_only_on_marginals(self):
        # correlated and product-form joints with equal marginals have the
        # same expected payoff; only the round-by-round draws differ
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.4, tau=0.9)
        corr = JointDistribution(0.5, 0.0, 0.0, 0.5)
        prod = independent_joint(marginals(corr))
        a = simulate_joint(spec, corr, corr, 1000, seed=8)
        b = simulate_joint(spec, prod, prod, 1000, seed=8)
        assert a.analytic_mean == pytest.approx(b.analytic_mean, abs=1e-12)

    def test_product_joint_agrees_with_angle_simulation_in_expectation(self):
        spec = make_spec(1, 1, 1, 1, theta=0.0, tau=0.0)
        p = ProbabilityQuadruple(0.5, 0.5, 0.5, 0.5)
        got = simulate_joint(spec, independent_joint(p), independent_joint(p),
                             10 ** 5, seed=17)
        assert got.analytic_mean == pytest.approx(
            payoff_surface(spec, math.pi / 4, math.pi / 4), abs=1e-12)
        assert abs(got.empirical_mean - got.analytic_mean) <= 4 * got.std_error

    def test_reproducible(self):
        spec = make_spec(1.0, 2.0, 3.0, 4.0, theta=0.4)
        j = JointDistribution(0.1, 0.2, 0.3, 0.4)
        assert simulate_joint(spec, j, j, 2000, seed=4) == \
            simulate_joint(spec, j, j, 2000, seed=4)


class TestChunks:
    """Chunk boundaries inside a run change nothing, and memory stays flat."""

    SPEC = make_spec(-1.0, 0.5, 2.0, -1.5, theta=1.2, lam=0.8, tau=0.4, mu=2.0)
    JOINT_A = JointDistribution(0.1, 0.2, 0.3, 0.4)
    JOINT_B = JointDistribution(0.5, 0.0, 0.25, 0.25)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("rounds", [1, 2, 20, 23])
    def test_simulate_is_exact_over_chained_rounds(self, monkeypatch, chunk, rounds):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        got = simulate(self.SPEC, 0.7, 1.9, rounds, seed=123)
        assert report_statistics(got) == exact_statistics(
            chained_rounds(self.SPEC, 0.7, 1.9, rounds, 123))

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("rounds", [1, 2, 20, 23])
    def test_simulate_joint_is_exact_over_drawn_rounds(self, monkeypatch, chunk, rounds):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        got = simulate_joint(self.SPEC, self.JOINT_A, self.JOINT_B, rounds, seed=77)
        assert report_statistics(got) == exact_statistics(
            joint_rounds(self.SPEC, self.JOINT_A, self.JOINT_B, rounds, 77))

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("rounds", [1, 20, 23])
    @pytest.mark.parametrize("tilt, alpha, beta", [
        (0.0, 0.0, math.pi / 2),          # p1 = p2 = 1 against p1 = p2 ~ 4e-33
        (0.0, math.pi / 2, 0.0),
        (math.pi / 2, 0.0, math.pi / 2),  # p1 = 1, p2 ~ 4e-33 and the reverse
    ])
    def test_degenerate_play_is_exact(self, monkeypatch, chunk, rounds, tilt, alpha, beta):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        spec = make_spec(-1.0, 0.5, 2.0, -1.5, theta=tilt, tau=tilt)
        rows = chained_rounds(spec, alpha, beta, rounds, 31)
        np.testing.assert_array_equal(simulated_payoffs(spec, alpha, beta, rounds, 31),
                                      [total for total, _, _ in rows])
        assert report_statistics(simulate(spec, alpha, beta, rounds, 31)) == \
            exact_statistics(rows)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("rounds", [1, 20, 23])
    @pytest.mark.parametrize("alice, bob", [
        (JointDistribution(1.0, 0.0, 0.0, 0.0), JointDistribution(0.0, 0.0, 0.0, 1.0)),
        (JointDistribution(0.0, 0.0, 0.0, 1.0), JointDistribution(0.5, 0.0, 0.5, 0.0)),
        (JointDistribution(0.0, 1.0, 0.0, 0.0), JointDistribution(0.0, 0.0, 1.0, 0.0)),
    ])
    def test_degenerate_joint_play_is_exact(self, monkeypatch, chunk, rounds, alice, bob):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        got = simulate_joint(self.SPEC, alice, bob, rounds, seed=9)
        assert report_statistics(got) == exact_statistics(
            joint_rounds(self.SPEC, alice, bob, rounds, 9))

    def test_statistics_do_not_depend_on_chunk_size(self, monkeypatch):
        want = simulate(self.SPEC, 0.3, 0.9, 3000, seed=5)
        for chunk in (1, 7, 1000, 4096):
            monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
            assert simulate(self.SPEC, 0.3, 0.9, 3000, seed=5) == want

    @pytest.mark.parametrize("run", ["simulate", "simulate_joint"])
    def test_peak_memory_is_flat_in_rounds(self, run):
        def peak(rounds: int) -> int:
            tracemalloc.start()
            try:
                if run == "simulate":
                    simulate(self.SPEC, 0.3, 0.9, rounds, seed=1)
                else:
                    simulate_joint(self.SPEC, self.JOINT_A, self.JOINT_B, rounds, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = casino._CHUNK_ROUNDS
        peak(chunk)  # warm up caches that a first call fills
        small, large = peak(20 * chunk), peak(200 * chunk)
        # one chunk's four uniforms take 32 B a round; a whole run would take
        # 200 times that and more
        assert max(small, large) <= 8 * 32 * chunk
        assert abs(large - small) <= 0.05 * small


class TestReportSerialization:
    def test_to_dict_round_trips_fields(self):
        got = simulate(make_spec(1, 1, 1, 1), 0.3, 0.4, 100, seed=6)
        d = got.to_dict()
        assert d["rounds"] == 100
        assert d["seed"] == 6
        assert d["per_desk_means"] == {"odd": got.per_desk_means[0],
                                       "even": got.per_desk_means[1]}
