import itertools
import math
import tracemalloc
from fractions import Fraction

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
    _cell_counts,
    _compound_pairs,
    _mantissa_limit,
    _product_pairs,
    _product_rounds,
    _round_pairs,
)
from conftest import (
    GAMMA,
    MASK64,
    boundary_words,
    chained_rounds,
    draw_is_yes,
    exact_statistics,
    make_spec,
    play_with,
    round_cells,
    seed_for_word,
    uniform_block,
)


def simulated_payoffs(spec, alpha, beta, rounds, seed) -> np.ndarray:
    """Per-round payoffs of ``simulate``, from its blocks of pair bytes."""
    payoffs = classical_matrix(spec.coefficients).entries.ravel()
    return payoffs[round_cells(_product_rounds(spec, alpha, beta, rounds, seed), rounds)]


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
        assert round_cells(_round_pairs(5, 1, [u], _product_pairs), 1) == [15]
        assert round_cells(_round_pairs(5, 1, [u[:2]] * 3, _compound_pairs), 1) == [15]


class TestExactBoundary:
    """Draws whose output word is 0, 2**64 - 1 or on either side of a limit
    land where the float rule ``uniform < p`` puts them, in play_round and
    in both variants of the kernel.  ``seed_for_word`` places each word at
    a chosen draw of a chosen round."""

    SPEC = make_spec(1.0, 2.0, 4.0, 8.0)
    PROBS = [0.0, 2.0 ** -53, 0.3, 0.5, 1.0 - 2.0 ** -53, 1.0]
    #: the first ends one ulp below 1.0, the last three on an edge of exactly
    #: 1.0 (p34 = 0)
    JOINTS = [JointDistribution(0.6, 0.3, 0.1, 0.0),
              JointDistribution(0.1, 0.2, 0.7, 0.0),
              JointDistribution(0.25, 0.25, 0.5, 0.0),
              JointDistribution(1.0, 0.0, 0.0, 0.0)]

    def test_seed_for_word_gives_the_word(self):
        for p in self.PROBS:
            for word in boundary_words(p):
                assert uniform_block(seed_for_word(word), 1)[0] == (word >> 11) * 2.0 ** -53
        assert casino.rng_output(casino.rng_advance(seed_for_word(MASK64))) == MASK64

    @pytest.mark.parametrize("p", PROBS)
    @pytest.mark.parametrize("draw", range(4))
    @pytest.mark.parametrize("before", [0, 1])
    def test_product_draw_at_a_boundary_word(self, monkeypatch, p, draw, before):
        # the other three draws of a round are certain yes; a "no" at a draw
        # plays 3 or 4 against 1 or 2 and pays c1, c2, c3 or c4 for draws 0 to 3
        play_with(monkeypatch, [p if k == draw else 1.0 for k in range(4)])
        stake = self.SPEC.coefficients.as_tuple()[draw]
        rounds = before + 1
        for word in boundary_words(p):
            seed = (seed_for_word(word) - (4 * before + draw) * GAMMA) & MASK64
            u = uniform_block(seed, 4 * rounds)[draw::4].tolist()
            assert u[-1] == (word >> 11) * 2.0 ** -53
            want = [0.0 if v < p else stake for v in u]
            assert want[-1] == (0.0 if draw_is_yes(word, p) else stake)
            assert [t for t, _, _ in chained_rounds(self.SPEC, 0.0, 1.0, rounds, seed)] == want
            assert simulated_payoffs(self.SPEC, 0.0, 1.0, rounds, seed).tolist() == want
            assert simulate(self.SPEC, 0.0, 1.0, rounds, seed).empirical_mean == \
                sum(want) / rounds

    @pytest.mark.parametrize("joint", JOINTS)
    @pytest.mark.parametrize("player", [0, 1])
    @pytest.mark.parametrize("before", [0, 1])
    def test_joint_draw_at_a_boundary_word(self, joint, player, before):
        # the other player's edges are all 1.0, so their index is always 0
        certain = JointDistribution(1.0, 0.0, 0.0, 0.0)
        alice, bob = (joint, certain) if player == 0 else (certain, joint)
        edges = np.cumsum(joint.as_vector())[:3].tolist()
        rows = list(zip(*(np.cumsum(j.as_vector())[:3].tolist() for j in (alice, bob))))
        rounds = before + 1
        for word in sorted({w for edge in edges for w in boundary_words(edge)}):
            seed = (seed_for_word(word) - (2 * before + player) * GAMMA) & MASK64
            u = uniform_block(seed, 2 * rounds)[player::2].tolist()
            index = [sum(v >= edge for edge in edges) for v in u]
            assert index[-1] == sum(not draw_is_yes(word, edge) for edge in edges)
            want = [4 * i if player == 0 else i for i in index]
            pairs = _round_pairs(seed, rounds, rows, _compound_pairs)
            assert round_cells(pairs, rounds) == want
            assert report_statistics(simulate_joint(self.SPEC, alice, bob, rounds, seed)) == \
                exact_statistics(joint_rounds(self.SPEC, alice, bob, rounds, seed))

    def test_an_edge_of_one_is_never_reached(self):
        # the word 2**64 - 1 is the largest uniform, 1 - 2**-53, below the
        # edge 1.0: Alice plays index 2 of (0.1, 0.2, 0.7, 0), cell 8
        alice = JointDistribution(0.1, 0.2, 0.7, 0.0)
        bob = JointDistribution(0.0, 0.0, 1.0, 0.0)
        got = simulate_joint(self.SPEC, alice, bob, 1, seed_for_word(MASK64))
        assert got.empirical_mean == classical_matrix(self.SPEC.coefficients).entries[2, 2]
        rows = list(zip(*(np.cumsum(j.as_vector())[:3].tolist() for j in (alice, bob))))
        assert round_cells(_round_pairs(seed_for_word(MASK64), 1, rows, _compound_pairs),
                           1) == [10]


class TestOutcomeCells:
    """Cell 4*i + j is Alice's compound strategy i against Bob's j."""

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_certain_draws_land_in_their_cell(self, i, j):
        # compound index i = 2 * odd no + even no; yes-probabilities in draw order
        yes = [float(k < 2) for k in (i, 2 * (i % 2), j, 2 * (j % 2))]
        cells = round_cells(_round_pairs(7, 100, [yes], _product_pairs), 100)
        assert cells == [4 * i + j] * 100

    @pytest.mark.parametrize("alpha, i", [(0.0, 0), (math.pi / 2, 3)])
    @pytest.mark.parametrize("beta, j", [(0.0, 0), (math.pi / 2, 3)])
    def test_certain_play_lands_in_its_cell(self, alpha, i, beta, j):
        # frame tilt 0: angle 0 plays 1-2 and angle pi/2 plays 3-4; there the
        # yes-probability is cos(pi/2)**2 = 3.7e-33, yes only on mantissa 0
        spec = make_spec(1.0, 2.0, 3.0, 4.0)
        p = probabilities_from_angle(alpha, spec.alice_frame)
        q = probabilities_from_angle(beta, spec.bob_frame)
        assert all(min(v, 1.0 - v) < 1e-32 for v in (p.p1, p.p2, q.p1, q.p2))
        cells = round_cells(_product_rounds(spec, alpha, beta, 100, 7), 100)
        assert cells == [4 * i + j] * 100
        entry = classical_matrix(spec.coefficients).entries[i, j]
        assert simulate(spec, alpha, beta, 100, 7).empirical_mean == entry

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("j", range(4))
    def test_certain_joints_land_in_their_cell(self, i, j):
        alice, bob = (JointDistribution(*np.eye(4)[k]) for k in (i, j))
        edges = list(zip(*(np.cumsum(d.as_vector())[:3].tolist() for d in (alice, bob))))
        cells = round_cells(_round_pairs(3, 100, edges, _compound_pairs), 100)
        assert cells == [4 * i + j] * 100
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

    def test_rejects_negative_rounds(self):
        with pytest.raises(ValueError):
            simulate(make_spec(), 0.0, 0.0, -1, seed=1)


class TestSimulateJoint:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rejects_fewer_than_one_round(self, rounds):
        j = JointDistribution(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError):
            simulate_joint(make_spec(), j, j, rounds, seed=1)

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

    @pytest.mark.parametrize("rounds", [1, 2, 23])
    @pytest.mark.parametrize("stake", [0.0, -0.0, 5e-324, 2.2e-308, 1e150])
    def test_extreme_stakes_are_exact(self, monkeypatch, stake, rounds):
        # signed zeros, a subnormal, the smallest normal's scale and the
        # CLI's stake limit, all times SPEC's stakes
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", 7)
        spec = make_spec(*(stake * c for c in (-1.0, 0.5, 2.0, -1.5)),
                         theta=1.2, lam=0.8, tau=0.4, mu=2.0)
        assert report_statistics(simulate(spec, 0.7, 1.9, rounds, seed=123)) == \
            exact_statistics(chained_rounds(spec, 0.7, 1.9, rounds, 123))
        got = simulate_joint(spec, self.JOINT_A, self.JOINT_B, rounds, seed=77)
        assert report_statistics(got) == exact_statistics(
            joint_rounds(spec, self.JOINT_A, self.JOINT_B, rounds, 77))

    def test_variance_beyond_the_float_range_raises(self):
        # stakes of 1e160 give an exact variance of ~1e320, which no float
        # holds; the CLI caps stakes at 1e150
        spec = make_spec(1e160, -1e160, 2e160, 1e160, theta=1.2, tau=0.4)
        with pytest.raises(OverflowError):
            simulate(spec, 0.7, 1.9, 100, seed=5)

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


class TestOddLengths:
    """Runs of any length around the chunk size, with odd and even chunks,
    count exactly the rounds played: an odd run ends on one padding
    nibble, and an odd last chunk after a full one reads no stale draws."""

    SPEC = TestChunks.SPEC
    JOINT_A, JOINT_B = TestChunks.JOINT_A, TestChunks.JOINT_B

    @staticmethod
    def lengths(chunk: int) -> list[int]:
        return sorted({1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1})

    @pytest.mark.parametrize("chunk", [7, 8, casino._CHUNK_ROUNDS])
    def test_simulate_matches_chained_rounds(self, monkeypatch, chunk):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        rows = chained_rounds(self.SPEC, 0.7, 1.9, 2 * chunk + 1, 123)
        for rounds in self.lengths(chunk):
            np.testing.assert_array_equal(simulated_payoffs(self.SPEC, 0.7, 1.9, rounds, 123),
                                          [total for total, _, _ in rows[:rounds]])
            assert report_statistics(simulate(self.SPEC, 0.7, 1.9, rounds, 123)) == \
                exact_statistics(rows[:rounds])
            cells = round_cells(_product_rounds(self.SPEC, 0.7, 1.9, rounds, 123), rounds)
            assert _cell_counts(_product_rounds(self.SPEC, 0.7, 1.9, rounds, 123), rounds) == \
                np.bincount(cells, minlength=16).tolist()

    @pytest.mark.parametrize("chunk", [7, 8, casino._CHUNK_ROUNDS])
    def test_simulate_joint_matches_drawn_rounds(self, monkeypatch, chunk):
        monkeypatch.setattr(casino, "_CHUNK_ROUNDS", chunk)
        rows = joint_rounds(self.SPEC, self.JOINT_A, self.JOINT_B, 2 * chunk + 1, 77)
        payoffs = classical_matrix(self.SPEC.coefficients).entries.ravel()
        edges = list(zip(*(np.cumsum(j.as_vector())[:3].tolist()
                           for j in (self.JOINT_A, self.JOINT_B))))
        for rounds in self.lengths(chunk):
            cells = round_cells(_round_pairs(77, rounds, edges, _compound_pairs), rounds)
            np.testing.assert_array_equal(payoffs[cells],
                                          [total for total, _, _ in rows[:rounds]])
            got = simulate_joint(self.SPEC, self.JOINT_A, self.JOINT_B, rounds, seed=77)
            assert report_statistics(got) == exact_statistics(rows[:rounds])
            # cell 0 pays nothing, so only the counts show a phantom round there
            assert _cell_counts(_round_pairs(77, rounds, edges, _compound_pairs), rounds) == \
                np.bincount(cells, minlength=16).tolist()


class TestReport:
    """``_report`` rounds exact sums over the cell counts once each."""

    @staticmethod
    def rational_statistics(counts, odd, even):
        """The report's statistics in Fraction arithmetic, from weighted cells."""
        rounds = sum(counts)
        cells = [(n, Fraction(o), Fraction(e), Fraction(o + e))
                 for n, o, e in zip(counts, odd, even)]
        total = sum(n * t for n, _, _, t in cells)
        var = 0.0
        if rounds > 1:
            var = float((sum(n * t * t for n, _, _, t in cells) - total * total / rounds)
                        / (rounds - 1))
        return (float(total / rounds), math.sqrt(var) / math.sqrt(rounds),
                (float(sum(n * o for n, o, _, _ in cells) / rounds),
                 float(sum(n * e for n, _, e, _ in cells) / rounds)))

    def test_equals_rational_arithmetic(self, rng):
        for _ in range(300):
            counts = [int(n) for n in rng.integers(0, 10 ** rng.integers(1, 13), 16)]
            counts[int(rng.integers(16))] += 1
            odd, even = (rng.uniform(-1, 1, 16) * 10.0 ** rng.integers(-320, 100, 16)
                         for _ in range(2))
            got = casino._report(counts, odd, even, 0.0, sum(counts), 0)
            assert report_statistics(got) == self.rational_statistics(
                counts, odd.tolist(), even.tolist())


class TestReportSerialization:
    def test_to_dict_round_trips_fields(self):
        got = simulate(make_spec(1, 1, 1, 1), 0.3, 0.4, 100, seed=6)
        d = got.to_dict()
        assert d["rounds"] == 100
        assert d["seed"] == 6
        assert d["per_desk_means"] == {"odd": got.per_desk_means[0],
                                       "even": got.per_desk_means[1]}
