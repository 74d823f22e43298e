import argparse
import io
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from quantumdesks import ObservableFrame, casino, cli, probabilities_from_angle, serialize
from quantumdesks.cli import _write_rounds, main
from conftest import (
    GAMMA,
    MASK64,
    boundary_words,
    chained_rounds,
    draw_is_yes,
    make_spec,
    play_with,
    seed_for_word,
)

DECOUPLED = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0,
             "alice": {"theta": 0.0, "lambda": 0.0},
             "bob": {"tau": 0.0, "mu": 0.0}}
GENERIC = {"c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0,
           "alice": {"theta": 0.7853981633974483, "lambda": 0.5},
           "bob": {"tau": 0.5235987755982988, "mu": 1.2}}
ZERO = {"c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0,
        "alice": {"theta": 0.3}, "bob": {"tau": 0.6}}


#: rounds that ``simulate --csv`` draws and writes at a time
BLOCK = cli._BLOCK_ROWS


def spec_of(doc):
    """The GameSpec of a spec document with explicit phases."""
    return make_spec(*(doc[c] for c in ("c1", "c2", "c3", "c4")),
                     doc["alice"]["theta"], doc["alice"]["lambda"],
                     doc["bob"]["tau"], doc["bob"]["mu"])


def chained_csv(doc, alpha, beta, rounds, seed) -> str:
    """The ``simulate --csv`` file of ``rounds`` chained play_round calls."""
    rows = chained_rounds(spec_of(doc), alpha, beta, rounds, seed)
    payoffs = [total for total, _, _ in rows]
    running = np.cumsum(payoffs) / np.arange(1, rounds + 1)
    f = serialize.format_float
    return "round,payoff,running_mean\n" + "".join(
        f"{k + 1},{f(p)},{f(float(m))}\n" for k, (p, m) in enumerate(zip(payoffs, running)))


def assert_same_rows(got: str, want: str) -> None:
    """``got == want``, failing on the first row that differs.

    pytest's diff of two long strings that differ can run for minutes,
    so the texts are compared row by row instead.
    """
    got_rows, want_rows = got.split("\n"), want.split("\n")
    for k, (a, b) in enumerate(zip(got_rows, want_rows)):
        if a != b:
            pytest.fail(f"row {k} differs: {a!r} != {b!r}")
    assert len(got_rows) == len(want_rows)


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEval:
    def test_cross_check_residual_is_tiny(self, capsys, spec_file):
        code, doc = run_json(capsys, ["eval", spec_file(GENERIC),
                                      "--alpha", "0.0", "--beta", "0.0"])
        assert code == 0
        assert doc["operator_cross_check_residual"] < 1e-10
        assert doc["payoff"] == pytest.approx(doc["desk_payoffs"]["odd"]
                                              + doc["desk_payoffs"]["even"])

    @pytest.mark.parametrize("scale", [1e6, 1e12])
    def test_cross_check_at_large_stakes(self, capsys, spec_file, scale):
        doc = {**GENERIC, **{c: scale * GENERIC[c] for c in ("c1", "c2", "c3", "c4")}}
        code, out = run_json(capsys, ["eval", spec_file(doc), "--alpha", "0.3",
                                      "--beta", "0.9"])
        assert code == 0
        assert out["operator_cross_check_residual"] <= 1e-12 * (1.0 + 10.0 * scale)

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["eval", str(tmp_path / "nope.json"),
                     "--alpha", "0", "--beta", "0"]) == 2

    def test_phase_defaults_to_zero(self, capsys, spec_file):
        bare = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0,
                "alice": {"theta": 0.7}, "bob": {"tau": 0.2}}
        explicit = {**bare, "alice": {"theta": 0.7, "lambda": 0.0},
                    "bob": {"tau": 0.2, "mu": 0.0}}
        _, got = run_json(capsys, ["eval", spec_file(bare, "a.json"),
                                   "--alpha", "0.4", "--beta", "0.9"])
        _, want = run_json(capsys, ["eval", spec_file(explicit, "b.json"),
                                    "--alpha", "0.4", "--beta", "0.9"])
        assert got == want

    def test_degrees_switch(self, capsys, spec_file):
        radians = {**GENERIC}
        degrees = {"c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0,
                   "alice": {"theta": 45.0, "lambda": 0.5 * 180 / math.pi},
                   "bob": {"tau": 30.0, "mu": 1.2 * 180 / math.pi},
                   "degrees": True}
        _, got = run_json(capsys, ["eval", spec_file(degrees, "d.json"),
                                   "--alpha", "0.4", "--beta", "0.9"])
        _, want = run_json(capsys, ["eval", spec_file(radians, "r.json"),
                                    "--alpha", "0.4", "--beta", "0.9"])
        assert got["payoff"] == pytest.approx(want["payoff"], abs=1e-12)

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval", str(path), "--alpha", "0", "--beta", "0"]) == 2

    def test_missing_field_exits_2(self, capsys, spec_file):
        doc = {k: v for k, v in GENERIC.items() if k != "c2"}
        assert main(["eval", spec_file(doc), "--alpha", "0", "--beta", "0"]) == 2

    def test_wrong_type_exits_2(self, capsys, spec_file):
        doc = {**GENERIC, "c1": "one"}
        assert main(["eval", spec_file(doc), "--alpha", "0", "--beta", "0"]) == 2

    def test_non_finite_value_exits_3(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"c1": 1e999, "c2": 1.0, "c3": 1.0, "c4": 1.0, '
                        '"alice": {"theta": 0.0}, "bob": {"tau": 0.0}}')
        assert main(["eval", str(path), "--alpha", "0", "--beta", "0"]) == 3


class TestHostileSpec:
    STAKES = '"c2": 1.0, "c3": 1.0, "c4": 1.0, "alice": {"theta": 0.0}, "bob": {"tau": 0.0}'

    def run_eval(self, capsys, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        code = main(["eval", str(path), "--alpha", "0", "--beta", "0"])
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        return code

    def test_integer_beyond_float_range_exits_3(self, capsys, tmp_path):
        text = '{"c1": 1' + "0" * 400 + ", " + self.STAKES + "}"
        assert self.run_eval(capsys, tmp_path, text) == 3

    def test_integer_too_long_to_read_exits_2(self, capsys, tmp_path):
        text = '{"c1": ' + "1" * 5000 + ", " + self.STAKES + "}"
        assert self.run_eval(capsys, tmp_path, text) == 2

    def test_deep_nesting_exits_2(self, capsys, tmp_path):
        assert self.run_eval(capsys, tmp_path, "[" * 200000) == 2

    def test_non_boolean_degrees_exits_2(self, capsys, tmp_path):
        text = '{"c1": 1.0, ' + self.STAKES + ', "degrees": "no"}'
        assert self.run_eval(capsys, tmp_path, text) == 2

    @pytest.mark.parametrize("stake", ["1e151", "-1e151"])
    def test_stake_beyond_range_exits_3(self, capsys, tmp_path, stake):
        text = '{"c1": ' + stake + ", " + self.STAKES + "}"
        assert self.run_eval(capsys, tmp_path, text) == 3

    @pytest.mark.parametrize("stake", [1e150, -1e150])
    def test_every_command_runs_at_the_stake_limit(self, capsys, tmp_path, stake):
        # a RuntimeWarning raised in quantumdesks is a test error (pyproject.toml)
        spec = tmp_path / "edge.json"
        spec.write_text(json.dumps({"c1": stake, "c2": stake, "c3": -stake, "c4": stake,
                                    "alice": {"theta": 0.7, "lambda": 0.5},
                                    "bob": {"tau": 0.5, "mu": 1.2}}))
        out = str(tmp_path / "out.csv")
        for argv in (["eval", "--alpha", "0.3", "--beta", "0.9"],
                     ["curve", "--player", "bob", "--out", out],
                     ["equilibrium"],
                     ["classical", "--csv", out],
                     ["classical", "--swapped-labels"],
                     ["simulate", "--alpha", "0.3", "--beta", "0.9", "--rounds", "100",
                      "--csv", out]):
            code = main([argv[0], str(spec), *argv[1:]])
            captured = capsys.readouterr()
            # this game has a saddle at every scale, and the saddle
            # threshold scales with the stakes
            assert code == 0
            assert captured.err == ""
            if argv[0] != "curve":
                assert json.loads(captured.out)


class TestCurve:
    def test_four_sample_rows(self, capsys, tmp_path, spec_file):
        quarter = {**DECOUPLED, "alice": {"theta": math.pi / 4, "lambda": 0.0}}
        out = tmp_path / "curve.csv"
        assert main(["curve", spec_file(quarter), "--player", "alice",
                     "--samples", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# conic:")
        assert lines[1] == "alpha,p1,p2"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
        want = [(0.0, 1.0, 0.5), (math.pi / 4, 0.5, 1.0),
                (math.pi / 2, 0.0, 0.5), (3 * math.pi / 4, 0.5, 0.0)]
        assert len(rows) == 4
        for got, expected in zip(rows, want):
            assert got == pytest.approx(expected, abs=1e-12)

    def test_quarter_phase_rows_on_line(self, capsys, tmp_path, spec_file):
        doc = {**DECOUPLED, "bob": {"tau": 0.6, "mu": math.pi / 2}}
        out = tmp_path / "line.csv"
        assert main(["curve", spec_file(doc), "--player", "bob",
                     "--samples", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "degenerate=true" in lines[0]
        c2t, ssq = math.cos(1.2), math.sin(0.6) ** 2
        for line in lines[2:]:
            _, p1, p2 = (float(v) for v in line.split(","))
            assert abs(p2 - (p1 * c2t + ssq)) < 1e-9

    def test_too_few_samples_exits_2(self, capsys, tmp_path, spec_file):
        assert main(["curve", spec_file(GENERIC), "--player", "alice",
                     "--samples", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_exits_4(self, capsys, tmp_path, spec_file):
        assert main(["curve", spec_file(GENERIC), "--player", "alice",
                     "--samples", "4", "--out", str(tmp_path)]) == 4

    def test_two_samples(self, capsys, tmp_path, spec_file):
        out = tmp_path / "curve.csv"
        assert main(["curve", spec_file(GENERIC), "--player", "bob",
                     "--samples", "2", "--out", str(out)]) == 0
        frame = ObservableFrame(GENERIC["bob"]["tau"], GENERIC["bob"]["mu"])
        start, quarter = (probabilities_from_angle(a, frame) for a in (0.0, math.pi / 2))
        lines = out.read_text().splitlines()
        assert [tuple(float(v) for v in line.split(",")) for line in lines[2:]] == \
            [(0.0, start.p1, start.p2), (math.pi / 2, quarter.p1, quarter.p2)]


class TestEquilibrium:
    def test_decoupled_value(self, capsys, spec_file):
        code, doc = run_json(capsys, ["equilibrium", spec_file(DECOUPLED)])
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-6)
        assert doc["certificate"] < 1e-6
        assert doc["flags"] == []

    def test_zero_game(self, capsys, spec_file):
        code, doc = run_json(capsys, ["equilibrium", spec_file(ZERO)])
        assert code == 0
        assert doc["value"] == 0.0
        assert doc["certificate"] == 0.0

    def test_value_between_one_sided_values(self, capsys, spec_file):
        code, doc = run_json(capsys, ["equilibrium", spec_file(GENERIC)])
        assert doc["max_min"] - 1e-9 <= doc["value"] <= doc["min_max"] + 1e-9

    def test_no_convergence_exits_5_with_report(self, capsys, spec_file):
        saddle_free = {"c1": 1.0, "c2": -1.0, "c3": 1.0, "c4": -1.0,
                       "alice": {"theta": math.pi / 4},
                       "bob": {"tau": math.pi / 4}}
        code = main(["equilibrium", spec_file(saddle_free)])
        out = capsys.readouterr().out
        assert code == 5
        doc = json.loads(out)
        assert "no_convergence" in doc["flags"]
        assert "no_saddle" in doc["flags"]

    def test_cycling_game_exits_0(self, capsys, spec_file):
        # best-response alternation cycles here, but the game has a saddle
        cycling = {"c1": -1.0981505377400527, "c2": -1.961827278594611,
                   "c3": -0.40901892266008977, "c4": 1.1074607257304556,
                   "alice": {"theta": 1.519351794949105, "lambda": 2.2196913787118056},
                   "bob": {"tau": 1.8585514607845357, "mu": 1.4784412415750021}}
        code, doc = run_json(capsys, ["equilibrium", spec_file(cycling)])
        assert code == 0
        assert doc["flags"] == []
        assert doc["max_min"] == pytest.approx(doc["min_max"], abs=1e-12)

    def test_json_round_trip_is_byte_identical(self, capsys, spec_file):
        main(["equilibrium", spec_file(DECOUPLED)])
        out = capsys.readouterr().out
        assert serialize.dumps(json.loads(out)) == out.strip()


class TestClassical:
    def test_negative_zero_value_round_trips(self, capsys, spec_file):
        # a diagonal pure saddle of value zero; ``format_float`` must print
        # zero as 0 whatever its sign (see test_serialize.py)
        spec = {**GENERIC, "c1": -0.8, "c2": -0.4, "c3": 0.5, "c4": 1.5}
        main(["classical", spec_file(spec)])
        out = capsys.readouterr().out
        assert '"value": 0,' in out
        assert serialize.dumps(json.loads(out)) == out.strip()

    def test_symmetric_coefficients_identical_under_both_conventions(
            self, capsys, spec_file):
        _, a = run_json(capsys, ["classical", spec_file(DECOUPLED)])
        _, b = run_json(capsys, ["classical", spec_file(DECOUPLED),
                                 "--swapped-labels"])
        assert a["matrix"] == b["matrix"]
        assert all(a["matrix"][i][i] == 0 for i in range(4))

    def test_conventions_differ_by_documented_swap(self, capsys, spec_file):
        _, default = run_json(capsys, ["classical", spec_file(GENERIC)])
        _, swapped = run_json(capsys, ["classical", spec_file(GENERIC),
                                       "--swapped-labels"])
        c1, c2, c3, c4 = 1.0, 2.0, 3.0, 4.0
        assert default["matrix"] == [
            [0, c4, c3, c3 + c4], [c2, 0, c2 + c3, c3],
            [c1, c1 + c4, 0, c4], [c1 + c2, c1, c2, 0]]
        assert swapped["matrix"] == [
            [0, c2, c1, c1 + c2], [c4, 0, c1 + c4, c1],
            [c3, c2 + c3, 0, c2], [c3 + c4, c3, c4, 0]]

    def test_solution_value_within_matrix_bounds(self, capsys, spec_file):
        _, doc = run_json(capsys, ["classical", spec_file(GENERIC)])
        flat = [v for row in doc["matrix"] for v in row]
        assert min(flat) <= doc["solution"]["value"] <= max(flat)

    def test_csv_export(self, capsys, tmp_path, spec_file):
        out = tmp_path / "matrix.csv"
        code, doc = run_json(capsys, ["classical", spec_file(GENERIC),
                                      "--csv", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",1-2,1-4,3-2,3-4"
        assert len(lines) == 5
        first_row = [float(v) for v in lines[1].split(",")[1:]]
        assert first_row == doc["matrix"][0]

    def test_unwritable_csv_exits_4_after_the_report(self, capsys, tmp_path, spec_file):
        code = main(["classical", spec_file(GENERIC), "--csv", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert json.loads(captured.out)["solution"]["value"] == pytest.approx(25 / 12)
        assert captured.err.startswith(f"error: cannot write {tmp_path}")


class TestSimulate:
    def test_fixed_seed_twice_identical_output(self, capsys, spec_file):
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3",
                "--beta", "0.9", "--rounds", "5000", "--seed", "11"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_zero_rounds_exits_2(self, capsys, spec_file):
        assert main(["simulate", spec_file(GENERIC), "--alpha", "0",
                     "--beta", "0", "--rounds", "0"]) == 2

    def test_decoupled_saddle_converges(self, capsys, spec_file):
        code, doc = run_json(capsys, [
            "simulate", spec_file(DECOUPLED),
            "--alpha", repr(math.pi / 4), "--beta", repr(math.pi / 4),
            "--rounds", "1000000", "--seed", "2026"])
        assert code == 0
        assert abs(doc["empirical_mean"] - 1.0) < 4 * doc["std_error"]

    def test_csv_stream(self, capsys, tmp_path, spec_file):
        out = tmp_path / "rounds.csv"
        code, doc = run_json(capsys, [
            "simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
            "--rounds", "100", "--seed", "11", "--csv", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "round,payoff,running_mean"
        assert len(lines) == 101
        payoffs = [float(line.split(",")[1]) for line in lines[1:]]
        running = [float(line.split(",")[2]) for line in lines[1:]]
        assert running[-1] == pytest.approx(doc["empirical_mean"], abs=1e-12)
        assert running[0] == payoffs[0]

    @pytest.mark.parametrize("rounds", [7, 8, 9, 29])
    def test_csv_over_blocks_matches_chained_rounds(self, capsys, tmp_path, spec_file,
                                                    monkeypatch, rounds):
        # block - 1, block, block + 1, and three blocks of 8 rounds and a part
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
        out = tmp_path / "rounds.csv"
        assert main(["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                     "--rounds", str(rounds), "--seed", "11", "--csv", str(out)]) == 0
        assert_same_rows(out.read_text(encoding="utf-8"),
                         chained_csv(GENERIC, 0.3, 0.9, rounds, 11))

    @pytest.mark.parametrize("rounds", [1, 2, 3, 6, 7, 8, 15])
    def test_csv_over_odd_blocks_matches_chained_rounds(self, capsys, tmp_path, spec_file,
                                                        monkeypatch, rounds):
        # a block of 7 rows is drawn as 8 rounds, two to a byte; 15 rounds
        # end on an odd block after a full one
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
        out = tmp_path / "rounds.csv"
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                "--rounds", str(rounds), "--seed", "11"]
        assert main(argv + ["--csv", str(out)]) == 0
        assert_same_rows(out.read_text(encoding="utf-8"),
                         chained_csv(GENERIC, 0.3, 0.9, rounds, 11))
        with_csv = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == with_csv

    @pytest.mark.parametrize("rounds", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
    def test_csv_at_the_block_boundary_matches_chained_rounds(self, capsys, tmp_path,
                                                              spec_file, rounds):
        out = tmp_path / "rounds.csv"
        assert main(["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                     "--rounds", str(rounds), "--seed", "11", "--csv", str(out)]) == 0
        assert_same_rows(out.read_text(encoding="utf-8"),
                         chained_csv(GENERIC, 0.3, 0.9, rounds, 11))

    @pytest.mark.parametrize("rounds", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
    def test_csv_run_prints_the_report_of_a_plain_run(self, capsys, tmp_path, spec_file,
                                                      rounds):
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                "--rounds", str(rounds), "--seed", "11"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--csv", str(tmp_path / "rounds.csv")]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("draw", range(4))
    def test_csv_draw_at_a_boundary_word(self, capsys, tmp_path, spec_file, monkeypatch,
                                         p, draw):
        # the other three draws of a round are certain yes; the word lands at
        # ``draw`` of the last round, and a "no" there pays GENERIC's c1, c2,
        # c3 or c4
        play_with(monkeypatch, [p if k == draw else 1.0 for k in range(4)])
        stake = GENERIC[f"c{draw + 1}"]
        spec, out = spec_file(GENERIC), tmp_path / "rounds.csv"
        for before in (0, 1):
            for word in boundary_words(p):
                seed = (seed_for_word(word) - (4 * before + draw) * GAMMA) & MASK64
                assert main(["simulate", spec, "--alpha", "0", "--beta", "1", "--rounds",
                             str(before + 1), "--seed", str(seed), "--csv", str(out)]) == 0
                text = out.read_text(encoding="utf-8")
                assert float(text.splitlines()[-1].split(",")[1]) == \
                    (0.0 if draw_is_yes(word, p) else stake)
                assert_same_rows(text, chained_csv(GENERIC, 0.0, 1.0, before + 1, seed))
        capsys.readouterr()

    def test_csv_draws_the_stream_once_a_block_at_a_time(self, capsys, tmp_path,
                                                         spec_file, monkeypatch):
        real, draws = casino._round_pairs, []

        def recorded(*args):
            draws.append([])
            for pairs in real(*args):
                draws[-1].append(2 * len(pairs))  # two rounds to a byte
                yield pairs

        monkeypatch.setattr(casino, "_round_pairs", recorded)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 8)
        assert main(["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                     "--rounds", "20", "--csv", str(tmp_path / "rounds.csv")]) == 0
        assert draws == [[8, 8, 4]]

    @pytest.mark.parametrize("block", [512, BLOCK])
    def test_csv_peak_memory_is_flat_in_rounds(self, capsys, tmp_path, spec_file,
                                               monkeypatch, block):
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
        spec, out = spec_file(GENERIC), str(tmp_path / "rounds.csv")

        def peak(rounds: int) -> int:
            tracemalloc.start()
            try:
                assert main(["simulate", spec, "--alpha", "0.3", "--beta", "0.9",
                             "--rounds", str(rounds), "--csv", out]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(block)  # warm up caches that a first call fills
        small, large = peak(20 * block), peak(200 * block)
        # a block's draw buffers, row fields and text take ~300 B a round;
        # a whole run would take 200 times that
        assert max(small, large) <= 512 * block
        assert abs(large - small) <= 0.05 * small

    def test_one_round(self, capsys, tmp_path, spec_file):
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                "--rounds", "1", "--seed", "11"]
        [(total, odd, even)] = chained_rounds(spec_of(GENERIC), 0.3, 0.9, 1, 11)
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert (doc["empirical_mean"], doc["std_error"], doc["per_desk_means"]) == \
            (total, 0, {"odd": odd, "even": even})
        out = tmp_path / "rounds.csv"
        assert run_json(capsys, argv + ["--csv", str(out)]) == (code, doc)
        assert_same_rows(out.read_text(encoding="utf-8"), chained_csv(GENERIC, 0.3, 0.9, 1, 11))

    @pytest.mark.parametrize("rounds", [1, 8193])
    def test_csv_prints_negative_zero_as_zero(self, capsys, tmp_path, spec_file, rounds):
        # Alice always plays 1-2 and Bob 3-4, so every round pays c3 + c4 = -0.0
        doc = {"c1": -0.0, "c2": -0.0, "c3": -0.0, "c4": -0.0,
               "alice": {"theta": 0.0, "lambda": 0.0}, "bob": {"tau": 0.0, "mu": 0.0}}
        beta = 1.5707963267948966
        totals = [t for t, _, _ in chained_rounds(
            make_spec(-0.0, -0.0, -0.0, -0.0), 0.0, beta, rounds, 0)]
        assert all(math.copysign(1.0, t) == -1.0 for t in totals)
        out = tmp_path / "rounds.csv"
        assert main(["simulate", spec_file(doc), "--alpha", "0", "--beta", repr(beta),
                     "--rounds", str(rounds), "--csv", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == rounds + 1
        assert [row for k, row in enumerate(rows[1:], 1) if row != f"{k},0,0"] == []

    def test_csv_rejects_a_non_finite_running_mean(self):
        # every round pays 1.5e308, so the running sum overflows in round 2
        args = argparse.Namespace(alpha=0.0, beta=math.pi / 2, rounds=2, seed=0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            _write_rounds(io.StringIO(), make_spec(0.0, 0.0, 1.5e308, 0.0), args)

    def test_unwritable_csv_exits_4_after_the_report(self, capsys, tmp_path, spec_file):
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                "--rounds", "100", "--seed", "11"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        code = main(argv + ["--csv", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == plain
        assert captured.err.startswith(f"error: cannot write {tmp_path}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_csv_failing_mid_write_exits_4_after_the_report(self, capsys, spec_file):
        # /dev/full opens, and every write to it fails with ENOSPC
        argv = ["simulate", spec_file(GENERIC), "--alpha", "0.3", "--beta", "0.9",
                "--rounds", str(3 * BLOCK), "--seed", "11"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        code = main(argv + ["--csv", "/dev/full"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == plain
        assert captured.err.startswith("error: cannot write /dev/full")

    def test_json_round_trip_is_byte_identical(self, capsys, spec_file):
        main(["simulate", spec_file(GENERIC), "--alpha", "0.3",
              "--beta", "0.9", "--rounds", "100", "--seed", "1"])
        out = capsys.readouterr().out
        assert serialize.dumps(json.loads(out)) == out.strip()


class TestUsage:
    def test_help_exists_for_every_subcommand(self, capsys):
        for cmd in ("eval", "curve", "equilibrium", "classical", "simulate"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_unknown_flag_exits_2(self, capsys, spec_file):
        with pytest.raises(SystemExit) as exc:
            main(["eval", spec_file(GENERIC), "--alpha", "0", "--beta", "0",
                  "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_non_finite_angle_exits_2(self, capsys, spec_file):
        assert main(["eval", spec_file(GENERIC), "--alpha", "inf",
                     "--beta", "0"]) == 2
