import json
import math

import numpy as np
import pytest

from quantumdesks import serialize
from quantumdesks.cli import main

DECOUPLED = {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0,
             "alice": {"theta": 0.0, "lambda": 0.0},
             "bob": {"tau": 0.0, "mu": 0.0}}
GENERIC = {"c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0,
           "alice": {"theta": 0.7853981633974483, "lambda": 0.5},
           "bob": {"tau": 0.5235987755982988, "mu": 1.2}}
ZERO = {"c1": 0.0, "c2": 0.0, "c3": 0.0, "c4": 0.0,
        "alice": {"theta": 0.3}, "bob": {"tau": 0.6}}


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

    def test_tiny_grid_exits_2(self, capsys, spec_file):
        assert main(["equilibrium", spec_file(GENERIC), "--grid-n", "4"]) == 2

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
