"""The benchmark's own tests: a tiny run of each workload, and proof that
no correctness check is vacuous.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (puts this checkout's src on sys.path)
import checks  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer, tail  # noqa: E402

import quantumdesks as qd  # noqa: E402

MIN_OPS = {"solve": 2, "simulate": 1, "cli": 6}
MAIN_LAYER = {"solve": "equilibrium", "simulate": "casino", "cli": "cli"}


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, traced):
    workload = workloads.WORKLOADS[name](seed=3, **workloads.SMOKE[name])
    try:
        workload.warm_up()
        result = workloads.run(workload, 0.0, traced, min_ops=MIN_OPS[name])
    finally:
        workload.close()
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == MIN_OPS[name]
    metrics = result["metrics"]
    assert set(metrics) == (set(PER_LAYER) if traced else set(END_TO_END) - {"setup_s"})
    assert all(math.isfinite(v) for v in metrics.values())
    if traced:
        assert metrics[f"{MAIN_LAYER[name]}.busy_share"] > 0
        assert metrics["trace.attributed_share"] >= 0.95
    else:
        assert metrics["ops_per_s"] > 0 and metrics["peak_rss_mb"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    assert tail(list(range(100))) == (89, 100 * 89 / 99, 100)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_self_time_excludes_child_spans():
    tr = Tracer()
    tr.call("op", lambda: tr.call("inner", sum, range(1000)))
    op, inner = tr.spans
    assert inner.parent == 0
    assert tr.self_times()[0] == pytest.approx(op.duration - inner.duration)


# -- every check fails on a perturbed result ------------------------------------

@pytest.fixture(scope="module")
def game():
    spec = workloads.make_spec(workloads.README_GAME)
    out = workloads.analyse_game(spec, 0.3, 0.9, workloads.NullTracer())
    return spec, out


def test_payoff_residual_check(game):
    spec, (payoff, operator_value, *_) = game
    assert checks.payoff_residual(spec, payoff, operator_value) is None
    assert checks.payoff_residual(spec, payoff, operator_value + 1e-6)


@pytest.mark.parametrize("field", ["max_min", "min_max"])
def test_one_sided_values_check(game, field):
    spec, (_, _, refined, *_) = game
    assert checks.one_sided_values(spec, refined) is None
    shifted = dataclasses.replace(refined, **{field: getattr(refined, field) + 1e-6})
    assert checks.one_sided_values(spec, shifted)


def test_saddle_gap_check(game):
    refined = game[1][2]
    saddle = dataclasses.replace(refined, min_max=refined.max_min, flags=())
    assert checks.saddle_gap(saddle) is None
    assert checks.saddle_gap(dataclasses.replace(saddle, min_max=saddle.max_min + 1e-6))
    assert checks.saddle_gap(dataclasses.replace(
        saddle, min_max=saddle.max_min + 1e-6, flags=("no_saddle",))) is None


def test_classical_solution_check(game):
    *_, matrix, solution = game[1]
    assert checks.classical_solution(matrix, solution) is None
    for value in (solution.value + 1e-6, solution.value - 1e-6):
        assert checks.classical_solution(matrix, dataclasses.replace(solution, value=value))


@pytest.fixture(scope="module")
def simulation():
    spec = workloads.make_spec(workloads.README_GAME)
    return spec, qd.simulate(spec, 0.3, 0.9, 20_000, 11)


def test_sim_report_check(simulation):
    spec, report = simulation
    assert checks.sim_report(spec, report, 20_000) is None
    far = report.empirical_mean + 7 * report.std_error
    assert checks.sim_report(spec, dataclasses.replace(report, empirical_mean=far), 20_000)
    odd, even = report.per_desk_means
    assert checks.sim_report(
        spec, dataclasses.replace(report, per_desk_means=(odd + 1e-6, even)), 20_000)
    assert checks.sim_report(spec, report, 20_001)


def test_simulate_matches_chain_check():
    spec = workloads.make_spec(workloads.README_GAME)
    chained = checks.chained_rounds(spec, 0.3, 0.9, 11, 50)
    assert checks.simulate_matches_chain(spec, 0.3, 0.9, 11, chained) is None
    for col in range(3):
        bad = chained.copy()
        bad[7, col] = np.nextafter(bad[7, col], math.inf)
        assert checks.simulate_matches_chain(spec, 0.3, 0.9, 11, bad)


def test_cli_exit_check():
    stuck = json.dumps({"flags": ["no_convergence", "no_saddle"]})
    settled = json.dumps({"flags": []})
    assert checks.cli_exit(0, 0, "", "eval") is None
    assert checks.cli_exit(5, 5, stuck, "equilibrium") is None
    assert checks.cli_exit(0, 0, settled, "equilibrium") is None
    assert checks.cli_exit(5, 0, settled, "equilibrium")
    assert checks.cli_exit(0, 0, stuck, "equilibrium")
    assert checks.cli_exit(5, 5, settled, "equilibrium")
    assert checks.cli_exit(2, 2, "", "eval")


def test_cli_stdout_check():
    out = '{"payoff": 0.25}\n'
    assert checks.cli_stdout(out.encode(), out) is None
    assert checks.cli_stdout(out.replace("5", "6").encode(), out)
    assert checks.cli_stdout(out.encode()[:-1], out)


def test_csv_rows_check(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a\nb\nc\n")
    assert checks.csv_rows(path, 3) is None
    assert checks.csv_rows(path, 4)


def test_dumps_round_trip_check():
    assert checks.dumps_round_trip('{"a": 1.5, "b": [2, true]}\n') is None
    assert checks.dumps_round_trip('{"a": 1.50}\n')
