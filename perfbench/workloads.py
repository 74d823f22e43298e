"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload solve --seed 1 --seconds 20 --trace 0

``run.py`` starts this process.  It builds the workload's inputs from the
seed, plays one untimed warm-up operation and prints ``ready``.  Then,
unless ``--setup-only`` is given, it runs operations in a closed loop
with one client until their summed time reaches ``--seconds``, checks
every output outside the timed interval, and prints one JSON line with
the counts and metrics.

With ``--trace 1`` every operation runs twice, once plain and once inside
spans around each call into quantumdesks, in alternating order; the
spans give the per-layer metrics and the pairs give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import quantumdesks as qd  # noqa: E402
import quantumdesks.cli  # noqa: E402,F401
from quantumdesks import serialize  # noqa: E402

import checks  # noqa: E402
from metrics import CLI_COMMANDS, LAYERS, PER_LAYER  # noqa: E402
from spans import NullTracer, Tracer, median, tail  # noqa: E402

#: the spec printed in the README
README_GAME = (1.0, 2.0, 3.0, 4.0, 0.7853981633974483, 0.5, 0.5235987755982988, 1.2)

MS, US = 1e3, 1e6
#: a run stops early after this many operations raised
MAX_RAISED = 10


def make_spec(game) -> qd.GameSpec:
    c1, c2, c3, c4, theta, lam, tau, mu = game
    return qd.GameSpec(qd.PayoffCoefficients(c1, c2, c3, c4),
                       qd.ObservableFrame(theta, lam), qd.ObservableFrame(tau, mu))


def random_games(rng, count: int) -> list[tuple]:
    """Seeded games (c1..c4, theta, lambda, tau, mu).

    Stakes are U(-2, 2) and frame angles uniform.  One game in eight has a
    degenerate frame for one player: tilt 0, tilt pi/2 or phase pi/2.  The
    stake signs are stratified: each run of 16 games takes the 16 sign
    patterns once, in seeded order.  Whether refinement converges depends
    mostly on that pattern, so this keeps the share of slow games steady
    from seed to seed while each stake stays U(-2, 2).
    """
    games = []
    for k in range(count):
        if k % 16 == 0:
            patterns = rng.permutation(16)
        if k % 8 == 0:
            degenerate_at = k + int(rng.integers(8))
        signs = [1.0 if (patterns[k % 16] >> i) & 1 else -1.0 for i in range(4)]
        stakes = [s * m for s, m in zip(signs, rng.uniform(0.0, 2.0, 4))]
        frames = [[rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)]
                  for _ in range(2)]
        if k == degenerate_at:
            frame = frames[int(rng.integers(2))]
            kind = int(rng.integers(3))
            if kind == 2:
                frame[1] = 0.5 * math.pi
            else:
                frame[0] = 0.0 if kind == 0 else 0.5 * math.pi
        games.append((*stakes, *frames[0], *frames[1]))
    return games


def p50(tr: Tracer, name: str, scale: float) -> float:
    """Median duration of the spans called ``name``, in units of 1/scale s."""
    return median(tr.durations(name)) * scale


class Workload:
    """Inputs built from a seed, one operation, and the checks on its output."""

    def warm_up(self) -> None:
        self.op(0, NullTracer())

    def op(self, k: int, tr):
        raise NotImplementedError

    def check(self, k: int, out, tr) -> list[tuple[str, str]]:
        """(layer, reason) for each failed check, outside the timed interval."""
        raise NotImplementedError

    def finish(self, traced: bool) -> list[tuple[str, str]]:
        """Once-per-run work after the last operation; failed checks as above."""
        return []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, tr: Tracer, times: list[float]) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- solve ---------------------------------------------------------------------

def _operator_value(spec, alpha, beta):
    return qd.expectation(qd.build_payoff_operator(spec),
                          qd.StateVector(alpha), qd.StateVector(beta))


def analyse_game(spec, alpha, beta, tr):
    """The analysis a parameter sweep runs on one game, each call in a span."""
    p = tr.call("geometry.probabilities_from_angle",
                qd.probabilities_from_angle, alpha, spec.alice_frame)
    q = tr.call("geometry.probabilities_from_angle",
                qd.probabilities_from_angle, beta, spec.bob_frame)
    payoff = tr.call("quantum.scalar_payoff", qd.scalar_payoff, spec.coefficients, p, q)
    operator_value = tr.call("quantum.operator_check", _operator_value,
                             spec, alpha, beta)
    coarse = tr.call("equilibrium.grid_saddle_oracle", qd.grid_saddle_oracle, spec, 256)
    refined = tr.call("equilibrium.refine_saddle", qd.refine_saddle, spec,
                      (coarse.alpha_star, coarse.beta_star), tol=1e-9)
    certificate = tr.call("equilibrium.verify_saddle", qd.verify_saddle,
                          spec, refined, n=256)
    matrix = tr.call("classical.classical_matrix", qd.classical_matrix, spec.coefficients)
    solution = tr.call("classical.solve_classical", qd.solve_classical, matrix)
    return payoff, operator_value, refined, certificate, matrix, solution


class Solve(Workload):
    """Full analysis of one seeded game per operation, in process."""

    def __init__(self, seed: int, pool: int = 1024):
        rng = np.random.default_rng(seed)
        games = random_games(rng, pool)
        pairs = rng.uniform(0.0, math.pi, (pool, 2))
        self.inputs = [(make_spec(g), float(a), float(b))
                       for g, (a, b) in zip(games, pairs)]
        self.records: dict[int, tuple] = {}

    def warm_up(self) -> None:
        analyse_game(make_spec(README_GAME), 0.3, 0.9, NullTracer())

    def op(self, k: int, tr):
        return analyse_game(*self.inputs[k % len(self.inputs)], tr)

    def check(self, k: int, out, tr) -> list[tuple[str, str]]:
        spec = self.inputs[k % len(self.inputs)][0]
        payoff, operator_value, refined, _, matrix, solution = out
        self.records[k] = (refined.flags, solution.degenerate)
        found = [("quantum", checks.payoff_residual(spec, payoff, operator_value)),
                 ("equilibrium", checks.one_sided_values(spec, refined)),
                 ("equilibrium", checks.saddle_gap(refined)),
                 ("classical", checks.classical_solution(matrix, solution))]
        return [(layer, why) for layer, why in found if why]

    def layer_metrics(self, tr: Tracer, times: list[float]) -> dict:
        refine = [(s.duration, self.records.get(s.op, ((), False))[0])
                  for s in tr.spans if s.name == "equilibrium.refine_saddle"]
        fallback = [d for d, flags in refine if "no_convergence" in flags]
        converged = [d for d, flags in refine if "no_convergence" not in flags]
        no_saddle = [d for d, flags in refine if "no_saddle" in flags]
        classical = [self.records.get(s.op, ((), False))[1]
                     for s in tr.spans if s.name == "classical.solve_classical"]
        n = len(refine)
        return {
            "equilibrium.refine_saddle.calls": n,
            "equilibrium.refine_saddle.p50_ms": median([d for d, _ in refine]) * MS,
            "equilibrium.refine_saddle.tail_ms": tail([d for d, _ in refine])[0] * MS,
            "equilibrium.refine_saddle.converged_p50_ms": median(converged) * MS,
            "equilibrium.refine_saddle.fallback_p50_ms": median(fallback) * MS,
            "equilibrium.refine_saddle.fallback_share": len(fallback) / n if n else 0.0,
            "equilibrium.refine_saddle.no_saddle_share": len(no_saddle) / n if n else 0.0,
            "equilibrium.grid_saddle_oracle.p50_ms":
                p50(tr, "equilibrium.grid_saddle_oracle", MS),
            "equilibrium.verify_saddle.p50_ms":
                p50(tr, "equilibrium.verify_saddle", MS),
            "classical.classical_matrix.p50_us":
                p50(tr, "classical.classical_matrix", US),
            "classical.solve_classical.calls": len(classical),
            "classical.solve_classical.p50_ms":
                p50(tr, "classical.solve_classical", MS),
            "classical.solve_classical.degenerate_share":
                sum(classical) / len(classical) if classical else 0.0,
            "quantum.operator_check.p50_us":
                p50(tr, "quantum.operator_check", US),
            "quantum.scalar_payoff.p50_us":
                p50(tr, "quantum.scalar_payoff", US),
            "geometry.probabilities_from_angle.p50_us":
                p50(tr, "geometry.probabilities_from_angle", US),
        }


# -- simulate ------------------------------------------------------------------

class Simulate(Workload):
    """A product-form and a correlated simulation per operation, in process."""

    def __init__(self, seed: int, rounds: int = 1_000_000, pool: int = 64):
        rng = np.random.default_rng(seed)
        self.rounds = rounds
        self.inputs = []
        for game in random_games(rng, pool):
            alpha, beta = rng.uniform(0.0, math.pi, 2)
            joints = [qd.JointDistribution(*rng.dirichlet(np.ones(4))) for _ in range(2)]
            self.inputs.append((make_spec(game), float(alpha), float(beta), *joints,
                                int(rng.integers(1 << 63))))
        self.peak_bytes: dict[str, float] = {}

    def op(self, k: int, tr):
        spec, alpha, beta, alice, bob, seed = self.inputs[k % len(self.inputs)]
        plain = tr.call("casino.simulate", qd.simulate, spec, alpha, beta, self.rounds, seed)
        joint = tr.call("casino.simulate_joint", qd.simulate_joint, spec, alice, bob,
                        self.rounds, seed + 1)
        return plain, joint

    def check(self, k: int, out, tr) -> list[tuple[str, str]]:
        spec = self.inputs[k % len(self.inputs)][0]
        found = [checks.sim_report(spec, report, self.rounds) for report in out]
        return [("casino", why) for why in found if why]

    def finish(self, traced: bool) -> list[tuple[str, str]]:
        spec, alpha, beta, alice, bob, seed = self.inputs[0]
        chained = checks.chained_rounds(spec, alpha, beta, seed, min(1000, self.rounds))
        why = checks.simulate_matches_chain(spec, alpha, beta, seed, chained)
        if traced:
            for name, call in (
                    ("simulate", lambda: qd.simulate(spec, alpha, beta, self.rounds, seed)),
                    ("simulate_joint",
                     lambda: qd.simulate_joint(spec, alice, bob, self.rounds, seed + 1))):
                tracemalloc.start()
                try:
                    call()
                    self.peak_bytes[name] = tracemalloc.get_traced_memory()[1] / self.rounds
                finally:
                    tracemalloc.stop()
        return [("casino", why)] if why else []

    def layer_metrics(self, tr: Tracer, times: list[float]) -> dict:
        out = {}
        for name in ("simulate", "simulate_joint"):
            seconds = p50(tr, f"casino.{name}", 1.0)
            out[f"casino.{name}.p50_ms"] = seconds * MS
            out[f"casino.{name}.rounds_per_s"] = self.rounds / seconds if seconds else 0.0
            out[f"casino.{name}.peak_bytes_per_round"] = self.peak_bytes.get(name, 0.0)
        return out


# -- cli -----------------------------------------------------------------------

def run_main_in_process(argv: list[str]) -> tuple[int, str]:
    """``quantumdesks.cli.main(argv)`` with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qd.cli.main(argv)
    return code, out.getvalue()


def _format_floats(values) -> None:
    for v in values:
        serialize.format_float(v)


def _floats_in(doc) -> list[float]:
    if isinstance(doc, float):
        return [doc]
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _floats_in(item)]
    return []


class Cli(Workload):
    """One ``python -m quantumdesks.cli`` child per operation.

    Operation k runs command k mod 6 on spec file (k div 6) mod ``specs``.
    The spec files are the README spec and seeded random games.
    """

    def __init__(self, seed: int, specs: int = 8, samples: int = 256,
                 rounds: int = 1_000_000, csv_rounds: int = 100_000):
        rng = np.random.default_rng(seed)
        self.dir = WORK / f"cli-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.samples, self.rounds, self.csv_rounds = samples, rounds, csv_rounds
        self.specs = []
        for i, game in enumerate([README_GAME] + random_games(rng, specs - 1)):
            c1, c2, c3, c4, theta, lam, tau, mu = game
            path = self.dir / f"spec-{i}.json"
            path.write_text(json.dumps({
                "c1": c1, "c2": c2, "c3": c3, "c4": c4,
                "alice": {"theta": theta, "lambda": lam},
                "bob": {"tau": tau, "mu": mu}, "degrees": False}))
            alpha, beta = rng.uniform(0.0, math.pi, 2)
            self.specs.append((str(path), repr(float(alpha)), repr(float(beta)),
                               str(int(rng.integers(1 << 63)))))
        self.expected: dict[tuple, tuple[int, str]] = {}
        self.children: list[tuple[str, int]] = []  # command, peak RSS in KB
        self.csv_bytes: list[int] = []
        self.format_counts: list[int] = []
        self.startup: list[float] = []
        self.round_trip_mismatches = 0
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            self._check_package_copy()
        except BaseException:
            self.close()
            raise

    def _spawn(self, argv: list[str]) -> tuple[int, int]:
        """Run one child through the launcher; (exit code, peak RSS in KB)."""
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, *argv], "stdout": str(self.dir / "stdout"),
            "stderr": str(self.dir / "stderr")}) + "\n")
        self.launcher.stdin.flush()
        code, maxrss = json.loads(self.launcher.stdout.readline())
        return code, maxrss

    def _check_package_copy(self) -> None:
        """Children must import the package from this checkout's src."""
        code, _ = self._spawn(["-c", "import quantumdesks; print(quantumdesks.__file__)"])
        found = (self.dir / "stdout").read_text().strip()
        if code != 0 or Path(found).resolve().parent != (SRC / "quantumdesks").resolve():
            raise RuntimeError(f"children import quantumdesks from {found!r}")

    def command(self, k: int) -> tuple[str, list[str], str | None, int]:
        """(command, argv, output file or None, its expected line count)."""
        cmd = CLI_COMMANDS[k % len(CLI_COMMANDS)]
        i = (k // len(CLI_COMMANDS)) % len(self.specs)
        spec, alpha, beta, seed = self.specs[i]
        out = str(self.dir / f"{cmd}-{i}.csv")
        if cmd == "eval":
            return cmd, ["eval", spec, "--alpha", alpha, "--beta", beta], None, 0
        if cmd == "curve":
            return cmd, ["curve", spec, "--player", ("alice", "bob")[i % 2], "--samples",
                         str(self.samples), "--out", out], out, self.samples + 2
        if cmd == "equilibrium":
            return cmd, ["equilibrium", spec], None, 0
        if cmd == "classical":
            return cmd, ["classical", spec, "--csv", out], out, 5
        argv = ["simulate", spec, "--alpha", alpha, "--beta", beta, "--seed", seed]
        if cmd == "simulate":
            return cmd, argv + ["--rounds", str(self.rounds)], None, 0
        return cmd, argv + ["--rounds", str(self.csv_rounds), "--csv", out], \
            out, self.csv_rounds + 1

    def _child(self, argv: list[str]) -> tuple[int, int]:
        return self._spawn(["-m", "quantumdesks.cli", *argv])

    def op(self, k: int, tr):
        return tr.call("cli.child", self._child, self.command(k)[1])

    def check(self, k: int, out, tr) -> list[tuple[str, str]]:
        cmd, argv, path, lines = self.command(k)
        code, maxrss = out
        self.children.append((cmd, maxrss))
        child_stdout = (self.dir / "stdout").read_bytes()
        found = []
        if path is not None:
            found.append(("cli", checks.csv_rows(path, lines)))
            if cmd == "simulate_csv":
                self.csv_bytes.append(os.path.getsize(path))
        if tr.enabled:
            want = tr.call("check", self._probes, cmd, argv, tr)
        else:
            key = tuple(argv)
            if key not in self.expected:
                self.expected[key] = run_main_in_process(argv)
            want = self.expected[key]
        found.append(("cli", checks.cli_exit(code, want[0], want[1], cmd)))
        found.append(("cli", checks.cli_stdout(child_stdout, want[1])))
        # Counted, not failed, while reports can hold -0.0: it prints as "-0",
        # which json.loads reads back as the integer 0, so re-serializing
        # gives "0".
        if checks.dumps_round_trip(child_stdout.decode("utf-8")):
            self.round_trip_mismatches += 1
        return [(layer, why) for layer, why in found if why]

    def _probes(self, cmd: str, argv: list[str], tr: Tracer) -> tuple[int, str]:
        """In-process calls into the CLI's layers, each in its own span."""
        want = tr.call(f"cli.main.{cmd}", run_main_in_process, argv)
        tr.call("cli.load_game_spec", qd.cli.load_game_spec, argv[1])
        if want[1]:
            doc = json.loads(want[1])
            tr.call("serialize.dumps", serialize.dumps, doc)
            floats = _floats_in(doc)
            self.format_counts.append(len(floats))
            tr.call("serialize.format_float", _format_floats, floats)
        return want

    def finish(self, traced: bool) -> list[tuple[str, str]]:
        if traced:
            for _ in range(5):
                t0 = time.perf_counter()
                self._spawn(["-c", "import quantumdesks"])
                self.startup.append(time.perf_counter() - t0)
        return []

    def peak_rss_mb(self) -> float:
        return max(rss for _, rss in self.children) / 1024.0

    def layer_metrics(self, tr: Tracer, times: list[float]) -> dict:
        out = {"cli.startup_ms": median(self.startup) * MS}
        for cmd in CLI_COMMANDS:
            mine = [(wall, rss) for (c, rss), wall in zip(self.children, times) if c == cmd]
            out[f"cli.{cmd}.wall_ms"] = median([w for w, _ in mine]) * MS
            out[f"cli.{cmd}.peak_rss_mb"] = max((r for _, r in mine), default=0) / 1024.0
            out[f"cli.main.{cmd}.p50_ms"] = p50(tr, f"cli.main.{cmd}", MS)
        per_float = [d / n for d, n in zip(tr.durations("serialize.format_float"),
                                           self.format_counts) if n]
        out["cli.load_game_spec.p50_us"] = p50(tr, "cli.load_game_spec", US)
        out["serialize.dumps.p50_us"] = p50(tr, "serialize.dumps", US)
        out["serialize.format_float.p50_us"] = median(per_float) * US
        out["cli.simulate_csv.bytes_written"] = median(self.csv_bytes)
        out["serialize.round_trip_mismatches"] = self.round_trip_mismatches
        return out

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"solve": Solve, "simulate": Simulate, "cli": Cli}

#: sizes small enough for the benchmark's own tests
SMOKE = {"solve": {"pool": 16},
         "simulate": {"rounds": 20_000, "pool": 4},
         "cli": {"specs": 2, "samples": 16, "rounds": 20_000, "csv_rounds": 500}}


# -- the closed loop -------------------------------------------------------------

def run(workload, seconds: float, traced: bool, min_ops: int = 1) -> dict:
    """Run ``workload`` until the timed operations add up to ``seconds``."""
    tr = Tracer() if traced else NullTracer()
    plain = NullTracer()
    times, overhead = [], []
    failures: Counter = Counter()
    reasons: list[str] = []
    failed_ops: set[int] = set()
    timed = 0.0
    k = raised = 0
    while (timed < seconds or k < min_ops) and raised < MAX_RAISED:
        start = time.perf_counter()
        try:
            if traced:
                tr.op_id = k
                if k % 2:
                    out, wall = _timed(tr.call, "op", workload.op, k, tr)
                    overhead.append(wall - _timed(workload.op, k, plain)[1])
                else:
                    untraced = _timed(workload.op, k, plain)[1]
                    out, wall = _timed(tr.call, "op", workload.op, k, tr)
                    overhead.append(wall - untraced)
                timed += wall - overhead[-1]
            else:
                out, wall = _timed(workload.op, k, plain)
            timed += wall
            times.append(wall)
            found = workload.check(k, out, tr)
        except Exception:
            traceback.print_exc()
            timed += time.perf_counter() - start
            raised += 1
            found = [("benchmark", f"op {k} raised")]
        for layer, why in found:
            failures[layer] += 1
            reasons.append(f"op {k} [{layer}] {why}")
            failed_ops.add(k)
        k += 1
    peak = workload.peak_rss_mb()
    for layer, why in workload.finish(traced):
        failures[layer] += 1
        reasons.append(f"run [{layer}] {why}")
        failed_ops.add(0)

    tail_value, tail_rank, n = tail(times)
    result = {
        "attempted": k,
        "failed": len(failed_ops),
        "failures": reasons[:20],
        "tail": {"percentile": tail_rank, "samples": n},
        "metrics": {
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "op_p50_ms": median(times) * MS,
            "op_tail_ms": tail_value * MS,
            "peak_rss_mb": peak,
        },
    }
    if traced:
        layers = workload.layer_metrics(tr, times)
        layers.update(_layer_shares(tr, failures))
        layers["trace.ops"] = k
        layers["trace.overhead_ms"] = median(overhead) * MS
        layers["trace.overhead_share"] = sum(overhead) / (sum(times) - sum(overhead))
        result["metrics"] = {name: layers.get(name, 0.0) for name in PER_LAYER}
        result["tracer"] = tr
    return result


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _layer_shares(tr: Tracer, failures: Counter) -> dict:
    """Each layer's self time inside operations over the operations' time."""
    own = tr.self_times()
    root = []
    for i, s in enumerate(tr.spans):
        root.append(i if s.parent < 0 else root[s.parent])
    op_time = sum(s.duration for s in tr.spans if s.parent < 0 and s.name == "op")
    busy = Counter()
    for i, s in enumerate(tr.spans):
        if s.parent >= 0 and tr.spans[root[i]].name == "op":
            busy[s.name.split(".")[0]] += own[i]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_share"] = busy[layer] / op_time if op_time else 0.0
        out[f"{layer}.check_failures"] = failures[layer]
    out["trace.attributed_share"] = sum(busy.values()) / op_time if op_time else 0.0
    return out


def machine() -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(qd.__file__).resolve().parent != (SRC / "quantumdesks").resolve():
        print(f"error: imported quantumdesks from {qd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    tracer = result.pop("tracer", None)
    if tracer is not None:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.json")
    result["machine"] = machine()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
