"""Correctness checks on the outputs of one benchmark operation.

Each check returns ``None`` when the output is right and a one-line
reason when it is not.  They run outside the timed interval.  Every
tolerance scales with the stake mass ``1 + sum |c|`` so that a check
means the same thing for small and large stakes.
"""

from __future__ import annotations

import json
import math

import numpy as np

import quantumdesks as qd
from quantumdesks import serialize

#: a stochastic check passes within this many standard errors
SIGMAS = 6.0


def stake_mass(spec) -> float:
    return 1.0 + sum(abs(c) for c in spec.coefficients.as_tuple())


def payoff_residual(spec, payoff, operator_value) -> str | None:
    """The operator expectation equals the scalar payoff."""
    residual = abs(operator_value - payoff.total)
    if residual <= 1e-12 * stake_mass(spec):
        return None
    return f"operator residual {residual:.3g}"


def _sinusoid_extreme(h0: float, h45: float, h90: float, sign: float) -> float:
    """Extreme of A + B cos 2x + C sin 2x from its values at 0, pi/4, pi/2."""
    a = 0.5 * (h0 + h90)
    return a + sign * math.hypot(0.5 * (h0 - h90), h45 - a)


def one_sided_values(spec, result) -> str | None:
    """``max_min``/``min_max`` are the exact one-sided optima at the reported angles.

    With the opponent's angle fixed the payoff is A + B cos 2x + C sin 2x,
    so three payoff evaluations give its exact minimum or maximum.
    """
    h = qd.payoff_surface
    quarter = 0.25 * math.pi
    a, b = result.alpha_star, result.beta_star
    true_max_min = _sinusoid_extreme(h(spec, a, 0.0), h(spec, a, quarter),
                                     h(spec, a, 2 * quarter), -1.0)
    true_min_max = _sinusoid_extreme(h(spec, 0.0, b), h(spec, quarter, b),
                                     h(spec, 2 * quarter, b), 1.0)
    tol = 1e-9 * stake_mass(spec)
    err = max(abs(result.max_min - true_max_min), abs(result.min_max - true_min_max))
    if err <= tol:
        return None
    return f"one-sided values off by {err:.3g} (tol {tol:.3g})"


def saddle_gap(result) -> str | None:
    """A result without flags is a saddle: its one-sided values meet."""
    gap = result.min_max - result.max_min
    if result.flags or gap <= 1e-8:
        return None
    return f"unflagged result has min_max - max_min = {gap:.3g}"


def classical_solution(matrix, solution) -> str | None:
    """The mixed strategies are distributions that guarantee the value."""
    m = np.asarray(matrix.entries, dtype=float)
    x = np.asarray(solution.alice_mixed, dtype=float)
    y = np.asarray(solution.bob_mixed, dtype=float)
    v = solution.value
    tol = 1e-9 * (1.0 + float(np.max(np.abs(m))))
    for name, w in (("alice", x), ("bob", y)):
        if np.min(w) < -tol or abs(float(np.sum(w)) - 1.0) > tol:
            return f"{name}_mixed is not a distribution: {w.tolist()}"
    if float(np.min(x @ m)) < v - tol:
        return f"min(x M) = {float(np.min(x @ m)):.17g} below value {v:.17g}"
    if float(np.max(m @ y)) > v + tol:
        return f"max(M y) = {float(np.max(m @ y)):.17g} above value {v:.17g}"
    return None


def sim_report(spec, report, rounds: int) -> str | None:
    """Mean within SIGMAS standard errors of the analytic mean; desks add up."""
    tol = 1e-12 * stake_mass(spec)
    if report.rounds != rounds:
        return f"report has {report.rounds} rounds, asked for {rounds}"
    dev = abs(report.empirical_mean - report.analytic_mean)
    if not dev <= SIGMAS * report.std_error + tol:
        return (f"|empirical - analytic| = {dev:.3g} exceeds "
                f"{SIGMAS:g} SE = {SIGMAS * report.std_error:.3g}")
    desks = report.per_desk_means[0] + report.per_desk_means[1]
    if not abs(desks - report.empirical_mean) <= tol:
        return f"per-desk means sum to {desks:.17g}, mean is {report.empirical_mean:.17g}"
    return None


def chained_rounds(spec, alpha: float, beta: float, seed: int, rounds: int):
    """Per-round (total, odd, even) payoffs from chaining ``play_round``."""
    out = np.empty((rounds, 3))
    state = seed
    for k in range(rounds):
        total, (odd, even), state = qd.play_round(spec, alpha, beta, state)
        out[k] = (total, odd, even)
    return out


def _stream_seed(seed: int, round_index: int) -> int:
    """Seed whose stream starts at round ``round_index`` of ``seed``'s stream.

    SplitMix64 advances its state by a constant, and a round consumes four
    draws, so skipping rounds is one addition.
    """
    return (seed + 4 * round_index * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)


def simulate_matches_chain(spec, alpha: float, beta: float, seed: int,
                           chained) -> str | None:
    """``simulate`` plays the same rounds, bit for bit, as chained ``play_round``.

    Round k of the stream is the only round of a one-round simulation
    seeded k rounds further on, which is exact; the block simulation of
    all rounds must then give the chained mean.
    """
    for k, (total, odd, even) in enumerate(chained):
        r = qd.simulate(spec, alpha, beta, 1, _stream_seed(seed, k))
        if (r.empirical_mean, r.per_desk_means) != (total, (odd, even)):
            return (f"round {k}: simulate gives {r.empirical_mean!r} "
                    f"{r.per_desk_means!r}, play_round {(total, odd, even)!r}")
    block = qd.simulate(spec, alpha, beta, len(chained), seed)
    mean = float(np.mean(chained[:, 0]))
    if not abs(block.empirical_mean - mean) <= 1e-12 * stake_mass(spec):
        return f"{len(chained)}-round mean {block.empirical_mean!r}, chained {mean!r}"
    return None


def cli_exit(child_code: int, expected_code: int, expected_stdout: str,
             command: str) -> str | None:
    """Exit 0, or 5 exactly when the equilibrium report carries no_convergence."""
    if child_code != expected_code:
        return f"child exited {child_code}, in process {expected_code}"
    no_convergence = (command == "equilibrium"
                      and "no_convergence" in json.loads(expected_stdout)["flags"])
    if expected_code != (5 if no_convergence else 0):
        return f"exit code {expected_code} with no_convergence={no_convergence}"
    return None


def cli_stdout(child_stdout: bytes, expected_stdout: str) -> str | None:
    """The child's stdout is byte-identical to ``cli.main`` run in process."""
    want = expected_stdout.encode("utf-8")
    if child_stdout == want:
        return None
    at = next((i for i, (x, y) in enumerate(zip(child_stdout, want)) if x != y),
              min(len(child_stdout), len(want)))
    return f"stdout differs from in-process main at byte {at}"


def csv_rows(path, expected: int) -> str | None:
    """The file has ``expected`` lines."""
    with open(path, "rb") as fh:
        lines = fh.read().count(b"\n")
    if lines == expected:
        return None
    return f"{path} has {lines} lines, expected {expected}"


def dumps_round_trip(stdout: str) -> str | None:
    """Re-serializing the parsed report reproduces it byte for byte."""
    if not stdout:
        return None
    again = serialize.dumps(json.loads(stdout)) + "\n"
    if again == stdout:
        return None
    return "parsed report does not re-serialize to the same bytes"
