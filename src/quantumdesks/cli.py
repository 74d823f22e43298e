"""Command-line front end: evaluate payoffs, export curves, solve, simulate.

Exit codes are frozen for scripting:

    0  success
    2  usage error or malformed spec file
    3  non-finite numeric value in the spec, or an integer beyond the float range
    4  output I/O failure
    5  no saddle: the one-sided values differ (report is still printed)

Game specs are single JSON documents:

    {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0,
     "alice": {"theta": 0.7854, "lambda": 0.0},
     "bob": {"tau": 0.7854, "mu": 0.0},
     "degrees": false}

Angles are radians unless "degrees" is true ("degrees" must be a JSON
boolean); the phase entries ("lambda", "mu") default to 0.  All floats
are printed with 17 significant digits so output parses back to the
exact values.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import serialize
from .casino import simulate
from .classical import COMPOUND_STRATEGIES, classical_matrix, swapped_labels
from .equilibrium import (
    FLAG_NO_CONVERGENCE,
    grid_saddle_oracle,
    payoff_surface,
    refine_saddle,
    solve_classical,
    verify_saddle,
)
from .geometry import conic_coefficients, curve_points, probabilities_from_angle
from .quantum import (
    GameSpec,
    ObservableFrame,
    PayoffCoefficients,
    StateVector,
    build_payoff_operator,
    expectation,
    scalar_payoff,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5


class SpecFileError(Exception):
    """The spec file is missing, unreadable, or malformed."""


class NonFiniteSpecError(Exception):
    """The spec file parses but contains a non-finite number."""


def _spec_number(doc: dict, key: str, where: str) -> float:
    if key not in doc:
        raise SpecFileError(f"missing field {key!r} in {where}")
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SpecFileError(f"field {key!r} in {where} must be a number")
    try:
        val = float(val)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise NonFiniteSpecError(f"field {key!r} in {where} is not finite")
    return val


def load_game_spec(path: str) -> GameSpec:
    """Read and validate a game spec JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer too long to read, or nesting too deep
        raise SpecFileError(f"cannot parse spec file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError(f"spec file {path} must contain a JSON object")

    degrees = doc.get("degrees", False)
    if not isinstance(degrees, bool):
        raise SpecFileError("field 'degrees' in spec must be true or false")
    to_radians = math.pi / 180.0 if degrees else 1.0

    coeffs = PayoffCoefficients(
        c1=_spec_number(doc, "c1", "spec"),
        c2=_spec_number(doc, "c2", "spec"),
        c3=_spec_number(doc, "c3", "spec"),
        c4=_spec_number(doc, "c4", "spec"),
    )

    def frame(section: str, tilt_key: str, phase_key: str) -> ObservableFrame:
        sub = doc.get(section)
        if not isinstance(sub, dict):
            raise SpecFileError(f"missing or malformed {section!r} section")
        tilt = _spec_number(sub, tilt_key, section)
        phase = _spec_number(sub, phase_key, section) if phase_key in sub else 0.0
        return ObservableFrame(theta=tilt * to_radians, lam=phase * to_radians)

    return GameSpec(
        coefficients=coeffs,
        alice_frame=frame("alice", "theta", "lambda"),
        bob_frame=frame("bob", "tau", "mu"),
    )


def _quadruple_dict(p) -> dict:
    return {"p1": p.p1, "p2": p.p2, "p3": p.p3, "p4": p.p4}


def cmd_eval(args) -> int:
    spec = load_game_spec(args.spec)
    p = probabilities_from_angle(args.alpha, spec.alice_frame)
    q = probabilities_from_angle(args.beta, spec.bob_frame)
    payoff = scalar_payoff(spec.coefficients, p, q)
    operator_value = expectation(
        build_payoff_operator(spec), StateVector(args.alpha), StateVector(args.beta)
    )
    report = {
        "alpha": args.alpha,
        "beta": args.beta,
        "payoff": payoff.total,
        "desk_payoffs": {"odd": payoff.odd, "even": payoff.even},
        "alice_probabilities": _quadruple_dict(p),
        "bob_probabilities": _quadruple_dict(q),
        "operator_cross_check_residual": abs(operator_value - payoff.total),
    }
    print(serialize.dumps(report))
    return EXIT_OK


def cmd_curve(args) -> int:
    spec = load_game_spec(args.spec)
    if args.samples < 2:
        print("error: --samples must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    frame = spec.alice_frame if args.player == "alice" else spec.bob_frame
    conic = conic_coefficients(frame)
    lines = [
        "# conic: " + " ".join(
            f"{name}={serialize.format_float(getattr(conic, name))}"
            for name in ("a11", "a22", "a12", "b1", "b2", "c0")
        ) + f" degenerate={str(conic.degenerate).lower()}",
        "alpha,p1,p2",
    ]
    for k, (p1, p2) in enumerate(curve_points(frame, args.samples)):
        alpha = k * math.pi / args.samples
        lines.append(",".join(serialize.format_float(v) for v in (alpha, p1, p2)))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    spec = load_game_spec(args.spec)
    if args.grid_n < 8:
        print("error: --grid-n must be at least 8", file=sys.stderr)
        return EXIT_USAGE
    coarse = grid_saddle_oracle(spec, args.grid_n)
    refined = refine_saddle(spec, (coarse.alpha_star, coarse.beta_star), tol=args.tol)
    grid_certificate = verify_saddle(spec, refined, n=args.grid_n)
    report = refined.to_dict()
    report["certificate"] = max(refined.certificate, grid_certificate)
    print(serialize.dumps(report))
    if FLAG_NO_CONVERGENCE in refined.flags:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_classical(args) -> int:
    spec = load_game_spec(args.spec)
    coeffs = spec.coefficients
    convention = "default"
    if args.swapped_labels:
        coeffs = swapped_labels(coeffs)
        convention = "swapped"
    matrix = classical_matrix(coeffs)
    solution = solve_classical(matrix)
    report = {
        "labels": list(COMPOUND_STRATEGIES),
        "convention": convention,
        "matrix": [list(row) for row in matrix.entries],
        "solution": {
            "value": solution.value,
            "alice_mixed": list(solution.alice_mixed),
            "bob_mixed": list(solution.bob_mixed),
            "degenerate": solution.degenerate,
        },
    }
    print(serialize.dumps(report))
    if args.csv is not None:
        header = "," + ",".join(COMPOUND_STRATEGIES)
        rows = [header]
        for label, row in zip(COMPOUND_STRATEGIES, matrix.entries):
            rows.append(label + "," + ",".join(serialize.format_float(v) for v in row))
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = load_game_spec(args.spec)
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    report = simulate(spec, args.alpha, args.beta, args.rounds, args.seed)
    print(serialize.dumps(report.to_dict()))
    if args.csv is not None:
        from .casino import _simulated_payoffs

        totals, _, _ = _simulated_payoffs(spec, args.alpha, args.beta,
                                          args.rounds, args.seed)
        running = np.cumsum(totals) / np.arange(1, args.rounds + 1)
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("round,payoff,running_mean\n")
                for k in range(args.rounds):
                    fh.write(f"{k + 1},{serialize.format_float(float(totals[k]))},"
                             f"{serialize.format_float(float(running[k]))}\n")
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantumdesks",
        description="Two-desk quantum games: evaluate, export, solve, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the payoff at a strategy pair")
    p_eval.add_argument("spec", help="path to the game spec JSON file")
    p_eval.add_argument("--alpha", type=float, required=True,
                        help="Alice's strategy angle (radians)")
    p_eval.add_argument("--beta", type=float, required=True,
                        help="Bob's strategy angle (radians)")
    p_eval.set_defaults(func=cmd_eval)

    p_curve = sub.add_parser("curve", help="export a player's strategy curve as CSV")
    p_curve.add_argument("spec")
    p_curve.add_argument("--player", choices=("alice", "bob"), required=True)
    p_curve.add_argument("--samples", type=int, default=64,
                         help="number of curve samples (default 64)")
    p_curve.add_argument("--out", required=True, help="output CSV path")
    p_curve.set_defaults(func=cmd_curve)

    p_eq = sub.add_parser("equilibrium", help="search for the saddle point")
    p_eq.add_argument("spec")
    p_eq.add_argument("--grid-n", type=int, default=256,
                      help="grid resolution for the oracle and certificate")
    p_eq.add_argument("--tol", type=float, default=1e-9,
                      help="saddle tolerance: no_saddle when the one-sided "
                           "values differ by more than max(10*tol, 1e-8)")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_cl = sub.add_parser("classical",
                          help="emit the 4x4 compound-strategy game and its solution")
    p_cl.add_argument("spec")
    p_cl.add_argument("--swapped-labels", action="store_true",
                      help="use the alternative labeling (c1<->c3, c2<->c4)")
    p_cl.add_argument("--csv", help="also write the matrix to this CSV path")
    p_cl.set_defaults(func=cmd_classical)

    p_sim = sub.add_parser("simulate", help="run the seeded desk simulation")
    p_sim.add_argument("spec")
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--rounds", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--csv", help="stream (round, payoff, running_mean) to this path")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("alpha", "beta", "tol"):
        if hasattr(args, name) and not math.isfinite(getattr(args, name)):
            print(f"error: --{name} must be finite", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
