"""Command-line front end: evaluate payoffs, export curves, solve, simulate.

Exit codes are frozen for scripting:

    0  success
    2  usage error or malformed spec file
    3  non-finite numeric value in the spec, an integer beyond the float
       range, or a stake beyond 1e150 in magnitude
    4  output I/O failure
    5  no saddle: the one-sided values differ by more than a threshold
       that grows with the stakes (report is still printed)

Game specs are single JSON documents:

    {"c1": 1.0, "c2": 1.0, "c3": 1.0, "c4": 1.0,
     "alice": {"theta": 0.7854, "lambda": 0.0},
     "bob": {"tau": 0.7854, "mu": 0.0},
     "degrees": false}

Angles are radians unless "degrees" is true ("degrees" must be a JSON
boolean); the phase entries ("lambda", "mu") default to 0.  All floats
are printed with 17 significant digits so output parses back to the
exact values.

Each command imports what it needs when it runs, so a process pays only
for its own command: ``eval``, ``equilibrium`` and ``simulate`` load
numpy; ``curve`` and ``classical`` do no array maths and never load it.
The two streamed CSV files, ``curve --out`` and ``simulate --csv``, are
written ``_BLOCK_ROWS`` rows at a time, each block formatted by one ``%``
on a repeated row template, so memory stays flat in ``--samples`` and
``--rounds``.  ``simulate --csv`` draws the stream once: the blocks of
rounds that give the rows also give the cell counts that the report is
built from, and the report is printed after the file is written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import serialize
from .game import GameSpec, ObservableFrame, PayoffCoefficients, scalar_payoff

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_NO_CONVERGENCE = 5

#: ``curve --out`` and ``simulate --csv`` format and write this many rows
#: at a time; ``simulate --csv`` also draws its rounds a block at a time
_BLOCK_ROWS = 1024
_CURVE_ROW = "%.17g,%.17g,%.17g\n"
_ROUND_ROW = "%d,%s,%.17g\n"


class SpecFileError(Exception):
    """The spec file is missing, unreadable, or malformed."""


class NonFiniteSpecError(Exception):
    """The spec file parses but holds a number out of range: one that is not
    finite, or a stake beyond STAKE_LIMIT in magnitude."""


#: Largest stake magnitude a spec may hold.  Sums and squares of stakes,
#: as in the compound matrix and the simulated variance, then stay finite.
STAKE_LIMIT = 1e150


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


def _spec_stake(doc: dict, key: str) -> float:
    val = _spec_number(doc, key, "spec")
    if abs(val) > STAKE_LIMIT:
        raise NonFiniteSpecError(f"field {key!r} in spec is beyond "
                                 f"{STAKE_LIMIT:g} in magnitude")
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

    coeffs = PayoffCoefficients(*(_spec_stake(doc, key) for key in ("c1", "c2", "c3", "c4")))

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
    from .geometry import probabilities_from_angle
    from .quantum import StateVector, build_payoff_operator, expectation

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
    from .geometry import _curve_samples, conic_coefficients

    spec = load_game_spec(args.spec)
    if args.samples < 2:
        print("error: --samples must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    frame = spec.alice_frame if args.player == "alice" else spec.bob_frame
    conic = conic_coefficients(frame)
    header = "# conic: " + " ".join(
        f"{name}={serialize.format_float(getattr(conic, name))}"
        for name in ("a11", "a22", "a12", "b1", "b2", "c0")
    ) + f" degenerate={str(conic.degenerate).lower()}\nalpha,p1,p2\n"
    samples = _curve_samples(frame, args.samples)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header)
            # no sample is -0.0 or non-finite (see _curve_samples), so %.17g
            # prints what format_float would
            while block := tuple(itertools.chain.from_iterable(
                    itertools.islice(samples, _BLOCK_ROWS))):
                fh.write(_CURVE_ROW * (len(block) // 3) % block)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    from .equilibrium import FLAG_NO_CONVERGENCE, refine_saddle

    spec = load_game_spec(args.spec)
    refined = refine_saddle(spec, tol=args.tol)
    print(serialize.dumps(refined.to_dict()))
    if FLAG_NO_CONVERGENCE in refined.flags:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_classical(args) -> int:
    from .classical import COMPOUND_STRATEGIES, _compound_rows, _solve_desk_sum, swapped_labels

    spec = load_game_spec(args.spec)
    coeffs = spec.coefficients
    convention = "default"
    if args.swapped_labels:
        coeffs = swapped_labels(coeffs)
        convention = "swapped"
    matrix = _compound_rows(coeffs)
    alice_mixed, bob_mixed, value, degenerate = _solve_desk_sum(matrix)
    report = {
        "labels": list(COMPOUND_STRATEGIES),
        "convention": convention,
        "matrix": matrix,
        "solution": {
            "value": value,
            "alice_mixed": alice_mixed,
            "bob_mixed": bob_mixed,
            "degenerate": degenerate,
        },
    }
    print(serialize.dumps(report))
    if args.csv is not None:
        header = "," + ",".join(COMPOUND_STRATEGIES)
        rows = [header]
        for label, row in zip(COMPOUND_STRATEGIES, matrix):
            rows.append(label + "," + ",".join(serialize.format_float(v) for v in row))
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(rows) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .casino import simulate

    spec = load_game_spec(args.spec)
    if args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.csv is None:
        report = simulate(spec, args.alpha, args.beta, args.rounds, args.seed)
    else:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                report = _write_rounds(fh, spec, args)
        except OSError as exc:
            report = simulate(spec, args.alpha, args.beta, args.rounds, args.seed)
            print(serialize.dumps(report.to_dict()))
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_IO
    print(serialize.dumps(report.to_dict()))
    return EXIT_OK


def _write_rounds(fh, spec, args):
    """Stream ``round,payoff,running_mean`` rows a block of rounds at a time,
    and return the run's report.

    One pass over the stream gives both the rows and the 16 cell counts
    that ``casino`` builds its report from, so the report is the one
    ``simulate`` gives and describes the rows written.  ``casino`` yields
    each block's outcome cells two rounds to a byte, the first round in the
    high nibble; every block but the last holds an even number of rounds,
    and an odd last block ends on a padding nibble, which is dropped from
    the rows.  The blocks' pair bytes are counted and folded into the 16
    cell counts by ``casino._fold_pairs``, as in ``simulate``.  The running sum
    carries across blocks by leading each block's cumsum with the previous
    total, so it equals one cumsum over all rounds.  Each block's rows are
    formatted by one ``%`` on a repeated row template.  Payoffs print as
    their ``format_float`` labels; the means are taken as ``means + 0.0``,
    which turns -0.0 into 0 as ``format_float`` does, and a non-finite mean
    raises ``format_float``'s ValueError.
    """
    import numpy as np

    from .casino import _fold_pairs, _product_report, _product_rounds
    from .classical import classical_matrix

    blocks = _product_rounds(spec, args.alpha, args.beta, args.rounds, args.seed, _BLOCK_ROWS)
    payoffs = classical_matrix(spec.coefficients).entries.ravel()
    labels = np.array([serialize.format_float(v) for v in payoffs.tolist()], dtype=object)
    pair_counts = np.zeros(256, dtype=np.int64)
    fh.write("round,payoff,running_mean\n")
    done, running = 0, None
    for pairs in blocks:
        pair_counts += np.bincount(pairs, minlength=256)
        n = min(2 * len(pairs), args.rounds - done)
        block = np.stack((pairs >> 4, pairs & 15), axis=1).ravel()[:n]
        pay = payoffs[block]
        head = pay if running is None else np.concatenate(([running[-1]], pay))
        running = np.cumsum(head)[-n:]
        means = running / np.arange(done + 1, done + n + 1) + 0.0
        finite = np.isfinite(means)
        if not finite.all():
            serialize.format_float(float(means[~finite][0]))  # raises its ValueError
        fields = [None] * (3 * n)
        fields[0::3] = range(done + 1, done + n + 1)
        fields[1::3] = labels[block].tolist()
        fields[2::3] = means.tolist()
        fh.write(_ROUND_ROW * n % tuple(fields))
        done += n
    return _product_report(spec, args.alpha, args.beta, _fold_pairs(pair_counts, args.rounds),
                           args.rounds, args.seed)


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
    p_eq.add_argument("--tol", type=float, default=1e-9,
                      help="saddle tolerance: no_saddle when the one-sided "
                           "values differ by more than max(10*tol, 1e-8), tol "
                           "raised to 1e-12*(1 + sum|c|) at large stakes")
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
