"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` at the root of the repository lists the same names.
"""

LAYERS = ("quantum", "geometry", "classical", "equilibrium", "casino",
          "serialize", "cli")
CLI_COMMANDS = ("eval", "curve", "equilibrium", "classical", "simulate",
                "simulate_csv")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "equilibrium.refine_saddle.calls": "count",
    "equilibrium.refine_saddle.p50_ms": "ms",
    "equilibrium.refine_saddle.tail_ms": "ms",
    "equilibrium.refine_saddle.converged_p50_ms": "ms",
    "equilibrium.refine_saddle.fallback_p50_ms": "ms",
    "equilibrium.refine_saddle.fallback_share": "ratio",
    "equilibrium.refine_saddle.no_saddle_share": "ratio",
    "equilibrium.grid_saddle_oracle.p50_ms": "ms",
    "equilibrium.verify_saddle.p50_ms": "ms",
    "classical.classical_matrix.p50_us": "us",
    "classical.solve_classical.calls": "count",
    "classical.solve_classical.p50_ms": "ms",
    "classical.solve_classical.degenerate_share": "ratio",
    "quantum.operator_check.p50_us": "us",
    "quantum.scalar_payoff.p50_us": "us",
    "geometry.probabilities_from_angle.p50_us": "us",
    **{f"casino.{fn}.{m}": unit
       for fn in ("simulate", "simulate_joint")
       for m, unit in (("p50_ms", "ms"), ("rounds_per_s", "1/s"),
                       ("peak_bytes_per_round", "B/round"))},
    "cli.startup_ms": "ms",
    **{f"cli.{cmd}.{m}": unit
       for cmd in CLI_COMMANDS
       for m, unit in (("wall_ms", "ms"), ("peak_rss_mb", "MB"))},
    **{f"cli.main.{cmd}.p50_ms": "ms" for cmd in CLI_COMMANDS},
    "cli.load_game_spec.p50_us": "us",
    "serialize.dumps.p50_us": "us",
    "serialize.format_float.p50_us": "us",
    "cli.simulate_csv.bytes_written": "B",
    "serialize.round_trip_mismatches": "count",
    **{f"{layer}.{m}": unit
       for layer in LAYERS
       for m, unit in (("busy_share", "ratio"), ("check_failures", "count"))},
    "trace.ops": "count",
    "trace.attributed_share": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}
