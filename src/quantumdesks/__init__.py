"""Two-desk spin-1/2 quantum games.

A player's strategy is one angle; it fixes the yes-probabilities of both
desk games at once, confining them to a conic curve.  The package
evaluates payoffs (as an operator expectation or its scalar form),
describes the constraint curves, embeds the pair of desks as a single
4x4 zero-sum game, finds saddle points, and simulates repeated play with
a reproducible seeded stream.
"""

from .quantum import (
    GameSpec,
    ObservableFrame,
    PayoffBreakdown,
    PayoffCoefficients,
    PayoffOperator,
    ProbabilityQuadruple,
    Projector,
    StateVector,
    build_payoff_operator,
    complement,
    expectation,
    frame_projectors,
    make_projector,
    scalar_payoff,
    weight,
)
from .geometry import (
    ConicCoefficients,
    NotOnCurve,
    angles_for_point,
    conic_coefficients,
    conic_residual,
    curve_points,
    probabilities_from_angle,
)
from .classical import (
    COMPOUND_STRATEGIES,
    ClassicalMatrix,
    ClassicalSolution,
    JointDistribution,
    bilinear_payoff,
    classical_matrix,
    desk_payoff,
    independent_joint,
    is_product_form,
    marginals,
    solve_classical,
    swapped_labels,
)
from .equilibrium import (
    EquilibriumResult,
    grid_saddle_oracle,
    payoff_gradient,
    payoff_kernel,
    payoff_surface,
    refine_saddle,
    verify_saddle,
)
from .casino import (
    SimReport,
    play_round,
    rng_advance,
    rng_output,
    rng_uniform,
    simulate,
    simulate_joint,
)

__version__ = "0.1.0"

__all__ = [
    "COMPOUND_STRATEGIES",
    "ClassicalMatrix",
    "ClassicalSolution",
    "ConicCoefficients",
    "EquilibriumResult",
    "GameSpec",
    "JointDistribution",
    "NotOnCurve",
    "ObservableFrame",
    "PayoffBreakdown",
    "PayoffCoefficients",
    "PayoffOperator",
    "ProbabilityQuadruple",
    "Projector",
    "SimReport",
    "StateVector",
    "angles_for_point",
    "bilinear_payoff",
    "build_payoff_operator",
    "classical_matrix",
    "complement",
    "conic_coefficients",
    "conic_residual",
    "curve_points",
    "desk_payoff",
    "expectation",
    "frame_projectors",
    "grid_saddle_oracle",
    "independent_joint",
    "is_product_form",
    "make_projector",
    "marginals",
    "payoff_gradient",
    "payoff_kernel",
    "payoff_surface",
    "play_round",
    "probabilities_from_angle",
    "refine_saddle",
    "rng_advance",
    "rng_output",
    "rng_uniform",
    "scalar_payoff",
    "simulate",
    "simulate_joint",
    "solve_classical",
    "swapped_labels",
    "verify_saddle",
    "weight",
]
