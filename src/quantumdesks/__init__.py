"""Two-desk spin-1/2 quantum games.

A player's strategy is one angle; it fixes the yes-probabilities of both
desk games at once, confining them to a conic curve.  The package
evaluates payoffs (as an operator expectation or its scalar form),
describes the constraint curves, embeds the pair of desks as a single
4x4 zero-sum game, finds saddle points, and simulates repeated play with
a reproducible seeded stream.

``import quantumdesks`` loads no submodule and no numpy.  Each name in
``__all__`` is imported from its submodule on first access (PEP 562) and
then stored in this module's namespace, so later lookups are plain
attribute reads.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines
_SUBMODULE_NAMES = {
    "game": ("GameSpec", "ObservableFrame", "PayoffBreakdown", "PayoffCoefficients",
             "ProbabilityQuadruple", "scalar_payoff"),
    "quantum": ("PayoffOperator", "Projector", "StateVector", "build_payoff_operator",
                "complement", "expectation", "frame_projectors", "make_projector",
                "weight"),
    "geometry": ("ConicCoefficients", "NotOnCurve", "angles_for_point",
                 "conic_coefficients", "conic_residual", "curve_points",
                 "probabilities_from_angle"),
    "classical": ("COMPOUND_STRATEGIES", "ClassicalMatrix", "ClassicalSolution",
                  "JointDistribution", "bilinear_payoff", "classical_matrix",
                  "desk_payoff", "independent_joint", "is_product_form", "marginals",
                  "solve_classical", "swapped_labels"),
    "equilibrium": ("EquilibriumResult", "grid_saddle_oracle", "payoff_gradient",
                    "payoff_kernel", "payoff_surface", "refine_saddle", "verify_saddle"),
    "casino": ("SimReport", "play_round", "rng_advance", "rng_output", "rng_uniform",
               "simulate", "simulate_joint"),
}
#: public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name, or a submodule, on first access."""
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
