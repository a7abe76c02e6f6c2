"""Evolution equations solved by global-in-time energy minimization.

The library discretizes d/dt(I u) + Lambda_t(u) + DPsi_t(lambda u) = 0
on a uniform grid, builds the nonnegative trajectory energy whose zeros
are exactly the implicit-Euler solutions, and minimizes it; an
independent Newton time stepper serves as the cross-check.
"""

from .applications import (
    build_anticoercive_fixture,
    build_heat,
    build_heat_core,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_scalar_decay,
    build_schrodinger,
    exact_heat_solution,
)
from .checks import ConditionReport, check_coercivity, check_growth, check_monotonicity
from .continuation import continuation_solve, default_schedule, energy_inequality_check
from .energy import energy, energy_balance_audit, energy_breakdown, energy_gradient
from .minimize import MinimizeOptions, SolveResult, minimize, verify_equivalence
from .operator import OperatorLambda
from .oracle import implicit_euler_solve, newton_solve_step
from .potential import ConjugateFailure, Potential
from .problem import ProblemSpec
from .trajectory import Trajectory, residual, time_derivative
from .triple import EvolutionTriple, XNorm, pairing

__version__ = "0.1.0"

__all__ = [
    "EvolutionTriple", "XNorm", "pairing",
    "Potential", "ConjugateFailure", "OperatorLambda",
    "ConditionReport", "check_growth", "check_monotonicity", "check_coercivity",
    "ProblemSpec", "Trajectory", "residual", "time_derivative",
    "energy", "energy_breakdown", "energy_gradient", "energy_balance_audit",
    "MinimizeOptions", "SolveResult", "minimize", "verify_equivalence",
    "implicit_euler_solve", "newton_solve_step",
    "continuation_solve", "default_schedule", "energy_inequality_check",
    "build_heat", "build_heat_core", "build_parabolic_divergence", "build_parabolic_nondivergence",
    "build_hyperbolic", "build_schrodinger", "build_navier_stokes_2d",
    "build_scalar_decay", "build_anticoercive_fixture", "exact_heat_solution",
    "__version__",
]
