"""Best uniform approximation by quasiaffine model classes.

The fitting pipeline: parse target and basis expressions (`expr`), sample
them on a finite grid (`grid`), describe the model (`models`), reduce each
deviation level to an emptiness LP (`linearize`), decide it with a simplex
solver (`simplex`), and bisect on the level (`bisection`).  Univariate fits
can be certified through alternation counts (`oscillation`).  A separate
finite toolkit (`axiomatic`) computes support sets, hulls, convexity
extensions and Caratheodory numbers for set-theoretic convexity structures.
"""

from .bisection import FitResult, certify_bracket, expected_iterations, fit
from .expr import evaluate, parse, to_source
from .grid import Grid, SampledFunction, enumerate_points, sample
from .linearize import LevelProblem, LinearProgram, build_feasibility_lp
from .models import (
    BasisSpec,
    Coefficients,
    ModelClass,
    MonotoneOuter,
    default_initial_coefficients,
    evaluate_model_values,
)
from .oscillation import (
    AlternationReport,
    check_polynomial_optimality,
    check_rational_optimality,
    compute_defect,
    extract_alternations,
)
from .simplex import LpSolution, solve

__version__ = "0.1.0"

__all__ = [
    "AlternationReport",
    "BasisSpec",
    "Coefficients",
    "FitResult",
    "Grid",
    "LevelProblem",
    "LinearProgram",
    "LpSolution",
    "ModelClass",
    "MonotoneOuter",
    "SampledFunction",
    "build_feasibility_lp",
    "certify_bracket",
    "check_polynomial_optimality",
    "check_rational_optimality",
    "compute_defect",
    "default_initial_coefficients",
    "enumerate_points",
    "evaluate",
    "evaluate_model_values",
    "expected_iterations",
    "extract_alternations",
    "fit",
    "parse",
    "sample",
    "solve",
    "to_source",
]
