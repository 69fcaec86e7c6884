"""Best uniform approximation by quasiaffine model classes.

The fitting pipeline: parse target and basis expressions (`expr`), sample
them on a finite grid (`grid`), describe the model (`models`), reduce each
deviation level to an emptiness LP (`linearize`), decide it with a simplex
solver (`simplex`), and bisect on the level (`bisection`).  Univariate fits
can be certified through alternation counts (`oscillation`).  A separate
finite toolkit (`axiomatic`) computes support sets, hulls, convexity
extensions and Caratheodory numbers for set-theoretic convexity structures.

`import quasifit` loads no submodule.  A public name such as `quasifit.fit`
imports its defining module on first access (PEP 562), and so does a
submodule named as an attribute (`quasifit.simplex`), so a program that uses
only `axiomatic` never loads the fitting pipeline.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "FitResult": "bisection",
    "certify_bracket": "bisection",
    "expected_iterations": "bisection",
    "fit": "bisection",
    "evaluate": "expr",
    "parse": "expr",
    "Grid": "grid",
    "SampledFunction": "grid",
    "enumerate_points": "grid",
    "sample": "grid",
    "LevelProblem": "linearize",
    "LinearProgram": "linearize",
    "build_feasibility_lp": "linearize",
    "BasisSpec": "models",
    "Coefficients": "models",
    "ModelClass": "models",
    "MonotoneOuter": "models",
    "default_initial_coefficients": "models",
    "evaluate_model_values": "models",
    "AlternationReport": "oscillation",
    "check_polynomial_optimality": "oscillation",
    "check_rational_optimality": "oscillation",
    "compute_defect": "oscillation",
    "extract_alternations": "oscillation",
    "LpSolution": "simplex",
    "solve": "simplex",
}
_SUBMODULES = ("axiomatic", "bisection", "cli", "expr", "floattext", "grid", "linearize", "models",
               "oscillation", "simplex")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's machinery, which `python -X importtime` reports
    # and `importlib.import_module` bypasses; it binds the submodule here
    __import__(f"{__name__}.{module}")
    if module == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[module], name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
