"""GKZ annihilator systems and numerical period functions.

Build the A-hypergeometric (Euler + box) operator system attached to a
polynomial-map scenario, evaluate the associated function of the
coefficients (cycle integral, tracked root, or global residue sum), and
verify numerically that every operator annihilates it.
"""

__version__ = "0.1.0"

from .analytic_paths import (
    ArcSegment,
    CycleSpec,
    CycleTerm,
    EvaluationError,
    IntegrandOverflowError,
    LineSegment,
    NonResolvableBranchError,
    Path1D,
    PathSingularityError,
    RaySegment,
    RootAnchor,
)
from .gkz_system import (
    BoxOperator,
    EulerOperator,
    GkzSystem,
    build_system,
    corrupt_eigenvalue,
    render_system,
)
from .period_functions import (
    BranchAmbiguityError,
    MultipleRootError,
    NearDiscriminantError,
    PeriodEvaluationError,
    PeriodFunction,
    RootEscapeError,
    UnconvergedQuadratureError,
    eval_gl_residue,
    eval_period,
    eval_root,
)
from .quadrature import IntegralResult, integrate_cycle, integrate_term
from .scenario import (
    EvalSettings,
    FactorSupport,
    ScenarioError,
    ScenarioSpec,
    validate_scenario,
)
from .scenario_io import (
    builtin_scenario_names,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    scenario_to_document,
)
from .support_lattice import (
    BoxEnumeration,
    ExponentMatrix,
    LatticeBasis,
    build_exponent_matrix,
    enumerate_box_vectors,
    integer_kernel_basis,
)
from .verifier import (
    DerivativeCache,
    DerivativeOrderError,
    ResidualReport,
    apply_operator,
    differentiate,
    verification_points,
    verify,
)

__all__ = [
    "__version__",
    "ArcSegment",
    "BoxEnumeration",
    "BoxOperator",
    "BranchAmbiguityError",
    "CycleSpec",
    "CycleTerm",
    "DerivativeCache",
    "DerivativeOrderError",
    "EulerOperator",
    "EvalSettings",
    "EvaluationError",
    "ExponentMatrix",
    "FactorSupport",
    "GkzSystem",
    "IntegralResult",
    "IntegrandOverflowError",
    "LatticeBasis",
    "LineSegment",
    "MultipleRootError",
    "NearDiscriminantError",
    "NonResolvableBranchError",
    "Path1D",
    "PathSingularityError",
    "PeriodEvaluationError",
    "PeriodFunction",
    "RaySegment",
    "ResidualReport",
    "RootAnchor",
    "RootEscapeError",
    "ScenarioError",
    "ScenarioSpec",
    "UnconvergedQuadratureError",
    "apply_operator",
    "build_exponent_matrix",
    "build_system",
    "builtin_scenario_names",
    "corrupt_eigenvalue",
    "differentiate",
    "dumps_scenario",
    "enumerate_box_vectors",
    "eval_gl_residue",
    "eval_period",
    "eval_root",
    "integer_kernel_basis",
    "integrate_cycle",
    "integrate_term",
    "load_scenario",
    "loads_scenario",
    "render_system",
    "scenario_to_document",
    "validate_scenario",
    "verification_points",
    "verify",
]
