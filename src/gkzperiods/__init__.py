"""GKZ annihilator systems and numerical period functions.

Build the A-hypergeometric (Euler + box) operator system attached to a
polynomial-map scenario, evaluate the associated function of the
coefficients (cycle integral, tracked root, or global residue sum), and
verify numerically that every operator annihilates it.

The top level holds the pipeline scenario -> system -> phi -> verify and
the two error bases; everything else is reached through its module.
"""

__version__ = "0.1.0"

from .analytic_paths import EvaluationError
from .gkz_system import build_system, corrupt_eigenvalue
from .period_functions import PeriodFunction
from .scenario import ScenarioError
from .scenario_io import load_scenario, loads_scenario
from .support_lattice import integer_kernel_basis
from .verifier import verify

__all__ = [
    "__version__",
    "EvaluationError",
    "PeriodFunction",
    "ScenarioError",
    "build_system",
    "corrupt_eigenvalue",
    "integer_kernel_basis",
    "load_scenario",
    "loads_scenario",
    "verify",
]
