"""Detection, classification, and verification of periodic orbits that are
born when a parameter perturbation destroys a line of equilibria at a point
with eigenvalues {0, +-i omega}.

Workflow: define a model (`models`), locate the distinguished point and build
the standard frame (`frame`), evaluate the reduced coefficients
(`coefficients`), classify the bifurcation (`classifier`), and verify the
predicted orbits against the full flow (`verify`).  The `eco` module carries
the two-predator/one-prey application with closed-form reference values.

`import hybridhopf` does not load `verify` or its integrator `dop853`: the
module `__getattr__` serves `verify`, and each name of `__all__` not bound at
import (`find_periodic_orbit`, ...), by importing `verify` on first use.
"""

__version__ = "0.1.0"

import importlib

from .classifier import Classification, PredictedOrbit, classify, predict_orbit
from .coefficients import CylindricalCoefficients, HarmonicScalar, compute_coefficients
from .eco import EcoParams
from .frame import (
    AssumptionReport,
    StandardFrame,
    build_standard_frame,
    check_assumptions,
    locate_hopf_point,
    standard_jet,
)
from .models import (
    JetTable,
    ModelDefinition,
    builtin,
    evaluate,
    from_config,
    jet,
    polynomial_model,
)

__all__ = [
    "__version__",
    "AssumptionReport",
    "Branch",
    "Classification",
    "CylindricalCoefficients",
    "EcoParams",
    "HarmonicScalar",
    "JetTable",
    "ModelDefinition",
    "PeriodicOrbit",
    "PredictedOrbit",
    "ShootingSeed",
    "StabilityVerdict",
    "StandardFrame",
    "build_standard_frame",
    "builtin",
    "check_assumptions",
    "classify",
    "compare_with_full_model",
    "compute_coefficients",
    "continue_branch",
    "evaluate",
    "find_periodic_orbit",
    "floquet_stability",
    "from_config",
    "integrate",
    "jet",
    "locate_hopf_point",
    "polynomial_model",
    "predict_orbit",
    "simulate_truncated",
    "standard_jet",
]


def __getattr__(name: str):
    # PEP 562: called only for names the imports above leave unbound
    if name == "verify" or name in __all__:
        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
