"""Exception types shared across the package.

Each base carries the command line's exit code and stderr prefix; errors
under the root alone exit 1 with prefix "error".
"""


class HybridHopfError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1
    prefix = "error"


class UsageError(HybridHopfError):
    """The configuration or an argument is malformed or out of range."""

    exit_code = 64


class NumericalFailure(HybridHopfError):
    """A numerical method failed or reached no verdict."""

    prefix = "numerical failure"


class AssumptionViolation(HybridHopfError):
    """A quantity the classification relies on is within tolerance of zero."""

    exit_code = 2
    prefix = "assumption violation"


class Degenerate(HybridHopfError):
    """The focus quantity vanishes to tolerance; no stability verdict exists."""

    exit_code = 3
    prefix = "degenerate"


class NonFinite(NumericalFailure):
    """A vector-field evaluation produced NaN or infinity."""


class UnknownModel(UsageError):
    """Requested builtin model name is not in the catalog."""


class InvalidParams(UsageError):
    """Model parameters are incomplete or out of range."""


class NoConvergence(NumericalFailure):
    """An iterative solve did not reach its tolerance.

    For periodic-orbit shooting this is reported, not fatal: failure to
    converge from a seed is evidence of orbit absence near that seed.
    """


class NotHopf(NumericalFailure):
    """The located equilibrium does not carry the {0, +-i*omega} spectrum."""


class DefectiveSpectrum(HybridHopfError):
    """Eigenvalues at the candidate point are not simple."""


class WrongDirection(NumericalFailure):
    """Requested parameter sign has no predicted orbit branch."""


class StepFailure(NumericalFailure):
    """Adaptive integrator step size underflowed."""


class SingularShooting(NumericalFailure):
    """The shooting Jacobian is rank-deficient."""


class LeftDomain(NumericalFailure):
    """A truncated-form trajectory exited its validity region."""


class NotAdmissible(UsageError):
    """Parameters are outside the admissible region."""


class DegenerateAlphas(HybridHopfError):
    """Half-saturation constants coincide; the interior Hopf formula is singular."""


class InvalidBounds(UsageError):
    """An interval argument is empty or out of range."""
