"""Two predators competing for one logistic prey.

At equal break-even concentrations (mu = 0) the system carries a line of
coexistence equilibria; perturbing the second predator's break-even value by
mu destroys the line and produces the periodic-orbit branch analyzed by the
rest of the package.  This module provides the model instance, the interior
Hopf point, closed-form reference values for the reduced coefficients in the
analytic chart, the admissible parameter region with a sampler, boundary
equilibria, and the comparison Lyapunov function.

States are (x1, x2, s): the two predator densities and the prey density,
with the prey rescaled to carrying capacity 1.  Parameters: per-predator
growth-rate ratios delta1, delta2 > 0, half-saturation constants alpha1,
alpha2, and the shared break-even concentration lam of predator 1; predator
2 breaks even at lam + mu.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .classifier import Classification, classify
from .coefficients import CylindricalCoefficients, HarmonicScalar
from .errors import (
    DegenerateAlphas,
    InvalidBounds,
    InvalidParams,
    NoCoexistencePossible,
    NonFinite,
    NotAdmissible,
)
from .models import ModelDefinition, builtin


@dataclasses.dataclass(frozen=True)
class EcoParams:
    """Parameter set for the two-predator/one-prey model."""

    delta1: float
    delta2: float
    lam: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if not self.delta1 > 0 or not self.delta2 > 0:
            raise InvalidParams("growth-rate ratios delta1, delta2 must be positive")
        if not self.alpha1 > 0 or not self.alpha2 > 0:
            raise InvalidParams("half-saturation constants must be positive")
        if not 0 < self.lam < 1:
            raise InvalidParams("break-even concentration must satisfy 0 < lam < 1")

    @property
    def l1(self) -> float:
        """1 - 2 lam - alpha1: positive iff predator 1 destabilizes its own subsystem."""
        return 1.0 - 2.0 * self.lam - self.alpha1

    @property
    def l2(self) -> float:
        """2 lam + alpha2 - 1: positive iff predator 2 stabilizes its own subsystem."""
        return 2.0 * self.lam + self.alpha2 - 1.0

    def admissible(self) -> bool:
        """Interior Hopf point with the oscillatory spectrum exists and the
        type analysis applies."""
        return (
            0.0 < self.lam < 0.5
            and 0.0 < self.alpha1 < 1.0 - 2.0 * self.lam
            and 1.0 - 2.0 * self.lam < self.alpha2 < 1.0
        )

    def require_admissible(self) -> None:
        if not self.admissible():
            raise NotAdmissible(
                f"(delta1={self.delta1}, delta2={self.delta2}, lam={self.lam}, "
                f"alpha1={self.alpha1}, alpha2={self.alpha2}) is outside the "
                "admissible region {0 < lam < 1/2, 0 < alpha1 < 1-2lam < alpha2 < 1}"
            )

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


def model(p: EcoParams) -> ModelDefinition:
    """Builtin predator-prey instance for these parameters."""
    return builtin("predator_prey", p.to_dict())


def omega_squared(p: EcoParams) -> float:
    """Rotation rate squared at the interior Hopf point."""
    return p.lam * (p.delta1 * p.l2 + p.delta2 * p.l1) / (p.l1 + p.l2)


def hopf_point(p: EcoParams) -> np.ndarray:
    """Interior point on the coexistence line where the spectrum is {0, +-i omega}."""
    if abs(p.alpha1 - p.alpha2) < 1e-12:
        raise DegenerateAlphas(
            "equal half-saturation constants make the interior formulas singular"
        )
    p.require_admissible()
    gap = p.alpha2 - p.alpha1
    x1 = (p.lam + p.alpha1) ** 2 * p.l2 / gap
    x2 = (p.lam + p.alpha2) ** 2 * p.l1 / gap
    return np.array([x1, x2, p.lam])


def h_polynomials(p: EcoParams) -> tuple[float, float]:
    """Cubic-coefficient building blocks H1, H2.

    Each is a correctly rounded sum of the same six products with the roles
    of alpha1 and alpha2 swapped and all signs flipped, so
    H2(lam, alpha1, alpha2) == -H1(lam, alpha2, alpha1) holds exactly in
    floating point.
    """
    lam, a1, a2 = p.lam, p.alpha1, p.alpha2
    h1 = math.fsum(
        [-lam, 2.0 * a2, lam * a1, -(8.0 * lam) * a2, -(2.0 * a1) * a2, -(2.0 * a2) * a2]
    )
    h2 = math.fsum(
        [lam, -2.0 * a1, -lam * a2, (8.0 * lam) * a1, (2.0 * a1) * a2, (2.0 * a1) * a1]
    )
    return h1, h2


def stability_margin(p: EcoParams) -> float:
    """Sign-definite combination deciding orbit stability; negative means stable.

    margin = (lam+alpha1) delta1 l2 H1 - (lam+alpha2) delta2 l1 H2.
    """
    h1, h2 = h_polynomials(p)
    return math.fsum(
        [
            (p.lam + p.alpha1) * p.delta1 * p.l2 * h1,
            -((p.lam + p.alpha2) * p.delta2 * p.l1 * h2),
        ]
    )


def closed_form_coefficients(p: EcoParams) -> dict[str, float]:
    """Reference reduced coefficients in the analytic chart at `hopf_point`.

    The chart's basis, in order: the prey axis (0, 0, 1); the Jacobian's
    prey column (a1, a2, 0) divided by omega, where
    a1 = delta1 (lam+alpha1) l2 / (l1+l2) and
    a2 = delta2 (lam+alpha2) l1 / (l1+l2); and the tangent of the
    equilibrium line scaled to x2-component 1, not to unit length, because
    the closed forms are tied to exactly that scaling.  The parameter drift
    there is d_mu F = (0, -a2, 0).
    """
    p.require_admissible()
    lam = p.lam
    d1, d2 = p.delta1, p.delta2
    l1, l2 = p.l1, p.l2
    q1, q2 = lam + p.alpha1, lam + p.alpha2
    lsum = l1 + l2
    w2 = omega_squared(p)
    w4 = w2 * w2
    if w4 == 0.0:
        raise NonFinite(f"closed forms underflow: omega^4 is 0 (omega^2 = {w2:.3g})")
    h1, h2 = h_polynomials(p)

    beta2 = -lam * lsum / (2.0 * q1 * q2**2)
    beta5 = lam * d1 * d2 * l1 * l2 / (2.0 * q1 * w2 * lsum)
    gamma5 = -lam * q2 * d1 * d2 * l1 * l2 / (w2 * lsum**2)
    beta3 = lam * (q1 * d1 * l2 * h1 - q2 * d2 * l1 * h2) / (
        8.0 * q1**2 * q2**2 * w2 * lsum
    ) + lam**2 * d1 * d2 * l1 * l2 * (q1 * d2 - q2 * d1) / (
        4.0 * q1**2 * q2**2 * w4 * lsum
    )
    beta6 = (
        lam**2 * (q1 + l1) * d1 * d2 * (d1 * l2 - d2 * l1) / (2.0 * q1**2 * q2**2 * w4)
    )
    gamma7 = -(lam**2) * d1 * d2 * (q1 * d1 * l2**2 - q2 * d2 * l1**2) / (
        q1 * q2 * w4 * lsum**2
    )
    sigma = (
        2.0 * beta3 * gamma5**2 - beta5 * gamma5 * gamma7 + beta6 * gamma5**2
    )
    return {
        "omega": math.sqrt(w2),
        "beta2": beta2,
        "beta3": beta3,
        "beta5": beta5,
        "beta6": beta6,
        "gamma5": gamma5,
        "gamma7": gamma7,
        "sigma": sigma,
        "H1": h1,
        "H2": h2,
        "margin": stability_margin(p),
    }


def classification_record(p: EcoParams) -> Classification:
    """Classify from the closed forms alone (fast path for region sweeps)."""
    return classify_closed_form(closed_form_coefficients(p))


def classify_closed_form(cf: Mapping[str, float]) -> Classification:
    """Classify from an already evaluated `closed_form_coefficients` record.

    Only the sign-carrying coefficients enter the classification, so the
    harmonic entries irrelevant to it are zeroed.
    """
    zero = HarmonicScalar()
    coeffs = CylindricalCoefficients(
        omega=cf["omega"],
        beta1=0.0,
        beta2=cf["beta2"],
        beta3=cf["beta3"],
        beta4=0.0,
        beta5=cf["beta5"],
        beta6=cf["beta6"],
        gamma1=zero,
        gamma2=zero,
        gamma3=zero,
        gamma4=zero,
        gamma5=cf["gamma5"],
        gamma6=zero,
        gamma7=cf["gamma7"],
    )
    return classify(coeffs)


#: predator densities at or below this count as extinct for `interior_guard`
INTERIOR_FLOOR = 1e-6


def interior_guard() -> Callable[[np.ndarray], bool]:
    """Predicate for states strictly inside the coexistence region."""

    def guard(X: np.ndarray) -> bool:
        return bool(X[0] > INTERIOR_FLOOR and X[1] > INTERIOR_FLOOR and 0.0 < X[2] < 1.0)

    return guard


# ---------------------------------------------------------------------------
# boundary structure
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundaryReport:
    """Equilibria of the invariant boundary planes at a given mu.

    ``hopf_indicators`` holds 2*lam_j + alpha_j - 1 for each single-predator
    equilibrium: a negative value means that equilibrium is an unstable
    spiral surrounded by a planar limit cycle in its own predator-prey plane.
    """

    washout: tuple[float, float, float]
    prey_only: tuple[float, float, float]
    single_predator: Mapping[str, tuple[float, float, float]]
    hopf_indicators: Mapping[str, float]


def boundary_report(p: EcoParams, mu: float = 0.0) -> BoundaryReport:
    """Boundary equilibria and their planar Hopf indicators."""
    lam1 = p.lam
    lam2 = p.lam + mu
    if not (0.0 < lam1 < 1.0 and 0.0 < lam2 < 1.0):
        raise NoCoexistencePossible(
            f"break-even concentrations need 0 < lam < 1, got lam1={lam1}, lam2={lam2}: at or "
            "above the prey carrying capacity 1 that predator cannot persist, and at or below 0 "
            "its single-predator equilibrium has no positive prey density"
        )
    e1 = ((lam1 + p.alpha1) * (1.0 - lam1), 0.0, lam1)
    e2 = (0.0, (lam2 + p.alpha2) * (1.0 - lam2), lam2)
    return BoundaryReport(
        washout=(0.0, 0.0, 0.0),
        prey_only=(0.0, 0.0, 1.0),
        single_predator={"predator1": e1, "predator2": e2},
        hopf_indicators={
            "predator1": 2.0 * lam1 + p.alpha1 - 1.0,
            "predator2": 2.0 * lam2 + p.alpha2 - 1.0,
        },
    )


# ---------------------------------------------------------------------------
# Lyapunov comparison function (mu = 0)
# ---------------------------------------------------------------------------


def lyapunov_value(p: EcoParams, X: Sequence[float]) -> float:
    """V = (1/delta1) log x1 - ((lam+alpha2)/(delta2 (lam+alpha1))) log x2."""
    x1, x2 = float(X[0]), float(X[1])
    if x1 <= 0 or x2 <= 0:
        raise InvalidBounds("the comparison function needs x1, x2 > 0")
    weight = (p.lam + p.alpha2) / (p.delta2 * (p.lam + p.alpha1))
    return math.log(x1) / p.delta1 - weight * math.log(x2)


def lyapunov_rate(p: EcoParams, X: Sequence[float]) -> float:
    """dV/dt along the mu = 0 flow; nonpositive wherever alpha1 < alpha2.

    Closed form: (alpha1 - alpha2)(s - lam)^2
    / ((lam+alpha1)(s+alpha1)(s+alpha2)).
    """
    s = float(X[2])
    return (
        (p.alpha1 - p.alpha2)
        * (s - p.lam) ** 2
        / ((p.lam + p.alpha1) * (s + p.alpha1) * (s + p.alpha2))
    )


# ---------------------------------------------------------------------------
# sampling the admissible region
# ---------------------------------------------------------------------------


#: relative distance of `sample_region` draws from the region boundary, which
#: keeps closed-form denominators well conditioned
SAMPLE_MARGIN = 0.05
#: default range of the log-uniform delta draws of `sample_region`
DELTA_BOUNDS = (0.05, 20.0)


def sample_region(
    n: int, seed: int, delta_bounds: tuple[float, float] = DELTA_BOUNDS
) -> list[EcoParams]:
    """Draw ``n >= 1`` admissible parameter sets from ``seed >= 0``,
    log-uniform in the deltas, at least `SAMPLE_MARGIN` (relative) inside
    the region boundary."""
    lo, hi = delta_bounds
    if not (0.0 < lo < hi):
        raise InvalidBounds(f"delta bounds must satisfy 0 < lo < hi, got {delta_bounds}")
    if n < 1:
        raise InvalidBounds(f"the sample count must be at least 1, got {n}")
    if seed < 0:
        raise InvalidBounds(f"the seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lam = float(rng.uniform(0.5 * SAMPLE_MARGIN, 0.5 * (1.0 - SAMPLE_MARGIN)))
        width = 1.0 - 2.0 * lam
        alpha1 = float(width * rng.uniform(SAMPLE_MARGIN, 1.0 - SAMPLE_MARGIN))
        alpha2 = float(width + (1.0 - width) * rng.uniform(SAMPLE_MARGIN, 1.0 - SAMPLE_MARGIN))
        d1, d2 = np.exp(rng.uniform(math.log(lo), math.log(hi), size=2))
        params = EcoParams(
            delta1=float(d1), delta2=float(d2), lam=lam, alpha1=alpha1, alpha2=alpha2
        )
        assert params.admissible()
        out.append(params)
    return out
