"""Classification of the bifurcation from the reduced coefficients.

The destroyed equilibrium line gives rise to a periodic-orbit branch on one
side of mu = 0.  Its character is decided by sign data:

* xi = sign(beta2 * beta5) separates the hyperbolic case (xi = +1, the
  reduced equilibrium is a saddle and the orbit inherits a two-dimensional
  unstable manifold) from the elliptic case (xi = -1).
* In the elliptic case the first-order terms are neutral and the verdict
  comes from the focus quantity
  sigma = 2 beta3 gamma5^2 - beta5 gamma5 gamma7 + beta6 gamma5^2:
  negative means an asymptotically stable orbit, positive an unstable one
  with a three-dimensional unstable manifold.
* The branch lives where r0^2 = -mu gamma5 / beta5 is positive, i.e. for
  mu of sign -sign(beta5 gamma5); amplitude grows like sqrt(|mu|) while the
  period approaches 2 pi / omega.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .coefficients import CylindricalCoefficients
from .errors import AssumptionViolation, Degenerate, NonFinite, WrongDirection
from .frame import StandardFrame

TYPE_HYPERBOLIC = "H"
TYPE_ELLIPTIC_STABLE = "ES"
TYPE_ELLIPTIC_UNSTABLE = "EU"
#: the types in the order of `Decision.label`
LABELS = (TYPE_HYPERBOLIC, TYPE_ELLIPTIC_STABLE, TYPE_ELLIPTIC_UNSTABLE)

#: coefficients smaller than this cannot carry a sign decision
SIGN_THRESHOLD = 1e-6
#: relative threshold below which the focus quantity counts as zero
DEGENERACY_RTOL = 1e-9
#: dimension of the orbit's unstable manifold for each type
_UNSTABLE_DIMENSION = {TYPE_HYPERBOLIC: 2, TYPE_ELLIPTIC_STABLE: 0, TYPE_ELLIPTIC_UNSTABLE: 3}


def focus_quantity(coeffs: CylindricalCoefficients) -> float:
    """sigma = 2 beta3 gamma5^2 - beta5 gamma5 gamma7 + beta6 gamma5^2."""
    g5 = coeffs.gamma5
    return (
        2.0 * coeffs.beta3 * g5 * g5
        - coeffs.beta5 * g5 * coeffs.gamma7
        + coeffs.beta6 * g5 * g5
    )


class Decision(NamedTuple):
    """The sign and degeneracy analysis of `classify`, on floats or elementwise.

    ``accepted`` is where `classify` returns a type, ``LABELS[label]``;
    elsewhere the first false flag among ``finite``, ``clear`` (beta2,
    beta5, gamma5 away from zero) and ``decided`` names its error.
    """

    sigma: float
    finite: bool
    clear: tuple[bool, bool, bool]
    decided: bool
    accepted: bool
    label: int
    scale: float
    resolution: float


def _array_max(*values: np.ndarray) -> np.ndarray:
    return functools.reduce(np.maximum, values)


def sign_decision(coeffs: CylindricalCoefficients) -> Decision:
    """Decide sign and degeneracy for coefficients that are floats or equal-length
    float arrays; `classify` and `eco.classify_region` both decide here."""
    b2, b3, b5, b6 = coeffs.beta2, coeffs.beta3, coeffs.beta5, coeffs.beta6
    g5, g7 = coeffs.gamma5, coeffs.gamma7
    largest = _array_max if isinstance(b2, np.ndarray) else max
    sigma = focus_quantity(coeffs)
    finite = (abs(b2) < math.inf) & (abs(b5) < math.inf) & (abs(g5) < math.inf) & (
        abs(sigma) < math.inf
    )
    clear = (abs(b2) > SIGN_THRESHOLD, abs(b5) > SIGN_THRESHOLD, abs(g5) > SIGN_THRESHOLD)
    g5sq = g5 * g5
    scale = largest(abs(2.0 * b3 * g5sq), abs(b5 * g5 * g7), abs(b6 * g5sq), 1e-300)
    # the sign of sigma is only meaningful if at least one of its three
    # constituents stands clear of the round-off left in the reduction;
    # measure them against the coefficients that are guaranteed nonzero
    resolution = SIGN_THRESHOLD * largest(abs(b2), abs(b5), abs(g5), coeffs.omega)
    resolved = largest(abs(b3), abs(b6), abs(g7)) > resolution
    decided = (b2 * b5 > 0) | (resolved & (abs(sigma) > DEGENERACY_RTOL * scale))
    return Decision(
        sigma,
        finite,
        clear,
        decided,
        finite & clear[0] & clear[1] & clear[2] & decided,
        (b2 * b5 <= 0) * (1 + (sigma >= 0)),
        scale,
        resolution,
    )


@dataclasses.dataclass(frozen=True)
class Classification:
    """Outcome of the sign analysis.

    ``direction`` is the sign of mu on which the orbit branch exists.
    ``mu_validity_hint`` estimates where the asymptotics stop being
    trustworthy: |mu| ~ 0.1 |beta5 / gamma5| keeps the predicted radius an
    order of magnitude inside the unit frame box.
    """

    label: str
    xi: int
    sigma: float
    direction: int
    orbit_stable: bool
    unstable_dimension: int
    omega: float
    mu_validity_hint: float


def _direction(beta5: float, gamma5: float) -> int:
    """Sign of mu on which r0^2 = -mu gamma5 / beta5 is positive."""
    return -1 if beta5 * gamma5 > 0 else 1


def classify(coeffs: CylindricalCoefficients) -> Classification:
    """Decide the bifurcation type carried by the reduced coefficients.

    A non-finite beta2, beta5, gamma5 or sigma raises `NonFinite`.
    """
    b2, b5, g5 = coeffs.beta2, coeffs.beta5, coeffs.gamma5
    decision = sign_decision(coeffs)
    sigma = decision.sigma
    if not decision.accepted:
        if not decision.finite:
            raise NonFinite(
                f"cannot classify non-finite coefficients: beta2 = {b2}, beta5 = {b5}, "
                f"gamma5 = {g5}, sigma = {sigma}"
            )
        small = [n for n, clear in zip(("beta2", "beta5", "gamma5"), decision.clear) if not clear]
        if small:
            raise AssumptionViolation(
                f"cannot classify: {', '.join(small)} within {SIGN_THRESHOLD:g} of zero"
            )
        raise Degenerate(
            f"focus quantity {sigma:.3e} is indistinguishable from zero "
            f"(largest term {decision.scale:.3e}, coefficient resolution "
            f"{decision.resolution:.3e}); stability undecidable at this order"
        )
    label = LABELS[decision.label]
    return Classification(
        label=label,
        xi=1 if label == TYPE_HYPERBOLIC else -1,
        sigma=sigma,
        direction=_direction(b5, g5),
        orbit_stable=label == TYPE_ELLIPTIC_STABLE,
        unstable_dimension=_UNSTABLE_DIMENSION[label],
        omega=coeffs.omega,
        mu_validity_hint=0.1 * abs(b5 / g5),
    )


@dataclasses.dataclass(frozen=True)
class PredictedOrbit:
    """Leading-order periodic orbit for one parameter value.

    ``r0`` is the radius in frame coordinates; ``anchor`` is the loop's
    point at phase 0, u = (r0, 0, 0), in original coordinates when a frame
    is supplied.  ``scale`` converts r0 into an original-coordinate size and
    is the trust radius for shooting, as in `verify.ShootingSeed`.
    """

    mu: float
    r0: float
    period: float
    anchor: np.ndarray | None
    scale: float

def predict_orbit(
    coeffs: CylindricalCoefficients,
    mu: float,
    frame: StandardFrame | None = None,
) -> PredictedOrbit:
    """Leading-order orbit prediction at one parameter value.

    Raises `WrongDirection` when mu is on the side without a branch; the
    caller should consult `classify` for the valid sign.
    """
    b5, g5 = coeffs.beta5, coeffs.gamma5
    if abs(b5) <= SIGN_THRESHOLD or abs(g5) <= SIGN_THRESHOLD:
        raise AssumptionViolation("cannot predict an orbit with beta5 or gamma5 ~ 0")
    r0_sq = -mu * g5 / b5
    if r0_sq <= 0.0:
        raise WrongDirection(
            f"no orbit predicted at mu = {mu:g}; the branch lives on "
            f"{direction_label(_direction(b5, g5))}"
        )
    r0 = math.sqrt(r0_sq)
    period = 2.0 * math.pi / coeffs.omega

    anchor = None
    scale = r0
    if frame is not None:
        scale = r0 * float(np.linalg.norm(frame.basis[:, :2], 2))
        anchor = frame.from_frame((r0, 0.0, 0.0), mu)
    return PredictedOrbit(mu=mu, r0=r0, period=period, anchor=anchor, scale=scale)


def saddle_exponents(
    coeffs: CylindricalCoefficients, mu: float
) -> tuple[complex, complex]:
    """Eigenvalues of the first-order reduced system at its equilibrium.

    The linearization at (r0, 0) is [[0, beta2 r0], [2 beta5 r0, 0]] with
    eigenvalues +-sqrt(2 beta2 beta5) r0: real for the hyperbolic type,
    imaginary for the elliptic one.
    """
    r0 = predict_orbit(coeffs, mu).r0
    product = 2.0 * coeffs.beta2 * coeffs.beta5
    root = complex(math.sqrt(product)) if product >= 0 else 1j * math.sqrt(-product)
    return root * r0, -root * r0


def direction_label(direction: int) -> str:
    return "mu > 0" if direction > 0 else "mu < 0"
