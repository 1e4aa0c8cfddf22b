"""Reduced cylindrical-coordinate coefficients from a standard-frame jet.

After averaging, the dynamics near the destroyed equilibrium line are
governed in scaled cylindrical coordinates (r, z) by a planar system whose
coefficients are explicit combinations of second and third partial
derivatives of the frame-coordinate field.  This module evaluates those
combinations.  ``beta`` coefficients are parameter-free; ``gamma``
coefficients carry the first-order parameter dependence, several of them as
first/second-harmonic functions of the rotation phase.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import NotHopf
from .models import JetTable

#: tolerance for recognizing the rotation-block pattern in a standard jet
_PATTERN_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class HarmonicScalar:
    """Finite Fourier sum c0 + cos1*cos(phi) + sin1*sin(phi) + cos2*cos(2 phi) + sin2*sin(2 phi)."""

    c0: float = 0.0
    cos1: float = 0.0
    sin1: float = 0.0
    cos2: float = 0.0
    sin2: float = 0.0

    def __call__(self, phi: float) -> float:
        return (
            self.c0
            + self.cos1 * math.cos(phi)
            + self.sin1 * math.sin(phi)
            + self.cos2 * math.cos(2.0 * phi)
            + self.sin2 * math.sin(2.0 * phi)
        )


@dataclasses.dataclass(frozen=True)
class CylindricalCoefficients:
    """Coefficients of the reduced (r, z) dynamics.

    First-order structure: dr ~ beta2 r z, dz ~ mu gamma5 + beta5 r^2.
    Second-order terms involve beta1, beta3, beta4, beta6, gamma7 and the
    phase-dependent gamma1, gamma2, gamma3, gamma4, gamma6.
    """

    omega: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float
    beta6: float
    gamma1: HarmonicScalar
    gamma2: HarmonicScalar
    gamma3: HarmonicScalar
    gamma4: HarmonicScalar
    gamma5: float
    gamma6: HarmonicScalar
    gamma7: float


def _check_pattern(jet: JetTable) -> float:
    """Validate the Jacobian block pattern of a standard jet; return omega."""
    J = jet.state_derivs[1]
    omega = J[1, 0]
    if not omega > 0:
        raise NotHopf(f"standard jet must have positive rotation rate, got {omega!r}")
    pattern = np.array([[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]])
    defect = float(np.max(np.abs(J - pattern)))
    if defect > _PATTERN_TOL * max(1.0, omega):
        raise NotHopf(
            f"jet Jacobian deviates from the rotation pattern by {defect:.2e}; "
            "transform with a standard frame first"
        )
    return float(omega)


def compute_coefficients(jet: JetTable) -> CylindricalCoefficients:
    """Evaluate all reduced coefficients from a standard-frame jet at mu = 0."""
    omega = _check_pattern(jet)
    # d2[k][i][j] = d_i d_j F_k over frame axes (y1, y2, z) = (0, 1, 2), read at sorted
    # axes i <= j; d3 likewise; m0[k] = d_mu F_k, m1[k][i] = d_i d_mu F_k.
    d2, d3 = (t.tolist() for t in jet.state_derivs[2:])
    m0, m1 = (t.tolist() for t in jet.mu_derivs)

    beta1 = (d2[1][0][2] - d2[0][1][2]) / (2.0 * omega)
    beta2 = 0.5 * (d2[0][0][2] + d2[1][1][2])
    beta4 = 0.25 * (d3[0][0][2][2] + d3[1][1][2][2])
    beta5 = 0.25 * (d2[2][0][0] + d2[2][1][1])

    lap_y_f1 = d2[0][0][0] + d2[0][1][1]
    lap_y_f2 = d2[1][0][0] + d2[1][1][1]
    beta3 = (
        (d3[0][0][0][0] + d3[0][0][1][1] + d3[1][0][0][1] + d3[1][1][1][1]) / 16.0
        + (d2[0][0][1] * lap_y_f1 - d2[1][0][1] * lap_y_f2) / (16.0 * omega)
        + (d2[0][1][1] * d2[1][1][1] - d2[0][0][0] * d2[1][0][0])
        / (16.0 * omega)
        + (d2[1][1][2] - d2[0][0][2]) * d2[2][0][1] / (16.0 * omega)
        + (d2[0][1][2] + d2[1][0][2])
        * (d2[2][0][0] - d2[2][1][1])
        / (32.0 * omega)
    )
    beta6 = (
        0.25 * (d3[2][0][0][2] + d3[2][1][1][2])
        + (d2[2][1][2] * lap_y_f1 - d2[2][0][2] * lap_y_f2) / (4.0 * omega)
        + (d2[0][0][2] - d2[1][1][2]) * d2[2][0][1] / (4.0 * omega)
        + (d2[0][1][2] + d2[1][0][2])
        * (d2[2][1][1] - d2[2][0][0])
        / (8.0 * omega)
    )

    gamma5 = m0[2]
    gamma7 = m1[2][2]

    # mixed rotation/drift couplings shared by the harmonic formulas
    c_pp = d2[0][0][2]  # d_y1 d_z f^y1
    c_mm = d2[1][1][2]  # d_y2 d_z f^y2
    c_pm = d2[1][0][2]  # d_y1 d_z f^y2
    c_mp = d2[0][1][2]  # d_y2 d_z f^y1
    half = gamma5 / (2.0 * omega)

    gamma1 = _quadratic_harmonics(
        sin_sq=-m1[0][1],
        sin_cos=(m1[1][1] - m1[0][0]) - half * (c_mp + c_pm),
        cos_sq=m1[1][0] - half * (c_pp - c_mm),
        const=-half * (math.pi * c_mp - math.pi * c_pm - 0.5 * c_pp + 0.5 * c_mm),
    )
    gamma2 = HarmonicScalar(sin1=-m1[0][2], cos1=m1[1][2])
    gamma3 = _quadratic_harmonics(
        sin_sq=m1[1][1],
        sin_cos=(m1[0][1] + m1[1][0]) - half * (c_pp - c_mm),
        cos_sq=m1[0][0] + half * (c_mp + c_pm),
        const=half * (math.pi * c_pp + math.pi * c_mm - 0.5 * c_mp - 0.5 * c_pm),
    )
    gamma4 = HarmonicScalar(sin1=m1[1][2], cos1=m1[0][2])
    gamma6 = HarmonicScalar(
        sin1=m1[2][1] - (gamma5 / omega) * d2[2][0][2],
        cos1=m1[2][0] + (gamma5 / omega) * d2[2][1][2],
    )

    return CylindricalCoefficients(
        omega=omega,
        beta1=beta1,
        beta2=beta2,
        beta3=beta3,
        beta4=beta4,
        beta5=beta5,
        beta6=beta6,
        gamma1=gamma1,
        gamma2=gamma2,
        gamma3=gamma3,
        gamma4=gamma4,
        gamma5=gamma5,
        gamma6=gamma6,
        gamma7=gamma7,
    )


def _quadratic_harmonics(
    sin_sq: float, sin_cos: float, cos_sq: float, const: float
) -> HarmonicScalar:
    """Fold A sin^2 + B sin cos + C cos^2 + const into second harmonics."""
    return HarmonicScalar(
        c0=0.5 * sin_sq + 0.5 * cos_sq + const,
        cos2=0.5 * cos_sq - 0.5 * sin_sq,
        sin2=0.5 * sin_cos,
    )
