"""Reference computations only the tests use.

Each one checks a claim of the package against an independent route: the
closed-form coefficients in their analytic chart, the mu = 0 equilibrium
line of the predator-prey model, the averaged transverse drift of the full
flow, and the region sampler drawn one parameter set at a time.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from hybridhopf import eco
from hybridhopf.coefficients import CylindricalCoefficients
from hybridhopf.eco import EcoParams
from hybridhopf.frame import StandardFrame
from hybridhopf.models import ModelDefinition
from hybridhopf.verify import PROBE_RTOL, integrate


def coexistence_line(p: EcoParams, x1_values: Sequence[float]) -> np.ndarray:
    """Points of the mu = 0 equilibrium line, parameterized by x1.

    The line is {x1/(lam+alpha1) + x2/(lam+alpha2) = 1 - lam, s = lam}.
    """
    pts = []
    for x1 in x1_values:
        x2 = (p.lam + p.alpha2) * (1.0 - p.lam - x1 / (p.lam + p.alpha1))
        pts.append((float(x1), x2, p.lam))
    return np.array(pts)


def sample_region_loop(
    n: int, seed: int, delta_bounds: tuple[float, float] = eco.DELTA_BOUNDS
) -> list[EcoParams]:
    """`eco.sample_region` as a loop over draws, with one generator call per
    uniform and each delta pair exponentiated on its own."""
    lo, hi = delta_bounds
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lam = float(rng.uniform(0.5 * eco.SAMPLE_MARGIN, 0.5 * (1.0 - eco.SAMPLE_MARGIN)))
        width = 1.0 - 2.0 * lam
        alpha1 = float(width * rng.uniform(eco.SAMPLE_MARGIN, 1.0 - eco.SAMPLE_MARGIN))
        alpha2 = float(
            width + (1.0 - width) * rng.uniform(eco.SAMPLE_MARGIN, 1.0 - eco.SAMPLE_MARGIN)
        )
        d1, d2 = np.exp(rng.uniform(math.log(lo), math.log(hi), size=2))
        params = EcoParams(
            delta1=float(d1), delta2=float(d2), lam=lam, alpha1=alpha1, alpha2=alpha2
        )
        assert params.admissible()
        out.append(params)
    return out


def _rotation_block(p: EcoParams) -> tuple[float, float, float]:
    """(a1, a2, omega): Jacobian columns J[:, 2] = (a1, a2, 0) and the rate."""
    denom = p.l1 + p.l2
    a1 = p.delta1 * (p.lam + p.alpha1) * p.l2 / denom
    a2 = p.delta2 * (p.lam + p.alpha2) * p.l1 / denom
    return a1, a2, math.sqrt(eco.omega_squared(p))


def closed_form_frame(p: EcoParams) -> StandardFrame:
    """The analytic chart in which `eco.closed_form_coefficients` hold.

    e1 = (0, 0, 1), e2 = (a1/omega, a2/omega, 0), and e3 is the line tangent
    normalized to second component 1 (not unit length; the closed forms are
    tied to exactly this scaling).
    """
    a1, a2, omega = _rotation_block(p)
    e1 = np.array([0.0, 0.0, 1.0])
    e2 = np.array([a1 / omega, a2 / omega, 0.0])
    e3 = np.array([-(p.lam + p.alpha1) / (p.lam + p.alpha2), 1.0, 0.0])
    basis = np.column_stack([e1, e2, e3])
    # first-order parameter drift: d_mu F = (0, -a2, 0) at the Hopf point
    return StandardFrame.from_drift(eco.hopf_point(p), basis, np.array([0.0, -a2, 0.0]), omega)


@dataclasses.dataclass(frozen=True)
class DriftReport:
    """Average transverse drift over one rotation vs. its prediction."""

    measured: float
    predicted: float
    sign_match: bool
    relative_error: float


def averaged_drift_check(
    model: ModelDefinition,
    frame: StandardFrame,
    coeffs: CylindricalCoefficients,
    mu: float,
    radius: float,
) -> DriftReport:
    """Compare the measured average of dz over one rotation with
    gamma5 * mu + beta5 * radius^2, read from ``coeffs`` (computed in
    ``frame``); both below 1e-10 count as a match."""
    predicted = coeffs.gamma5 * mu + coeffs.beta5 * radius**2

    X0 = frame.from_frame((radius, 0.0, 0.0), mu)
    T = 2.0 * math.pi / frame.omega
    XT = integrate(model, mu, X0, (0.0, T), PROBE_RTOL).y[:, -1]
    z_end = frame.to_frame(XT, mu)[2]
    measured = float(z_end) / T

    if abs(measured) < 1e-10 and abs(predicted) < 1e-10:
        match = True
        rel = 0.0
    else:
        match = math.copysign(1.0, measured) == math.copysign(1.0, predicted)
        rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return DriftReport(
        measured=measured, predicted=predicted, sign_match=match, relative_error=rel
    )
