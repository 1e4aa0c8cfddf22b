"""Reference computations only the tests use.

Each one checks a claim of the package against an independent route: the
closed-form coefficients in their analytic chart, the mu = 0 equilibrium
line of the predator-prey model, the averaged transverse drift of the full
flow, the region sampler drawn one parameter set at a time, and a
finite-difference jet probed one state at a time.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from hybridhopf import eco
from hybridhopf.coefficients import CylindricalCoefficients
from hybridhopf.eco import EcoParams
from hybridhopf.frame import StandardFrame
from hybridhopf.models import (
    _MU_INDICES,
    STATE_DIM,
    JetTable,
    ModelDefinition,
    StateIndex,
    evaluate,
    jet,
    state_multi_indices,
)
from hybridhopf.verify import PROBE_RTOL, integrate

#: central-difference stencils (offset -> weight); divide by h**order
FD_STENCILS: dict[int, dict[int, float]] = {
    0: {0: 1.0},
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}
#: steps relative to max(1, |coordinate|): stencils up to order two, order
#: three (larger, since the quotient divides by h^3) and the parameter
FD_STEP = 1e-4
FD_STEP_THIRD = 1e-3
FD_STEP_MU = 1e-4
#: accuracy the loop's jet claims for each entry; its third-order entries
#: meet it only where the field is small (`tests/test_models.py` allows them
#: FD_THIRD_ORDER_TOLERANCE)
FD_TOLERANCE = 1e-6


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


def _fd_tensor(
    f: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
    orders: Sequence[int],
    steps: np.ndarray,
) -> np.ndarray:
    """Tensor-product central difference of given per-axis orders."""
    total = np.zeros(STATE_DIM)
    for stencil in itertools.product(*(FD_STENCILS[o].items() for o in orders)):
        offsets, weights = zip(*stencil)
        total += math.prod(weights) * f(point + np.array(offsets) * steps)
    scale = 1.0
    for o, h in zip(orders, steps):
        scale *= h**o
    return total / scale


def _richardson(quotient: Callable, h):
    """One Richardson step on an O(h^2) difference ``quotient`` of step h."""
    return (4.0 * quotient(h / 2.0) - quotient(h)) / 3.0


def field_jet(model: ModelDefinition, point: Sequence[float], mu: float) -> JetTable:
    """The jet `models.jet` takes from ``model.field`` in finite-difference
    mode, which drops the exact jet and the Jacobian."""
    return jet(dataclasses.replace(model, exact_jet=None, jacobian=None), point, mu)


def finite_difference_jet_loop(
    model: ModelDefinition, point: Sequence[float], mu: float
) -> JetTable:
    """Order-3 jet by central differences at two steps, Richardson-
    extrapolated, with every probe a separate `evaluate` call: the state
    block, then the parameter block from the first-order stencils at shifted
    mu.  It reads only ``model.rhs``, independently of ``model.field``."""
    X = np.asarray(point, dtype=float)
    mu = float(mu)

    def at(m: float) -> Callable[[np.ndarray], np.ndarray]:
        return lambda P: evaluate(model, P, m)

    def partial(m: float, idx: StateIndex, base: float) -> np.ndarray:
        h = np.array([base * max(1.0, abs(X[i])) for i in range(STATE_DIM)])
        return _richardson(lambda steps: _fd_tensor(at(m), X, idx, steps), h)

    entries: dict[StateIndex, np.ndarray] = {(0, 0, 0): at(mu)(X)}
    for idx in state_multi_indices():
        entries[idx] = partial(mu, idx, FD_STEP_THIRD if sum(idx) >= 3 else FD_STEP)

    def mu_derivative(state_idx: StateIndex) -> np.ndarray:
        def entry_at(m: float) -> np.ndarray:
            if state_idx == (0, 0, 0):
                return at(m)(X)
            return partial(m, state_idx, FD_STEP)

        def first(step: float) -> np.ndarray:
            return (entry_at(mu + step) - entry_at(mu - step)) / (2.0 * step)

        return _richardson(first, FD_STEP_MU * max(1.0, abs(mu)))

    mu_entries = [mu_derivative(idx) for idx in _MU_INDICES]
    return JetTable.from_entries(X, mu, [*entries.values(), *mu_entries], FD_TOLERANCE)
