"""Numerical verification of predicted periodic orbits.

Everything here treats the vector field as ground truth and checks the
asymptotic predictions against it: single shooting with variational
equations (monodromy comes from the same solve, with a Liouville trace
quadrature as an internal consistency check), Floquet stability, natural
continuation in the parameter, an averaged-drift sanity probe, and direct
integration of the truncated reduced dynamics for comparison with the full
flow.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from . import models
from .classifier import PredictedOrbit, predict_orbit
from .coefficients import CylindricalCoefficients, compute_coefficients
from .errors import (
    InvalidBounds,
    LeftDomain,
    NoConvergence,
    NonFinite,
    SingularShooting,
    StepFailure,
)
from .frame import StandardFrame, standard_jet
from .models import ModelDefinition

#: integrator tolerance for one-off orbit solves
ORBIT_RTOL = 1e-11
#: integrator tolerance for continuation sweeps
SWEEP_RTOL = 1e-9
#: Floquet moduli must clear the unit circle by this margin for a verdict
FLOQUET_MARGIN = 1e-6


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Dense integration result."""

    t: np.ndarray
    states: np.ndarray
    sol: object | None = None

    def at(self, t: float) -> np.ndarray:
        if self.sol is None:
            raise ValueError("trajectory was not stored with dense output")
        return np.asarray(self.sol(t))


def integrate(
    model: ModelDefinition,
    mu: float,
    x0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = SWEEP_RTOL,
    atol: float | None = None,
    n_samples: int = 1000,
    dense: bool = True,
) -> Trajectory:
    """Integrate the model with a high-order explicit scheme.

    With ``dense=True`` the states are sampled from the dense interpolant at
    ``n_samples`` equally spaced times.  With ``dense=False`` the trajectory
    holds the solver's own step times and states, and ``n_samples`` is
    ignored.
    """
    x0 = np.asarray(x0, dtype=float)
    sol = solve_ivp(
        lambda t, X: model.rhs(X, mu),
        t_span,
        x0,
        method="DOP853",
        rtol=rtol,
        atol=atol if atol is not None else rtol * 1e-2,
        dense_output=dense,
    )
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    if dense:
        ts = np.linspace(t_span[0], t_span[1], n_samples)
        states = sol.sol(ts).T
    else:
        ts, states = sol.t, sol.y.T
    if not np.all(np.isfinite(states)):
        raise NonFinite("integration produced non-finite states")
    return Trajectory(t=ts, states=states, sol=sol.sol if dense else None)


@dataclasses.dataclass(frozen=True)
class ShootingSeed:
    """Starting guess for single shooting: a point, a period, a size."""

    anchor: np.ndarray
    period: float
    scale: float | None = None


def _as_seed(seed) -> ShootingSeed:
    if isinstance(seed, ShootingSeed):
        return seed
    if isinstance(seed, PredictedOrbit):
        if seed.anchor is None:
            raise NoConvergence(
                "orbit prediction has no states; predict with a frame to seed shooting"
            )
        return ShootingSeed(
            anchor=np.asarray(seed.anchor, dtype=float),
            period=seed.period,
            scale=seed.amplitude_scale,
        )
    parts = tuple(seed)
    if len(parts) == 3:
        anchor, period, scale = parts
        return ShootingSeed(
            anchor=np.asarray(anchor, dtype=float),
            period=float(period),
            scale=float(scale),
        )
    anchor, period = parts
    return ShootingSeed(anchor=np.asarray(anchor, dtype=float), period=float(period))


@dataclasses.dataclass(frozen=True)
class PeriodicOrbit:
    """A converged periodic solution with its monodromy data.

    ``residual`` is the closure error |Phi_T(x) - x| of the returned orbit;
    ``liouville_defect`` compares det(monodromy) to the exponential of the
    integrated divergence and measures variational-solve quality.
    """

    mu: float
    anchor: np.ndarray
    period: float
    times: np.ndarray
    states: np.ndarray
    monodromy: np.ndarray
    multipliers: tuple[complex, complex, complex]
    residual: float
    liouville_defect: float

    def radius(self) -> float:
        centroid = self.states.mean(axis=0)
        return float(np.max(np.linalg.norm(self.states - centroid, axis=1)))


def _flow_with_monodromy(
    model: ModelDefinition,
    mu: float,
    x0: np.ndarray,
    T: float,
    rtol: float,
):
    """Integrate state, variational matrix, and divergence quadrature,
    with the dense interpolant of all three."""
    jac = models.jacobian_fn(model, mu)

    def rhs(t: float, Y: np.ndarray) -> np.ndarray:
        x = Y[:3]
        Phi = Y[3:12].reshape(3, 3)
        J = jac(x)
        out = np.empty(13)
        out[:3] = model.rhs(x, mu)
        out[3:12] = (J @ Phi).ravel()
        out[12] = J[0, 0] + J[1, 1] + J[2, 2]
        return out

    Y0 = np.concatenate([x0, np.eye(3).ravel(), [0.0]])
    sol = solve_ivp(
        rhs,
        (0.0, T),
        Y0,
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
        dense_output=True,
    )
    if not sol.success:
        raise StepFailure(f"variational integration failed: {sol.message}")
    YT = sol.y[:, -1]
    if not np.all(np.isfinite(YT)):
        raise NonFinite("variational integration produced non-finite values")
    return YT[:3], YT[3:12].reshape(3, 3), YT[12], sol.sol


def _flow(
    model: ModelDefinition, mu: float, x0: np.ndarray, T: float, rtol: float
) -> np.ndarray:
    sol = solve_ivp(
        lambda t, X: model.rhs(X, mu),
        (0.0, T),
        x0,
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
    )
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    return sol.y[:, -1]


def find_periodic_orbit(
    model: ModelDefinition,
    mu: float,
    seed,
    rtol: float = ORBIT_RTOL,
    newton_tol: float = 1e-11,
    max_iter: int = 25,
    drift_cap: float | None = None,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> PeriodicOrbit:
    """Newton shooting for a periodic orbit near a seed.

    The phase condition pins the solution to the plane through the seed
    anchor orthogonal to the flow there.  The solve is deliberately local:
    iterates that wander more than ``drift_cap`` from the seed (default three
    seed amplitudes), leave the model domain, or violate ``guard`` raise
    `NoConvergence` instead of silently landing on a distant attractor.

    Every Newton trial is one variational solve, reused as the next iterate
    when accepted; a trial whose solve fails (`NonFinite`, `StepFailure`) is
    rejected and halved.  The converged solve's dense output gives `states`.
    """
    sd = _as_seed(seed)
    x = np.asarray(sd.anchor, dtype=float).copy()
    T = float(sd.period)
    if T <= 0:
        raise NoConvergence("seed period must be positive")
    T0 = T
    if drift_cap is None:
        drift_cap = 3.0 * sd.scale if sd.scale else math.inf

    F0 = models.evaluate(model, x, mu)
    speed = float(np.linalg.norm(F0))
    if speed < 1e-14:
        raise NoConvergence("seed anchor is an equilibrium; no phase direction")
    normal = F0 / speed
    anchor0 = x.copy()

    def check_iterate(P: np.ndarray, T_val: float) -> None:
        if float(np.linalg.norm(P - anchor0)) > drift_cap:
            raise NoConvergence(
                f"shooting iterate drifted beyond the trust radius {drift_cap:.3g}"
            )
        if not (0.2 * T0 <= T_val <= 5.0 * T0):
            raise NoConvergence(f"shooting period left the trust window ({T_val:.3g})")
        if not model.in_domain(P):
            raise NoConvergence("shooting iterate left the model domain")
        if guard is not None and not guard(P):
            raise NoConvergence("shooting iterate violated the interior guard")

    check_iterate(x, T)
    xT, monodromy, trace_int, dense = _flow_with_monodromy(model, mu, x, T, rtol)
    converged = False
    res_norm = math.inf
    for _ in range(max_iter):
        R = np.append(xT - x, normal @ (x - anchor0))
        res_norm = float(np.max(np.abs(R)))
        if res_norm < newton_tol:
            converged = True
            break
        A = np.zeros((4, 4))
        A[:3, :3] = monodromy - np.eye(3)
        A[:3, 3] = models.evaluate(model, xT, mu)
        A[3, :3] = normal
        try:
            delta = np.linalg.solve(A, -R)
        except np.linalg.LinAlgError as exc:
            raise SingularShooting(f"shooting matrix is singular: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularShooting("shooting step is non-finite")

        # backtracking on the closure residual
        base = float(np.linalg.norm(R))
        scale = 1.0
        accepted = False
        for _halving in range(8):
            x_new = x + scale * delta[:3]
            T_new = T + scale * delta[3]
            try:
                check_iterate(x_new, T_new)
                trial = _flow_with_monodromy(model, mu, x_new, T_new, rtol)
            except (NoConvergence, NonFinite, StepFailure):
                scale *= 0.5
                continue
            R_new = np.append(trial[0] - x_new, normal @ (x_new - anchor0))
            if float(np.linalg.norm(R_new)) < base or scale <= 1.0 / 64.0:
                x, T = x_new, T_new
                xT, monodromy, trace_int, dense = trial
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise NoConvergence("shooting stalled: no residual decrease")
    if not converged:
        raise NoConvergence(
            f"shooting did not reach tolerance in {max_iter} iterations "
            f"(residual {res_norm:.2e})"
        )

    residual = float(np.max(np.abs(xT - x)))
    times = np.linspace(0.0, T, n_samples)
    states = dense(times)[:3].T
    det = float(np.linalg.det(monodromy))
    expected = math.exp(trace_int)
    liouville = abs(det - expected) / max(abs(det), abs(expected), 1e-300)
    multipliers = tuple(sorted(np.linalg.eigvals(monodromy), key=lambda z: -abs(z)))
    return PeriodicOrbit(
        mu=mu,
        anchor=x,
        period=T,
        times=times,
        states=states,
        monodromy=monodromy,
        multipliers=multipliers,  # type: ignore[arg-type]
        residual=residual,
        liouville_defect=liouville,
    )


@dataclasses.dataclass(frozen=True)
class StabilityVerdict:
    """Floquet verdict for one orbit.

    The multiplier nearest 1 is the trivial one along the flow;
    ``trivial_defect`` records how far it actually is from 1.
    """

    stable: bool
    marginal: bool
    unstable_count: int
    trivial_defect: float
    nontrivial_moduli: tuple[float, float]

    def to_document(self) -> dict:
        return dataclasses.asdict(self)


def floquet_stability(orbit: PeriodicOrbit, margin: float = FLOQUET_MARGIN) -> StabilityVerdict:
    """Classify orbit stability from the nontrivial Floquet moduli."""
    mults = list(orbit.multipliers)
    trivial_idx = min(range(3), key=lambda i: abs(mults[i] - 1.0))
    trivial_defect = abs(mults[trivial_idx] - 1.0)
    others = [abs(m) for i, m in enumerate(mults) if i != trivial_idx]
    others.sort(reverse=True)
    stable = bool(all(m < 1.0 - margin for m in others))
    marginal = bool(any(1.0 - margin <= m <= 1.0 + margin for m in others))
    unstable_count = int(sum(1 for m in others if m > 1.0 + margin))
    return StabilityVerdict(
        stable=stable,
        marginal=marginal,
        unstable_count=unstable_count,
        trivial_defect=float(trivial_defect),
        nontrivial_moduli=(float(others[0]), float(others[1])),
    )


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BranchPoint:
    mu: float
    amplitude: float
    orbit: PeriodicOrbit


@dataclasses.dataclass(frozen=True)
class AmplitudeFit:
    """Least-squares power law amplitude ~ prefactor * |mu|^exponent."""

    exponent: float
    prefactor: float
    n_points: int


@dataclasses.dataclass(frozen=True)
class Branch:
    """Continuation result; ``lost_at`` is the first unreached mu, if any."""

    points: tuple[BranchPoint, ...]
    lost_at: float | None
    fit: AmplitudeFit | None

    def complete(self) -> bool:
        return self.lost_at is None


def _amplitude(
    orbit: PeriodicOrbit, frame: StandardFrame | None, mu: float
) -> float:
    if frame is None:
        return orbit.radius()
    coords = frame.to_frame(orbit.states, mu)
    return float(np.max(np.linalg.norm(coords[:, :2], axis=1)))


def _fit_amplitudes(points: Sequence[BranchPoint]) -> AmplitudeFit | None:
    if len(points) < 2:
        return None
    chosen = sorted(points, key=lambda p: abs(p.mu))[:4]
    logs_mu = np.log([abs(p.mu) for p in chosen])
    logs_amp = np.log([p.amplitude for p in chosen])
    exponent, intercept = np.polyfit(logs_mu, logs_amp, 1)
    return AmplitudeFit(
        exponent=float(exponent),
        prefactor=float(math.exp(intercept)),
        n_points=len(chosen),
    )


def _detect_cycle(
    model: ModelDefinition,
    mu: float,
    x: np.ndarray,
    window: float = 300.0,
    rtol: float = SWEEP_RTOL,
) -> ShootingSeed:
    """Estimate a cycle from recurrence on a transversal section."""
    F = models.evaluate(model, x, mu)
    speed = float(np.linalg.norm(F))
    if speed < 1e-12:
        raise NoConvergence("trajectory settled on an equilibrium, not a cycle")
    normal = F / speed
    traj = integrate(model, mu, x, (0.0, window), rtol=rtol, n_samples=20000)
    g = (traj.states - x) @ normal
    crossings = []
    for i in range(len(g) - 1):
        if g[i] < 0.0 <= g[i + 1]:
            # linear refinement of the upward crossing time
            t0, t1 = traj.t[i], traj.t[i + 1]
            frac = -g[i] / (g[i + 1] - g[i])
            crossings.append(t0 + frac * (t1 - t0))
    if len(crossings) < 3:
        raise NoConvergence("no recurrent crossings; trajectory is not cycling")
    gaps = np.diff(crossings)
    period = float(np.median(gaps[-5:]))
    anchor = traj.at(crossings[-1])
    loop = integrate(model, mu, anchor, (0.0, period), rtol=rtol, n_samples=400)
    centroid = loop.states.mean(axis=0)
    scale = float(np.max(np.linalg.norm(loop.states - centroid, axis=1)))
    return ShootingSeed(anchor=anchor, period=period, scale=scale)


def continue_branch(
    model: ModelDefinition,
    mu_values: Iterable[float],
    coeffs: CylindricalCoefficients | None = None,
    frame: StandardFrame | None = None,
    seed_strategy: str = "predict",
    seed_state: Sequence[float] | None = None,
    settle_time: float = 1500.0,
    rtol: float = SWEEP_RTOL,
    newton_tol: float = 1e-10,
    drift_factor: float = 3.0,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> Branch:
    """Natural continuation of the orbit branch over a mu grid.

    The first point is seeded either from the asymptotic prediction
    (``seed_strategy="predict"``, needs coeffs and frame) or by settling a
    trajectory onto the attractor and measuring its recurrence
    (``seed_strategy="simulate"``, needs seed_state).  Later points reuse the
    previous orbit with a secant extrapolation of anchor and period.

    Continuation stops at the first point where shooting fails; the partial
    branch is returned with ``lost_at`` set.
    """
    grid = [float(m) for m in mu_values]
    if not grid:
        raise InvalidBounds("mu grid is empty")
    if any(m == 0.0 for m in grid):
        raise InvalidBounds("mu grid must not contain zero")
    signs = {math.copysign(1.0, m) for m in grid}
    if len(signs) > 1:
        raise InvalidBounds("mu grid must stay on one side of zero")
    mags = [abs(m) for m in grid]
    if any(b <= a for a, b in zip(mags, mags[1:])):
        raise InvalidBounds("mu grid must be strictly monotone in |mu|")

    if seed_strategy == "predict":
        if coeffs is None or frame is None:
            raise InvalidBounds("predict seeding needs coefficients and a frame")
        prediction = predict_orbit(coeffs, grid[0], frame)
        seed: ShootingSeed = _as_seed(prediction)
    elif seed_strategy == "simulate":
        if seed_state is None:
            raise InvalidBounds("simulate seeding needs a seed_state")
        settled = _flow(model, grid[0], np.asarray(seed_state, dtype=float), settle_time, rtol)
        seed = _detect_cycle(model, grid[0], settled, rtol=rtol)
    else:
        raise InvalidBounds(f"unknown seed strategy {seed_strategy!r}")

    points: list[BranchPoint] = []
    lost_at: float | None = None
    prev: tuple[float, PeriodicOrbit] | None = None
    prev2: tuple[float, PeriodicOrbit] | None = None
    for mu in grid:
        if prev is not None:
            anchor = prev[1].anchor
            period = prev[1].period
            if prev2 is not None and prev[0] != prev2[0]:
                ratio = (mu - prev[0]) / (prev[0] - prev2[0])
                anchor = anchor + ratio * (prev[1].anchor - prev2[1].anchor)
                period = period + ratio * (prev[1].period - prev2[1].period)
            scale = max(points[-1].amplitude, 1e-6)
            seed = ShootingSeed(anchor=anchor, period=period, scale=scale)
        try:
            orbit = find_periodic_orbit(
                model,
                mu,
                seed,
                rtol=rtol,
                newton_tol=newton_tol,
                drift_cap=(drift_factor * seed.scale) if seed.scale else None,
                guard=guard,
                n_samples=n_samples,
            )
        except (NoConvergence, SingularShooting, NonFinite, StepFailure):
            lost_at = mu
            break
        points.append(BranchPoint(mu=mu, amplitude=_amplitude(orbit, frame, mu), orbit=orbit))
        prev2 = prev
        prev = (mu, orbit)

    return Branch(points=tuple(points), lost_at=lost_at, fit=_fit_amplitudes(points))


# ---------------------------------------------------------------------------
# reduced-dynamics probes
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DriftReport:
    """Average transverse drift over one rotation vs. its prediction."""

    measured: float
    predicted: float
    sign_match: bool
    relative_error: float

    def to_document(self) -> dict:
        return dataclasses.asdict(self)


def averaged_drift_check(
    model: ModelDefinition,
    frame: StandardFrame,
    mu: float,
    radius: float,
    rtol: float = 1e-10,
    zero_tol: float = 1e-10,
) -> DriftReport:
    """Compare the measured average of dz over one rotation with
    gamma5 * mu + beta5 * radius^2."""
    jet = models.jet(model, frame.origin, 0.0)
    coeffs = compute_coefficients(standard_jet(jet, frame))
    predicted = coeffs.gamma5 * mu + coeffs.beta5 * radius**2

    X0 = frame.from_frame((radius, 0.0, 0.0), mu)
    T = 2.0 * math.pi / frame.omega
    XT = _flow(model, mu, X0, T, rtol)
    z_end = frame.to_frame(XT, mu)[2]
    measured = float(z_end) / T

    if abs(measured) < zero_tol and abs(predicted) < zero_tol:
        match = True
        rel = 0.0
    else:
        match = math.copysign(1.0, measured) == math.copysign(1.0, predicted)
        rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return DriftReport(
        measured=measured, predicted=predicted, sign_match=match, relative_error=rel
    )


@dataclasses.dataclass(frozen=True)
class TruncatedRun:
    """Trajectory of the truncated reduced dynamics in slow time."""

    epsilon: float
    mu_tilde: float
    tau: np.ndarray
    r: np.ndarray
    z: np.ndarray
    r0: float | None
    equilibrium_residual: float | None


def _truncated_rhs(
    coeffs: CylindricalCoefficients, epsilon: float, mu_tilde: float
) -> Callable[[float, np.ndarray], np.ndarray]:
    b1, b2, b3 = coeffs.beta1, coeffs.beta2, coeffs.beta3
    b4, b5, b6 = coeffs.beta4, coeffs.beta5, coeffs.beta6
    g5, g7 = coeffs.gamma5, coeffs.gamma7
    omega = coeffs.omega
    e, e2 = epsilon, epsilon * epsilon

    def rhs(tau: float, y: np.ndarray) -> np.ndarray:
        r, z = y
        phi = omega * tau
        dr = e * b2 * r * z + e2 * (
            mu_tilde * coeffs.gamma3(phi) * r
            + mu_tilde * coeffs.gamma4(phi) * z
            + b3 * r**3
            - (b1 * b2 - b4) * r * z**2
        )
        dz = e * (mu_tilde * g5 + b5 * r**2) + e2 * (
            mu_tilde * coeffs.gamma6(phi) * r
            - mu_tilde * (b1 * g5 - g7) * z
            - (b1 * b5 - b6) * r**2 * z
        )
        return np.array([dr, dz])

    return rhs


def simulate_truncated(
    coeffs: CylindricalCoefficients,
    epsilon: float,
    mu_tilde: float,
    start: tuple[float, float],
    t_final: float | None = None,
    rtol: float = 1e-10,
    n_samples: int = 2000,
    enforce_validity: bool = True,
) -> TruncatedRun:
    """Integrate the truncated (r, z) dynamics in slow time tau.

    The expansion is valid for 0 < |z| < r < 1; with ``enforce_validity`` the
    run raises `LeftDomain` as soon as the trajectory exits that wedge.
    """
    if epsilon <= 0:
        raise InvalidBounds("epsilon must be positive")
    horizon = t_final if t_final is not None else 10.0 / epsilon
    rhs = _truncated_rhs(coeffs, epsilon, mu_tilde)

    def validity(tau: float, y: np.ndarray) -> float:
        r, z = y
        return min(r - abs(z), 1.0 - r)

    validity.terminal = enforce_validity  # type: ignore[attr-defined]
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        np.asarray(start, dtype=float),
        method="DOP853",
        rtol=rtol,
        atol=rtol * 1e-2,
        dense_output=True,
        events=validity,
    )
    if not sol.success:
        raise StepFailure(f"truncated integration failed: {sol.message}")
    if enforce_validity and sol.status == 1:
        raise LeftDomain(
            f"truncated trajectory left the validity wedge at tau = {sol.t[-1]:.4g}"
        )
    taus = np.linspace(0.0, sol.t[-1], n_samples)
    vals = sol.sol(taus)

    r0 = None
    residual = None
    ratio = -mu_tilde * coeffs.gamma5 / coeffs.beta5
    if ratio > 0:
        r0 = math.sqrt(ratio)
        first_order = epsilon * (mu_tilde * coeffs.gamma5 + coeffs.beta5 * r0**2)
        residual = abs(first_order)
    return TruncatedRun(
        epsilon=epsilon,
        mu_tilde=mu_tilde,
        tau=taus,
        r=vals[0],
        z=vals[1],
        r0=r0,
        equilibrium_residual=residual,
    )


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    """Sup-norm deviation between full flow and truncated run, matched in phase."""

    deviation: float
    tau_covered: float

    def to_document(self) -> dict:
        return dataclasses.asdict(self)


def compare_with_full_model(
    model: ModelDefinition,
    frame: StandardFrame,
    run: TruncatedRun,
    rtol: float = 1e-10,
) -> ComparisonReport:
    """Integrate the full model from the matching initial point and measure
    the deviation of scaled (r, z) against the truncated run.

    Slow time is matched through the rotation phase: tau(t) = phase(t)/omega,
    which removes the O(epsilon) period error from the comparison.
    """
    eps = run.epsilon
    mu = eps * eps * run.mu_tilde
    u0 = np.array([eps * run.r[0], 0.0, eps * run.z[0]])
    X0 = frame.from_frame(u0, mu)

    tau_final = float(run.tau[-1])
    t_final = tau_final * 1.2 + 5.0
    traj = integrate(model, mu, X0, (0.0, t_final), rtol=rtol, n_samples=6000)
    coords = frame.to_frame(traj.states, mu)
    r_full = np.linalg.norm(coords[:, :2], axis=1) / eps
    z_full = coords[:, 2] / eps
    phase = np.unwrap(np.arctan2(coords[:, 1], coords[:, 0]))
    tau_full = (phase - phase[0]) / frame.omega

    mask = (tau_full >= 0.0) & (tau_full <= tau_final)
    if not np.any(mask):
        raise NoConvergence("full trajectory covers no positive phase interval")
    r_ref = np.interp(tau_full[mask], run.tau, run.r)
    z_ref = np.interp(tau_full[mask], run.tau, run.z)
    deviation = float(
        max(
            np.max(np.abs(r_full[mask] - r_ref)),
            np.max(np.abs(z_full[mask] - z_ref)),
        )
    )
    return ComparisonReport(deviation=deviation, tau_covered=float(tau_full[mask][-1]))
