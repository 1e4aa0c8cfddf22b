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

from . import dop853, models
from .classifier import PredictedOrbit, predict_orbit
from .coefficients import CylindricalCoefficients
from .errors import (
    InvalidBounds,
    LeftDomain,
    NoConvergence,
    NumericalFailure,
    SingularShooting,
)
from .frame import StandardFrame
from .models import ModelDefinition

#: integrator tolerance for one-off orbit solves
ORBIT_RTOL = 1e-11
#: integrator tolerance for continuation sweeps
SWEEP_RTOL = 1e-9
#: integrator tolerance of the averaged-drift and truncated-dynamics probes
PROBE_RTOL = 1e-10
#: Newton budget of one shooting solve
SHOOTING_MAX_ITER = 25
#: shooting iterates must stay within this many seed amplitudes of the seed
DRIFT_FACTOR = 3.0
#: closure tolerance of each continuation point
BRANCH_NEWTON_TOL = 1e-10
#: Floquet moduli must clear the unit circle by this margin for a verdict
FLOQUET_MARGIN = 1e-6


@dataclasses.dataclass(frozen=True)
class Trajectory:
    """Dense integration result."""

    t: np.ndarray
    states: np.ndarray
    sol: object | None = None


def integrate(
    model: ModelDefinition,
    mu: float,
    x0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = SWEEP_RTOL,
    n_samples: int = 1000,
    dense: bool = True,
) -> Trajectory:
    """Integrate the model forward over ``t_span`` with `dop853`.

    With ``dense=True`` the states are sampled from the dense interpolant at
    ``n_samples`` equally spaced times.  With ``dense=False`` the trajectory
    holds the solver's own step times and states, and ``n_samples`` is
    ignored.
    """
    x0 = np.asarray(x0, dtype=float)
    sol = dop853.solve(lambda t, X: model.rhs(X, mu), t_span, x0, rtol)
    if not dense:
        return Trajectory(t=sol.t, states=sol.y.T)
    ts = np.linspace(t_span[0], t_span[1], n_samples)
    return Trajectory(t=ts, states=sol.sol(ts).T, sol=sol.sol)


@dataclasses.dataclass(frozen=True)
class ShootingSeed:
    """Starting guess for single shooting: a point, a period, a size."""

    anchor: np.ndarray
    period: float
    scale: float | None = None


def _as_seed(seed: ShootingSeed | PredictedOrbit) -> ShootingSeed:
    if isinstance(seed, ShootingSeed):
        return seed
    if seed.anchor is None:
        raise NoConvergence(
            "orbit prediction has no anchor; predict with a frame to seed shooting"
        )
    return ShootingSeed(
        anchor=np.asarray(seed.anchor, dtype=float),
        period=seed.period,
        scale=seed.amplitude_scale,
    )


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


def _radius(states: np.ndarray) -> float:
    """Largest distance of the sampled states from their centroid."""
    return float(np.max(np.linalg.norm(states - states.mean(axis=0), axis=1)))


def _flow_with_monodromy(
    model: ModelDefinition,
    mu: float,
    x0: np.ndarray,
    T: float,
    rtol: float,
):
    """Integrate state, variational matrix, and divergence quadrature,
    with the dense interpolant of all three."""
    field, jac = model.rhs, models.jacobian_fn(model)

    def rhs(t: float, Y: np.ndarray) -> np.ndarray:
        x = Y[:3]
        J = jac(x, mu)
        out = np.empty(13)
        out[:3] = field(x, mu)
        np.matmul(J, Y[3:12].reshape(3, 3), out=out[3:12].reshape(3, 3))
        out[12] = J[0, 0] + J[1, 1] + J[2, 2]
        return out

    Y0 = np.concatenate([x0, np.eye(3).ravel(), [0.0]])
    sol = dop853.solve(rhs, (0.0, T), Y0, rtol)
    YT = sol.y[:, -1]
    return YT[:3], YT[3:12].reshape(3, 3), YT[12], sol.sol


def find_periodic_orbit(
    model: ModelDefinition,
    mu: float,
    seed: ShootingSeed | PredictedOrbit,
    rtol: float = ORBIT_RTOL,
    newton_tol: float = 1e-11,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> PeriodicOrbit:
    """Newton shooting for a periodic orbit near a seed (a `ShootingSeed`, or
    a `PredictedOrbit` made with a frame).

    The phase condition pins the solution to the plane through the seed
    anchor orthogonal to the flow there.  The solve is deliberately local:
    iterates that wander more than `DRIFT_FACTOR` seed amplitudes from the
    seed (no limit for a seed without a scale), leave the model domain, or
    violate ``guard`` raise `NoConvergence` instead of silently landing on a
    distant attractor.

    Every Newton trial is one variational solve, reused as the next iterate
    when accepted; a trial whose solve fails (`NonFinite`, `StepFailure`) is
    rejected and halved.  The converged solve's dense output gives `states`.
    """
    if not (math.isfinite(mu) and n_samples >= 1 and rtol > 0 and newton_tol > 0):
        raise InvalidBounds(
            "shooting needs a finite mu, n_samples >= 1 and positive tolerances, got "
            f"mu={mu}, n_samples={n_samples}, rtol={rtol}, newton_tol={newton_tol}"
        )
    sd = _as_seed(seed)
    x = np.asarray(sd.anchor, dtype=float).copy()
    T = float(sd.period)
    if T <= 0:
        raise NoConvergence("seed period must be positive")
    T0 = T
    drift_cap = DRIFT_FACTOR * sd.scale if sd.scale else math.inf

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

    def closure(P: np.ndarray, PT: np.ndarray) -> np.ndarray:
        return np.append(PT - P, normal @ (P - anchor0))

    check_iterate(x, T)
    xT, monodromy, trace_int, dense = _flow_with_monodromy(model, mu, x, T, rtol)
    for _ in range(SHOOTING_MAX_ITER):
        R = closure(x, xT)
        res_norm = float(np.max(np.abs(R)))
        if res_norm < newton_tol:
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
        for _halving in range(8):
            x_new = x + scale * delta[:3]
            T_new = T + scale * delta[3]
            try:
                check_iterate(x_new, T_new)
                trial = _flow_with_monodromy(model, mu, x_new, T_new, rtol)
            except NumericalFailure:
                scale *= 0.5
                continue
            if float(np.linalg.norm(closure(x_new, trial[0]))) < base or scale <= 1.0 / 64.0:
                x, T = x_new, T_new
                xT, monodromy, trace_int, dense = trial
                break
            scale *= 0.5
        else:
            raise NoConvergence("shooting stalled: no residual decrease")
    else:
        raise NoConvergence(
            f"shooting did not reach tolerance in {SHOOTING_MAX_ITER} iterations "
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


def floquet_stability(orbit: PeriodicOrbit) -> StabilityVerdict:
    """Classify orbit stability from the nontrivial Floquet moduli."""
    mults = list(orbit.multipliers)
    trivial_idx = min(range(3), key=lambda i: abs(mults[i] - 1.0))
    trivial_defect = abs(mults[trivial_idx] - 1.0)
    others = [abs(m) for i, m in enumerate(mults) if i != trivial_idx]
    others.sort(reverse=True)
    lo, hi = 1.0 - FLOQUET_MARGIN, 1.0 + FLOQUET_MARGIN
    stable = bool(all(m < lo for m in others))
    marginal = bool(any(lo <= m <= hi for m in others))
    unstable_count = int(sum(1 for m in others if m > hi))
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
        return _radius(orbit.states)
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


def _detect_cycle(model: ModelDefinition, mu: float, x: np.ndarray) -> ShootingSeed:
    """Estimate a cycle from recurrence on a transversal section over a
    window of 300 time units."""
    F = models.evaluate(model, x, mu)
    speed = float(np.linalg.norm(F))
    if speed < 1e-12:
        raise NoConvergence("trajectory settled on an equilibrium, not a cycle")
    normal = F / speed
    traj = integrate(model, mu, x, (0.0, 300.0), n_samples=20000)
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
    anchor = np.asarray(traj.sol(crossings[-1]))
    loop = integrate(model, mu, anchor, (0.0, period), n_samples=400)
    return ShootingSeed(anchor=anchor, period=period, scale=_radius(loop.states))


def continue_branch(
    model: ModelDefinition,
    mu_values: Iterable[float],
    coeffs: CylindricalCoefficients | None = None,
    frame: StandardFrame | None = None,
    seed_strategy: str = "predict",
    seed_state: Sequence[float] | None = None,
    settle_time: float = 1500.0,
    guard: Callable[[np.ndarray], bool] | None = None,
    n_samples: int = 256,
) -> Branch:
    """Natural continuation of the orbit branch over a mu grid.

    The first point is seeded either from the asymptotic prediction
    (``seed_strategy="predict"``, needs coeffs and frame) or by settling a
    trajectory onto the attractor and measuring its recurrence
    (``seed_strategy="simulate"``, needs seed_state).  Later points reuse the
    previous orbit with a secant extrapolation of anchor and period.  Every
    integration uses `SWEEP_RTOL`, every shooting solve `BRANCH_NEWTON_TOL`.

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
        settled = integrate(model, grid[0], seed_state, (0.0, settle_time), dense=False)
        seed = _detect_cycle(model, grid[0], settled.states[-1])
    else:
        raise InvalidBounds(f"unknown seed strategy {seed_strategy!r}")

    points: list[BranchPoint] = []
    lost_at: float | None = None
    for mu in grid:
        if points:
            last = points[-1]
            anchor, period = last.orbit.anchor, last.orbit.period
            if len(points) > 1:
                before = points[-2]
                ratio = (mu - last.mu) / (last.mu - before.mu)
                anchor = anchor + ratio * (last.orbit.anchor - before.orbit.anchor)
                period = period + ratio * (last.orbit.period - before.orbit.period)
            seed = ShootingSeed(anchor=anchor, period=period, scale=max(last.amplitude, 1e-6))
        try:
            orbit = find_periodic_orbit(
                model,
                mu,
                seed,
                rtol=SWEEP_RTOL,
                newton_tol=BRANCH_NEWTON_TOL,
                guard=guard,
                n_samples=n_samples,
            )
        except NumericalFailure:
            lost_at = mu
            break
        points.append(BranchPoint(mu=mu, amplitude=_amplitude(orbit, frame, mu), orbit=orbit))

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
    XT = integrate(model, mu, X0, (0.0, T), PROBE_RTOL, dense=False).states[-1]
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
) -> TruncatedRun:
    """Integrate the truncated (r, z) dynamics in slow time tau, sampled at
    2000 equally spaced times.

    The expansion is valid for |z| < r < 1: a start outside that wedge raises
    `InvalidBounds`, and the run raises `LeftDomain` at the first time the
    trajectory reaches its boundary.
    """
    if not epsilon > 0:
        raise InvalidBounds("epsilon must be positive")
    horizon = t_final if t_final is not None else 10.0 / epsilon
    y0 = np.asarray(start, dtype=float)
    if not (horizon > 0 and np.all(np.isfinite([epsilon, mu_tilde, horizon, *y0]))):
        raise InvalidBounds("epsilon, mu_tilde, start and t_final must be finite, t_final positive")
    rhs = _truncated_rhs(coeffs, epsilon, mu_tilde)

    def validity(tau: float, y: np.ndarray) -> float:
        r, z = y
        return min(r - abs(z), 1.0 - r)

    if not validity(0.0, y0) > 0:
        raise InvalidBounds(f"start r = {y0[0]:g}, z = {y0[1]:g} is outside the wedge |z| < r < 1")
    sol = dop853.solve(rhs, (0.0, horizon), y0, PROBE_RTOL, validity)
    if sol.event_fired:
        raise LeftDomain(
            f"truncated trajectory left the validity wedge at tau = {sol.t[-1]:.4g}"
        )
    taus = np.linspace(0.0, sol.t[-1], 2000)
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


def compare_with_full_model(
    model: ModelDefinition,
    frame: StandardFrame,
    run: TruncatedRun,
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
    traj = integrate(model, mu, X0, (0.0, t_final), PROBE_RTOL, n_samples=6000)
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
